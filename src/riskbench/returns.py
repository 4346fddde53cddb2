"""Return-window data model and the sample statistics shared by all estimators.

A :class:`ReturnWindow` holds the most recent ``n`` daily simple returns of
``k`` assets. All values are immutable after construction, so windows and
derived statistics are safe to share across threads and worker processes.
:func:`rolling_moments` computes the same statistics for every trailing
window of a return history at once, for the batched rolling engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.linalg._umath_linalg import cholesky_lo

from .errors import DimensionError, ParameterError, ValidationError

__all__ = [
    "ReturnWindow",
    "PortfolioWeights",
    "SampleStats",
    "sample_stats",
    "short_window_std",
    "RollingMoments",
    "rolling_moments",
    "portfolio_return",
    "equal_weights",
]

WEIGHT_SUM_TOL = 1e-12
# Days per block of the rolling moment pass. A block centres a (days, k, n)
# copy of its windows, so this bounds that temporary for long windows.
_BLOCK_DAYS = 32
# A column whose std is at or below max(_DEGENERATE_ULPS, n) ulps of its
# largest magnitude is constant up to rounding: it is degenerate. The floor
# grows with the window length n because numpy sums a window's rows one after
# another, so a constant column's mean, and with it its std, is off by up to
# about 0.12 n ulps.
_DEGENERATE_ULPS = 16.0


def _degenerate_floor(absmax, n: int):
    """The std at or below which a column of ``n`` rows whose largest
    magnitude is ``absmax`` counts as constant."""
    return absmax * (max(_DEGENERATE_ULPS, n) * np.finfo(float).eps)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ReturnWindow:
    """An ``n x k`` matrix of daily simple returns plus asset labels.

    Invariants enforced at construction: ``n >= 2``, ``k >= 1``, every entry
    finite, and ``asset_ids`` unique with one label per column.
    """

    data: np.ndarray
    asset_ids: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise DimensionError(f"return window must be 2-dimensional, got shape {data.shape}")
        n, k = data.shape
        if n < 2:
            raise DimensionError(f"return window needs at least 2 rows, got {n}")
        if k < 1:
            raise DimensionError("return window needs at least 1 asset column")
        if not np.isfinite(data).all():
            raise ValidationError("return window contains non-finite entries")
        ids = tuple(str(a) for a in self.asset_ids)
        if len(ids) != k:
            raise DimensionError(f"expected {k} asset ids, got {len(ids)}")
        if len(set(ids)) != len(ids):
            raise ValidationError("asset ids must be unique")
        object.__setattr__(self, "data", _frozen_array(data))
        object.__setattr__(self, "asset_ids", ids)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_matrix(cls, data, asset_ids=None) -> "ReturnWindow":
        """Build a window, generating ``a1..ak`` labels when none are given."""
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if asset_ids is None:
            asset_ids = tuple(f"a{i + 1}" for i in range(data.shape[1]))
        return cls(data=data, asset_ids=tuple(asset_ids))


@dataclass(frozen=True)
class PortfolioWeights:
    """Portfolio weight vector; entries must sum to 1 within 1e-12."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if w.size < 1:
            raise DimensionError("weight vector is empty")
        if not np.isfinite(w).all():
            raise ValidationError("weights contain non-finite entries")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}, got {total!r}")
        object.__setattr__(self, "w", _frozen_array(w))

    @property
    def k(self) -> int:
        return self.w.size


def equal_weights(k: int) -> PortfolioWeights:
    if k < 1:
        raise ParameterError("portfolio needs at least one asset")
    return PortfolioWeights(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class SampleStats:
    """Long-window sample mean, unbiased covariance (divisor n-1), and stds."""

    mean: np.ndarray
    cov: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean))
        object.__setattr__(self, "cov", _frozen_array(self.cov))
        object.__setattr__(self, "std", _frozen_array(self.std))


def sample_stats(window: ReturnWindow) -> SampleStats:
    """Column means, unbiased sample covariance, and per-asset stds.

    The covariance uses divisor ``n - 1``; it is explicitly symmetrized so the
    result is symmetric to machine precision regardless of BLAS rounding.
    """
    data = window.data
    n = window.n
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    cov = (cov + cov.T) / 2.0
    std = np.sqrt(np.diag(cov))
    return SampleStats(mean=mean, cov=cov, std=std)


def short_window_std(window: ReturnWindow, n_r: int, long_mean) -> np.ndarray:
    """Per-asset std over the most recent ``n_r`` rows, about an external mean.

    Deviations are taken about ``long_mean`` rather than the short-window
    mean, with the conventional ``n_r - 1`` divisor. With ``n_r`` equal to
    the window length and ``long_mean`` equal to the window mean this
    reproduces the long-window sample std exactly, which is what lets the
    volatility-sensitive scheme collapse to empirical Bayes in that case.
    The short divisor also leaves a deliberate upward bias for small ``n_r``
    (a factor sqrt(n_r/(n_r-1)) in scale on homoscedastic data), so recent
    volatility is weighted conservatively.
    """
    n_r = int(n_r)
    if not 2 <= n_r <= window.n:
        raise ParameterError(f"short window length {n_r} outside [2, {window.n}]")
    long_mean = np.asarray(long_mean, dtype=float).reshape(-1)
    if long_mean.size != window.k:
        raise DimensionError(f"long mean has {long_mean.size} entries, window has {window.k} assets")
    recent = window.data[window.n - n_r:]
    dev = recent - long_mean
    return np.sqrt((dev * dev).sum(axis=0) / (n_r - 1))


def _window_blocks(columns: np.ndarray, window: int, rows: int):
    """Yield ``(day_slice, block)`` over the evaluation days of a history
    held as ``columns`` (``k x T``, one contiguous row per asset), in blocks
    of ``_BLOCK_DAYS``. ``block[d]`` is ``(k, rows)``: the last ``rows`` rows
    of day d's trailing window, contiguous along the rows so reductions
    over them vectorize."""
    views = sliding_window_view(columns, window, axis=1)
    days = columns.shape[1] - window
    for start in range(0, days, _BLOCK_DAYS):
        stop = min(start + _BLOCK_DAYS, days)
        yield slice(start, stop), views[:, start:stop, window - rows:].transpose(1, 0, 2)


@dataclass(frozen=True)
class RollingMoments:
    """Moments of every trailing window of a return history.

    Day d (0-based) is the window of rows ``[d, d + window)``, which forecasts
    row ``d + window``. ``mean`` is ``(days, k)``, ``cov`` the unbiased
    covariance ``(days, k, k)``, ``std`` the per-asset std about the window
    mean (as :func:`short_window_std` with ``n_r = window``) and ``floor``
    the degenerate-asset threshold on it. ``pivots`` is the diagonal of each
    ``cov``'s Cholesky factor, NaN where ``cov`` is not positive definite.
    ``columns`` is the history as ``k x T``.
    """

    columns: np.ndarray
    window: int
    mean: np.ndarray
    cov: np.ndarray
    std: np.ndarray
    floor: np.ndarray
    pivots: np.ndarray

    @property
    def days(self) -> int:
        return self.mean.shape[0]

    def short_std(self, n_r: int) -> np.ndarray:
        """:func:`short_window_std` of every window: the last ``n_r`` rows
        about the whole window's mean. At ``n_r = window`` this is ``std``
        itself, so a short window of full length matches it bit for bit."""
        if n_r == self.window:
            return self.std
        out = np.empty_like(self.std)
        for days, block in _window_blocks(self.columns, self.window, n_r):
            dev = block - self.mean[days, :, None]
            out[days] = np.sqrt((dev * dev).sum(axis=2) / (n_r - 1))
        return out


def rolling_moments(returns, window: int) -> RollingMoments:
    """:func:`sample_stats`, the long-window std, the degenerate floor and
    the Cholesky pivots of the covariance of every trailing ``window``-row
    window of ``returns`` (``T x k``), for the ``T - window`` evaluation days.

    Each block of days is centred on its own means before any product is
    formed (two-pass). One-pass forms (prefix sums, sliding updates) cancel
    catastrophically: on a constant column they leave a std far above the
    degenerate floor, or negative variances.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim == 1:
        returns = returns[:, None]
    t0, k = returns.shape
    window = int(window)
    if not 2 <= window < t0:
        raise ParameterError(f"window {window} outside [2, {t0 - 1}] for a history of {t0} rows")
    columns = np.ascontiguousarray(returns.T)
    days = t0 - window
    mean = np.empty((days, k))
    cov = np.empty((days, k, k))
    std = np.empty((days, k))
    floor = np.empty((days, k))
    for block_days, block in _window_blocks(columns, window, window):
        m = block.mean(axis=2)
        dev = block - m[:, :, None]
        c = dev @ dev.transpose(0, 2, 1) / (window - 1)
        mean[block_days] = m
        cov[block_days] = (c + c.transpose(0, 2, 1)) / 2.0
        std[block_days] = np.sqrt((dev * dev).sum(axis=2) / (window - 1))
        floor[block_days] = _degenerate_floor(np.abs(block).max(axis=2), window)
    with np.errstate(invalid="ignore"):  # cholesky_lo fills a failed factor with NaN
        pivots = np.diagonal(cholesky_lo(cov, signature="d->d"), axis1=1, axis2=2)
    return RollingMoments(columns=columns, window=window, mean=mean, cov=cov, std=std,
                          floor=floor, pivots=pivots)


def portfolio_return(x, weights: PortfolioWeights) -> float:
    """Weighted portfolio return ``w . x`` for a single day's return vector."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != weights.k:
        raise DimensionError(f"return vector has {x.size} entries, weights have {weights.k}")
    return float(weights.w @ x)
