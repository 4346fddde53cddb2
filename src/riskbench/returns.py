"""Return-window data model and the sample statistics shared by all estimators.

A :class:`ReturnWindow` holds the most recent ``n`` daily simple returns of
``k`` assets. All values are immutable after construction, so windows and
derived statistics are safe to share across threads and worker processes.
:func:`rolling_moments` computes the same statistics for every trailing
window of a return history at once, and :func:`stacked_moments` for several
histories stacked along the day axis, for the batched rolling engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "stacked_moments",
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


def _window_blocks(columns: np.ndarray, window: int, rows: int, offset: int = 0):
    """Yield ``(day_slice, block)`` over the evaluation days of a history
    held as ``columns`` (``k x T``, one contiguous row per asset), in blocks
    of ``_BLOCK_DAYS``. ``block[d]`` is ``(k, rows)``: the last ``rows`` rows
    of day d's trailing window, contiguous along the rows so reductions
    over them vectorize. The slices are shifted by ``offset`` days."""
    views = sliding_window_view(columns, window, axis=1)
    days = columns.shape[1] - window
    for start in range(0, days, _BLOCK_DAYS):
        stop = min(start + _BLOCK_DAYS, days)
        yield (slice(offset + start, offset + stop),
               views[:, start:stop, window - rows:].transpose(1, 0, 2))


def _sliding_absmax(columns: np.ndarray, window: int) -> np.ndarray:
    """``np.abs(columns[:, d:d + window]).max(axis=1)`` for every d, as
    ``(k, T - window + 1)``.

    Van Herk / Gil-Werman: cut the rows into blocks of ``window``; a window
    spans the tail of one block and the head of the next, so its maximum is
    that of a running maximum from the right in the first block and one
    from the left in the second. A maximum rounds nothing, so this is
    exactly the direct reduction, NaN included, at three passes per row
    instead of ``window``.
    """
    k, t = columns.shape
    blocks = np.zeros((k, -(-t // window), window))  # a zero pad is no larger than any |x|
    np.abs(columns, out=blocks.reshape(k, -1)[:, :t])
    head = np.maximum.accumulate(blocks, axis=2).reshape(k, -1)
    tail = np.maximum.accumulate(blocks[:, :, ::-1], axis=2)[:, :, ::-1].reshape(k, -1)
    count = t - window + 1
    return np.maximum(tail[:, :count], head[:, window - 1:window - 1 + count])


def _short_stds(histories, window: int, mean: np.ndarray, n_r: int) -> np.ndarray:
    """:func:`short_window_std` of every window of each of ``histories``
    (each ``k x T``) in turn, about the window means ``mean``."""
    out = np.empty_like(mean)
    offset = 0
    for columns in histories:
        for days, block in _window_blocks(columns, window, n_r, offset):
            dev = block - mean[days, :, None]
            out[days] = np.sqrt((dev * dev).sum(axis=2) / (n_r - 1))
        offset += columns.shape[1] - window
    return out


@dataclass(frozen=True)
class RollingMoments:
    """Moments of every trailing window of one or more return histories,
    stacked along the day axis in the order of the histories.

    Day d (0-based) of a history is the window of its rows
    ``[d, d + window)``, which forecasts row ``d + window``. ``mean`` is
    ``(days, k)``, ``cov`` the unbiased covariance ``(days, k, k)``, ``std``
    the root of its diagonal (:func:`short_window_std` with ``n_r = window``)
    and ``floor`` the degenerate-asset threshold on it. ``pivots`` is the
    diagonal of each ``cov``'s Cholesky factor, NaN where ``cov`` is not
    positive definite. ``histories`` holds each history as ``k x T``. Every
    value of a day depends only on that day's window, so a day has the same
    bits however the histories are cut and stacked.
    """

    histories: tuple[np.ndarray, ...]
    window: int
    mean: np.ndarray
    cov: np.ndarray
    std: np.ndarray
    floor: np.ndarray
    pivots: np.ndarray
    _short: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def days(self) -> int:
        return self.mean.shape[0]

    def short_std(self, n_r: int) -> np.ndarray:
        """:func:`short_window_std` of every window: the last ``n_r`` rows
        about the whole window's mean, computed once per ``n_r``. At
        ``n_r = window`` this is ``std`` itself, so a short window of full
        length matches it bit for bit."""
        if n_r == self.window:
            return self.std
        if n_r not in self._short:
            self._short[n_r] = _short_stds(self.histories, self.window, self.mean, n_r)
        return self._short[n_r]


def rolling_moments(returns, window: int) -> RollingMoments:
    """:func:`sample_stats`, the long-window std, the degenerate floor and
    the Cholesky pivots of the covariance of every trailing ``window``-row
    window of ``returns`` (``T x k``), for the ``T - window`` evaluation days.

    Each block of days is centred on its own means before any product is
    formed (two-pass). One-pass forms (prefix sums, sliding updates) cancel
    catastrophically: on a constant column they leave a std far above the
    degenerate floor, or negative variances.
    """
    return stacked_moments([returns], window)


def stacked_moments(histories, window: int) -> RollingMoments:
    """:func:`rolling_moments` of each of ``histories`` (each ``T x k``,
    all with the same ``k``), stacked along the day axis. A centred block is
    reduced once, by its product; the std is the root of its diagonal."""
    window = int(window)
    columns = []
    for returns in histories:
        returns = np.asarray(returns, dtype=float)
        if returns.ndim == 1:
            returns = returns[:, None]
        t0 = returns.shape[0]
        if not 2 <= window < t0:
            raise ParameterError(
                f"window {window} outside [2, {t0 - 1}] for a history of {t0} rows")
        columns.append(np.ascontiguousarray(returns.T))
    k = columns[0].shape[0]
    if any(c.shape[0] != k for c in columns):
        raise DimensionError("stacked histories must have the same number of assets")
    days = sum(c.shape[1] for c in columns) - window * len(columns)
    mean = np.empty((days, k))
    cov = np.empty((days, k, k))
    std = np.empty((days, k))
    floor = np.empty((days, k))
    pivots = np.empty((days, k))
    offset = 0
    for c in columns:
        for block_days, block in _window_blocks(c, window, window, offset):
            m = block.mean(axis=2)
            dev = block - m[:, :, None]
            cc = dev @ dev.transpose(0, 2, 1) / (window - 1)
            cc = (cc + cc.transpose(0, 2, 1)) / 2.0
            mean[block_days] = m
            cov[block_days] = cc
            std[block_days] = np.sqrt(np.diagonal(cc, axis1=1, axis2=2))
            with np.errstate(invalid="ignore"):  # cholesky_lo fills a failed factor with NaN
                factor = cholesky_lo(cc, signature="d->d")
            pivots[block_days] = np.diagonal(factor, axis1=1, axis2=2)
        count = c.shape[1] - window
        floor[offset:offset + count] = _degenerate_floor(_sliding_absmax(c[:, :-1], window).T,
                                                         window)
        offset += count
    return RollingMoments(histories=tuple(columns), window=window, mean=mean, cov=cov, std=std,
                          floor=floor, pivots=pivots)
