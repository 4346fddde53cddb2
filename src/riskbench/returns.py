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
# Memory budget for one segment of days of the rolling engine (see
# backtest._day_bytes). It also caps the blocks of the moment passes.
_SEGMENT_BYTES = 1 << 20
# Most days per block of the shifted moment pass (see _block_days).
_BLOCK_DAYS = 128
# The drift screen of the shifted pass: a window takes the two-pass moments
# when, in some column, the squared distance of its mean from its block's
# shift exceeds this many times its variance (the shift is more than 8 stds
# off). The shifted sums then cancel too much to decide the degenerate test.
_DRIFT_RATIO = 64.0
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
    Where it overflows it is not finite, and the callers' checks refuse it.
    """
    data = window.data
    n = window.n
    mean = data.mean(axis=0)
    centered = data - mean
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):  # inf where it overflows
        return np.sqrt((dev * dev).sum(axis=0) / (n_r - 1))


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
    (each ``k x T``) in turn, about the window means ``mean``. The days go
    in blocks whose centred ``(days, k, n_r)`` copy fits in ``_SEGMENT_BYTES``."""
    out = np.empty_like(mean)
    step = max(1, _SEGMENT_BYTES // (8 * mean.shape[1] * n_r))
    offset = 0
    for columns in histories:
        days = columns.shape[1] - window
        recent = sliding_window_view(columns[:, window - n_r:], n_r, axis=1)  # day d's last n_r rows
        for start in range(0, days, step):
            stop = min(start + step, days)
            dev = (recent[:, start:stop].transpose(1, 0, 2)
                   - mean[offset + start:offset + stop, :, None])
            out[offset + start:offset + stop] = np.sqrt((dev * dev).sum(axis=2) / (n_r - 1))
        offset += days
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
    value of a day depends only on its own history: on its window, and the
    covariance on the rows of its moment block (see :func:`stacked_moments`).
    So a day has the same bits however the histories are stacked and
    wherever they are cut at a block start.
    """

    histories: tuple[np.ndarray, ...]
    window: int
    mean: np.ndarray
    cov: np.ndarray
    std: np.ndarray
    floor: np.ndarray
    pivots: np.ndarray
    _short: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _variances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def portfolio_variance(self, w: np.ndarray, n_r: int | None = None) -> np.ndarray:
        """Every day's ``v_w = w' cov w``, or with ``n_r`` its ``v_rw``: the
        quadratic form in ``D w``, ``D = diag(short_std(n_r) / std)``.
        Each is computed once per weight vector and ``n_r``, as products
        summed over each day's own rows, so its bits depend neither on the
        other days nor on which methods ask for it."""
        key = (w.tobytes(), n_r)
        if key not in self._variances:
            with np.errstate(all="ignore"):  # not finite where a std is 0; callers mask it
                v = w if n_r is None else self.short_std(n_r) / self.std * w
                self._variances[key] = ((self.cov * v[..., None, :]).sum(axis=-1) * v).sum(axis=-1)
        return self._variances[key]


def rolling_moments(returns, window: int) -> RollingMoments:
    """:func:`sample_stats`, the long-window std, the degenerate floor and
    the Cholesky pivots of the covariance of every trailing ``window``-row
    window of ``returns`` (``T x k``), for the ``T - window`` evaluation days.
    See :func:`stacked_moments` for how they are computed.
    """
    return stacked_moments([returns], window)


def _block_days(k: int, window: int) -> int:
    """Days per block of the shifted moment pass: at most the window (so
    the block's windows share a middle row), ``_BLOCK_DAYS``, and the
    number of ``(k, k)`` matrices that fit in ``_SEGMENT_BYTES``. It depends
    on ``(k, window)`` alone."""
    return max(1, min(window, _BLOCK_DAYS, _SEGMENT_BYTES // (8 * k * k)))


def _shifted_products(rows: np.ndarray, window: int, block: int, days: int):
    """The shifted cross-products of the first ``days`` days of one block of
    ``block`` days, whose first day's window is ``rows[:window]``, and the
    shift: that window's mean.

    Day j's window is its head rows ``[j, block - 1)``, the middle rows
    ``[block - 1, window)`` that every day of the block shares, and its tail
    rows ``[window, window + j)``. With ``y`` a row less the shift and a
    trailing 1, day j's ``(k + 1, k + 1)`` product is ``sum y y'`` over its
    window: the middle rows' product (one gemm), plus the sum of the head
    rows' outer products (accumulated from the block's middle outward), plus
    that of its tail rows (accumulated from the middle). Its top-left
    ``(k, k)`` is ``S2``, its last column ``S1``. A history's last block may
    hold fewer than ``block`` days; it keeps the whole head, so each sum runs
    over the same rows in the same order however many days are asked for.
    """
    k = rows.shape[1]
    shift = rows[:window].mean(axis=0)
    y = np.empty((window + days - 1, k + 1))
    np.subtract(rows[:window + days - 1], shift, out=y[:, :k])
    y[:, k] = 1.0
    mid = y[block - 1:window]
    head = np.zeros((block, k + 1, k + 1))  # head[i]: rows block-1-i .. block-2
    np.multiply(y[:block - 1, :, None], y[:block - 1, None, :], out=head[:0:-1])
    np.cumsum(head, axis=0, out=head)
    tail = np.zeros((days, k + 1, k + 1))  # tail[j]: rows window .. window+j-1
    np.multiply(y[window:, :, None], y[window:, None, :], out=tail[1:])
    np.cumsum(tail, axis=0, out=tail)
    middle = mid.T @ mid
    middle = (middle + middle.T) / 2.0  # so that every day's sum is exactly symmetric
    return (middle + head[::-1][:days]) + tail, shift


# Moments that overflow, and factors that fail, are not finite: the estimators'
# checks send those days to the scalar path, which decides.
@np.errstate(over="ignore", invalid="ignore")
def stacked_moments(histories, window: int) -> RollingMoments:
    """:func:`rolling_moments` of each of ``histories`` (each ``T x k``,
    all with the same ``k``), stacked along the day axis.

    The covariance comes from shifted cross-products (Chan, Golub & LeVeque
    1983): a history's days are cut into blocks of :func:`_block_days` days
    from its first day, and each block's rows are shifted by the mean of its
    first window. Then day d's ``cov = (S2 - S1 S1' / n) / (n - 1)`` from
    the sums ``S1`` and ``S2`` of its shifted rows and their outer products
    (:func:`_shifted_products`). So a day has the same bits in a history as
    in any slice of it that starts at a block start, however the histories
    are stacked. The shifted sums are accurate while the shift lies within a
    few stds of the window's mean; the drift screen (``_DRIFT_RATIO``) sends
    every other window, such as a column that turns constant, scales down
    or jumps in mean within the block, to the two-pass moments: the window
    centred on its own mean, then reduced by its product. The mean is the
    two-pass mean of each window's own rows, and the std is the root of the
    covariance diagonal.
    """
    window = int(window)
    pieces = []
    for returns in histories:
        returns = np.asarray(returns, dtype=float)
        if returns.ndim == 1:
            returns = returns[:, None]
        t0 = returns.shape[0]
        if not 2 <= window < t0:
            raise ParameterError(
                f"window {window} outside [2, {t0 - 1}] for a history of {t0} rows")
        pieces.append(np.ascontiguousarray(returns))
    k = pieces[0].shape[1]
    if any(rows.shape[1] != k for rows in pieces):
        raise DimensionError("stacked histories must have the same number of assets")
    block = _block_days(k, window)
    days = sum(rows.shape[0] - window for rows in pieces)
    mean = np.empty((days, k))
    shift = np.empty((days, k))
    products = np.empty((days, k + 1, k + 1))
    floor = np.empty((days, k))
    columns, views = [], []
    offset = 0
    for rows in pieces:
        c = np.ascontiguousarray(rows.T)
        count = rows.shape[0] - window
        windows = sliding_window_view(c, window, axis=1)[:, :count]
        mean[offset:offset + count] = windows.mean(axis=2).T
        for a in range(0, count, block):
            size = min(block, count - a)
            days_of = slice(offset + a, offset + a + size)
            products[days_of], shift[days_of] = _shifted_products(rows[a:], window, block, size)
        floor[offset:offset + count] = _degenerate_floor(_sliding_absmax(c[:, :-1], window).T,
                                                         window)
        columns.append(c)
        views.append((offset, windows))
        offset += count
    s1 = products[:, :k, k]
    cov = (products[:, :k, :k] - s1[:, :, None] * s1[:, None, :] / window) / (window - 1)
    drift = mean - shift
    flagged = ~(drift * drift <= _DRIFT_RATIO * np.diagonal(cov, axis1=1, axis2=2)).all(axis=1)
    if flagged.any():
        for offset, windows in views:
            days_of = np.flatnonzero(flagged[offset:offset + windows.shape[1]])
            if days_of.size:
                dev = windows[:, days_of].transpose(1, 0, 2) - mean[offset + days_of, :, None]
                cc = dev @ dev.transpose(0, 2, 1) / (window - 1)
                cov[offset + days_of] = (cc + cc.transpose(0, 2, 1)) / 2.0
    std = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    factor = cholesky_lo(cov, signature="d->d")  # NaN where cov is not positive definite
    return RollingMoments(histories=tuple(columns), window=window, mean=mean, cov=cov, std=std,
                          floor=floor, pivots=np.diagonal(factor, axis1=1, axis2=2).copy())
