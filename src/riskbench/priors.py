"""Hyperparameter specification: the volatility-sensitive scheme and the
empirical-Bayes baseline.

The volatility-sensitive scheme compares portfolio variance over a short
recent window against the long window and inflates (or deflates) the prior
degrees of freedom accordingly, so the prior scale matrix -- whose variances
come from the recent window -- carries more weight exactly when recent
volatility deviates from the long-run level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import ConjugateHyperparams
from .errors import DegenerateAssetError, DimensionError, NumericalError, ParameterError
from .returns import (
    PortfolioWeights,
    ReturnWindow,
    _degenerate_floor,
    _frozen_array,
    sample_stats,
    short_window_std,
)

__all__ = [
    "VsConfig",
    "VolatilityDiagnostics",
    "vs_hyperparams",
    "eb_hyperparams",
]


@dataclass(frozen=True)
class VsConfig:
    """Parameters of the volatility-sensitive scheme.

    ``n_r`` is the short-window length in days, ``h`` the exponent applied
    when recent volatility runs high, ``l`` the exponent for low-volatility
    regimes, and ``r0`` the prior mean precision scale (defaults to the long
    window length when left as None).
    """

    n_r: int = 4
    h: float = 2.0
    l: float = 0.0
    r0: float | None = None

    def __post_init__(self):
        if not float(self.n_r).is_integer():
            raise ParameterError(f"short window length n_r must be a whole number, got {self.n_r!r}")
        if self.n_r < 2:
            raise ParameterError(f"short window length n_r must be >= 2, got {self.n_r!r}")
        if not 0 <= self.h < math.inf:
            raise ParameterError(f"high-volatility exponent h must be finite and >= 0, got {self.h!r}")
        if not math.isfinite(self.l):
            raise ParameterError(f"low-volatility exponent l must be finite, got {self.l!r}")
        if self.r0 is not None and not 0 < self.r0 < math.inf:
            raise ParameterError(f"r0 must be finite and positive when given, got {self.r0!r}")
        object.__setattr__(self, "n_r", int(self.n_r))
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "l", float(self.l))
        object.__setattr__(self, "r0", None if self.r0 is None else float(self.r0))


@dataclass(frozen=True)
class VolatilityDiagnostics:
    """Intermediate quantities of the volatility-sensitive scheme.

    ``sigma`` and ``sigma_r`` are the long- and short-window per-asset stds
    (both about the long-window mean, divisor one less than the row count),
    ``ratio`` their elementwise quotient (the diagonal of the rescaling
    matrix), ``v_w`` / ``v_rw`` the long- and short-term portfolio variances.
    """

    sigma: np.ndarray
    sigma_r: np.ndarray
    ratio: np.ndarray
    v_w: float
    v_rw: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _frozen_array(self.sigma))
        object.__setattr__(self, "sigma_r", _frozen_array(self.sigma_r))
        object.__setattr__(self, "ratio", _frozen_array(self.ratio))


def vs_hyperparams(
    window: ReturnWindow, weights: PortfolioWeights, cfg: VsConfig
) -> tuple[ConjugateHyperparams, VolatilityDiagnostics]:
    """Volatility-sensitive conjugate hyperparameters.

    Steps: per-asset stds over the long and short windows (both about the
    long-window sample mean, so the two are computed by the same routine and
    coincide exactly when ``n_r`` equals the window length); rescale the
    long-window covariance to recent variance levels; compare portfolio
    variances; set

        d0 = max(k+2, n * max(1, v_rw/v_w)^h * max(1, v_w/v_rw)^l)
        S0 = (d0 - k - 1) * (n - 1) / n * rescaled_covariance

    with ``m0`` the long-window sample mean and ``r0`` from the config
    (defaulting to n). With ``n_r = n`` this reproduces the empirical-Bayes
    hyperparameters with ``d0 = n`` bit for bit.
    """
    n, k = window.n, window.k
    if cfg.n_r > n:
        raise ParameterError(f"short window length {cfg.n_r} exceeds window length {n}")
    if n <= k:
        raise ParameterError(f"window length {n} must exceed the number of assets {k}")
    if weights.k != k:
        raise DimensionError(f"weights have {weights.k} entries, window has {k} assets")

    stats = sample_stats(window)
    # Long-window std through the same code path as the short-window std, so
    # the two are bitwise equal at n_r = n and the scheme collapses to
    # empirical Bayes exactly in that case.
    sigma = short_window_std(window, n, stats.mean)
    # A constant column produces a std at the rounding floor of its own
    # magnitude rather than an exact zero; treat both as degenerate.
    floor = _degenerate_floor(np.abs(window.data).max(axis=0), n)
    zero = np.flatnonzero(sigma <= floor)
    if zero.size:
        raise DegenerateAssetError(
            f"asset '{window.asset_ids[zero[0]]}' has zero variance over the window"
        )
    sigma_r = short_window_std(window, cfg.n_r, stats.mean)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        ratio = sigma_r / sigma
        cov_recent = stats.cov * np.outer(ratio, ratio)
        v_w = float(weights.w @ stats.cov @ weights.w)
        v_rw = float(weights.w @ cov_recent @ weights.w)
    if not v_w > 0:
        raise NumericalError("long-term portfolio variance is not positive")
    if not v_rw > 0 and cfg.l != 0:
        raise NumericalError(
            "short-term portfolio variance is zero; the low-volatility exponent is undefined"
        )
    try:
        high = max(1.0, v_rw / v_w) ** cfg.h
        low = max(1.0, v_w / v_rw) ** cfg.l if v_rw > 0 else 1.0
        d0 = max(float(k + 2), n * high * low)
    except OverflowError:
        d0 = math.inf
    if d0 == math.inf:
        raise NumericalError(f"prior degrees of freedom d0 overflow: v_rw/v_w = {v_rw / v_w:.6g} "
                             f"with exponents h = {cfg.h!r}, l = {cfg.l!r}")
    r0 = float(n) if cfg.r0 is None else cfg.r0
    hp = ConjugateHyperparams(m0=stats.mean, r0=r0, d0=d0, s0=_prior_scale(cov_recent, d0, n, k))
    diag = VolatilityDiagnostics(sigma=sigma, sigma_r=sigma_r, ratio=ratio, v_w=v_w, v_rw=v_rw)
    return hp, diag


def eb_hyperparams(
    window: ReturnWindow, d0: float | None = None, r0: float | None = None
) -> ConjugateHyperparams:
    """Empirical-Bayes hyperparameters: m0 = sample mean,
    S0 = (d0-k-1)(n-1)/n * sample covariance. Defaults d0 = r0 = n."""
    n, k = window.n, window.k
    d0 = float(n) if d0 is None else float(d0)
    r0 = float(n) if r0 is None else float(r0)
    if d0 < k + 2:
        raise ParameterError(f"d0 must be at least k+2 = {k + 2}, got {d0!r}")
    stats = sample_stats(window)
    return ConjugateHyperparams(m0=stats.mean, r0=r0, d0=d0, s0=_prior_scale(stats.cov, d0, n, k))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def _prior_scale(cov: np.ndarray, d0: float, n: int, k: int) -> np.ndarray:
    """The prior scale matrix ``S0 = (d0-k-1)(n-1)/n * cov``, refused as a
    :class:`NumericalError` naming ``d0`` where it overflows."""
    s0 = ((d0 - k - 1.0) * (n - 1.0) / n) * cov
    if not np.isfinite(s0).all():
        raise NumericalError(f"prior scale matrix overflows at prior degrees of freedom d0 = {d0!r}")
    return s0
