"""Posterior predictive distribution under the conjugate prior, and the
closed-form VaR / CVaR that follows from its Student-t representation.

The model: asset returns conditionally i.i.d. multivariate normal with a
normal--inverse-Wishart conjugate prior described by ``(m0, r0, d0, S0)``.
The portfolio's posterior predictive return is then a location/scale Student-t
whose parameters are computed here in closed form; risk numbers are affine in
the corresponding t quantile or expected-shortfall factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegreesOfFreedomError,
    DimensionError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .returns import PortfolioWeights, ReturnWindow, _frozen_array, sample_stats
from .studentt import gamma_half_ratio, normal_es_factor, normal_quantile, t_quantiles

__all__ = [
    "RiskMeasure",
    "ConjugateHyperparams",
    "PredictiveParams",
    "RiskEstimate",
    "posterior_predictive",
    "risk_estimate",
]

_SYM_RTOL = 1e-12


class RiskMeasure(str, Enum):
    VAR = "var"
    CVAR = "cvar"


def _require_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    asym = np.abs(mat - mat.T).max()
    scale = max(np.abs(mat).max(), 1.0)
    if asym > _SYM_RTOL * scale:
        raise ValidationError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return (mat + mat.T) / 2.0


@dataclass(frozen=True)
class ConjugateHyperparams:
    """Prior quadruple: mean location m0, mean precision scale r0,
    inverse-Wishart degrees of freedom d0, and inverse-Wishart scale s0."""

    m0: np.ndarray
    r0: float
    d0: float
    s0: np.ndarray

    def __post_init__(self):
        m0 = np.asarray(self.m0, dtype=float).reshape(-1)
        s0 = np.asarray(self.s0, dtype=float)
        k = m0.size
        if s0.shape != (k, k):
            raise DimensionError(f"scale matrix shape {s0.shape} does not match mean length {k}")
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise ParameterError(f"mean precision scale r0 must be positive, got {self.r0!r}")
        if not self.d0 >= k + 2:
            raise ParameterError(f"prior degrees of freedom d0 must be >= k+2 = {k + 2}, got {self.d0!r}")
        s0 = _require_symmetric(s0, "prior scale matrix")
        try:
            np.linalg.cholesky(s0)
        except np.linalg.LinAlgError:
            raise NumericalError("prior scale matrix is not positive definite") from None
        object.__setattr__(self, "m0", _frozen_array(m0))
        object.__setattr__(self, "r0", float(self.r0))
        object.__setattr__(self, "d0", float(self.d0))
        object.__setattr__(self, "s0", _frozen_array(s0))

    @property
    def k(self) -> int:
        return self.m0.size


@dataclass(frozen=True)
class PredictiveParams:
    """Location/scale/df triple of the predictive Student-t representation.
    ``df = inf`` is its normal limit: the ``sample`` method's plug-in
    predictive, priced with the normal factors."""

    location: float
    scale: float
    df: float

    def __post_init__(self):
        if not self.df > 0:
            raise DegreesOfFreedomError(f"predictive degrees of freedom must be positive, got {self.df!r}")
        if not 0 < self.scale < math.inf:
            raise NumericalError(f"predictive scale must be positive and finite, got {self.scale!r}")
        object.__setattr__(self, "location", float(self.location))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "df", float(self.df))


@dataclass(frozen=True)
class RiskEstimate:
    """A VaR or CVaR number at level alpha, in return units, plus its method label."""

    measure: RiskMeasure
    alpha: float
    value: float
    method: str = ""


def _quad_form_spd(mat: np.ndarray, w: np.ndarray) -> float:
    """w' M w for a symmetric positive definite M, through its Cholesky
    factor so that roundoff cannot make it negative."""
    if mat.shape[0] == 1:
        return float(mat[0, 0] * w[0] * w[0])
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NumericalError("posterior scale matrix is not positive definite") from None
    y = chol.T @ w
    return float(y @ y)


def posterior_predictive(
    window: ReturnWindow, weights: PortfolioWeights, hp: ConjugateHyperparams
) -> PredictiveParams:
    """Predictive t parameters of the portfolio return, given window and prior.

    Given n observations, prior (m0, r0, d0, S0), sample mean xbar and raw
    scatter matrix about the sample mean, the predictive distribution of the
    next portfolio return is

        location + scale * T_df,

    with posterior mean ``(n*xbar + r0*m0)/(n + r0)``, scale matrix equal to
    scatter + S0 + n*r0/(n+r0) * outer(m0 - posterior_mean), degrees of
    freedom ``n + d0 - 2k`` and squared scale
    ``(n+r0+1)/((n+r0)*df) * w' S w``. Note the scatter term is the raw sum
    of squares, not divided by n-1.
    """
    if weights.k != window.k:
        raise DimensionError(f"weights have {weights.k} entries, window has {window.k} assets")
    if hp.k != window.k:
        raise DimensionError(f"hyperparameters are for {hp.k} assets, window has {window.k}")
    n, k = window.n, window.k
    df = n + hp.d0 - 2 * k
    if df <= 0:
        raise DegreesOfFreedomError(
            f"predictive degrees of freedom n + d0 - 2k = {df} must be positive"
        )
    if math.inf in ((n + hp.r0) * df, n * hp.r0):
        raise NumericalError(f"predictive scale overflows: (n + r0) * df or n * r0 is not finite "
                             f"for d0 = {hp.d0!r}, r0 = {hp.r0!r}")
    stats = sample_stats(window)
    r0 = hp.r0
    post_mean = (n * stats.mean + r0 * hp.m0) / (n + r0)
    scatter = (n - 1) * stats.cov
    dm = hp.m0 - post_mean
    scale_matrix = scatter + hp.s0 + (n * r0 / (n + r0)) * np.outer(dm, dm)
    scale_matrix = (scale_matrix + scale_matrix.T) / 2.0
    r_factor = (n + r0 + 1.0) / ((n + r0) * df)
    quad = _quad_form_spd(scale_matrix, weights.w)
    scale_sq = r_factor * quad
    if not scale_sq > 0:
        raise NumericalError("degenerate predictive scale: w' S w is not positive")
    return PredictiveParams(
        location=float(weights.w @ post_mean),
        scale=math.sqrt(scale_sq),
        df=float(df),
    )


def _t_es_factor(df, alpha, q):
    """CVaR multiplier of the standard t at level ``alpha``, given its alpha
    quantile ``q``; elementwise over arrays, unchecked (``df > 1``).

    The gamma ratio G((df+1)/2) / G(df/2) is taken from
    :func:`~riskbench.studentt.gamma_half_ratio`, within 1e-15 relative,
    rather than from a difference of log-gammas, which are of size
    df*log(df)/2 and so lose digits as aggressive prior inflation drives df
    up (about 1e-9 relative at df = 1e6, 1e-3 at 1e12). The Pochhammer
    ratio ``poch``, used before, is off by 1.3e-13 at df = 300 and 2.7e-13 at df = 2001.
    """
    log_factor = (
        np.log(gamma_half_ratio(df / 2.0))
        - 0.5 * np.log(np.pi * df)
        + np.log(df / (df - 1.0))
        - ((df - 1.0) / 2.0) * np.log1p(q * q / df)
    )
    return np.exp(log_factor) / (1.0 - alpha)


def risk_estimate(
    pred: PredictiveParams,
    alpha: float,
    measure: RiskMeasure = RiskMeasure.VAR,
    method: str = "",
) -> RiskEstimate:
    """Risk number ``-location + q_alpha * scale`` for the requested measure:
    :func:`_risk_estimates` at one level."""
    return _risk_estimates(pred, (alpha,), (measure,), method)[0]


def _risk_estimates(pred: PredictiveParams, alphas, measures, method: str = "") -> list:
    """Every ``(level, measure)`` risk estimate of one predictive,
    level-major, from one :func:`_predictive_risk` call. Refuses, level by
    level, a level outside (0.5, 1) and, when CVaR is asked for, ``df <= 1``."""
    measures = [RiskMeasure(m) for m in measures]
    for alpha in map(float, alphas):
        if not 0.5 < alpha < 1.0:
            raise ParameterError(f"risk level alpha must lie in (0.5, 1), got {alpha!r}")
        _require_cvar_df(pred, measures)
    values = _predictive_risk(np.array([pred.location]), np.array([pred.scale]),
                              np.array([pred.df]), alphas, measures)[0]
    return [RiskEstimate(measure, float(alpha), float(value), method)
            for alpha, row in zip(alphas, values) for measure, value in zip(measures, row)]


def _require_cvar_df(pred: PredictiveParams, measures) -> None:
    """Refuse CVaR of a predictive with ``df <= 1``, whose tail mean is infinite."""
    if RiskMeasure.CVAR in measures and not pred.df > 1:
        raise DegreesOfFreedomError(f"CVaR multiplier requires df > 1, got {pred.df!r}")


@np.errstate(all="ignore")  # NaN and infinite df give NaN t factors
def _predictive_risk(location, scale, df, alphas, measures) -> np.ndarray:
    """The one pricing step, of the batched engine and the scalar API:
    ``-location + factor * scale`` of a stack of predictive records as
    ``(days, levels, measures)``, with the t factors where ``df`` is finite
    (only those days solve a t quantile) and the normal ones where it is
    infinite; CVaR NaN where ``df <= 1``, and a day with any NaN entry NaN
    throughout. Elementwise in the days."""
    alphas = np.asarray(alphas, dtype=float)
    normal = df == np.inf
    q = np.empty((df.size, alphas.size))
    q[normal] = [normal_quantile(a) for a in alphas]
    if not normal.all():
        q[~normal] = t_quantiles(df[~normal], alphas)
    factors = {RiskMeasure.VAR: q}
    if RiskMeasure.CVAR in measures:
        es = np.where(df[:, None] > 1, _t_es_factor(df[:, None], alphas, q), np.nan)
        es[normal] = [normal_es_factor(a) for a in alphas]
        factors[RiskMeasure.CVAR] = es
    factors = np.stack([factors[RiskMeasure(m)] for m in measures], axis=-1)
    out = -location[:, None, None] + factors * scale[:, None, None]
    out[np.isnan(out).any(axis=(1, 2))] = np.nan
    return out
