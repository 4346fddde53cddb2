"""Student-t distribution functions used by the closed-form risk formulas.

The CDF is scipy's ``stdtr`` and the quantile its inverse ``stdtrit``, which
also serves the batched engine elementwise, so both paths share one quantile
function.
"""

from __future__ import annotations

import math

from scipy.special import ndtri, stdtr, stdtrit

from .errors import DegreesOfFreedomError, ParameterError

__all__ = [
    "t_cdf",
    "t_pdf",
    "t_quantile",
    "normal_quantile",
    "normal_pdf",
    "normal_es_factor",
]

def _check_df(df: float) -> float:
    df = float(df)
    if not (df > 0 and math.isfinite(df)):
        raise DegreesOfFreedomError(f"degrees of freedom must be positive and finite, got {df!r}")
    return df


def t_cdf(df: float, x: float) -> float:
    """CDF of the standard t-distribution with ``df`` degrees of freedom."""
    return float(stdtr(_check_df(df), float(x)))


def t_pdf(df: float, x: float) -> float:
    """Density of the standard t-distribution, computed in log space."""
    df = _check_df(df)
    x = float(x)
    log_pdf = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1.0) / 2.0) * math.log1p(x * x / df)
    )
    return math.exp(log_pdf)


def t_quantile(df: float, p: float) -> float:
    """Value q with ``t_cdf(df, q) = p`` to within 1e-10 on the CDF scale."""
    df = _check_df(df)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie strictly inside (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return float(stdtrit(df, p))
    return -float(stdtrit(df, 1.0 - p))


def normal_quantile(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie strictly inside (0, 1), got {p!r}")
    return float(ndtri(p))


def normal_pdf(x: float) -> float:
    x = float(x)
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_es_factor(alpha: float) -> float:
    """Expected-shortfall multiplier phi(z_alpha) / (1 - alpha) for a standard normal."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return normal_pdf(normal_quantile(alpha)) / (1.0 - alpha)
