"""Student-t distribution functions used by the closed-form risk formulas.

There are two t quantiles. The scalar :func:`t_quantile` is scipy's
``stdtrit`` and is the reference; :func:`t_cdf` is scipy's ``stdtr``. Both
import scipy on their first call, because scipy is the slowest import of the
package. The batched engine prices every day with :func:`t_quantiles`, a
numpy kernel that the tests hold to the reference, so a run that never falls
back to the scalar path never loads scipy. The density, the gamma ratio and
the normal functions need only numpy and the standard library.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DegreesOfFreedomError, ParameterError

__all__ = [
    "t_cdf",
    "t_pdf",
    "t_quantile",
    "t_quantiles",
    "gamma_half_ratio",
    "normal_quantile",
    "normal_pdf",
    "normal_es_factor",
]

# Gamma(x+1/2)/Gamma(x) = sqrt(x) * sum(c_i x^-i), highest power first; from
# x = 150 on, these seven terms are within 1e-18 relative of the exact ratio.
_RATIO_SERIES_MIN = 150.0
_RATIO_SERIES = (869 / 4194304, -399 / 262144, -21 / 32768, 5 / 1024, 1 / 128, -1 / 8, 1.0)


def _check_df(df: float) -> float:
    df = float(df)
    if not (df > 0 and math.isfinite(df)):
        raise DegreesOfFreedomError(f"degrees of freedom must be positive and finite, got {df!r}")
    return df


def _small_gamma_half_ratio(x: float) -> float:
    if not x > 0:
        return math.nan
    if x >= 1.0:
        # x - 1/2 is exact here, while x + 1/2 rounds once it crosses a power
        # of two, which costs up to 7e-14 relative near x = 128.
        return (x - 0.5) * math.gamma(x - 0.5) / math.gamma(x)
    return math.gamma(x + 0.5) / math.gamma(x)


def _large_gamma_half_ratio(x):
    u = 1.0 / x
    poly = 0.0
    for c in _RATIO_SERIES:
        poly = poly * u + c
    return np.sqrt(x) * poly


def gamma_half_ratio(x):
    """``Gamma(x+1/2) / Gamma(x)`` elementwise (a float for a scalar), NaN
    where ``x`` is not positive.

    ``math.gamma`` below x = 150 and the asymptotic series above; within
    1e-15 relative of the exact ratio for x >= 0.01. The log-gamma
    difference loses digits as x grows (8e-7 relative at x = 5e8).
    """
    if np.ndim(x) == 0:
        x = float(x)
        if x >= _RATIO_SERIES_MIN:
            return float(_large_gamma_half_ratio(x))
        return _small_gamma_half_ratio(x)
    x = np.asarray(x, dtype=float)
    out = _large_gamma_half_ratio(np.maximum(x, _RATIO_SERIES_MIN))
    small = x < _RATIO_SERIES_MIN
    if small.any():
        out[small] = [_small_gamma_half_ratio(v) for v in x[small]]
    return out


def t_cdf(df: float, x: float) -> float:
    """CDF of the standard t-distribution with ``df`` degrees of freedom."""
    from scipy.special import stdtr

    return float(stdtr(_check_df(df), float(x)))


def t_pdf(df: float, x: float) -> float:
    """Density of the standard t-distribution."""
    df = _check_df(df)
    x = float(x)
    scale = gamma_half_ratio(df / 2.0) / math.sqrt(math.pi * df)
    return scale * math.exp(-(df + 1.0) / 2.0 * math.log1p(x * x / df))


def t_quantile(df: float, p: float) -> float:
    """Value q with ``t_cdf(df, q) = p`` to within 1e-10 on the CDF scale."""
    df = _check_df(df)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie strictly inside (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    from scipy.special import stdtrit

    if p > 0.5:
        return float(stdtrit(df, p))
    return -float(stdtrit(df, 1.0 - p))


# t_quantiles budgets. A series stops at its first term that is this small
# against its partial sum; it gets the first count of terms, then each next
# count while it has not stopped. The Newton loop stops an element at its
# first step this small relative to the iterate, which then has an error of
# the order of the step squared.
_SERIES_RTOL = 2.0 ** -56
_SERIES_TERMS = (32, 48, 128)
# Elements per group of the t_quantiles solve: its series temporaries are
# (terms, elements) arrays.
_SOLVE_ELEMENTS = 512
_NEWTON_STEPS = 8
_STEP_RTOL = 1e-9
# Upper-tail series below this x = df/(df+t^2); the central one above it.
_TAIL_MAX_X = 0.7
# Central-series elements whose (alpha - 1/2) / (t f(t)) exceeds this take
# their last Newton step in long double.
_LONG_STEP_MIN = 100.0


def _hyp_series(b, d, y):
    """``sum_n (b)_n / (d)_n * y^n`` for each element; NaN where it does not
    stop within the budget.

    The term ratios are monotone in n, so the terms rise to one peak and
    then fall. An element stops at its first term below ``_SERIES_RTOL`` of
    the partial sum, which lies past the peak; every later term is smaller,
    so adding them in order leaves the sum's bits as they are. The sum over
    however many terms are taken is therefore the element's own, whatever
    the other elements need.
    """
    out = np.full(y.shape, np.nan, dtype=y.dtype)
    todo = np.arange(y.size)
    for n in _SERIES_TERMS:
        k = np.arange(-1, n - 1, dtype=y.dtype)[:, None]
        terms = b[todo] + k
        terms /= d[todo] + k
        terms *= y[todo]
        terms[0] = 1.0
        np.cumprod(terms, axis=0, out=terms)
        sums = np.cumsum(terms, axis=0)[-1]
        found = terms[-1] <= _SERIES_RTOL * sums
        out[todo[found]] = sums[found]
        todo = todo[~found]
        if not todo.size:
            break
    return out


def _newton_step(t, nu, scale, p, q):
    """Newton step towards ``F(t) = 1/2 + p = 1 - q`` at each ``t > 0``, and
    a mask of the elements whose step is ill-conditioned.

    ``F(t) - 1/2 = t f(t) S`` with ``S = 2F1(1, (nu+1)/2; 3/2; w)``,
    ``w = t^2/(nu+t^2)`` (Pfaff's form: every term is positive), and the
    upper tail ``1 - F(t) = t f(t) T / nu`` with
    ``T = 2F1(1, (nu+1)/2; nu/2+1; x)``, ``x = 1 - w``. The tail is used
    where ``x < _TAIL_MAX_X``; it needs no difference of nearly equal
    numbers.
    ``f(t) = scale * (1 + t^2/nu)^(-(nu+1)/2)`` is the density.
    """
    t2 = t * t
    x = nu / (nu + t2)
    tail = x < _TAIL_MAX_X
    b = (nu + 1.0) / 2.0
    f = scale * np.exp(-b * np.log1p(t2 / nu))
    s = _hyp_series(b, np.where(tail, nu / 2.0 + 1.0, 1.5), np.where(tail, x, t2 / (nu + t2)))
    step = np.where(tail, t * s / nu - q / f, p / f - t * s)
    return step, ~tail & (p > _LONG_STEP_MIN * t * f)


def t_quantiles(df, alphas) -> np.ndarray:
    """The ``alphas`` quantiles of the standard t at each ``df``, as a
    ``(len(df), len(alphas))`` array: the batched engine's t quantile.

    Newton steps on the t CDF from a Cornish-Fisher start (terms to
    1/df^3), each element until its own step is below ``_STEP_RTOL``; the
    CDF is the series of :func:`_newton_step`. Where the quantile is
    ill-conditioned in the central series (high levels), the last step is
    taken in long double. Within 4e-13 relative of ``stdtrit`` for df in
    [4, 1e12] and alpha in [0.51, 0.9999] where long double has a 64-bit
    significand (x86-64); where it is double, the high levels lose up to
    three times that. An element is NaN where ``df`` is not positive and
    finite, alpha is not in (0.5, 1), or a series or the Newton loop does
    not stop within its budget; the engine then prices that day with the
    scalar reference. Each distinct df is solved once, and an element's bits
    depend only on its own df and alpha, so the distinct df are solved in
    groups of ``_SOLVE_ELEMENTS`` elements, which bounds the temporaries.
    """
    df = np.asarray(df, dtype=float)
    levels = np.asarray(alphas, dtype=float)
    unique, inverse = np.unique(df, return_inverse=True)
    step = max(1, _SOLVE_ELEMENTS // max(1, levels.size))
    out = np.concatenate([_solve_quantiles(unique[i:i + step], levels)
                          for i in range(0, max(1, unique.size), step)])
    return out[inverse]


def _solve_quantiles(unique, levels) -> np.ndarray:
    """:func:`t_quantiles` of distinct ``unique`` df, as ``(len(unique), len(levels))``."""
    valid = np.repeat((unique > 0) & np.isfinite(unique), levels.size)
    nu = np.where(valid, np.repeat(unique, levels.size), 1.0)
    alpha = np.tile(levels, unique.size)
    # Cornish-Fisher: t = z (1 + g1/df + g2/df^2 + g3/df^3), z the normal quantile.
    z = np.array([NormalDist().inv_cdf(a) if 0.5 < a < 1.0 else math.nan for a in levels])
    z2 = z * z
    g1, g2, g3 = ((z2 + 1.0) / 4.0, ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0,
                  (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0)
    z, g1, g2, g3 = (np.tile(g, unique.size) for g in (z, g1, g2, g3))
    v = 1.0 / nu
    t = z * (1.0 + v * (g1 + v * (g2 + v * g3)))
    valid &= np.isfinite(t)
    scale = gamma_half_ratio(nu / 2.0) / np.sqrt(np.pi * nu)
    p, q = alpha - 0.5, 1.0 - alpha
    out = np.full(t.shape, np.nan)
    ill = np.zeros(t.shape, dtype=bool)
    live = np.flatnonzero(valid)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        step, ill_live = _newton_step(t[live], nu[live], scale[live], p[live], q[live])
        new = t[live] + step
        new = np.where(new <= 0, t[live] / 2.0, new)  # F is concave: an overshoot lands left
        t[live] = new
        done = np.abs(step) <= _STEP_RTOL * new
        out[live[done]] = new[done]
        ill[live[done]] = ill_live[done]
        live = live[~done & np.isfinite(new)]
    idx = np.flatnonzero(ill)
    if idx.size:
        wide = [a[idx].astype(np.longdouble) for a in (out, nu, scale, p, q)]
        out[idx] = wide[0] + _newton_step(*wide)[0]
    return out.reshape(unique.size, levels.size)


def normal_quantile(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie strictly inside (0, 1), got {p!r}")
    return NormalDist().inv_cdf(p)


def normal_pdf(x: float) -> float:
    x = float(x)
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_es_factor(alpha: float) -> float:
    """Expected-shortfall multiplier phi(z_alpha) / (1 - alpha) for a standard normal."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return normal_pdf(normal_quantile(alpha)) / (1.0 - alpha)
