"""Student-t distribution functions used by the closed-form risk formulas.

There is one t quantile: :func:`t_quantiles`, a numpy kernel that prices
every day of the batched engine. The scalar reference :func:`t_quantile`
returns its element, so the package needs numpy and the standard library
only. The test suite holds the kernel to an independent t quantile and to
high-precision roots.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DegreesOfFreedomError, ParameterError

__all__ = [
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
    return x * math.gamma(x + 0.5) / math.gamma(x + 1.0)  # Gamma(x) overflows near 0


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


def t_pdf(df: float, x: float) -> float:
    """Density of the standard t-distribution."""
    df = _check_df(df)
    x = float(x)
    scale = gamma_half_ratio(df / 2.0) / math.sqrt(math.pi * df)
    return scale * math.exp(-(df + 1.0) / 2.0 * math.log1p(x * x / df))


def t_quantile(df: float, p: float) -> float:
    """Value q with ``F(q) = p`` for the t CDF ``F`` with ``df`` degrees of
    freedom: the :func:`t_quantiles` element at level ``max(p, 1 - p)``,
    negated below 1/2, and 0 at 1/2. Within 1e-10 of ``p`` on the CDF scale
    for df in [0.05, 1e12]; infinite where ``|q|`` exceeds the largest
    double, or where ``p < 1/2`` and ``1 - p`` rounds to 1.
    """
    df = _check_df(df)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie strictly inside (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    level = max(p, 1.0 - p)
    q = math.inf if level == 1.0 else float(t_quantiles(np.array([df]), [level])[0, 0])
    return q if p > 0.5 else -q


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
# The bits of +inf. Read as integers, the bits of the positive doubles rise
# with their values, nearly as 2^52 log2(t) does, so halving a range of bits
# bisects log t.
_INF_BITS = np.float64(np.inf).view(np.uint64)


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
    ``(len(df), len(alphas))`` array: the package's one t quantile.

    Newton steps on the t CDF from a Cornish-Fisher start (terms to
    1/df^3), each element until its own step is below ``_STEP_RTOL``; the
    CDF is the series of :func:`_newton_step`. Where the quantile is
    ill-conditioned in the central series (high levels), the last step is
    taken in long double. Within 4e-13 relative of ``stdtrit`` for df in
    [4, 1e12] and alpha in [0.51, 0.9999] where long double has a 64-bit
    significand (x86-64); where it is double, the high levels lose up to
    three times that. An element whose Newton loop does not stop within its
    budgets (small df at high levels, extreme levels) is solved by
    :func:`_bisect` instead, so every element with a positive finite ``df``
    and alpha in (0.5, 1) is finite or +inf; the others are NaN. Each
    distinct df is solved once, and an element's bits depend only on its
    own df and alpha, so the distinct df are solved in groups of
    ``_SOLVE_ELEMENTS`` elements, which bounds the temporaries.
    """
    df = np.asarray(df, dtype=float)
    levels = np.asarray(alphas, dtype=float)
    unique, inverse = np.unique(df, return_inverse=True)
    step = max(1, _SOLVE_ELEMENTS // max(1, levels.size))
    out = np.concatenate([_solve_quantiles(unique[i:i + step], levels)
                          for i in range(0, max(1, unique.size), step)])
    return out[inverse]


@np.errstate(all="ignore")  # non-finite starts and steps are handled below
def _solve_quantiles(unique, levels) -> np.ndarray:
    """:func:`t_quantiles` of distinct ``unique`` df, as ``(len(unique), len(levels))``."""
    valid = np.repeat((unique > 0) & np.isfinite(unique), levels.size)
    valid &= np.tile((levels > 0.5) & (levels < 1.0), unique.size)
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
    scale = gamma_half_ratio(nu / 2.0) / np.sqrt(np.pi * nu)
    p, q = alpha - 0.5, 1.0 - alpha
    out = np.full(t.shape, np.nan)
    ill = np.zeros(t.shape, dtype=bool)
    live = np.flatnonzero(valid & np.isfinite(t))
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
        step = _newton_step(*wide)[0]
        # A step above the loop's stopping bound shows that the loop stopped
        # on rounding noise (at extreme levels); such an element is bisected.
        out[idx] = np.where(np.abs(step) <= _STEP_RTOL * wide[0], wide[0] + step, np.nan)
    idx = np.flatnonzero(valid & np.isnan(out))
    if idx.size:
        out[idx] = _bisect(*(a[idx] for a in (nu, scale, p, q)))
    return out.reshape(unique.size, levels.size)


def _bisect(nu, scale, p, q) -> np.ndarray:
    """The smallest double ``t > 0`` at which the t CDF reaches ``1/2 + p``,
    or +inf where it stays below that at the largest finite t.

    Bisection on log t, taken on the bits of t, so that each element ends on
    two adjacent doubles after at most 63 steps. The side of the root is the
    sign of :func:`_newton_step`, in long double so that ``t^2`` and the
    density do not overflow or underflow at any finite t; a NaN step (the
    series did not stop) puts the root to the left.
    """
    lo = np.zeros(nu.shape, np.uint64)
    hi = np.full(nu.shape, _INF_BITS)
    wide = [a.astype(np.longdouble) for a in (nu, scale, p, q)]
    live = np.arange(nu.size)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        t = mid.view(np.float64).astype(np.longdouble)
        right = _newton_step(t, *(a[live] for a in wide))[0] > 0
        lo[live[right]] = mid[right]
        hi[live[~right]] = mid[~right]
        live = live[hi[live] - lo[live] > 1]
    return hi.view(np.float64)


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
