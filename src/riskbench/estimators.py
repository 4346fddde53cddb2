"""Estimator objects consumed by the rolling backtest engine and the CLI.

Each estimator is an immutable config with a stable ``label`` and a
``day_estimates`` method that fits once on a window and prices every
requested (level, measure) pair from that single fit. That per-day method is
the scalar reference. ``batch_estimates`` computes the same numbers for every
evaluation day of a history at once from shared :class:`RollingMoments`. Each
of its checks is a per-day mask, and a day that fails any of them is NaN: the
engine prices exactly those days on the scalar path, which then decides and
raises.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .conjugate import RiskMeasure, _t_es_factor, posterior_predictive, risk_estimate
from .errors import ParameterError
from .priors import VsConfig, eb_hyperparams, sample_method_estimate, vs_hyperparams
from .returns import PortfolioWeights, ReturnWindow, RollingMoments
from .studentt import normal_es_factor, normal_quantile, t_quantiles

__all__ = [
    "VolatilitySensitive",
    "EmpiricalBayes",
    "SampleNormal",
    "parse_method",
    "parse_methods",
]

# Batched checks are stricter than the scalar ones, so that rounding
# differences between the two paths cannot hide a scalar error: a std within
# this factor of the degenerate floor, or a Cholesky pivot whose square is
# below this fraction of its diagonal entry, sends that day to the scalar
# path, which then decides.
_FLOOR_MARGIN = 2.0
_PIVOT_RTOL = 1e-8


# A day's numbers must not depend on where it falls in a stack of days, but
# two of the engine's reductions round by position: einsum sums a lone
# matrix in another order than a stack of them, and BLAS gemv takes rows four
# at a time and rounds the last ``days % 4`` rows (a lone row goes through a
# dot product) another way. Both get copies of their last row appended.
def _padded(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` with copies of its last row appended up to ``rows`` rows."""
    return a if len(a) >= rows else np.concatenate([a, np.repeat(a[-1:], rows - len(a), axis=0)])


def _quad(mats: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w' M w`` for each matrix of a ``(days, k, k)`` stack, with ``w`` one
    weight vector or one per day. One summation order for both, so equal
    weights give equal bits."""
    days = len(mats)
    if w.ndim > 1:
        w = _padded(w, 2)
    return np.einsum("...i,...ij,...j->...", w, _padded(mats, 2), w)[:days]


def _location(mean: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w' mean`` for each day of a ``(days, k)`` stack of means."""
    days = len(mean)
    return (_padded(mean, days + (-days) % 4) @ w)[:days]


def _risk_values(location, scale, factors, ok) -> np.ndarray:
    """``-location + factor * scale`` as ``(days, levels, measures)``, NaN on
    the days where ``ok`` is false."""
    out = -location[:, None, None] + factors * scale[:, None, None]
    out[~ok] = np.nan
    return out


def _conjugate_day(window: ReturnWindow, weights: PortfolioWeights, hp, alphas, measures,
                   label: str) -> list:
    """Conjugate predictive risk on one window, level-major: the scalar
    reference that :func:`_conjugate_batch` reproduces for every day."""
    pred = posterior_predictive(window, weights, hp)
    return [risk_estimate(pred, alpha, measure, method=label)
            for alpha in alphas for measure in measures]


def _conjugate_batch(moments: RollingMoments, weights: PortfolioWeights, d0, v_w, v_rw,
                     r0: float, alphas, measures, ok=True) -> np.ndarray:
    """Conjugate predictive risk for every day, with ``m0`` the window mean
    and prior scale ``S0 = c D cov D``, ``c = (d0-k-1)(n-1)/n``.

    The batched form of ``ConjugateHyperparams`` -> ``posterior_predictive``
    -> ``risk_estimate``. The posterior scale matrix is ``(n-1) cov + S0``
    (the mean-shift term vanishes because ``m0`` is the sample mean), and the
    predictive needs only its quadratic form in ``w``:
    ``w'Sw = (n-1) v_w + c v_rw``, with ``v_w = w' cov w`` and
    ``v_rw = (Dw)' cov (Dw)``, the two portfolio variances that set ``d0``.
    Then ``df = n + d0 - 2k``, squared scale ``(n+r0+1)/((n+r0) df) * w'Sw``
    and location ``w' mean``. ``D`` is ``diag(sigma_r/sigma)`` for ``vs``
    and the identity for ``eb``; the caller's ``ok`` marks the days where it
    is positive. The days that fail ``ok`` or any check here are NaN.

    ``ConjugateHyperparams`` requires ``S0`` positive definite. The relative
    pivot test on ``moments.pivots`` does not change when a matrix is
    multiplied by a positive scalar or scaled by a positive diagonal on both
    sides, so one check of ``cov`` decides it for ``S0``. The posterior
    matrix, a sum of two positive definite matrices, then needs no factor:
    both terms of its quadratic form are positive.
    """
    n, k = moments.window, weights.k
    diag = np.diagonal(moments.cov, axis1=1, axis2=2)
    ok = ok & (moments.pivots * moments.pivots > _PIVOT_RTOL * diag).all(axis=1)
    df = n + d0 - 2 * k
    c = (d0 - k - 1.0) * (n - 1.0) / n
    scale_sq = (n + r0 + 1.0) / ((n + r0) * df) * ((n - 1) * v_w + c * v_rw)
    ok &= (df > 0) & (scale_sq > 0)
    alphas = np.asarray(alphas, dtype=float)
    q = t_quantiles(df, alphas)
    factors = []
    for measure in measures:
        if RiskMeasure(measure) is RiskMeasure.VAR:
            factors.append(q)
        else:
            ok &= df > 1
            factors.append(_t_es_factor(df[:, None], alphas, q))
    return _risk_values(_location(moments.mean, weights.w), np.sqrt(scale_sq),
                        np.stack(factors, axis=-1), ok)


def _fmt(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class VolatilitySensitive:
    """Volatility-sensitive conjugate estimator with config (n_r, h, l)."""

    n_r: int = 4
    h: float = 2.0
    l: float = 0.0
    r0: float | None = None

    @property
    def label(self) -> str:
        base = f"vs({self.n_r},{_fmt(self.h)},{_fmt(self.l)}"
        return base + (f";r0={_fmt(self.r0)})" if self.r0 is not None else ")")

    def validate(self, window: int, k: int) -> None:
        cfg = VsConfig(n_r=self.n_r, h=self.h, l=self.l, r0=self.r0)
        if cfg.n_r > window:
            raise ParameterError(f"{self.label}: short window {cfg.n_r} exceeds window {window}")
        if window < k + 2:
            raise ParameterError(f"{self.label}: window {window} must be at least k+2 = {k + 2}")

    def day_estimates(self, window: ReturnWindow, weights: PortfolioWeights, alphas, measures):
        cfg = VsConfig(n_r=self.n_r, h=self.h, l=self.l, r0=self.r0)
        hp, _ = vs_hyperparams(window, weights, cfg)
        return _conjugate_day(window, weights, hp, alphas, measures, self.label)

    @np.errstate(all="ignore")  # the days that divide by zero are masked
    def batch_estimates(self, moments: RollingMoments, weights: PortfolioWeights, alphas, measures):
        """``day_estimates`` for every day, as ``(days, levels, measures)``,
        NaN on the days the scalar path must decide."""
        sigma = moments.std
        ratio = moments.short_std(self.n_r) / sigma
        # ratio > 0 keeps D positive definite, so S0 is when cov is
        ok = ((sigma > _FLOOR_MARGIN * moments.floor) & (ratio > 0)).all(axis=1)
        v_w = _quad(moments.cov, weights.w)
        v_rw = _quad(moments.cov, ratio * weights.w)
        ok &= v_w > 0
        high = np.maximum(1.0, v_rw / v_w) ** self.h
        low = 1.0
        if self.l != 0:
            ok &= v_rw > 0
            low = np.maximum(1.0, v_w / v_rw) ** self.l
        n, k = moments.window, weights.k
        d0 = np.maximum(k + 2.0, n * high * low)
        r0 = float(n) if self.r0 is None else float(self.r0)
        return _conjugate_batch(moments, weights, d0, v_w, v_rw, r0, alphas, measures, ok)


@dataclass(frozen=True)
class EmpiricalBayes:
    """Empirical-Bayes conjugate estimator; d0 and r0 default to the window length."""

    d0: float | None = None
    r0: float | None = None

    @property
    def label(self) -> str:
        if self.d0 is None and self.r0 is None:
            return "eb"
        d0 = "n" if self.d0 is None else _fmt(self.d0)
        r0 = "n" if self.r0 is None else _fmt(self.r0)
        return f"eb({d0},{r0})"

    def validate(self, window: int, k: int) -> None:
        d0 = window if self.d0 is None else self.d0
        if not k + 2 <= d0 < math.inf:
            raise ParameterError(f"{self.label}: d0 = {d0} must be finite and at least k+2 = {k + 2}")
        if self.r0 is not None and not 0 < self.r0 < math.inf:
            raise ParameterError(f"{self.label}: r0 must be finite and positive")

    def day_estimates(self, window: ReturnWindow, weights: PortfolioWeights, alphas, measures):
        hp = eb_hyperparams(window, d0=self.d0, r0=self.r0)
        return _conjugate_day(window, weights, hp, alphas, measures, self.label)

    @np.errstate(all="ignore")  # the days that divide by zero are masked
    def batch_estimates(self, moments: RollingMoments, weights: PortfolioWeights, alphas, measures):
        """``day_estimates`` for every day, as ``(days, levels, measures)``,
        NaN on the days the scalar path must decide."""
        n = float(moments.window)
        d0 = np.full(moments.days, n if self.d0 is None else float(self.d0))
        r0 = n if self.r0 is None else float(self.r0)
        v_w = _quad(moments.cov, weights.w)
        return _conjugate_batch(moments, weights, d0, v_w, v_w, r0, alphas, measures)


@dataclass(frozen=True)
class SampleNormal:
    """Plug-in baseline from the sample mean/covariance and normal quantiles."""

    @property
    def label(self) -> str:
        return "sample"

    def validate(self, window: int, k: int) -> None:
        if window < 2:
            raise ParameterError("sample: window must be at least 2")

    def day_estimates(self, window: ReturnWindow, weights: PortfolioWeights, alphas, measures):
        return [
            sample_method_estimate(window, weights, alpha, measure, method=self.label)
            for alpha in alphas
            for measure in measures
        ]

    @np.errstate(all="ignore")  # the days of a negative variance are masked
    def batch_estimates(self, moments: RollingMoments, weights: PortfolioWeights, alphas, measures):
        """``day_estimates`` for every day, as ``(days, levels, measures)``,
        NaN on the days the scalar path must decide."""
        variance = _quad(moments.cov, weights.w)
        factors = np.array([
            [normal_quantile(a) if RiskMeasure(m) is RiskMeasure.VAR else normal_es_factor(a)
             for m in measures]
            for a in alphas
        ])
        return _risk_values(_location(moments.mean, weights.w), np.sqrt(variance), factors,
                            variance > 0)


_METHOD_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_method(spec: str, nr: int = 4, h: float = 2.0, l: float = 0.0, r0: float | None = None):
    """Parse one method spec string like ``vs(4,2,0)``, ``eb`` or ``sample``.

    Bare ``vs`` picks up the supplied defaults (the CLI's --nr/--h/--l/--r0
    flags); ``vs(n_r,h,l)`` and ``vs(n_r,h,l,r0)`` override them. ``eb``
    accepts ``eb(d0,r0)`` where either value may be ``n`` for the window
    length.
    """
    m = _METHOD_RE.match(spec)
    if not m:
        raise ParameterError(f"cannot parse method spec {spec!r}")
    name = m.group(1).lower()
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2) else []
    args = [a for a in args if a]

    def num(text: str, what: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParameterError(f"invalid {what} {text!r} in method spec {spec!r}")
        return value

    if name == "vs":
        if args and len(args) not in (3, 4):
            raise ParameterError(f"vs takes 3 or 4 arguments (n_r,h,l[,r0]), got {spec!r}")
        if args:
            nr = num(args[0], "n_r")
            if not nr.is_integer():
                raise ParameterError(f"invalid n_r {args[0]!r} in method spec {spec!r}")
            nr = int(nr)
            h = num(args[1], "h")
            l = num(args[2], "l")
            if len(args) == 4:
                r0 = num(args[3], "r0")
        return VolatilitySensitive(n_r=nr, h=h, l=l, r0=r0)
    if name == "eb":
        if len(args) > 2:
            raise ParameterError(f"eb takes at most 2 arguments (d0,r0), got {spec!r}")
        d0v = None if (len(args) < 1 or args[0] == "n") else num(args[0], "d0")
        r0v = None if (len(args) < 2 or args[1] == "n") else num(args[1], "r0")
        return EmpiricalBayes(d0=d0v, r0=r0v)
    if name == "sample":
        if args:
            raise ParameterError(f"sample takes no arguments, got {spec!r}")
        return SampleNormal()
    raise ParameterError(f"unknown method {name!r}; expected vs, eb, or sample")


def parse_methods(specs, nr: int = 4, h: float = 2.0, l: float = 0.0, r0: float | None = None):
    methods = [parse_method(s, nr=nr, h=h, l=l, r0=r0) for s in specs]
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ParameterError(f"duplicate method labels in {labels}")
    return methods
