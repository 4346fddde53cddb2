"""Estimator objects consumed by the rolling backtest engine and the CLI.

Each estimator is an immutable config with a stable ``label`` and a
``day_estimates`` method that fits once on a window and prices every
requested (level, measure) pair from that single fit. That per-day method is
the scalar reference. ``batch_estimates`` computes the same numbers for every
evaluation day of a history at once from shared :class:`RollingMoments`; when
one of its checks fails it raises :class:`BatchCheckFailed`, and the engine
reruns that method day by day so the scalar path decides and raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .conjugate import RiskMeasure, _t_es_factor, posterior_predictive, risk_estimate
from .errors import ParameterError
from .priors import VsConfig, eb_hyperparams, sample_method_estimate, vs_hyperparams
from .returns import PortfolioWeights, ReturnWindow, RollingMoments
from .studentt import normal_es_factor, normal_quantile

__all__ = [
    "VolatilitySensitive",
    "EmpiricalBayes",
    "SampleNormal",
    "parse_method",
    "parse_methods",
    "BatchCheckFailed",
]

# Batched checks are stricter than the scalar ones, so that rounding
# differences between the two paths cannot hide a scalar error: a std within
# this factor of the degenerate floor, or a Cholesky pivot whose square is
# below this fraction of its diagonal entry, sends the method to the scalar
# path, which then decides.
_FLOOR_MARGIN = 2.0
_PIVOT_RTOL = 1e-8


class BatchCheckFailed(Exception):
    """A batched check failed; the day-by-day scalar path must decide."""


def _require(ok) -> None:
    if not np.all(ok):
        raise BatchCheckFailed


def _quad(mats: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w' M w`` for each matrix of a ``(days, k, k)`` stack, with ``w`` one
    weight vector or one per day. One summation order for both, so equal
    weights give equal bits."""
    return np.einsum("...i,...ij,...j->...", w, mats, w)


def _require_pd(mats: np.ndarray) -> None:
    """:class:`BatchCheckFailed` unless every matrix of the stack is positive
    definite with room to spare: each Cholesky pivot's square above
    ``_PIVOT_RTOL`` times its diagonal entry."""
    try:
        chol = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        raise BatchCheckFailed from None
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    _require(pivots * pivots > _PIVOT_RTOL * np.diagonal(mats, axis1=1, axis2=2))


def _risk_values(location, scale, factors) -> np.ndarray:
    """``-location + factor * scale`` as ``(days, levels, measures)``."""
    return -location[:, None, None] + factors * scale[:, None, None]


def _conjugate_day(window: ReturnWindow, weights: PortfolioWeights, hp, alphas, measures,
                   label: str) -> list:
    """Conjugate predictive risk on one window, level-major: the scalar
    reference that :func:`_conjugate_batch` reproduces for every day."""
    pred = posterior_predictive(window, weights, hp)
    return [risk_estimate(pred, alpha, measure, method=label)
            for alpha in alphas for measure in measures]


def _conjugate_batch(moments: RollingMoments, weights: PortfolioWeights, d0, v_w, v_rw,
                     r0: float, alphas, measures) -> np.ndarray:
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
    and the identity for ``eb``; the caller ensures it is positive.

    ``ConjugateHyperparams`` requires ``S0`` positive definite. The relative
    pivot test of :func:`_require_pd` does not change when a matrix is
    multiplied by a positive scalar or scaled by a positive diagonal on both
    sides, so one check of ``cov`` decides it for ``S0``. The posterior
    matrix, a sum of two positive definite matrices, then needs no factor:
    both terms of its quadratic form are positive.
    """
    n, k = moments.window, weights.k
    _require_pd(moments.cov)
    df = n + d0 - 2 * k
    _require(df > 0)
    c = (d0 - k - 1.0) * (n - 1.0) / n
    scale_sq = (n + r0 + 1.0) / ((n + r0) * df) * ((n - 1) * v_w + c * v_rw)
    _require(scale_sq > 0)
    alphas = np.asarray(alphas, dtype=float)
    df = df[:, None]
    q = stdtrit(df, alphas)
    factors = []
    for measure in measures:
        if RiskMeasure(measure) is RiskMeasure.VAR:
            factors.append(q)
        else:
            _require(df > 1)
            factors.append(_t_es_factor(df, alphas, q))
    return _risk_values(moments.mean @ weights.w, np.sqrt(scale_sq), np.stack(factors, axis=-1))


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

    def batch_estimates(self, moments: RollingMoments, weights: PortfolioWeights, alphas, measures):
        """``day_estimates`` for every day, as ``(days, levels, measures)``."""
        sigma = moments.std
        _require(sigma > _FLOOR_MARGIN * moments.floor)
        ratio = moments.short_std(self.n_r) / sigma
        _require(ratio > 0)  # D positive definite, so S0 is when cov is
        v_w = _quad(moments.cov, weights.w)
        v_rw = _quad(moments.cov, ratio * weights.w)
        _require(v_w > 0)
        high = np.maximum(1.0, v_rw / v_w) ** self.h
        low = 1.0
        if self.l != 0:
            _require(v_rw > 0)
            low = np.maximum(1.0, v_w / v_rw) ** self.l
        n, k = moments.window, weights.k
        d0 = np.maximum(k + 2.0, n * high * low)
        r0 = float(n) if self.r0 is None else float(self.r0)
        return _conjugate_batch(moments, weights, d0, v_w, v_rw, r0, alphas, measures)


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
        if d0 < k + 2:
            raise ParameterError(f"{self.label}: d0 = {d0} must be at least k+2 = {k + 2}")
        if self.r0 is not None and not self.r0 > 0:
            raise ParameterError(f"{self.label}: r0 must be positive")

    def day_estimates(self, window: ReturnWindow, weights: PortfolioWeights, alphas, measures):
        hp = eb_hyperparams(window, d0=self.d0, r0=self.r0)
        return _conjugate_day(window, weights, hp, alphas, measures, self.label)

    def batch_estimates(self, moments: RollingMoments, weights: PortfolioWeights, alphas, measures):
        """``day_estimates`` for every day, as ``(days, levels, measures)``."""
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

    def batch_estimates(self, moments: RollingMoments, weights: PortfolioWeights, alphas, measures):
        """``day_estimates`` for every day, as ``(days, levels, measures)``."""
        variance = _quad(moments.cov, weights.w)
        _require(variance > 0)
        factors = np.array([
            [normal_quantile(a) if RiskMeasure(m) is RiskMeasure.VAR else normal_es_factor(a)
             for m in measures]
            for a in alphas
        ])
        return _risk_values(moments.mean @ weights.w, np.sqrt(variance), factors)


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
            return float(text)
        except ValueError:
            raise ParameterError(f"invalid {what} {text!r} in method spec {spec!r}") from None

    if name == "vs":
        if args and len(args) not in (3, 4):
            raise ParameterError(f"vs takes 3 or 4 arguments (n_r,h,l[,r0]), got {spec!r}")
        if args:
            nr = int(num(args[0], "n_r"))
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
