"""Estimator objects consumed by the rolling backtest engine and the CLI.

Each estimator is an immutable config with the engine's four members: a
stable ``label``, ``validate(window, k)``, and two predictive methods that
price nothing. ``day_predictive`` is the scalar reference: one window's
predictive ``(location, scale, df)`` from the per-day API (``df`` infinite
for ``sample``). ``batch_predictive`` fits every evaluation day at once from
shared :class:`RollingMoments` and returns that record as arrays. Each of its
checks is a per-day mask, and a day that fails any of them is NaN: the engine
runs ``day_predictive`` on those days, which decides, and prices them in one
call. The shared ``day_estimates`` prices one window at every (level, measure).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .conjugate import (PredictiveParams, RiskEstimate, RiskMeasure, _risk_estimates,
                        posterior_predictive, risk_estimate)
from .errors import DimensionError, NumericalError, ParameterError
from .priors import VsConfig, eb_hyperparams, vs_hyperparams
from .returns import PortfolioWeights, ReturnWindow, RollingMoments, sample_stats

__all__ = [
    "VolatilitySensitive",
    "EmpiricalBayes",
    "SampleNormal",
    "parse_method",
    "parse_methods",
    "sample_method_estimate",
]

# Batched checks are stricter than the scalar ones, so that rounding
# differences between the two paths cannot hide a scalar error: a std within
# this factor of the degenerate floor (for ``sample``, a portfolio std within
# it of the weighted floor), or a Cholesky pivot whose square is below this
# fraction of its diagonal entry, sends that day to the scalar path, which
# then decides.
_FLOOR_MARGIN = 2.0
_PIVOT_RTOL = 1e-8


def _predictive(moments: RollingMoments, weights: PortfolioWeights, scale_sq, df, ok):
    """The ``(location, scale, df)`` of every day, NaN on the days that fail
    ``ok``, whose ``scale_sq`` is not positive and finite or whose ``df`` is
    not positive. The location ``w' mean`` is summed over each day's own
    row, as in ``w' cov w`` (:meth:`RollingMoments.portfolio_variance`)."""
    ok = ok & (0 < scale_sq) & (scale_sq < np.inf) & (df > 0)
    location = (moments.mean * weights.w).sum(axis=1)
    return tuple(np.where(ok, x, np.nan) for x in (location, np.sqrt(scale_sq), df))


def _conjugate_batch(moments: RollingMoments, weights: PortfolioWeights, d0, v_w, v_rw,
                     r0: float, ok=True):
    """Conjugate predictive ``(location, scale, df)`` of every day, with
    ``m0`` the window mean and prior scale ``S0 = c D cov D``,
    ``c = (d0-k-1)(n-1)/n``.

    The batched form of ``ConjugateHyperparams`` -> ``posterior_predictive``,
    the predictive that each day's ``day_estimates`` prices.
    The posterior scale matrix is ``(n-1) cov + S0`` (the mean-shift term
    vanishes because ``m0`` is the sample mean), and the predictive needs
    only its quadratic form in ``w``:
    ``w'Sw = (n-1) v_w + c v_rw``, with ``v_w = w' cov w`` and
    ``v_rw = (Dw)' cov (Dw)``, the two portfolio variances that set ``d0``.
    Then ``df = n + d0 - 2k``, squared scale ``(n+r0+1)/((n+r0) df) * w'Sw``
    and location ``w' mean``. ``D`` is ``diag(sigma_r/sigma)`` for ``vs``
    and the identity for ``eb``; the caller's ``ok`` marks the days where it
    is positive. The days that fail ``ok``, the pivot or the floor check are NaN.

    ``ConjugateHyperparams`` requires ``S0`` positive definite. The relative
    pivot test on ``moments.pivots`` does not change when a matrix is
    multiplied by a positive scalar or scaled by a positive diagonal on both
    sides, so one check of ``cov`` decides it for ``S0``. The posterior
    matrix, a sum of two positive definite matrices, then needs no factor:
    both terms of its quadratic form are positive.
    """
    n, k = moments.window, weights.k
    diag = np.diagonal(moments.cov, axis1=1, axis2=2)
    ok = (ok & (moments.pivots * moments.pivots > _PIVOT_RTOL * diag).all(axis=1)
          & (moments.std > _FLOOR_MARGIN * moments.floor).all(axis=1))
    df = n + d0 - 2 * k
    c = (d0 - k - 1.0) * (n - 1.0) / n
    scale_sq = (n + r0 + 1.0) / ((n + r0) * df) * ((n - 1) * v_w + c * v_rw)
    return _predictive(moments, weights, scale_sq, df, ok)


class _Estimator:
    def day_estimates(self, window: ReturnWindow, weights: PortfolioWeights, alphas, measures):
        """Every ``(level, measure)`` risk estimate of one window's own predictive, level-major."""
        return _risk_estimates(self.day_predictive(window, weights), alphas, measures, self.label)


def _fmt(x: float) -> str:
    """A label number: 12 significant digits, as levels are printed, so that
    every label parses back to its method."""
    return f"{x:.12g}"


@dataclass(frozen=True)
class VolatilitySensitive(VsConfig, _Estimator):
    """Volatility-sensitive conjugate estimator; its fields are the
    :class:`VsConfig` of the scheme, checked when it is built."""

    @property
    def label(self) -> str:
        r0 = "" if self.r0 is None else f",{_fmt(self.r0)}"
        return f"vs({self.n_r},{_fmt(self.h)},{_fmt(self.l)}{r0})"

    def validate(self, window: int, k: int) -> None:
        if self.n_r > window:
            raise ParameterError(f"{self.label}: short window {self.n_r} exceeds window {window}")
        if window < k + 2:
            raise ParameterError(f"{self.label}: window {window} must be at least k+2 = {k + 2}")

    def day_predictive(self, window: ReturnWindow, weights: PortfolioWeights) -> PredictiveParams:
        return posterior_predictive(window, weights, vs_hyperparams(window, weights, self)[0])

    @np.errstate(all="ignore")  # the days that divide by zero are masked
    def batch_predictive(self, moments: RollingMoments, weights: PortfolioWeights):
        """Every day's predictive ``(location, scale, df)``, NaN where the scalar path decides."""
        ratio = moments.short_std(self.n_r) / moments.std
        v_w = moments.portfolio_variance(weights.w)
        v_rw = moments.portfolio_variance(weights.w, self.n_r)
        # ratio > 0 keeps D positive definite, so S0 is when cov is
        ok = (ratio > 0).all(axis=1) & (v_w > 0)
        high = np.maximum(1.0, v_rw / v_w) ** self.h
        low = 1.0
        if self.l != 0:
            ok &= v_rw > 0
            low = np.maximum(1.0, v_w / v_rw) ** self.l
        n, k = moments.window, weights.k
        d0 = np.maximum(k + 2.0, n * high * low)
        r0 = float(n) if self.r0 is None else float(self.r0)
        return _conjugate_batch(moments, weights, d0, v_w, v_rw, r0, ok)


@dataclass(frozen=True)
class EmpiricalBayes(_Estimator):
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

    def day_predictive(self, window: ReturnWindow, weights: PortfolioWeights) -> PredictiveParams:
        return posterior_predictive(window, weights, eb_hyperparams(window, self.d0, self.r0))

    @np.errstate(all="ignore")  # the days that divide by zero are masked
    def batch_predictive(self, moments: RollingMoments, weights: PortfolioWeights):
        """Every day's predictive ``(location, scale, df)``, NaN where the scalar path decides."""
        n = float(moments.window)
        d0 = np.full(moments.days, n if self.d0 is None else float(self.d0))
        r0 = n if self.r0 is None else float(self.r0)
        v_w = moments.portfolio_variance(weights.w)
        return _conjugate_batch(moments, weights, d0, v_w, v_w, r0)


@dataclass(frozen=True)
class SampleNormal(_Estimator):
    """Plug-in baseline from the sample mean/covariance and normal quantiles."""

    @property
    def label(self) -> str:
        return "sample"

    def validate(self, window: int, k: int) -> None:
        if window < 2:
            raise ParameterError("sample: window must be at least 2")

    def day_predictive(self, window: ReturnWindow, weights: PortfolioWeights) -> PredictiveParams:
        """The plug-in normal with the portfolio's sample mean and variance, as ``df = inf``."""
        if weights.k != window.k:
            raise DimensionError(f"weights have {weights.k} entries, window has {window.k} assets")
        stats = sample_stats(window)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            variance = float(weights.w @ stats.cov @ weights.w)
        if not variance > 0:
            raise NumericalError("degenerate portfolio variance in sample estimator")
        return PredictiveParams(float(weights.w @ stats.mean), math.sqrt(variance), math.inf)

    @np.errstate(all="ignore")  # the days of a negative variance are masked
    def batch_predictive(self, moments: RollingMoments, weights: PortfolioWeights):
        """Every day's normal ``(location, scale, inf)``, NaN where the scalar path decides:
        where the portfolio std is within ``_FLOOR_MARGIN`` of its rounding
        floor ``sum |w_i| floor_i``, as the scalar path refuses only a
        variance that is not positive."""
        v_w = moments.portfolio_variance(weights.w)
        floor = (moments.floor * np.abs(weights.w)).sum(axis=1)
        return _predictive(moments, weights, v_w, np.full(moments.days, np.inf),
                           v_w > (_FLOOR_MARGIN * floor) ** 2)


def sample_method_estimate(window: ReturnWindow, weights: PortfolioWeights, alpha: float,
                           measure: RiskMeasure = RiskMeasure.VAR,
                           method: str = "sample") -> RiskEstimate:
    """Plug-in frequentist baseline: :func:`risk_estimate` of the ``sample``
    predictive, the normal quantile (or expected-shortfall factor) applied to
    the sample mean and covariance."""
    return risk_estimate(SampleNormal().day_predictive(window, weights), alpha, measure, method)


_METHOD_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*(?:\(([^)]*)\))?\s*$")


def parse_method(spec: str):
    """Parse one method spec string like ``vs(4,2,0)``, ``eb`` or ``sample``.

    Bare ``vs`` is ``vs(4,2,0)``; ``vs(n_r,h,l)`` leaves r0 at the window
    length and ``vs(n_r,h,l,r0)`` sets it. ``eb`` accepts ``eb(d0,r0)``
    where either value may be ``n`` for the window length. Every method's
    ``label`` is a spec that parses back to it.
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
        values = [num(text, what) for text, what in zip(args, ("n_r", "h", "l", "r0"))]
        try:
            return VolatilitySensitive(*values)
        except ParameterError as exc:  # the scheme's own check, e.g. a fractional n_r
            raise ParameterError(f"invalid method spec {spec!r}: {exc}") from None
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


def parse_methods(specs):
    methods = [parse_method(s) for s in specs]
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ParameterError(f"duplicate method labels in {labels}")
    return methods
