"""Rolling-window forecast evaluation, hit sequences, and the Basel
traffic-light classification.

For every evaluation day the configured estimators are fit on the trailing
window and priced for the next day; the realized return of a day is never
visible to its own forecast. One driver serves ``rolling_forecasts``,
``estimate_series`` and ``run_backtest``. It is batched: the moments of
every trailing window are computed in one pass (:func:`rolling_moments`) and
shared by all methods, and each estimator's ``batch_estimates`` maps them to
all days' forecasts as one array program. (Days are taken in memory-bounded
segments; at the README shape one segment holds them all.) The per-day
scalar path, each estimator's ``day_estimates`` on one :class:`ReturnWindow`
at a time, is the reference. It runs on exactly the days the batched path
leaves NaN: the days where a batched check fails, and every day of an
object that only defines ``day_estimates`` or of weights of the wrong
length. Batched checks are stricter than the scalar ones, so the first of
those days that raises is the method's first bad day, and the method fails
with exactly the scalar error of it.

The driver hands back, per method, either its forecasts or the day and
error of its first failure (day -1 for a failed precondition).
``run_backtest`` lists every failing method and scores the others;
``estimate_series`` raises the error with the earliest day, the earliest
method on a tie, as a day-major scalar loop would; ``rolling_forecasts``
raises its one method's error. The exceedance count is then scored against
the binomial null and classified Green / Amber / Red at the 95% and 99.99%
cumulative-probability thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conjugate import RiskEstimate, RiskMeasure
from .errors import DimensionError, ParameterError, ValidationError
from .returns import PortfolioWeights, ReturnWindow, rolling_moments

__all__ = [
    "Zone",
    "HitSequence",
    "BacktestReport",
    "RollingConfig",
    "rolling_forecasts",
    "hit_sequence",
    "binomial_cdf",
    "classify_zone",
    "traffic_light",
    "realized_portfolio_returns",
    "estimate_series",
    "run_backtest",
]

GREEN_THRESHOLD = 0.95
RED_THRESHOLD = 0.9999
# Memory budget for one segment's (days, k, k) moment arrays. The README
# shape (k = 5) fits all its days in one segment; at k = 50 a segment holds
# 52 days, which keeps the batched engine's temporaries to a few megabytes.
_SEGMENT_BYTES = 1 << 20
# Backtesting scores VaR forecasts; CVaR is only exported by estimate_series.
_VAR = (RiskMeasure.VAR,)


class Zone(str, Enum):
    GREEN = "green"
    AMBER = "amber"
    RED = "red"


@dataclass(frozen=True)
class HitSequence:
    """Bit vector of daily VaR exceedances at a fixed level alpha."""

    hits: tuple[int, ...]
    alpha: float

    def __post_init__(self):
        if any(h not in (0, 1) for h in self.hits):
            raise ValidationError("hit sequence entries must be 0 or 1")

    @property
    def days(self) -> int:
        return len(self.hits)

    @property
    def exceedances(self) -> int:
        return sum(self.hits)


@dataclass(frozen=True)
class BacktestReport:
    """Exceedance count, its cumulative binomial probability, and the zone."""

    exceedances: int
    days: int
    alpha: float
    cum_prob: float
    zone: Zone
    method: str = ""


@dataclass(frozen=True)
class RollingConfig:
    """Rolling evaluation settings: window length and VaR levels."""

    window: int = 250
    levels: tuple[float, ...] = (0.975, 0.99)

    def __post_init__(self):
        if int(self.window) < 2:
            raise ParameterError(f"window must be at least 2 days, got {self.window!r}")
        levels = tuple(float(a) for a in self.levels)
        if not levels:
            raise ParameterError("at least one VaR level is required")
        for a in levels:
            if not 0.5 < a < 1.0:
                raise ParameterError(f"VaR level {a!r} outside (0.5, 1)")
        object.__setattr__(self, "window", int(self.window))
        object.__setattr__(self, "levels", levels)


def _as_matrix(returns) -> np.ndarray:
    returns = np.asarray(returns, dtype=float)
    return returns[:, None] if returns.ndim == 1 else returns


def _check_method(returns: np.ndarray, cfg: RollingConfig, method) -> None:
    if returns.shape[0] <= cfg.window:
        raise ValidationError(
            f"history length {returns.shape[0]} must exceed the rolling window {cfg.window}"
        )
    method.validate(cfg.window, returns.shape[1])


def _day_by_day(returns, weights, cfg: RollingConfig, method, measures, out, asset_ids):
    """Scalar reference engine: ``method.day_estimates`` on the trailing
    window of each day that is NaN in ``out``, in day order. Returns the
    filled ``(days, levels, measures)`` array, or the ``(day, error)`` of the
    first such day that raises."""
    for day in np.flatnonzero(np.isnan(out).any(axis=(1, 2))):
        try:
            window = ReturnWindow.from_matrix(returns[day:day + cfg.window], asset_ids)
            estimates = method.day_estimates(window, weights, cfg.levels, measures)
        except (ValidationError, ArithmeticError) as exc:
            return int(day), exc
        out[day] = np.reshape([est.value for est in estimates], out.shape[1:])
    return out


def _forecasts(returns, weights, cfg: RollingConfig, methods, measures, asset_ids) -> list:
    """Each method's ``(days, levels, measures)`` forecasts, or the
    ``(day, error)`` of its first failure: day -1 for a failed precondition.

    Days are taken in segments whose ``(days, k, k)`` moment arrays fit in
    ``_SEGMENT_BYTES``; each segment's moments are computed once and shared
    by every method with a ``batch_estimates``. The days it leaves NaN, and
    all days of the other methods, then run day by day.
    """
    t0, k = returns.shape
    days = t0 - cfg.window
    out = []
    for method in methods:
        try:
            _check_method(returns, cfg, method)
            out.append(np.full((days, len(cfg.levels), len(measures)), np.nan))
        except (ValidationError, ArithmeticError) as exc:
            out.append((-1, exc))
    batched = [j for j, m in enumerate(methods)
               if not isinstance(out[j], tuple) and hasattr(m, "batch_estimates") and weights.k == k]
    step = max(1, _SEGMENT_BYTES // (8 * k * k))
    for start in range(0, days, step):
        if not batched:
            break
        moments = rolling_moments(returns[start:start + step + cfg.window], cfg.window)
        for j in batched:
            out[j][start:start + step] = methods[j].batch_estimates(moments, weights, cfg.levels,
                                                                    measures)
    return [values if isinstance(values, tuple)
            else _day_by_day(returns, weights, cfg, method, measures, values, asset_ids)
            for method, values in zip(methods, out)]


def rolling_forecasts(returns, weights: PortfolioWeights, cfg: RollingConfig, method,
                      asset_ids=None):
    """Day-ahead forecasts over a return history.

    For each day t in [window+1, T0] (1-based), the estimator is fit on rows
    [t-window, t-1] and the day-t estimates at every configured level are
    emitted as ``(t, RiskEstimate)`` pairs, day-major in level order.
    ``asset_ids`` label the columns in error messages (default ``a1..ak``).
    """
    [values] = _forecasts(_as_matrix(returns), weights, cfg, [method], _VAR, asset_ids)
    if isinstance(values, tuple):
        raise values[1]
    return [
        (cfg.window + day + 1, RiskEstimate(RiskMeasure.VAR, alpha, float(value), method.label))
        for day, row in enumerate(values[:, :, 0])
        for alpha, value in zip(cfg.levels, row)
    ]


def hit_sequence(forecasts, realized_portfolio_returns) -> HitSequence:
    """Exceedance indicators: 1 when the realized return falls strictly below
    the negated forecast, 0 otherwise (ties count as no exceedance)."""
    realized = np.asarray(realized_portfolio_returns, dtype=float).reshape(-1)
    estimates = [est for _, est in forecasts]
    if len(estimates) != realized.size:
        raise DimensionError(
            f"{len(estimates)} forecasts but {realized.size} realized returns"
        )
    if not estimates:
        raise DimensionError("empty forecast sequence")
    alphas = {est.alpha for est in estimates}
    if len(alphas) != 1:
        raise ValidationError("hit sequence requires forecasts at a single level")
    hits = tuple(int(r < -est.value) for est, r in zip(estimates, realized))
    return HitSequence(hits=hits, alpha=estimates[0].alpha)


def binomial_cdf(c: int, days: int, p: float) -> float:
    """P(X <= c) for X ~ Binomial(days, p), summed stably in log space."""
    if not 0 <= c <= days:
        raise ParameterError(f"count {c} outside [0, {days}]")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"success probability {p!r} outside (0, 1)")
    if c == days:
        return 1.0
    log_terms = []
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_n = math.lgamma(days + 1)
    for j in range(c + 1):
        log_terms.append(
            lg_n - math.lgamma(j + 1) - math.lgamma(days - j + 1) + j * log_p + (days - j) * log_q
        )
    peak = max(log_terms)
    total = sum(math.exp(t - peak) for t in log_terms)
    return min(1.0, math.exp(peak) * total)


def classify_zone(cum_prob: float) -> Zone:
    if cum_prob < GREEN_THRESHOLD:
        return Zone.GREEN
    if cum_prob > RED_THRESHOLD:
        return Zone.RED
    return Zone.AMBER


def traffic_light(c: int, days: int, alpha: float, method: str = "") -> BacktestReport:
    """Basel traffic-light classification of ``c`` exceedances in ``days`` days.

    The cumulative probability of observing at most ``c`` exceedances under
    the binomial null with success probability ``1 - alpha`` is mapped to
    Green (< 95%), Amber (between 95% and 99.99%, boundaries inclusive), or
    Red (> 99.99%).
    """
    alpha = float(alpha)
    if not 0.5 < alpha < 1.0:
        raise ParameterError(f"VaR level {alpha!r} outside (0.5, 1)")
    cum_prob = binomial_cdf(c, days, 1.0 - alpha)
    return BacktestReport(
        exceedances=int(c),
        days=int(days),
        alpha=alpha,
        cum_prob=cum_prob,
        zone=classify_zone(cum_prob),
        method=method,
    )


def realized_portfolio_returns(returns, weights: PortfolioWeights, start_day: int) -> np.ndarray:
    """Realized portfolio returns for days start_day..T0 (1-based, inclusive)."""
    returns = np.asarray(returns, dtype=float)
    if returns.ndim == 1:
        returns = returns[:, None]
    return returns[start_day - 1:] @ weights.w


def estimate_series(returns, weights: PortfolioWeights, cfg: RollingConfig, methods,
                    asset_ids=None):
    """Daily VaR and CVaR series for plotting or export.

    For each evaluation day (window+1 .. T0, 1-based) every method is fit
    once and priced at each configured level for both measures. Returns a
    list of ``(day, realized_return, estimates)`` with ``estimates`` a dict
    keyed by ``(method_label, alpha, measure)``. A failing day raises, as the
    day-major scalar loop would: the first bad day, first method on it.
    """
    returns = _as_matrix(returns)
    measures = (RiskMeasure.VAR, RiskMeasure.CVAR)
    values = _forecasts(returns, weights, cfg, methods, measures, asset_ids)
    errors = [v for v in values if isinstance(v, tuple)]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    keys = [(m.label, a, measure) for m in methods for a in cfg.levels for measure in measures]
    days = returns.shape[0] - cfg.window
    flat = np.stack(values, axis=1).reshape(days, -1) if methods else np.empty((days, 0))
    return [
        (t + 1, float(returns[t] @ weights.w), dict(zip(keys, row.tolist())))
        for t, row in zip(range(cfg.window, returns.shape[0]), flat)
    ]


def run_backtest(returns, weights: PortfolioWeights, cfg: RollingConfig, methods,
                 asset_ids=None):
    """Rolling backtest of several estimators over one return history.

    Returns ``(reports, failures)``: one report per (method, level) for every
    method that ran, and a list of ``(label, error)`` pairs for methods whose
    preconditions failed. A failing method never aborts the others. A day
    counts as a hit when its realized return falls strictly below the
    negated VaR forecast.
    """
    returns = _as_matrix(returns)
    realized = realized_portfolio_returns(returns, weights, cfg.window + 1)
    reports: list[BacktestReport] = []
    failures: list[tuple[str, Exception]] = []
    for method, values in zip(methods, _forecasts(returns, weights, cfg, methods, _VAR, asset_ids)):
        if isinstance(values, tuple):
            failures.append((method.label, values[1]))
            continue
        exceedances = (realized[:, None] < -values[:, :, 0]).sum(axis=0)
        for alpha, count in zip(cfg.levels, exceedances):
            reports.append(traffic_light(int(count), len(realized), alpha, method=method.label))
    return reports, failures
