"""Rolling-window forecast evaluation, hit sequences, and the Basel
traffic-light classification.

For every evaluation day the configured estimators are fit on the trailing
window and priced for the next day; the realized return of a day is never
visible to its own forecast. One driver serves ``rolling_forecasts``,
``estimate_series``, ``run_backtest`` and ``run_backtests``. It is batched
and takes a stack of return histories (one for all but ``run_backtests``):
their evaluation days, history after history, form one day axis, cut into
memory-bounded segments that may span several histories. The moments of
every trailing window of a segment are computed in one pass
(:func:`stacked_moments`) and shared by all methods, and each estimator's
``batch_estimates`` maps them to the segment's forecasts as one array
program, once per segment. A day's forecast has the same bits however the
histories are stacked and cut. The per-day scalar path, each estimator's
``day_estimates`` on one :class:`ReturnWindow` at a time, is the
reference. It runs, within each history, on exactly the days the batched
path leaves NaN: the days where a batched check fails, and every day of an
object that only defines ``day_estimates`` or of weights of the wrong
length. Batched checks are stricter than the scalar ones, so the first of
those days that raises is the method's first bad day, and the method fails
with exactly the scalar error of it.

The driver hands back, per history and method, either its forecasts or the
day and error of its first failure (day -1 for a failed precondition).
``run_backtest`` lists every failing method and scores the others;
``estimate_series`` raises the error with the earliest day, the earliest
method on a tie, as a day-major scalar loop would; ``rolling_forecasts``
raises its one method's error. The exceedance count is then scored against
the binomial null and classified Green / Amber / Red at the 95% and 99.99%
cumulative-probability thresholds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conjugate import RiskEstimate, RiskMeasure
from .errors import DimensionError, ParameterError, ValidationError
from .returns import PortfolioWeights, ReturnWindow, stacked_moments

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
    "run_backtests",
]

GREEN_THRESHOLD = 0.95
RED_THRESHOLD = 0.9999
# The highest VaR level a rolling run accepts: up to it the t quantile is
# tested against an independent reference within 1e-12 relative.
MAX_LEVEL = 0.9999
# Memory budget for one segment of days. A day's share (see _day_bytes) is
# its (k, k) covariance, about ten (k,) vectors and thirty scalars across the
# moments and the estimators' temporaries: at k = 5 a segment holds 1,248 days
# (five of the README backtest's replications), at k = 50 it holds 43.
_SEGMENT_BYTES = 1 << 20


def _day_bytes(k: int) -> int:
    return 8 * (k * k + 10 * k + 30)

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
    """Rolling evaluation settings: window length and VaR levels, each in
    (0.5, ``MAX_LEVEL``]."""

    window: int = 250
    levels: tuple[float, ...] = (0.975, 0.99)

    def __post_init__(self):
        if int(self.window) < 2:
            raise ParameterError(f"window must be at least 2 days, got {self.window!r}")
        levels = tuple(float(a) for a in self.levels)
        if not levels:
            raise ParameterError("at least one VaR level is required")
        for a in levels:
            if not 0.5 < a <= MAX_LEVEL:
                raise ParameterError(f"VaR level {a!r} outside (0.5, {MAX_LEVEL}]")
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


class _Replication:
    """One history in the stack: per method a NaN ``(days, levels,
    measures)`` array to fill, or the ``(-1, error)`` of a failed
    precondition, and the methods whose days the batched engine fits."""

    def __init__(self, returns, weights, cfg: RollingConfig, methods, measures):
        self.returns = returns
        self.values = []
        for method in methods:
            try:
                _check_method(returns, cfg, method)
                self.values.append(np.full((returns.shape[0] - cfg.window, len(cfg.levels),
                                            len(measures)), np.nan))
            except (ValidationError, ArithmeticError) as exc:
                self.values.append((-1, exc))
        self.batched = [j for j, m in enumerate(methods) if not isinstance(self.values[j], tuple)
                        and hasattr(m, "batch_estimates") and weights.k == returns.shape[1]]
        self.days = returns.shape[0] - cfg.window if self.batched else 0

    def finish(self, weights, cfg: RollingConfig, methods, measures, asset_ids):
        """``(returns, results)``, the days the batched engine left NaN and
        all days of the other methods priced on the scalar path."""
        return self.returns, [
            values if isinstance(values, tuple)
            else _day_by_day(self.returns, weights, cfg, method, measures, values, asset_ids)
            for method, values in zip(methods, self.values)]


def _fit_segment(pieces, weights, cfg: RollingConfig, methods, measures) -> None:
    """Fit one segment: ``pieces`` are ``(replication, start, stop)`` day
    ranges, whose moments are stacked so that each batched method runs once
    on all of them."""
    moments = stacked_moments([rep.returns[start:stop + cfg.window] for rep, start, stop in pieces],
                              cfg.window)
    for j in sorted({j for rep, _, _ in pieces for j in rep.batched}):
        values = methods[j].batch_estimates(moments, weights, cfg.levels, measures)
        offset = 0
        for rep, start, stop in pieces:
            if j in rep.batched:
                rep.values[j][start:stop] = values[offset:offset + stop - start]
            offset += stop - start


def _forecasts(histories, weights, cfg: RollingConfig, methods, measures, asset_ids):
    """Yield ``(returns, results)`` for each of ``histories`` in turn:
    ``results`` holds each method's ``(days, levels, measures)`` forecasts
    or the ``(day, error)`` of its first failure, day -1 for a failed
    precondition.

    The batched days of all histories, in order, form one day axis, cut
    into segments of as many days as fit in ``_SEGMENT_BYTES``; a segment
    may span several histories. Each segment's moments are computed once
    and shared by every method with a ``batch_estimates``, which runs once
    per segment. A history is handed back, with the days left NaN and all
    days of the other methods priced day by day within it, as soon as its
    last segment is fitted, so no more histories are held than the current
    segment spans.
    """
    step = max(1, _SEGMENT_BYTES // _day_bytes(weights.k))
    args = (weights, cfg, methods, measures)
    pending, pieces, room = deque(), [], step
    for returns in histories:
        rep = _Replication(_as_matrix(returns), *args)
        pending.append(rep)
        day = 0
        while day < rep.days:
            take = min(room, rep.days - day)
            pieces.append((rep, day, day + take))
            day, room = day + take, room - take
            if not room:
                _fit_segment(pieces, *args)
                pieces, room = [], step
                while pending[0] is not rep:
                    yield pending.popleft().finish(*args, asset_ids)
        while pending and not (pieces and pieces[0][0] is pending[0]):
            yield pending.popleft().finish(*args, asset_ids)
    if pieces:
        _fit_segment(pieces, *args)
    while pending:
        yield pending.popleft().finish(*args, asset_ids)


def rolling_forecasts(returns, weights: PortfolioWeights, cfg: RollingConfig, method,
                      asset_ids=None):
    """Day-ahead forecasts over a return history.

    For each day t in [window+1, T0] (1-based), the estimator is fit on rows
    [t-window, t-1] and the day-t estimates at every configured level are
    emitted as ``(t, RiskEstimate)`` pairs, day-major in level order.
    ``asset_ids`` label the columns in error messages (default ``a1..ak``).
    """
    [(_, [values])] = _forecasts([returns], weights, cfg, [method], _VAR, asset_ids)
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
    measures = (RiskMeasure.VAR, RiskMeasure.CVAR)
    [(returns, values)] = _forecasts([returns], weights, cfg, methods, measures, asset_ids)
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
    return next(run_backtests([returns], weights, cfg, methods, asset_ids))


def run_backtests(histories, weights: PortfolioWeights, cfg: RollingConfig, methods,
                  asset_ids=None):
    """Yield :func:`run_backtest` of each of ``histories`` in turn, fitted
    as one stack: each method's batched engine runs once per segment of
    days, not once per history. ``histories`` may be a generator; a history
    is drawn from it only when the current segment reaches it. Each
    history's reports and failures have the bits of its own
    :func:`run_backtest`.
    """
    for returns, results in _forecasts(histories, weights, cfg, methods, _VAR, asset_ids):
        realized = realized_portfolio_returns(returns, weights, cfg.window + 1)
        reports: list[BacktestReport] = []
        failures: list[tuple[str, Exception]] = []
        for method, values in zip(methods, results):
            if isinstance(values, tuple):
                failures.append((method.label, values[1]))
                continue
            exceedances = (realized[:, None] < -values[:, :, 0]).sum(axis=0)
            for alpha, count in zip(cfg.levels, exceedances):
                reports.append(traffic_light(int(count), len(realized), alpha, method=method.label))
        yield reports, failures
