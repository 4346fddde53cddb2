"""Rolling-window forecast evaluation, hit sequences, and the Basel
traffic-light classification.

For every evaluation day the configured estimators are fit on the trailing
window and priced for the next day; the realized return of a day is never
visible to its own forecast. A method has a ``label``, ``validate(window,
k)``, ``batch_predictive`` and ``day_predictive``. One driver serves
``rolling_forecasts``, ``estimate_arrays``, ``run_backtest`` and
``run_backtests``. It takes a stack of return histories (one for all but
``run_backtests``) and checks preconditions once per run: each method's
``validate`` once, and each history's length against the window. The
histories' evaluation days, history after history, form one day axis, cut
into memory-bounded segments of whole moment blocks that may span several
histories. The moments of every trailing window of a segment are computed in
one pass (:func:`stacked_moments`) and shared by all methods; each method's
``batch_predictive`` maps them to predictive ``(location, scale, df)``
arrays, and one call prices all methods, once per segment. A day's forecast
has the same bits however the histories are stacked and cut. The scalar
path, ``day_predictive`` on one :class:`ReturnWindow` at a time, is the
reference. It runs on the days the batched path leaves NaN, in day order,
and one call per history and method prices them all. Batched checks are
stricter than the scalar ones, so the first of those days that raises is the
method's first bad day, and the method fails with exactly the scalar error
of it. Weights of the wrong length raise one :class:`DimensionError` as a
history is taken in.

The driver hands back, per history and method, either its forecasts or the
day and error of its first failure (day -1 for a failed precondition).
``run_backtest`` lists every failing method and scores the others;
``estimate_arrays`` raises the error with the earliest day, the earliest
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

from .conjugate import RiskEstimate, RiskMeasure, _predictive_risk, _require_cvar_df
from .errors import DimensionError, NumericalError, ParameterError, ValidationError
from .returns import _SEGMENT_BYTES, PortfolioWeights, ReturnWindow, _block_days, stacked_moments

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
    "estimate_arrays",
    "estimate_series",
    "run_backtest",
    "run_backtests",
]

GREEN_THRESHOLD = 0.95
RED_THRESHOLD = 0.9999
# The highest VaR level a rolling run accepts: up to it the t quantile is
# tested against an independent reference within 1e-12 relative.
MAX_LEVEL = 0.9999
# A segment of whole moment blocks fits in _SEGMENT_BYTES, a day's share being
# its (k, k) covariance and about ten (k,) vectors and thirty scalars (see
# _day_bytes): at k = 5 the README backtest's 128- and 122-day blocks fill 1,248
# days to 1,128. It holds at least one block: at k = 50 one of 52 days, 1.2 MiB.


def _day_bytes(k: int) -> int:
    return 8 * (k * k + 10 * k + 30)

# Backtesting scores VaR forecasts; CVaR is only exported by estimate_arrays.
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
        if not float(self.window).is_integer():
            raise ParameterError(f"window must be a whole number of days, got {self.window!r}")
        if float(self.window) < 2:
            raise ParameterError(f"window must be at least 2 days, got {self.window!r}")
        levels = tuple(float(a) for a in self.levels)
        if not levels:
            raise ParameterError("at least one VaR level is required")
        for a in levels:
            if not 0.5 < a <= MAX_LEVEL:
                raise ParameterError(f"VaR level {a!r} outside (0.5, {MAX_LEVEL}]")
        object.__setattr__(self, "window", int(self.window))
        object.__setattr__(self, "levels", levels)


def _as_matrix(returns, weights: PortfolioWeights) -> np.ndarray:
    """``returns`` as a ``(days, assets)`` matrix whose assets match ``weights``."""
    returns = np.asarray(returns, dtype=float)
    returns = returns[:, None] if returns.ndim == 1 else returns
    if returns.shape[1] != weights.k:
        raise DimensionError(f"weights have {weights.k} entries, history has "
                             f"{returns.shape[1]} assets")
    return returns


def _day_by_day(returns, weights, cfg: RollingConfig, method, measures, out, asset_ids):
    """The scalar path: ``method.day_predictive`` on the trailing window of
    each day that is NaN in ``out``, in day order, then one pricing call for
    all of them. Returns the filled ``(days, levels, measures)`` array, or the
    ``(day, error)`` of the first such day that raises."""
    days, records = np.flatnonzero(np.isnan(out).any(axis=(1, 2))), []
    for day in days:
        try:
            pred = method.day_predictive(
                ReturnWindow.from_matrix(returns[day:day + cfg.window], asset_ids), weights)
            _require_cvar_df(pred, measures)
        except (ValidationError, ArithmeticError) as exc:
            return int(day), exc
        records.append((pred.location, pred.scale, pred.df))
    if records:
        out[days] = _predictive_risk(*np.transpose(records), cfg.levels, measures)
    return out


def _fit_segment(pieces, batched, weights, cfg: RollingConfig, methods, measures) -> None:
    """Fit one segment: ``pieces`` are ``(values, returns, start, stop)`` day
    ranges of histories, each starting at a moment block, whose rows
    ``returns[start:stop + window]`` are stacked so that each of the
    ``batched`` methods runs once on all of them and one call prices all
    their predictives into the histories' ``values``."""
    moments = stacked_moments([returns[start:stop + cfg.window]
                               for _, returns, start, stop in pieces], cfg.window)
    records = [methods[j].batch_predictive(moments, weights) for j in batched]
    priced = _predictive_risk(*map(np.concatenate, zip(*records)), cfg.levels, measures)
    bounds = np.cumsum([stop - start for _, _, start, stop in pieces])[:-1]
    for j, method_values in zip(batched, np.split(priced, len(batched))):
        for (values, _, start, stop), part in zip(pieces, np.split(method_values, bounds)):
            values[j][start:stop] = part


def _forecasts(histories, weights, cfg: RollingConfig, methods, measures, asset_ids):
    """Yield ``(returns, results)`` for each of ``histories`` in turn:
    ``results`` holds each method's ``(days, levels, measures)`` forecasts
    or the ``(day, error)`` of its first failure, day -1 for a failed
    precondition.

    Each method's ``validate(window, k)`` runs once per call (``weights``
    pin k); a history no longer than the window fails every method. The
    batched days of all histories, in order, form one day axis of each
    history's moment blocks (:func:`_block_days`, the last maybe shorter).
    A segment takes as many whole blocks as fit in ``_SEGMENT_BYTES``, at
    least one, and may span several histories; its moments are shared by
    every method's ``batch_predictive``, which runs once per segment. A
    history is handed back, with its NaN days priced on the scalar path, once
    its last segment is fitted: only that segment's histories and the next
    are held.
    """
    checks = []
    for method in methods:
        try:
            method.validate(cfg.window, weights.k)
            checks.append(None)
        except (ValidationError, ArithmeticError) as exc:
            checks.append((-1, exc))
    batched = [j for j, failed in enumerate(checks) if failed is None]
    step = _SEGMENT_BYTES // _day_bytes(weights.k)
    block = _block_days(weights.k, cfg.window)

    def finish():
        values, returns = pending.popleft()
        return returns, [v if isinstance(v, tuple)
                         else _day_by_day(returns, weights, cfg, method, measures, v, asset_ids)
                         for method, v in zip(methods, values)]

    pending, pieces, room = deque(), [], step
    for returns in histories:
        returns = _as_matrix(returns, weights)
        days = returns.shape[0] - cfg.window
        too_short = None if days > 0 else (-1, ValidationError(
            f"history length {returns.shape[0]} must exceed the rolling window {cfg.window}"))
        values = [too_short or failed or np.full((days, len(cfg.levels), len(measures)), np.nan)
                  for failed in checks]
        pending.append((values, returns))
        for day in range(0, days if batched else 0, block):
            size = min(block, days - day)
            if pieces and size > room:  # a segment takes whole blocks, at least one
                _fit_segment(pieces, batched, weights, cfg, methods, measures)
                pieces, room = [], step
                while pending[0][0] is not values:
                    yield finish()
            if pieces and pieces[-1][0] is values:
                pieces[-1][3] += size
            else:
                pieces.append([values, returns, day, day + size])
            room -= size
        while pending and not (pieces and pieces[0][0] is pending[0][0]):
            yield finish()
    if pieces:
        _fit_segment(pieces, batched, weights, cfg, methods, measures)
    while pending:
        yield finish()


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


def _portfolio_returns(returns: np.ndarray, weights: PortfolioWeights) -> np.ndarray:
    """Each row's ``w' r``, summed over the row's own products, so a day's
    bits do not depend on its position in the history (inf or NaN where it
    overflows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (returns * weights.w).sum(axis=1)


def realized_portfolio_returns(returns, weights: PortfolioWeights, start_day: int) -> np.ndarray:
    """Realized portfolio returns for days start_day..T0 (1-based, inclusive);
    one that is not finite (an overflow) is a :class:`NumericalError` naming its day."""
    realized = _portfolio_returns(_as_matrix(returns, weights)[start_day - 1:], weights)
    bad = np.flatnonzero(~np.isfinite(realized))
    if bad.size:
        raise NumericalError(f"realized portfolio return on day {start_day + bad[0]} is not "
                             f"finite: {float(realized[bad[0]])!r}")
    return realized


def estimate_arrays(returns, weights: PortfolioWeights, cfg: RollingConfig, methods,
                    asset_ids=None):
    """Daily VaR and CVaR series as ``(keys, realized, values)``: on each
    evaluation day (window+1 .. T0, 1-based) every method is fit once and
    priced at every level and measure, column j of ``values`` being the series
    of ``keys[j] = (method_label, alpha, measure)``; ``realized`` holds each
    day's portfolio return, summed over its own row (inf where it overflows).
    A failing day raises as the day-major scalar loop would: the first bad
    day, first method on it."""
    measures = (RiskMeasure.VAR, RiskMeasure.CVAR)
    [(returns, values)] = _forecasts([returns], weights, cfg, methods, measures, asset_ids)
    errors = [v for v in values if isinstance(v, tuple)]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    keys = [(m.label, a, measure) for m in methods for a in cfg.levels for measure in measures]
    days = returns.shape[0] - cfg.window
    flat = np.stack(values, axis=1).reshape(days, -1) if methods else np.empty((days, 0))
    return keys, _portfolio_returns(returns[cfg.window:], weights), flat


def estimate_series(returns, weights: PortfolioWeights, cfg: RollingConfig, methods,
                    asset_ids=None):
    """:func:`estimate_arrays` as one ``(day, realized_return, estimates)`` per
    evaluation day, ``estimates`` a dict keyed by ``(method_label, alpha, measure)``."""
    keys, realized, values = estimate_arrays(returns, weights, cfg, methods, asset_ids)
    return [(cfg.window + day + 1, r, dict(zip(keys, row)))
            for day, (r, row) in enumerate(zip(realized.tolist(), values.tolist()))]


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
