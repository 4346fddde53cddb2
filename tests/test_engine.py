"""The batched rolling engine against the per-day scalar reference."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench import (
    DegenerateAssetError,
    EmpiricalBayes,
    NumericalError,
    PortfolioWeights,
    ReturnWindow,
    RiskMeasure,
    RollingConfig,
    SampleNormal,
    ValidationError,
    VolatilitySensitive,
    equal_weights,
    estimate_series,
    rolling_moments,
    run_backtest,
    sample_stats,
    short_window_std,
)
from riskbench import backtest
from riskbench.cli import DEFAULT_METHODS
from riskbench.cli import main as cli_main
from riskbench.estimators import parse_methods

RTOL = 1e-10
VAR, CVAR = RiskMeasure.VAR, RiskMeasure.CVAR


def scalar_values(returns, weights, window, method, levels, measures, asset_ids=None):
    """(days, levels, measures) from ``day_estimates`` on one window at a time."""
    out = []
    for t in range(window, returns.shape[0]):
        win = ReturnWindow.from_matrix(returns[t - window:t], asset_ids)
        ests = method.day_estimates(win, weights, levels, measures)
        out.append(np.reshape([e.value for e in ests], (len(levels), len(measures))))
    return np.array(out)


def scalar_first_error(returns, weights, window, method, asset_ids=None):
    for t in range(window, returns.shape[0]):
        win = ReturnWindow.from_matrix(returns[t - window:t], asset_ids)
        try:
            method.day_estimates(win, weights, (0.99,), (VAR,))
        except (ValidationError, ArithmeticError) as exc:
            return exc
    return None


def correlated_returns(seed, t0, k, shock_rows=0, shock=1.0):
    rng = np.random.default_rng(seed)
    chol = np.tril(rng.normal(0, 0.3, (k, k))) + np.eye(k)
    data = rng.standard_normal((t0, k)) @ chol.T * 0.01 + rng.normal(0, 0.001, k)
    if shock_rows:
        data[-shock_rows:] *= shock
    return data


def test_rolling_moments_match_sample_stats():
    returns = correlated_returns(0, 80, 3)
    moments = rolling_moments(returns, 60)
    assert moments.days == 20
    for day in (0, 7, 19):
        window = ReturnWindow.from_matrix(returns[day:day + 60])
        stats = sample_stats(window)
        np.testing.assert_allclose(moments.mean[day], stats.mean, rtol=1e-13, atol=1e-18)
        np.testing.assert_allclose(moments.cov[day], stats.cov, rtol=1e-12, atol=1e-20)
        np.testing.assert_allclose(moments.std[day], short_window_std(window, 60, stats.mean),
                                   rtol=1e-13)
        np.testing.assert_allclose(moments.short_std(5)[day], short_window_std(window, 5, stats.mean),
                                   rtol=1e-12)
    assert moments.short_std(60) is moments.std


def test_rolling_moments_keep_a_constant_column_below_the_floor():
    # A one-pass (prefix-sum) variance of this column lands far above the
    # degenerate floor; the two-pass blocks must keep it at rounding level.
    returns = correlated_returns(1, 500, 2)
    returns[:, 1] = 0.0123
    moments = rolling_moments(returns, 250)
    assert (moments.std[:, 1] < 2 * moments.floor[:, 1]).all()


@st.composite
def engine_cases(draw):
    k = draw(st.integers(1, 5))
    window = draw(st.integers(k + 2, 40))
    days = draw(st.integers(1, 5))
    method = draw(st.one_of(
        st.builds(
            VolatilitySensitive,
            n_r=st.integers(2, window),
            h=st.floats(0.0, 4.0),
            l=st.floats(0.0, 4.0),
            r0=st.none() | st.floats(0.5, 500.0),
        ),
        st.builds(
            EmpiricalBayes,
            d0=st.none() | st.floats(k + 2.0, 5000.0),
            r0=st.none() | st.floats(0.5, 500.0),
        ),
        st.just(SampleNormal()),
    ))
    levels = tuple(draw(st.lists(st.floats(0.51, 0.999), min_size=1, max_size=3, unique=True)))
    measures = draw(st.sampled_from([(VAR,), (CVAR,), (VAR, CVAR), (CVAR, VAR)]))
    returns = correlated_returns(
        draw(st.integers(0, 2**32 - 1)),
        window + days,
        k,
        shock_rows=draw(st.integers(0, window + days)),
        shock=draw(st.floats(0.2, 5.0)),
    )
    raw_w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    weights = PortfolioWeights(raw_w / raw_w.sum())
    return returns, weights, window, method, levels, measures


@settings(max_examples=150, deadline=None)
@given(engine_cases())
def test_batched_matches_scalar_reference(case):
    returns, weights, window, method, levels, measures = case
    batched = method.batch_estimates(rolling_moments(returns, window), weights, levels, measures)
    scalar = scalar_values(returns, weights, window, method, levels, measures)
    assert batched.shape == scalar.shape
    # Relative to the risk number, or to the return scale when a low level
    # lets location and quantile term cancel.
    tol = RTOL * np.maximum(np.abs(scalar), np.abs(returns).max())
    assert (np.abs(batched - scalar) <= tol).all(), np.abs(batched - scalar).max()


def test_vs_with_full_short_window_equals_eb_bit_for_bit():
    returns = correlated_returns(2, 320, 3, shock_rows=30, shock=3.0)
    moments = rolling_moments(returns, 250)
    weights = equal_weights(3)
    vs = VolatilitySensitive(n_r=250, h=2.0, l=1.0).batch_estimates(
        moments, weights, (0.975, 0.99), (VAR, CVAR))
    eb = EmpiricalBayes().batch_estimates(moments, weights, (0.975, 0.99), (VAR, CVAR))
    np.testing.assert_array_equal(vs, eb)


def _flat_column(returns, window):
    returns = returns.copy()
    returns[:, 1] = 0.0
    return returns


def _vanishing_recent_column(returns, window):
    # Column 1 alternates +-0.01 and then sits exactly at its mean (zero) for
    # the last 4 rows of the first window: vs(4,...) sees a zero short-window
    # std, so its rescaled prior scale matrix is singular on day 1.
    returns = returns.copy()
    head = window - 4
    returns[:head, 1] = 0.01 * (-1.0) ** np.arange(head)
    returns[head:window, 1] = 0.0
    return returns


def _late_flat_column(returns, window):
    # Flat from row 10 on: the first window wholly inside it is day 11.
    returns = returns.copy()
    returns[10:, 1] = 0.0
    return returns


def _segment_days(monkeypatch, days, k):
    monkeypatch.setattr(backtest, "_SEGMENT_BYTES", days * 8 * k * k)


@pytest.mark.parametrize("make", [_flat_column, _vanishing_recent_column, _late_flat_column])
def test_errors_match_scalar_path_and_spare_other_methods(make, monkeypatch):
    _segment_days(monkeypatch, 7, 3)
    window = 60
    returns = make(correlated_returns(3, window + 20, 3), window)
    ids = ("X", "FLAT", "Z")
    weights = equal_weights(3)
    methods = [VolatilitySensitive(4, 2.0, 0.0), EmpiricalBayes(), SampleNormal()]
    cfg = RollingConfig(window=window, levels=(0.975, 0.99))
    expected = {m.label: scalar_first_error(returns, weights, window, m, ids) for m in methods}
    assert isinstance(expected["vs(4,2,0)"], NumericalError)
    reports, failures = run_backtest(returns, weights, cfg, methods, ids)
    failed = {label: exc for label, exc in failures}
    for label, ref in expected.items():
        if ref is None:
            assert label not in failed
            assert len([r for r in reports if r.method == label]) == 2
        else:
            assert type(failed[label]) is type(ref)
            assert str(failed[label]) == str(ref)
    assert "sample" not in failed
    first = next(ref for ref in expected.values() if ref is not None)
    with pytest.raises(type(first), match=re.escape(str(first))):
        estimate_series(returns, weights, cfg, methods, ids)


class FailsOnShock:
    """``sample`` on the scalar path only, raising on any window that holds
    a return above 0.4."""

    label = "shock"

    def validate(self, window, k):
        pass

    def day_estimates(self, window, weights, alphas, measures):
        if window.data.max() > 0.4:
            raise NumericalError("a shock is in the window")
        return SampleNormal().day_estimates(window, weights, alphas, measures)


# vs(4,2,0) first fails on day 10, the first window of the flat column. The
# error of the earliest day wins, and of the earliest method on a tie.
@pytest.mark.parametrize("shock_day, winner", [(9, "shock"), (10, "vs(4,2,0)"), (11, "vs(4,2,0)")])
def test_estimate_series_raises_the_earliest_days_error(shock_day, winner):
    window = 60
    returns = _late_flat_column(correlated_returns(3, window + 20, 3), window)
    returns[window - 1 + shock_day, 0] = 0.5
    methods = [VolatilitySensitive(4, 2.0, 0.0), FailsOnShock()]
    weights = equal_weights(3)
    errors = {m.label: scalar_first_error(returns, weights, window, m) for m in methods}
    with pytest.raises(type(errors[winner]), match=re.escape(str(errors[winner]))):
        estimate_series(returns, weights, RollingConfig(window=window, levels=(0.99,)), methods)


def test_segmented_days_match_one_segment(monkeypatch):
    returns = correlated_returns(5, 90, 3, shock_rows=20, shock=3.0)
    weights = equal_weights(3)
    cfg = RollingConfig(window=60, levels=(0.975, 0.99))
    methods = [VolatilitySensitive(4, 2.0, 1.0), EmpiricalBayes(), SampleNormal()]
    whole = estimate_series(returns, weights, cfg, methods)
    _segment_days(monkeypatch, 7, 3)
    assert estimate_series(returns, weights, cfg, methods) == whole


def test_flat_column_error_names_the_asset():
    returns = _flat_column(correlated_returns(4, 80, 3), 60)
    cfg = RollingConfig(window=60, levels=(0.99,))
    _, failures = run_backtest(returns, equal_weights(3), cfg,
                               [VolatilitySensitive(4, 2.0, 0.0)], ("X", "FLAT", "Z"))
    [(label, exc)] = failures
    assert isinstance(exc, DegenerateAssetError)
    assert "'FLAT'" in str(exc)


@st.composite
def default_method_cases(draw):
    """A correlated return history, positive weights and a window that all
    four default methods accept."""
    k = draw(st.integers(1, 5))
    window = draw(st.integers(k + 4, 40))
    returns = correlated_returns(
        draw(st.integers(0, 2**32 - 1)),
        window + draw(st.integers(1, 15)),
        k,
        shock_rows=draw(st.integers(0, 20)),
        shock=draw(st.floats(0.2, 5.0)),
    )
    raw_w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return returns, raw_w / raw_w.sum(), RollingConfig(window=window, levels=(0.975, 0.99))


def series_values(series):
    """``estimate_series`` output as realized returns and a (days, columns) array."""
    return (np.array([realized for _, realized, _ in series]),
            np.array([list(estimates.values()) for _, _, estimates in series]))


def exceedances(reports):
    return [(r.method, r.alpha, r.exceedances) for r in reports]


# Both properties change only the order and rounding of sums. They hold to
# RTOL, not 1e-12: the vs(4,2,0) CVaR at a large df amplifies that rounding
# (1.8e-12 relative seen in 1,500 examples).
@settings(max_examples=25, deadline=None)
@given(default_method_cases(), st.data())
def test_permuting_assets_with_weights_leaves_forecasts_unchanged(case, data):
    returns, w, cfg = case
    perm = data.draw(st.permutations(range(returns.shape[1])))
    weights, weights_p = PortfolioWeights(w), PortfolioWeights(w[perm])
    methods = parse_methods(DEFAULT_METHODS)
    realized, values = series_values(estimate_series(returns, weights, cfg, methods))
    realized_p, values_p = series_values(
        estimate_series(returns[:, perm], weights_p, cfg, methods))
    np.testing.assert_allclose(realized_p, realized, rtol=RTOL, atol=0)
    np.testing.assert_allclose(values_p, values, rtol=RTOL, atol=0)
    reports, failures = run_backtest(returns, weights, cfg, methods)
    reports_p, failures_p = run_backtest(returns[:, perm], weights_p, cfg, methods)
    assert failures == failures_p == []
    assert exceedances(reports_p) == exceedances(reports)


@settings(max_examples=25, deadline=None)
@given(default_method_cases(), st.floats(-0.05, 0.05))
def test_shifting_every_return_shifts_every_risk_number(case, c):
    returns, w, cfg = case
    weights = PortfolioWeights(w)
    methods = parse_methods(DEFAULT_METHODS)
    realized, values = series_values(estimate_series(returns, weights, cfg, methods))
    realized_c, values_c = series_values(estimate_series(returns + c, weights, cfg, methods))
    # VaR and CVaR are losses: a shift of c moves each by -c. Relative to
    # the size of the terms, so that a shift cancelling the risk number is
    # not measured against a value near zero.
    assert (np.abs(realized_c - (realized + c)) <= RTOL * (np.abs(realized) + abs(c))).all()
    assert (np.abs(values_c - (values - c)) <= RTOL * (np.abs(values) + abs(c))).all()
    reports, failures = run_backtest(returns, weights, cfg, methods)
    reports_c, failures_c = run_backtest(returns + c, weights, cfg, methods)
    assert failures == failures_c == []
    assert exceedances(reports_c) == exceedances(reports)


# Exceedances of ``backtest --scenario pmvn --k 5 --t 500 --replications 3
# --seed 0`` with the default methods and levels, recorded from the per-day
# scalar engine: (replication, method, alpha) -> count.
PINNED_EXCEEDANCES = {
    (0, "eb", "0.975"): 4, (0, "eb", "0.99"): 2,
    (0, "sample", "0.975"): 4, (0, "sample", "0.99"): 2,
    (0, "vs(4,0,0)", "0.975"): 4, (0, "vs(4,0,0)", "0.99"): 2,
    (0, "vs(4,2,0)", "0.975"): 4, (0, "vs(4,2,0)", "0.99"): 2,
    (1, "eb", "0.975"): 4, (1, "eb", "0.99"): 1,
    (1, "sample", "0.975"): 4, (1, "sample", "0.99"): 1,
    (1, "vs(4,0,0)", "0.975"): 5, (1, "vs(4,0,0)", "0.99"): 1,
    (1, "vs(4,2,0)", "0.975"): 5, (1, "vs(4,2,0)", "0.99"): 1,
    (2, "eb", "0.975"): 4, (2, "eb", "0.99"): 0,
    (2, "sample", "0.975"): 4, (2, "sample", "0.99"): 0,
    (2, "vs(4,0,0)", "0.975"): 3, (2, "vs(4,0,0)", "0.99"): 0,
    (2, "vs(4,2,0)", "0.975"): 3, (2, "vs(4,2,0)", "0.99"): 0,
}


def test_pinned_exceedance_counts(tmp_path):
    assert cli_main(["backtest", "--scenario", "pmvn", "--k", "5", "--t", "500",
                     "--replications", "3", "--seed", "0", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {(int(r["replication"]), r["method"], r["alpha"]): int(r["exceedances"]) for r in rows}
    assert got == PINNED_EXCEEDANCES
