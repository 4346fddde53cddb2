"""The batched rolling engine against the per-day scalar reference."""

import csv
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbench import (
    DegenerateAssetError,
    DegreesOfFreedomError,
    DimensionError,
    EmpiricalBayes,
    NumericalError,
    PortfolioWeights,
    PredictiveParams,
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
from riskbench.conjugate import _predictive_risk
from riskbench.estimators import parse_methods

RTOL = 1e-10
VAR, CVAR = RiskMeasure.VAR, RiskMeasure.CVAR


def batched_values(method, moments, weights, levels, measures):
    """(days, levels, measures) from ``batch_predictive``, priced alone."""
    return _predictive_risk(*method.batch_predictive(moments, weights), levels, measures)


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
    batched = batched_values(method, rolling_moments(returns, window), weights, levels, measures)
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
    vs, eb = (batched_values(method, moments, weights, (0.975, 0.99), (VAR, CVAR))
              for method in (VolatilitySensitive(n_r=250, h=2.0, l=1.0), EmpiricalBayes()))
    np.testing.assert_array_equal(vs, eb)


def test_each_quadratic_form_is_computed_once_per_weights_and_short_window():
    moments = rolling_moments(correlated_returns(2, 320, 3, shock_rows=30, shock=3.0), 250)
    w = equal_weights(3).w
    v_w = moments.portfolio_variance(w)
    assert moments.portfolio_variance(w.copy()) is v_w
    assert moments.portfolio_variance(w, 4) is moments.portfolio_variance(w, 4)
    assert moments.portfolio_variance(w, 250).tobytes() == v_w.tobytes()
    ratio = moments.short_std(4) / moments.std
    np.testing.assert_allclose(moments.portfolio_variance(w, 4),
                               np.einsum("di,dij,dj->d", ratio * w, moments.cov, ratio * w),
                               rtol=1e-13)


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
    monkeypatch.setattr(backtest, "_SEGMENT_BYTES", days * backtest._day_bytes(k))


def recording_segments():
    """A ``_fit_segment`` that records the ``(start, stop)`` days of each
    segment's pieces, one list per call."""
    segments, fit = [], backtest._fit_segment

    def recording(pieces, *args):
        segments.append([(start, stop) for _, _, start, stop in pieces])
        return fit(pieces, *args)

    return segments, mock.patch.object(backtest, "_fit_segment", recording)


@pytest.mark.parametrize("make", [_flat_column, _vanishing_recent_column, _late_flat_column])
def test_errors_match_scalar_path_and_spare_other_methods(make, monkeypatch):
    # 50 days in blocks of 10, two blocks to a segment of 25 days
    _segment_days(monkeypatch, 25, 3)
    window = 10
    returns = make(correlated_returns(3, window + 50, 3), window)
    ids = ("X", "FLAT", "Z")
    weights = equal_weights(3)
    methods = [VolatilitySensitive(4, 2.0, 0.0), EmpiricalBayes(), SampleNormal()]
    cfg = RollingConfig(window=window, levels=(0.975, 0.99))
    expected = {m.label: scalar_first_error(returns, weights, window, m, ids) for m in methods}
    assert isinstance(expected["vs(4,2,0)"], NumericalError)
    segments, patch = recording_segments()
    with patch:
        reports, failures = run_backtest(returns, weights, cfg, methods, ids)
    assert segments == [[(0, 20)], [(20, 40)], [(40, 50)]]
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


class FailsOnShock(SampleNormal):
    """``sample`` on the scalar path only, raising on any window that holds
    a return above 0.4."""

    label = "shock"

    def batch_predictive(self, moments, weights):
        nan = np.full(moments.days, np.nan)
        return nan, nan, nan

    def day_predictive(self, window, weights):
        if window.data.max() > 0.4:
            raise NumericalError("a shock is in the window")
        return super().day_predictive(window, weights)


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
    # 50 days in blocks of 10 days, the shocks in the last two
    returns = correlated_returns(5, 60, 3, shock_rows=20, shock=3.0)
    weights = equal_weights(3)
    cfg = RollingConfig(window=10, levels=(0.975, 0.99))
    assert backtest._block_days(3, cfg.window) == 10
    methods = [VolatilitySensitive(4, 2.0, 1.0), EmpiricalBayes(), SampleNormal()]
    whole = estimate_series(returns, weights, cfg, methods)
    for segment_days, cuts in [(7, [0, 10, 20, 30, 40, 50]),  # at least one block
                               (25, [0, 20, 40, 50]), (39, [0, 30, 50])]:
        _segment_days(monkeypatch, segment_days, 3)
        segments, patch = recording_segments()
        with patch:
            assert estimate_series(returns, weights, cfg, methods) == whole
        assert segments == [[piece] for piece in zip(cuts, cuts[1:])]


def test_flat_column_error_names_the_asset():
    returns = _flat_column(correlated_returns(4, 80, 3), 60)
    cfg = RollingConfig(window=60, levels=(0.99,))
    _, failures = run_backtest(returns, equal_weights(3), cfg,
                               [VolatilitySensitive(4, 2.0, 0.0)], ("X", "FLAT", "Z"))
    [(label, exc)] = failures
    assert isinstance(exc, DegenerateAssetError)
    assert "'FLAT'" in str(exc)


def test_late_constant_column_errors_match_scalar_path():
    # At a window of 250 the rounding error of this column's mean lifts its
    # std above a fixed 16-ulp floor; the scalar path must still call it
    # degenerate, and the engine must report that same error.
    window = 250
    returns = correlated_returns(7, window + 40, 3)
    returns[20:, 1] = 0.0123
    ids = ("X", "FLAT", "Z")
    weights = equal_weights(3)
    methods = [VolatilitySensitive(4, 2.0, 0.0), EmpiricalBayes(), SampleNormal()]
    cfg = RollingConfig(window=window, levels=(0.975, 0.99))
    expected = {m.label: scalar_first_error(returns, weights, window, m, ids) for m in methods}
    assert isinstance(expected["vs(4,2,0)"], DegenerateAssetError)
    _, failures = run_backtest(returns, weights, cfg, methods, ids)
    failed = {label: (type(exc), str(exc)) for label, exc in failures}
    assert failed == {label: (type(ref), str(ref)) for label, ref in expected.items()
                      if ref is not None}
    with pytest.raises(DegenerateAssetError, match=re.escape(str(expected["vs(4,2,0)"]))):
        estimate_series(returns, weights, cfg, methods, ids)


@pytest.mark.parametrize("columns, failing", [(1, ["eb"]), (2, ["eb", "sample"])])
def test_constant_columns_fail_every_method_as_on_the_scalar_path(columns, failing):
    # Column means that round one ulp off the constant in the batched moments
    # leave variances of order 1e-35: eb's prior scale matrix and, with
    # every column constant, the sample portfolio variance pass their
    # batched checks there, so the floor check must catch them.
    window = 13
    returns = correlated_returns(10, 60, 2)
    returns[:, :columns] = 0.05
    weights = equal_weights(2)
    methods = [EmpiricalBayes(), SampleNormal()]
    cfg = RollingConfig(window=window, levels=(0.99,))
    expected = [(m.label, scalar_first_error(returns, weights, window, m)) for m in methods]
    expected = [(label, type(ref), str(ref)) for label, ref in expected if ref is not None]
    assert [label for label, _, _ in expected] == failing
    _, failures = run_backtest(returns, weights, cfg, methods)
    assert [(label, type(exc), str(exc)) for label, exc in failures] == expected
    [(_, error_type, message)] = expected[:1]
    with pytest.raises(error_type, match=re.escape(message)):
        estimate_series(returns, weights, cfg, methods)


class CountingScalarCalls:
    """A method that counts the days priced on the scalar path, and its
    ``validate`` calls."""

    def __init__(self, method):
        self.method, self.label, self.calls, self.validations = method, method.label, 0, 0

    def validate(self, window, k):
        self.validations += 1
        self.method.validate(window, k)

    def batch_predictive(self, moments, weights):
        return self.method.batch_predictive(moments, weights)

    def day_predictive(self, window, weights):
        self.calls += 1
        return self.method.day_predictive(window, weights)


def test_scalar_path_runs_only_on_the_days_left_nan():
    # Asset 2 is flat for the last 255 of 1,000 rows: only the last 5 of 750
    # windows lie wholly inside the flat stretch.
    window = 250
    returns = correlated_returns(8, 1000, 5)
    returns[-255:, 1] = 0.0
    weights = equal_weights(5)
    cfg = RollingConfig(window=window, levels=(0.975, 0.99))
    methods = [CountingScalarCalls(m) for m in parse_methods(DEFAULT_METHODS)]
    reports, failures = run_backtest(returns, weights, cfg, methods)
    assert {label for label, _ in failures} == {"vs(4,2,0)", "vs(4,0,0)", "eb"}
    assert {r.method for r in reports} == {"sample"}
    moments = rolling_moments(returns, window)
    for method in methods:
        batched = batched_values(method.method, moments, weights, cfg.levels, (VAR,))
        nan_days = np.isnan(batched).any(axis=(1, 2)).sum()
        assert method.calls <= nan_days <= 5


def test_a_stale_column_keeps_sample_batched():
    # sample's scalar reference refuses only a portfolio variance that is not
    # positive, so one dead column must not send its days there one by one.
    returns = np.random.default_rng(0).normal(0, 0.01, (5250, 3))
    returns[:, 1] = 0.0
    method = CountingScalarCalls(SampleNormal())
    reports, failures = run_backtest(returns, equal_weights(3), RollingConfig(window=250), [method])
    assert failures == [] and method.calls == 0
    assert [(r.alpha, r.days, r.exceedances) for r in reports] == [(0.975, 5000, 140),
                                                                    (0.99, 5000, 57)]


def test_weights_of_the_wrong_length_raise_one_dimension_error():
    # checked once as a history is taken in, before any method is fitted
    returns = correlated_returns(3, 80, 3)
    w4, cfg = equal_weights(4), RollingConfig(window=60)
    methods = [CountingScalarCalls(m) for m in parse_methods(DEFAULT_METHODS)]
    for run in (lambda: run_backtest(returns, w4, cfg, methods),
                lambda: estimate_series(returns, w4, cfg, methods),
                lambda: backtest.rolling_forecasts(returns, w4, cfg, methods[0]),
                lambda: backtest.rolling_forecasts(returns, w4, cfg, methods[3]),
                lambda: backtest.realized_portfolio_returns(returns, w4, 61)):
        with pytest.raises(DimensionError, match="^weights have 4 entries, history has 3 assets$"):
            run()
    with pytest.raises(DimensionError, match="^weights have 4 entries, history has 1 assets$"):
        backtest.rolling_forecasts(returns[:, 0], w4, cfg, methods[2])
    assert [m.calls for m in methods] == [0, 0, 0, 0]


@st.composite
def degenerate_stretch_cases(draw):
    """An engine case with one column made flat, (nearly) collinear with
    another or constant up to noise near the degenerate floor over a stretch
    of rows that covers, or just misses, a whole window."""
    returns, weights, window, method, levels, measures = draw(engine_cases())
    returns = returns.copy()
    t0, k = returns.shape
    col = draw(st.integers(0, k - 1))
    start = draw(st.integers(0, t0 - window))
    stop = t0 - draw(st.integers(0, t0 - start - window + 1))
    rows = slice(start, stop)
    noise = np.random.default_rng(start).standard_normal(stop - start)
    kind = draw(st.sampled_from(["flat", "near-flat"] + (["collinear"] if k > 1 else [])))
    c = draw(st.sampled_from([0.0, 0.0123, -0.02, 0.05]))
    if kind == "flat":
        returns[rows, col] = c
    elif kind == "collinear":
        other = (col + draw(st.integers(1, k - 1))) % k
        returns[rows, col] = (draw(st.floats(-3.0, 3.0)) * returns[rows, other]
                              + draw(st.sampled_from([0.0, 1e-8, 1e-6, 1e-4])) * noise)
    else:
        floor = max(16, window) * np.finfo(float).eps * max(abs(c), 0.01)
        returns[rows, col] = c + draw(st.floats(0.5, 4.0)) * floor * noise
    return returns, weights, window, method, levels, measures


# The example's batched eb window mean of the constant column is one ulp
# off 0.05, so its variance is 5e-35, not 0: only the floor check sends the
# day to the scalar path, which refuses the singular prior scale matrix.
@settings(max_examples=200, deadline=None)
@given(degenerate_stretch_cases())
@example((np.column_stack([np.full(14, 0.05), correlated_returns(0, 14, 1)]), equal_weights(2),
          13, EmpiricalBayes(), (0.75,), (VAR,)))
def test_batched_is_nan_on_every_day_the_scalar_path_raises(case):
    returns, weights, window, method, levels, measures = case
    batched = batched_values(method, rolling_moments(returns, window), weights, levels, measures)
    for day in range(returns.shape[0] - window):
        try:
            method.day_estimates(ReturnWindow.from_matrix(returns[day:day + window]), weights,
                                 levels, measures)
        except (ValidationError, ArithmeticError):
            assert np.isnan(batched[day]).all()


def test_near_degenerate_days_take_the_scalar_values():
    # Column 1 is constant up to noise whose std falls from 3 to 1.5 times the
    # degenerate floor: the later windows lie within the batched margin of the
    # floor but above the floor itself.
    window, k = 60, 3
    returns = correlated_returns(9, window + 60, k)
    c = 0.01
    floor = window * np.finfo(float).eps * c
    scale = np.where(np.arange(len(returns)) < window, 3.0, 1.5) * floor
    returns[:, 1] = c + scale * np.random.default_rng(9).standard_normal(len(returns))
    weights = equal_weights(k)
    method = VolatilitySensitive(4, 2.0, 0.0)
    cfg = RollingConfig(window=window, levels=(0.975, 0.99))
    reports, failures = run_backtest(returns, weights, cfg, [method])
    assert failures == [] and len(reports) == 2
    measures = (VAR, CVAR)
    batched = batched_values(method, rolling_moments(returns, window), weights, cfg.levels,
                             measures)
    flagged = np.isnan(batched).any(axis=(1, 2))
    assert 0 < flagged.sum() < len(flagged)
    _, values = series_values(estimate_series(returns, weights, cfg, [method]))
    values = values.reshape(batched.shape)
    scalar = scalar_values(returns, weights, window, method, cfg.levels, measures)
    np.testing.assert_array_equal(values[flagged], scalar[flagged])
    np.testing.assert_allclose(values[~flagged], batched[~flagged], rtol=RTOL, atol=0)


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


def test_readme_backtest_fits_once_per_segment(tmp_path):
    # 20 replications of 250 days are 40 moment blocks of 128 and 122 days at
    # k = 5: four segments of 1,128 days (nine blocks), and one of 488. One
    # pricing call per segment solves the t quantiles of all methods (15
    # calls when each conjugate method priced itself, 60 when each
    # replication was fitted alone), the two vs(4, ...) methods share one
    # short-window std per segment (40 before), and each block's shifted
    # products are formed once (44 when segments cut blocks).
    import riskbench.conjugate
    import riskbench.returns

    assert riskbench.returns._block_days(5, 250) == 128
    counts = {"t_quantiles": 0, "short_std": 0, "block": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    with mock.patch.object(riskbench.conjugate, "t_quantiles",
                           counting("t_quantiles", riskbench.conjugate.t_quantiles)), \
            mock.patch.object(riskbench.returns, "_short_stds",
                              counting("short_std", riskbench.returns._short_stds)), \
            mock.patch.object(riskbench.returns, "_shifted_products",
                              counting("block", riskbench.returns._shifted_products)):
        assert cli_main(["backtest", "--scenario", "pmvn", "--k", "5", "--t", "500",
                         "--window", "250", "--alpha", "0.975,0.99", "--replications", "20",
                         *(f"--method={m}" for m in DEFAULT_METHODS), "--seed", "0",
                         "--out", str(tmp_path)]) == 0
    assert counts == {"t_quantiles": 5, "short_std": 5, "block": 40}


def test_pinned_exceedance_counts(tmp_path):
    assert cli_main(["backtest", "--scenario", "pmvn", "--k", "5", "--t", "500",
                     "--replications", "3", "--seed", "0", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {(int(r["replication"]), r["method"], r["alpha"]): int(r["exceedances"]) for r in rows}
    assert got == PINNED_EXCEEDANCES


def _near_floor_last_column(returns, window, seed):
    """The last column as 0.01 plus noise whose std falls from 3 to 1.5 times
    the degenerate floor after the first window: the batched checks of vs
    and eb leave those later days to the scalar path, which prices them."""
    returns = returns.copy()
    floor = window * np.finfo(float).eps * 0.01
    scale = np.where(np.arange(len(returns)) < window, 3.0, 1.5) * floor
    returns[:, -1] = 0.01 + scale * np.random.default_rng(seed).standard_normal(len(returns))
    return returns


@st.composite
def stacking_cases(draw):
    """Replications of one shape, some with a column near the degenerate
    floor (days the batched checks leave to the scalar path) or flat over a
    whole window (vs and eb fail outright), and a segment length. A history
    spans up to three moment blocks, of ``window`` days each."""
    k = draw(st.integers(1, 9))  # reaches k >= 8, where BLAS gemv would round a row by its position
    window = draw(st.integers(k + 4, 30))
    histories = []
    for _ in range(draw(st.integers(1, 5))):
        days = draw(st.integers(1, 3 * window))
        returns = correlated_returns(draw(st.integers(0, 2**32 - 1)), window + days, k,
                                     shock_rows=draw(st.integers(0, 10)),
                                     shock=draw(st.floats(0.2, 5.0)))
        kind = draw(st.sampled_from(["plain", "plain", "near-floor", "flat"]))
        if kind == "near-floor":
            returns = _near_floor_last_column(returns, window, days)
        elif kind == "flat":
            returns[draw(st.integers(0, days - 1)):, -1] = draw(st.sampled_from([0.0, 0.0123]))
        histories.append(returns)
    raw_w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return (histories, PortfolioWeights(raw_w / raw_w.sum()),
            RollingConfig(window=window, levels=(0.975, 0.99)), draw(st.integers(1, 40)))


def forecast_bits(results):
    """Forecast bytes, or the day, type and message of the failure, per method."""
    return [(values[0], type(values[1]), str(values[1])) if isinstance(values, tuple)
            else values.tobytes() for values in results]


def report_bits(reports, failures):
    return reports, [(label, type(exc), str(exc)) for label, exc in failures]


@settings(max_examples=60, deadline=None)
@given(stacking_cases())
def test_stacked_replications_match_each_fitted_alone(case):
    histories, weights, cfg, segment_days = case
    k = weights.k
    methods = parse_methods(DEFAULT_METHODS) + [VolatilitySensitive(3, 1.5, 1.0)]
    alone = [forecast_bits(results)
             for h in histories
             for _, results in backtest._forecasts([h], weights, cfg, methods, (VAR, CVAR), None)]
    reports = [report_bits(*run_backtest(h, weights, cfg, methods)) for h in histories]
    segments, patch = recording_segments()
    with mock.patch.object(backtest, "_SEGMENT_BYTES", segment_days * backtest._day_bytes(k)), \
            patch:
        stacked = [forecast_bits(results) for _, results in backtest._forecasts(
            iter(histories), weights, cfg, methods, (VAR, CVAR), None)]
        stacked_reports = [report_bits(*r) for r in backtest.run_backtests(
            iter(histories), weights, cfg, methods)]
    assert stacked == alone
    assert stacked_reports == reports
    # every piece starts at a block; a segment of more than one block fits
    block = backtest._block_days(k, cfg.window)
    assert all(start % block == 0 for pieces in segments for start, _ in pieces)
    assert all(sum(stop - start for start, stop in pieces) <= max(segment_days, block)
               for pieces in segments)


@settings(max_examples=60, deadline=None)
@given(stacking_cases(), st.data())
def test_a_method_prices_alike_alone_and_with_other_methods(case, data):
    # A segment prices the records of all its methods in one call, so a
    # method's bits must not depend on the others or on its slot.
    histories, weights, cfg, _ = case
    methods = data.draw(st.permutations(parse_methods(DEFAULT_METHODS) + [
        VolatilitySensitive(3, 1.5, 1.0), EmpiricalBayes(d0=30.0)]))
    levels = data.draw(st.lists(st.floats(0.51, 0.9999), min_size=1, max_size=3))
    moments = backtest.stacked_moments(histories, cfg.window)
    records = [m.batch_predictive(moments, weights) for m in methods]
    together = _predictive_risk(*map(np.concatenate, zip(*records)), levels, (VAR, CVAR))
    for record, slot in zip(records, np.split(together, len(methods))):
        assert slot.tobytes() == _predictive_risk(*record, levels, (VAR, CVAR)).tobytes()


def test_stacking_cases_reach_the_scalar_path_and_outright_failures():
    # The two special kinds of replication that stacking_cases draws.
    window, k = 20, 3
    near_floor = _near_floor_last_column(correlated_returns(1, window + 8, k), window, 1)
    flat = correlated_returns(2, window + 8, k)
    flat[3:, -1] = 0.0
    cfg = RollingConfig(window=window)
    counting = [CountingScalarCalls(m) for m in parse_methods(DEFAULT_METHODS)]
    [(_, failures)] = backtest.run_backtests([near_floor], equal_weights(k), cfg, counting)
    assert failures == []
    # sample's scalar reference refuses only a portfolio variance that is
    # not positive, so one near-floor column keeps its days batched.
    assert [m.calls > 0 for m in counting] == [True, True, True, False]
    [(_, failures)] = backtest.run_backtests([flat], equal_weights(k), cfg, counting)
    assert [label for label, _ in failures] == ["vs(4,2,0)", "vs(4,0,0)", "eb"]


def test_each_method_is_validated_once_per_run():
    # validate(window, k) depends on the run alone: the weights pin k
    histories = [correlated_returns(seed, 30, 3) for seed in range(5)]
    methods = [CountingScalarCalls(m) for m in parse_methods(DEFAULT_METHODS + ["eb(4,n)"])]
    results = list(backtest.run_backtests(iter(histories), equal_weights(3),
                                          RollingConfig(window=20), methods))
    assert [[label for label, _ in failures] for _, failures in results] == [["eb(4,n)"]] * 5
    assert [m.validations for m in methods] == [1] * 5


@pytest.mark.parametrize("segment_days", [3, 1000])
def test_a_history_no_longer_than_the_window_fails_every_method(segment_days):
    # the two longer histories hold 5 and 3 blocks of 10 days
    window, k = 10, 3
    weights, cfg = equal_weights(k), RollingConfig(window=window)
    methods = parse_methods(DEFAULT_METHODS + ["eb(4,n)"])
    histories = [correlated_returns(1, window + 45, k), correlated_returns(2, window, k),
                 correlated_returns(3, window + 24, k)]
    alone = [report_bits(*run_backtest(h, weights, cfg, methods)) for h in histories]
    fits, patch = recording_segments()
    with mock.patch.object(backtest, "_SEGMENT_BYTES", segment_days * backtest._day_bytes(k)), \
            patch:
        stacked = [report_bits(*r) for r in backtest.run_backtests(iter(histories), weights, cfg,
                                                                   methods)]
    assert stacked == alone
    assert len(fits) == {3: 8, 1000: 1}[segment_days]  # blocks alone, or one segment
    message = f"history length {window} must exceed the rolling window {window}"
    assert stacked[1] == ([], [(m.label, ValidationError, message) for m in methods])
    assert all(reports for reports, _ in (stacked[0], stacked[2]))


class NanOnDrawnDays:
    """A method whose batched record is NaN on the drawn days of the stacked
    day axis as well, so that the engine prices those on the scalar path."""

    def __init__(self, method, nan_days):
        self.method, self.label, self.nan_days = method, method.label, nan_days

    def validate(self, window, k):
        self.method.validate(window, k)

    def batch_predictive(self, moments, weights):
        return tuple(np.where(self.nan_days, np.nan, x)
                     for x in self.method.batch_predictive(moments, weights))

    def day_predictive(self, window, weights):
        return self.method.day_predictive(window, weights)


def scalar_pricing_calls():
    """A ``_predictive_risk`` that records the days of each call the scalar path makes."""
    calls = []

    def pricing(location, *args):
        if sys._getframe(1).f_code.co_name == "_day_by_day":
            calls.append(location.size)
        return _predictive_risk(location, *args)

    return calls, mock.patch.object(backtest, "_predictive_risk", pricing)


@settings(max_examples=60, deadline=None)
@given(stacking_cases(), st.data())
def test_scalar_days_equal_the_per_day_reference_bit_for_bit(case, data):
    # The scalar path prices every day it runs in one call per history and
    # method, none when there is none; those days keep the bits of each
    # day's own day_estimates, and the others the bits of the batched record.
    histories, weights, cfg, _ = case
    k, window = weights.k, cfg.window
    method = data.draw(st.one_of(
        st.builds(VolatilitySensitive, n_r=st.integers(2, window), h=st.floats(0.0, 4.0),
                  l=st.floats(0.0, 4.0), r0=st.none() | st.floats(0.5, 500.0)),
        st.builds(EmpiricalBayes, d0=st.none() | st.floats(k + 2.0, 5000.0),
                  r0=st.none() | st.floats(0.5, 500.0)),
        st.just(SampleNormal()),
    ))
    levels = tuple(data.draw(st.lists(st.floats(0.51, 0.9999), min_size=1, max_size=3,
                                      unique=True)))
    measures = data.draw(st.sampled_from([(VAR,), (CVAR,), (VAR, CVAR)]))
    cfg = RollingConfig(window=window, levels=levels)
    days = [len(h) - window for h in histories]
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=sum(days), max_size=sum(days))))
    batched = batched_values(method, backtest.stacked_moments(histories, window), weights,
                             levels, measures)
    cuts = np.cumsum(days)[:-1]
    scalar_days = np.split(drawn | np.isnan(batched).any(axis=(1, 2)), cuts)
    calls, patch = scalar_pricing_calls()
    with patch:
        results = [values for _, [values] in backtest._forecasts(
            histories, weights, cfg, [NanOnDrawnDays(method, drawn)], measures, None)]
    expected_calls = []
    for returns, values, nan, batch in zip(histories, results, scalar_days, np.split(batched, cuts)):
        error = scalar_first_error(returns, weights, window, method)
        if error is not None:
            assert (type(values[1]), str(values[1])) == (type(error), str(error))
            continue
        np.testing.assert_array_equal(
            values[nan], scalar_values(returns, weights, window, method, levels, measures)[nan])
        np.testing.assert_array_equal(values[~nan], batch[~nan])
        expected_calls += [nan.sum()] if nan.any() else []
    assert calls == expected_calls


class HeavyTailOnShock(EmpiricalBayes):
    """``eb`` on the scalar path only, with ``df = 1`` on any window that
    holds a return above 0.4."""

    def batch_predictive(self, moments, weights):
        nan = np.full(moments.days, np.nan)
        return nan, nan, nan

    def day_predictive(self, window, weights):
        pred = super().day_predictive(window, weights)
        return PredictiveParams(pred.location, pred.scale, 1.0 if window.data.max() > 0.4 else pred.df)


def test_scalar_cvar_at_df_one_raises_the_day_estimates_error():
    window = 60
    returns = correlated_returns(3, window + 20, 3)
    returns[window + 5, 0] = 0.5
    method, weights = HeavyTailOnShock(), equal_weights(3)
    cfg = RollingConfig(window=window, levels=(0.99,))
    win = ReturnWindow.from_matrix(returns[6:window + 6])
    with pytest.raises(DegreesOfFreedomError) as ref:
        method.day_estimates(win, weights, cfg.levels, (VAR, CVAR))
    assert str(ref.value) == "CVaR multiplier requires df > 1, got 1.0"
    with pytest.raises(DegreesOfFreedomError, match=re.escape(str(ref.value))):
        estimate_series(returns, weights, cfg, [method])
    # VaR alone prices every day, the df = 1 days included, in one call.
    calls, patch = scalar_pricing_calls()
    with patch:
        reports, failures = run_backtest(returns, weights, cfg, [method])
    assert failures == [] and calls == [20]
