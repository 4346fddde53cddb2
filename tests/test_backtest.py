import math
from fractions import Fraction

import numpy as np
import pytest

from riskbench import (
    DimensionError,
    NumericalError,
    ParameterError,
    PortfolioWeights,
    PredictiveParams,
    RiskEstimate,
    RiskMeasure,
    RollingConfig,
    ValidationError,
    Zone,
    binomial_cdf,
    classify_zone,
    equal_weights,
    hit_sequence,
    rolling_forecasts,
    run_backtest,
    traffic_light,
)
from riskbench.backtest import estimate_arrays, realized_portfolio_returns

from _oracles import exact_binomial_cdf


class ConstantMethod:
    """Test stub emitting a fixed risk number for every day and level: a
    normal at ``-value`` with the smallest positive scale, every day on the
    scalar path."""

    def __init__(self, value, label="const"):
        self.value = value
        self.label = label

    def validate(self, window, k):
        pass

    def batch_predictive(self, moments, weights):
        nan = np.full(moments.days, np.nan)
        return nan, nan, nan

    def day_predictive(self, window, weights):
        return PredictiveParams(-self.value, math.ulp(0.0), math.inf)


class RecordingMethod(ConstantMethod):
    """Stub that records the windows it was fit on."""

    def __init__(self):
        super().__init__(0.05, label="recording")
        self.windows = []

    def day_predictive(self, window, weights):
        self.windows.append(np.array(window.data))
        return super().day_predictive(window, weights)


def test_binomial_cdf_matches_exact_oracle():
    for alpha, p in ((0.99, Fraction(1, 100)), (0.975, Fraction(1, 40))):
        for c in (0, 1, 4, 5, 9, 10, 17, 100, 250):
            mine = binomial_cdf(c, 250, 1 - alpha)
            exact = float(exact_binomial_cdf(c, 250, p))
            assert mine == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_binomial_cdf_edge_cases():
    assert binomial_cdf(250, 250, 0.01) == 1.0
    values = [binomial_cdf(c, 250, 0.01) for c in range(0, 251)]
    assert all(a < b for a, b in zip(values[:-1], values[1:]) if b < 1.0)
    # deep tail stays finite and positive
    assert 0 < binomial_cdf(0, 10_000, 0.01) < 1e-40


def test_classic_zone_boundaries_at_99():
    # Basel's published 0-4 / 5-9 / >=10 bands at T=250, alpha=0.99
    zones = [traffic_light(c, 250, 0.99).zone for c in range(0, 15)]
    assert zones[:5] == [Zone.GREEN] * 5
    assert zones[5:10] == [Zone.AMBER] * 5
    assert all(z == Zone.RED for z in zones[10:])


def test_zone_boundaries_at_975_golden():
    # frozen from the exact binomial CDF: green through 10, amber 11-16,
    # red from 17 on
    for c in range(0, 11):
        assert traffic_light(c, 250, 0.975).zone == Zone.GREEN
    for c in range(11, 17):
        assert traffic_light(c, 250, 0.975).zone == Zone.AMBER
    for c in range(17, 30):
        assert traffic_light(c, 250, 0.975).zone == Zone.RED


def test_zone_thresholds_inclusive_amber():
    assert classify_zone(0.9499999) == Zone.GREEN
    assert classify_zone(0.95) == Zone.AMBER
    assert classify_zone(0.9999) == Zone.AMBER
    assert classify_zone(0.99990001) == Zone.RED


def test_zone_monotone_in_count():
    order = {Zone.GREEN: 0, Zone.AMBER: 1, Zone.RED: 2}
    for alpha in (0.975, 0.99):
        prev = 0
        for c in range(0, 60):
            rank = order[traffic_light(c, 250, alpha).zone]
            assert rank >= prev
            prev = rank


def test_zero_exceedances_green():
    for alpha, days in ((0.99, 250), (0.975, 250), (0.96, 400)):
        assert (1 - alpha) * days > 0.05
        assert traffic_light(0, days, alpha).zone == Zone.GREEN


def test_traffic_light_preconditions():
    with pytest.raises(ParameterError):
        traffic_light(-1, 250, 0.99)
    with pytest.raises(ParameterError):
        traffic_light(251, 250, 0.99)
    with pytest.raises(ParameterError):
        traffic_light(3, 250, 0.4)


def test_hit_sequence_strictness():
    forecasts = [(i + 1, RiskEstimate(RiskMeasure.VAR, 0.99, 0.03, "m")) for i in range(4)]
    realized = [-0.05, -0.03, 0.01, -0.0299999]
    hits = hit_sequence(forecasts, realized)
    assert hits.hits == (1, 0, 0, 0)
    assert hits.exceedances == 1
    # forecasts against their own negated values never count as exceedances
    own = hit_sequence(forecasts, [-0.03] * 4)
    assert own.hits == (0, 0, 0, 0)


def test_hit_sequence_alignment():
    forecasts = [(1, RiskEstimate(RiskMeasure.VAR, 0.99, 0.03, "m"))]
    with pytest.raises(DimensionError):
        hit_sequence(forecasts, [0.0, 0.0])


def test_rolling_forecast_count_and_days():
    rng = np.random.default_rng(0)
    returns = rng.normal(0, 0.01, size=(500, 2))
    cfg = RollingConfig(window=250, levels=(0.975,))
    forecasts = rolling_forecasts(returns, equal_weights(2), cfg, ConstantMethod(0.05))
    assert len(forecasts) == 250
    assert forecasts[0][0] == 251
    assert forecasts[-1][0] == 500


def test_rolling_forecast_level_order():
    rng = np.random.default_rng(5)
    returns = rng.normal(0, 0.01, size=(253, 2))
    cfg = RollingConfig(window=250, levels=(0.975, 0.99))
    forecasts = rolling_forecasts(returns, equal_weights(2), cfg, ConstantMethod(0.05))
    assert [(d, e.alpha) for d, e in forecasts] == [
        (251, 0.975), (251, 0.99), (252, 0.975), (252, 0.99), (253, 0.975), (253, 0.99),
    ]


def test_rolling_forecast_causality():
    rng = np.random.default_rng(1)
    returns = rng.normal(0, 0.01, size=(300, 2))
    cfg = RollingConfig(window=250, levels=(0.99,))
    method = RecordingMethod()
    rolling_forecasts(returns, equal_weights(2), cfg, method)
    # the fit for day t must only see rows < t; mutating later rows cannot
    # change earlier windows
    modified = returns.copy()
    modified[260:] = 99.0
    method2 = RecordingMethod()
    rolling_forecasts(modified, equal_weights(2), cfg, method2)
    for w1, w2 in zip(method.windows[:10], method2.windows[:10]):
        np.testing.assert_array_equal(w1, w2)


@pytest.mark.parametrize("window, message", [
    (2.7, "window must be a whole number of days, got 2.7"),
    (math.nan, "window must be a whole number of days, got nan"),
    (math.inf, "window must be a whole number of days, got inf"),
    (1, "window must be at least 2 days, got 1"),
])
def test_rolling_config_refuses_a_fractional_infinite_or_short_window(window, message):
    with pytest.raises(ParameterError, match=message):
        RollingConfig(window=window)
    assert RollingConfig(window=2.0).window == 2


def test_rolling_requires_history_beyond_window():
    returns = np.zeros((250, 2)) + 0.01
    cfg = RollingConfig(window=250)
    with pytest.raises(ValidationError):
        rolling_forecasts(returns, equal_weights(2), cfg, ConstantMethod(0.05))


def test_infinite_forecast_yields_no_exceedances():
    rng = np.random.default_rng(2)
    returns = rng.normal(0, 0.01, size=(300, 2))
    cfg = RollingConfig(window=250, levels=(0.99,))
    forecasts = rolling_forecasts(returns, equal_weights(2), cfg, ConstantMethod(math.inf))
    realized = realized_portfolio_returns(returns, equal_weights(2), 251)
    hits = hit_sequence(forecasts, realized)
    assert hits.exceedances == 0


def test_non_finite_realized_return_is_a_numerical_error_naming_its_day():
    rng = np.random.default_rng(2)
    returns = rng.normal(0, 0.01, size=(300, 2))
    returns[-1] = 1e308
    weights = PortfolioWeights(np.array([3.0, -2.0]))
    with pytest.raises(NumericalError, match=r"realized portfolio return on day 300 is not finite"):
        realized_portfolio_returns(returns, weights, 251)
    with pytest.raises(NumericalError, match=r"on day 300 is not finite"):
        run_backtest(returns, weights, RollingConfig(window=250), [ConstantMethod(0.05)])


@pytest.mark.parametrize("k", [1, 5, 9, 20])
def test_realized_returns_have_one_kernel_and_each_rows_own_bits(k):
    rng = np.random.default_rng(k)
    returns = rng.normal(0, 0.01, size=(300, k))
    raw = rng.uniform(0.1, 1.0, k)
    weights = PortfolioWeights(raw / raw.sum())
    realized = realized_portfolio_returns(returns, weights, 251)
    _, from_estimate, _ = estimate_arrays(returns, weights, RollingConfig(window=250), [])
    assert realized.tobytes() == from_estimate.tobytes()
    for start in (1, 7, 250):
        sliced = realized_portfolio_returns(returns[start:], weights, 251 - start)
        assert sliced.tobytes() == realized.tobytes()


def test_run_backtest_isolates_failing_methods():
    rng = np.random.default_rng(3)
    returns = rng.normal(0, 0.01, size=(300, 2))

    class BrokenMethod(ConstantMethod):
        def validate(self, window, k):
            raise ParameterError("never valid")

    reports, failures = run_backtest(
        returns,
        equal_weights(2),
        RollingConfig(window=250, levels=(0.975, 0.99)),
        [BrokenMethod(0.0, label="broken"), ConstantMethod(0.05, label="ok")],
    )
    assert [f[0] for f in failures] == ["broken"]
    assert sorted({r.method for r in reports}) == ["ok"]
    assert len(reports) == 2


def test_calibration_with_true_quantile():
    # forecasting with the true data-generating quantile keeps the exceedance
    # frequency near 1 - alpha (smoke-sized version of the acceptance check)
    rng = np.random.default_rng(4)
    alpha, days, reps = 0.975, 250, 10
    freqs = []
    for _ in range(reps):
        x = rng.normal(0.0002, 0.01, size=days)
        true_q = -0.0002 + 1.959963984540054 * 0.01
        freqs.append(np.mean(x < -true_q))
    tol = 3 * math.sqrt(alpha * (1 - alpha) / days)
    assert abs(np.mean(freqs) - (1 - alpha)) < tol
