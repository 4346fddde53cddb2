import math

import numpy as np
import pytest

from riskbench import (
    DegenerateAssetError,
    ParameterError,
    PortfolioWeights,
    ReturnWindow,
    RiskMeasure,
    VolatilitySensitive,
    VsConfig,
    eb_hyperparams,
    equal_weights,
    posterior_predictive,
    risk_estimate,
    sample_method_estimate,
    sample_stats,
    vs_hyperparams,
)

from _oracles import normal_es


def random_window(rng, n, k, scale=0.01):
    chol = np.tril(rng.normal(0, 0.3, (k, k))) + np.eye(k)
    return ReturnWindow.from_matrix(rng.standard_normal((n, k)) @ chol.T * scale)


def inflate_recent(data, n_r, factor):
    """Scale the deviations of the last n_r rows about the column means."""
    out = np.array(data, dtype=float)
    mean = out.mean(axis=0)
    out[-n_r:] = mean + (out[-n_r:] - mean) * factor
    return out


def test_vs_config_validation():
    with pytest.raises(ParameterError):
        VsConfig(n_r=0, h=2, l=0)
    with pytest.raises(ParameterError):
        VsConfig(n_r=1, h=2, l=0)  # the short std needs at least 2 rows
    with pytest.raises(ParameterError):
        VsConfig(n_r=4, h=-1, l=0)
    with pytest.raises(ParameterError):
        VsConfig(n_r=4, h=2, l=0, r0=0)
    for bad in ({"h": math.inf}, {"h": math.nan}, {"l": math.inf}, {"l": math.nan},
                {"r0": math.inf}, {"r0": math.nan}):
        with pytest.raises(ParameterError):
            VsConfig(**{"n_r": 4, "h": 2, "l": 0, **bad})
    VsConfig(n_r=4, h=0, l=-1.5)  # any real l is allowed


@pytest.mark.parametrize("cls", [VsConfig, VolatilitySensitive])
@pytest.mark.parametrize("n_r", [2.7, math.nan, math.inf, -math.inf])
def test_fractional_or_non_finite_n_r_is_refused(cls, n_r):
    # int() truncated 2.7 to 2 and raised a bare ValueError on nan
    with pytest.raises(ParameterError, match="n_r"):
        cls(n_r=n_r)


def test_integral_float_n_r_is_accepted():
    assert VsConfig(n_r=4.0) == VsConfig(n_r=4)
    assert type(VsConfig(n_r=4.0).n_r) is int
    assert VolatilitySensitive(n_r=np.int64(6)).label == "vs(6,2,0)"


def test_eb_hand_example():
    window = ReturnWindow.from_matrix(np.array([0.01, -0.01]))
    hp = eb_hyperparams(window, d0=4.0, r0=2.0)
    assert hp.s0[0, 0] == pytest.approx(2e-4, rel=1e-12)
    assert hp.m0[0] == pytest.approx(0.0, abs=1e-18)


def test_eb_min_d0_factor():
    rng = np.random.default_rng(0)
    window = random_window(rng, 20, 3)
    stats = sample_stats(window)
    hp = eb_hyperparams(window, d0=5.0)  # k+2
    np.testing.assert_allclose(hp.s0, (19.0 / 20.0) * stats.cov, rtol=1e-12)
    with pytest.raises(ParameterError):
        eb_hyperparams(window, d0=4.9)


def test_eb_s0_positive_definite():
    rng = np.random.default_rng(1)
    for seed in range(3):
        window = random_window(np.random.default_rng(seed), 30, 4)
        hp = eb_hyperparams(window)
        np.linalg.cholesky(hp.s0)  # raises on failure


def test_vs_d0_step_arithmetic():
    # engineered windows pinning the variance ratio, checked against the
    # direct formula d0 = max(k+2, n * max(1,ratio)^h * max(1,1/ratio)^l)
    rng = np.random.default_rng(2)
    n, k = 250, 5
    data = inflate_recent(random_window(rng, n, k).data, 4, 3.0)
    window = ReturnWindow.from_matrix(data)
    w = equal_weights(k)
    hp, diag = vs_hyperparams(window, w, VsConfig(n_r=4, h=2, l=0))
    ratio = diag.v_rw / diag.v_w
    assert ratio > 1
    assert hp.d0 == pytest.approx(n * ratio**2, rel=1e-12)
    # low-volatility window with h=2, l=0 pins d0 at n
    data_low = inflate_recent(random_window(rng, n, k).data, 4, 0.2)
    hp_low, diag_low = vs_hyperparams(ReturnWindow.from_matrix(data_low), w, VsConfig(n_r=4, h=2, l=0))
    assert diag_low.v_rw < diag_low.v_w
    assert hp_low.d0 == float(n)


def test_vs_d0_floor():
    # tiny window where n * ... falls below k+2
    rng = np.random.default_rng(3)
    window = random_window(rng, 6, 3)
    hp, _ = vs_hyperparams(window, equal_weights(3), VsConfig(n_r=6, h=2, l=0))
    assert hp.d0 >= 5.0


def test_property3_exact_equivalence():
    # with n_r = n the volatility-sensitive hyperparameters must equal the
    # empirical-Bayes ones with d0 = n, bit for bit, for any h and l
    for seed, (n, k) in enumerate([(10, 2), (40, 5), (250, 3)]):
        rng = np.random.default_rng(seed)
        window = random_window(rng, n, k)
        w = equal_weights(k)
        eb = eb_hyperparams(window, d0=float(n), r0=float(n))
        for h, l in ((2.0, 0.0), (0.0, 0.0), (1.5, 2.5), (0.0, 7.0)):
            vs, diag = vs_hyperparams(window, w, VsConfig(n_r=n, h=h, l=l))
            assert np.array_equal(diag.ratio, np.ones(k))
            assert vs.d0 == eb.d0 == float(n)
            assert vs.r0 == eb.r0
            assert np.array_equal(vs.m0, eb.m0)
            assert np.array_equal(vs.s0, eb.s0)


def test_vs_rejects_zero_variance_asset():
    data = np.column_stack([np.full(30, 0.01), np.random.default_rng(4).normal(0, 0.01, 30)])
    window = ReturnWindow(data=data, asset_ids=("FLAT", "OK"))
    with pytest.raises(DegenerateAssetError, match="FLAT"):
        vs_hyperparams(window, equal_weights(2), VsConfig(n_r=4, h=2, l=0))


# numpy sums a window's rows one after another, so a constant column's mean
# is off by up to about 0.12 n ulps of the constant; at these lengths its std
# lands above a fixed 16-ulp floor and used to set d0 from rounding noise.
@pytest.mark.parametrize("c, n", [(0.0123, 250), (0.01, 250), (-0.02, 250), (0.05, 1000)])
def test_vs_rejects_a_long_constant_column(c, n):
    data = np.random.default_rng(0).normal(0, 0.01, (n, 3))
    data[:, 1] = c
    window = ReturnWindow(data=data, asset_ids=("A", "FLAT", "B"))
    with pytest.raises(DegenerateAssetError, match="FLAT"):
        vs_hyperparams(window, equal_weights(3), VsConfig(n_r=4, h=2, l=0))


def test_vs_nr_exceeding_window():
    rng = np.random.default_rng(5)
    window = random_window(rng, 20, 2)
    with pytest.raises(ParameterError):
        vs_hyperparams(window, equal_weights(2), VsConfig(n_r=21, h=2, l=0))


def test_vs_r0_default_and_override():
    rng = np.random.default_rng(6)
    window = random_window(rng, 30, 2)
    w = equal_weights(2)
    hp_default, _ = vs_hyperparams(window, w, VsConfig(n_r=4, h=2, l=0))
    assert hp_default.r0 == 30.0
    hp_custom, _ = vs_hyperparams(window, w, VsConfig(n_r=4, h=2, l=0, r0=7.5))
    assert hp_custom.r0 == 7.5


def test_sample_method_values():
    rng = np.random.default_rng(7)
    window = random_window(rng, 100, 3)
    stats = sample_stats(window)
    w = equal_weights(3)
    est = sample_method_estimate(window, w, 0.99, RiskMeasure.VAR)
    mean = float(w.w @ stats.mean)
    sd = float(np.sqrt(w.w @ stats.cov @ w.w))
    assert est.value == pytest.approx(-mean + 2.3263478740408408 * sd, rel=1e-9)
    es = sample_method_estimate(window, w, 0.99, RiskMeasure.CVAR)
    assert es.value == pytest.approx(-mean + normal_es(0.99) * sd, rel=1e-9)
    assert es.value > est.value


def test_sample_method_mean_shift():
    rng = np.random.default_rng(8)
    base = random_window(rng, 50, 2)
    shifted = ReturnWindow.from_matrix(base.data + 0.004)
    w = equal_weights(2)
    q0 = sample_method_estimate(base, w, 0.975).value
    q1 = sample_method_estimate(shifted, w, 0.975).value
    assert q0 - q1 == pytest.approx(0.004, rel=1e-9)


def test_vs_risk_responds_to_recent_volatility():
    # a short burst of volatility lifts the volatility-sensitive estimate
    # well above the empirical-Bayes one on the same window
    rng = np.random.default_rng(9)
    n, k = 250, 5
    calm = random_window(rng, n, k).data
    burst = inflate_recent(calm, 4, 3.0)
    w = equal_weights(k)
    window = ReturnWindow.from_matrix(burst)
    vs_hp, _ = vs_hyperparams(window, w, VsConfig(n_r=4, h=2, l=0))
    eb_hp = eb_hyperparams(window)
    vs_var = risk_estimate(posterior_predictive(window, w, vs_hp), 0.99, method="vs").value
    eb_var = risk_estimate(posterior_predictive(window, w, eb_hp), 0.99, method="eb").value
    assert vs_var > eb_var
