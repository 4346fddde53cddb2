import math

import numpy as np
import pytest

from riskbench import (
    ConjugateHyperparams,
    DegreesOfFreedomError,
    NumericalError,
    ParameterError,
    PortfolioWeights,
    ReturnWindow,
    RiskMeasure,
    cvar_quantile_factor,
    equal_weights,
    posterior_predictive,
    risk_estimate,
    sample_stats,
    var_quantile_factor,
)
from riskbench.conjugate import PredictiveParams, _quad_form_spd

from _oracles import (
    empirical_quantile_band,
    ks_two_sample,
    normal_es,
    posterior_predictive_samples,
    t_cdf,
)


def random_window(rng, n, k, scale=0.01):
    chol = np.tril(rng.normal(0, 0.3, (k, k))) + np.eye(k)
    data = rng.standard_normal((n, k)) @ chol.T * scale + rng.normal(0, 0.001, k)
    return ReturnWindow.from_matrix(data)


def test_hyperparam_validation():
    with pytest.raises(ParameterError):
        ConjugateHyperparams(m0=np.zeros(2), r0=0.0, d0=10, s0=np.eye(2))
    with pytest.raises(ParameterError):
        ConjugateHyperparams(m0=np.zeros(2), r0=1.0, d0=3.5, s0=np.eye(2))  # < k+2
    with pytest.raises(NumericalError):
        ConjugateHyperparams(m0=np.zeros(2), r0=1.0, d0=10, s0=-np.eye(2))
    asym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(Exception):
        ConjugateHyperparams(m0=np.zeros(2), r0=1.0, d0=10, s0=asym)


def test_predictive_df_formula():
    rng = np.random.default_rng(0)
    window = random_window(rng, 250, 10)
    stats = sample_stats(window)
    hp = ConjugateHyperparams(m0=stats.mean, r0=250.0, d0=250.0, s0=np.eye(10) * 1e-4)
    pred = posterior_predictive(window, equal_weights(10), hp)
    assert pred.df == 480.0


def test_prior_mean_at_sample_mean_drops_pull_term():
    # with m0 = xbar the posterior mean equals the sample mean and the
    # mean-squared pull term contributes nothing to the scale matrix
    rng = np.random.default_rng(1)
    window = random_window(rng, 60, 3)
    stats = sample_stats(window)
    w = equal_weights(3)
    s0 = np.eye(3) * 1e-4
    hp = ConjugateHyperparams(m0=stats.mean, r0=30.0, d0=30.0, s0=s0)
    pred = posterior_predictive(window, w, hp)
    assert pred.location == pytest.approx(float(w.w @ stats.mean), rel=1e-12)
    n = window.n
    scatter = (n - 1) * stats.cov
    expected_quad = float(w.w @ (scatter + s0) @ w.w)
    r_factor = (n + 30.0 + 1) / ((n + 30.0) * pred.df)
    assert pred.scale**2 == pytest.approx(r_factor * expected_quad, rel=1e-10)


def test_df_precondition():
    rng = np.random.default_rng(2)
    window = random_window(rng, 5, 4)
    stats = sample_stats(window)
    hp = ConjugateHyperparams(m0=stats.mean, r0=5.0, d0=6.0, s0=np.eye(4) * 1e-4)
    # df = 5 + 6 - 8 = 3 > 0 works; k=4 with d0=6, n=2 gives df = 0
    posterior_predictive(window, equal_weights(4), hp)
    small = ReturnWindow.from_matrix(window.data[:2])
    with pytest.raises(DegreesOfFreedomError):
        posterior_predictive(small, equal_weights(4), hp)


def test_indefinite_scale_matrix_raises_even_with_positive_quadratic_form():
    # w' M w = 1.5 > 0, but M has eigenvalue -1: no predictive scale exists.
    with pytest.raises(NumericalError, match="not positive definite"):
        _quad_form_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.5, 0.5]))


def test_var_factor_examples():
    assert var_quantile_factor(1, 0.975) == pytest.approx(12.7062, abs=1e-4)
    # the t quantile approaches the normal quantile from above; at df=480 the
    # gap is about 8e-3
    assert var_quantile_factor(480, 0.99) == pytest.approx(2.3263, abs=1e-2)
    assert var_quantile_factor(480, 0.99) > 2.3263478740408408
    # the median of any symmetric t is zero
    for eps in (1e-3, 1e-6, 1e-9):
        assert 0 < var_quantile_factor(10, 0.5 + eps) < 1e-2


def test_cvar_factor_examples():
    assert cvar_quantile_factor(1e6, 0.975) == pytest.approx(2.3378, abs=1e-3)
    assert cvar_quantile_factor(1e6, 0.99) == pytest.approx(2.6652, abs=1e-3)
    assert cvar_quantile_factor(1e6, 0.975) == pytest.approx(normal_es(0.975), rel=1e-3)


@pytest.mark.parametrize("df", [1.5, 2, 5, 30, 480, 1e5])
@pytest.mark.parametrize("alpha", [0.51, 0.9, 0.975, 0.99])
def test_cvar_exceeds_var(df, alpha):
    assert cvar_quantile_factor(df, alpha) > var_quantile_factor(df, alpha)


def test_cvar_df_guard():
    with pytest.raises(DegreesOfFreedomError):
        cvar_quantile_factor(1.0, 0.975)
    with pytest.raises(DegreesOfFreedomError):
        cvar_quantile_factor(0.5, 0.975)


def test_cvar_factor_matches_tail_integral():
    # quadrature oracle: E[T | T > q] / (1 - alpha) over the upper tail
    from scipy.integrate import quad
    from scipy.stats import t as student

    for df, alpha in ((3, 0.95), (12, 0.99), (80, 0.975)):
        q = var_quantile_factor(df, alpha)
        tail_mean, _ = quad(lambda x: x * student.pdf(x, df), q, np.inf)
        assert cvar_quantile_factor(df, alpha) == pytest.approx(tail_mean / (1 - alpha), rel=1e-8)


def test_risk_estimate_normal_limit_and_affine_shift():
    pred = PredictiveParams(location=0.0, scale=1.0, df=1e6)
    est = risk_estimate(pred, 0.975, RiskMeasure.VAR)
    assert est.value == pytest.approx(1.95996, abs=1e-3)
    shifted = PredictiveParams(location=0.01, scale=1.0, df=1e6)
    est2 = risk_estimate(shifted, 0.975, RiskMeasure.VAR)
    assert est.value - est2.value == pytest.approx(0.01, rel=1e-9)


def test_risk_estimate_monotone_in_alpha():
    pred = PredictiveParams(location=0.001, scale=0.02, df=37.0)
    for measure in (RiskMeasure.VAR, RiskMeasure.CVAR):
        values = [risk_estimate(pred, a, measure).value for a in (0.6, 0.8, 0.95, 0.975, 0.99)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_risk_estimate_sampling_oracle():
    rng = np.random.default_rng(7)
    pred = PredictiveParams(location=0.002, scale=0.013, df=26.0)
    draws = -(pred.location + pred.scale * rng.standard_t(pred.df, size=10**6))
    for alpha in (0.975, 0.99):
        lo, _, hi = empirical_quantile_band(draws, alpha)
        value = risk_estimate(pred, alpha, RiskMeasure.VAR).value
        assert lo <= value <= hi


def test_scale_equivariance():
    rng = np.random.default_rng(3)
    window = random_window(rng, 40, 3)
    stats = sample_stats(window)
    w = equal_weights(3)
    s0 = 1e-4 * np.eye(3)
    hp = ConjugateHyperparams(m0=stats.mean + 0.001, r0=20.0, d0=20.0, s0=s0)
    c = 3.7
    scaled_window = ReturnWindow.from_matrix(window.data * c)
    hp_scaled = ConjugateHyperparams(m0=(stats.mean + 0.001) * c, r0=20.0, d0=20.0, s0=s0 * c * c)
    for alpha in (0.975, 0.99):
        for measure in (RiskMeasure.VAR, RiskMeasure.CVAR):
            base = risk_estimate(posterior_predictive(window, w, hp), alpha, measure)
            scaled = risk_estimate(posterior_predictive(scaled_window, w, hp_scaled), alpha, measure)
            base_pred = posterior_predictive(window, w, hp)
            assert scaled.value + c * base_pred.location == pytest.approx(
                c * (base.value + base_pred.location), rel=1e-10
            )


@pytest.mark.slow
def test_predictive_matches_posterior_sampling_oracle():
    # k=2, n=30 window with empirical-Bayes style prior: the closed-form
    # location/scale/df t representation must match exact posterior sampling
    # both pointwise (CDF at 5 points) and in Kolmogorov-Smirnov distance.
    rng = np.random.default_rng(11)
    window = random_window(rng, 30, 2)
    stats = sample_stats(window)
    w = PortfolioWeights(np.array([0.4, 0.6]))
    s0 = ((30.0 - 2 - 1) * 29.0 / 30.0) * stats.cov
    hp = ConjugateHyperparams(m0=stats.mean, r0=30.0, d0=30.0, s0=s0)
    pred = posterior_predictive(window, w, hp)

    n_draws = 10**6
    oracle = posterior_predictive_samples(
        window.data, w.w, hp.m0, hp.r0, hp.d0, hp.s0, n_draws=n_draws, seed=1234
    )
    # CDF agreement at 5 points spread over the body and tails
    for p in (0.05, 0.25, 0.5, 0.9, 0.99):
        from riskbench import t_quantile

        x = pred.location + pred.scale * t_quantile(pred.df, p)
        empirical = float(np.mean(oracle <= x))
        assert abs(empirical - p) < 0.005

    closed_form = pred.location + pred.scale * rng.standard_t(pred.df, size=n_draws)
    assert ks_two_sample(oracle, closed_form) <= 0.005


def test_t_cdf_consistency_with_quantile():
    for df in (0.5, 1, 2, 5, 30, 1000):
        for p in (0.51, 0.9, 0.975, 0.99, 0.999):
            assert abs(t_cdf(df, var_quantile_factor(df, p)) - p) <= 1e-9
