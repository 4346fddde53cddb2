import configparser

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench import (
    DccParams,
    MvnParams,
    NumericalError,
    ParameterError,
    PmvnParams,
    SimRequest,
    replication_seed,
    simulate,
    simulate_dcc,
    simulate_mvn,
    simulate_pmvn,
    simulate_pmvn_detail,
)

from riskbench.cli import _scenario_params
from riskbench.simulate import DCC_BURN_IN, _request_rng

from _oracles import dcc_path_per_step, ks_two_sample, pmvn_path_per_period


def corr_matrix(k, rho):
    m = np.full((k, k), rho)
    np.fill_diagonal(m, 1.0)
    return m


def mvn_params(k=2, vol=0.01, rho=0.5, mu=0.0):
    sigma = corr_matrix(k, rho) * vol * vol
    return MvnParams(mu=np.full(k, mu), sigma=sigma)


def test_param_validation():
    with pytest.raises(NumericalError):
        MvnParams(mu=np.zeros(2), sigma=np.array([[1.0, 2.0], [2.0, 1.0]]) * 1e-4)
    with pytest.raises(ParameterError):
        PmvnParams(base=mvn_params(), regime_probs=(0.2, 0.2, 0.2))
    with pytest.raises(ParameterError):
        DccParams(
            mu=np.zeros(1), omega=[1e-5], a=[0.5], b=[0.5], qbar=np.eye(1), theta1=0.0, theta2=0.0
        )
    with pytest.raises(ParameterError):
        DccParams(
            mu=np.zeros(1), omega=[1e-5], a=[0.1], b=[0.8], qbar=np.eye(1), theta1=0.6, theta2=0.4
        )
    with pytest.raises(ParameterError):
        DccParams(
            mu=np.zeros(2), omega=[1e-5] * 2, a=[0.1] * 2, b=[0.8] * 2,
            qbar=np.array([[2.0, 0.3], [0.3, 2.0]]), theta1=0.05, theta2=0.9,
        )
    with pytest.raises(ParameterError):
        SimRequest(scenario="garch", t0=100, k=2, seed=1)


def test_sim_request_refuses_a_negative_seed():
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        SimRequest(scenario="mvn", t0=100, k=2, seed=-1)
    assert SimRequest(scenario="mvn", t0=100, k=2, seed=0).seed == 0


def build_params(scenario, **changes):
    """Default params of a two-asset scenario with ``changes`` applied."""
    if scenario == "pmvn":
        return PmvnParams(**{"base": mvn_params(), **changes})
    defaults = {"mvn": dict(mu=np.zeros(2), sigma=np.eye(2)),
                "dcc": dict(mu=np.zeros(2), omega=[1e-5] * 2, a=[0.1] * 2, b=[0.8] * 2,
                            qbar=np.eye(2), theta1=0.05, theta2=0.9)}[scenario]
    return (MvnParams if scenario == "mvn" else DccParams)(**{**defaults, **changes})


NAN, INF = np.nan, np.inf


@pytest.mark.parametrize("scenario, changes, name", [
    ("mvn", dict(mu=[0.0, NAN]), "mean mu"),
    ("mvn", dict(mu=[0.0, INF]), "mean mu"),
    ("mvn", dict(sigma=[[1.0, NAN], [NAN, 1.0]]), "covariance"),
    ("mvn", dict(sigma=[[INF, 0.0], [0.0, 1.0]]), "covariance"),
    ("pmvn", dict(period_lengths=(3.5,)), "period_lengths"),
    ("pmvn", dict(period_lengths=(3, NAN)), "period_lengths"),
    ("pmvn", dict(period_lengths=(INF,)), "period_lengths"),
    ("pmvn", dict(regime_probs=(NAN, 0.5, 0.5)), "regime_probs"),
    ("pmvn", dict(low_scale_range=(0.5,)), "low_scale_range"),
    ("pmvn", dict(low_scale_range=(NAN, 0.7)), "low_scale_range"),
    ("pmvn", dict(high_scale_range=(1.5, 2.0, 3.0)), "high_scale_range"),
    ("pmvn", dict(high_scale_range=(1.5, INF)), "high_scale_range"),
    ("dcc", dict(mu=[NAN, 0.0]), "mean mu"),
    ("dcc", dict(omega=[NAN, 1e-5]), "omega"),
    ("dcc", dict(omega=[INF, 1e-5]), "omega"),
    ("dcc", dict(a=[NAN, 0.1]), "GARCH"),
    ("dcc", dict(b=[0.8, NAN]), "GARCH"),
    ("dcc", dict(theta1=NAN), "theta1"),
    ("dcc", dict(theta2=NAN), "theta2"),
    ("dcc", dict(qbar=[[1.0, NAN], [NAN, 1.0]]), "quasi-correlation"),
])
def test_params_refuse_non_finite_and_malformed_entries(scenario, changes, name):
    build_params(scenario)  # the defaults are valid
    with pytest.raises(ParameterError, match=name):
        build_params(scenario, **changes)


def test_integral_period_lengths_are_kept_as_ints():
    params = PmvnParams(base=mvn_params(), period_lengths=(3.0, np.int64(4), 5))
    assert params.period_lengths == (3, 4, 5)
    assert all(type(m) is int for m in params.period_lengths)


def test_determinism_bit_exact():
    params = mvn_params(3, rho=0.3)
    req = SimRequest(scenario="mvn", t0=200, k=3, seed=42, params=params)
    a = simulate_mvn(req)
    b = simulate_mvn(req)
    np.testing.assert_array_equal(a, b)

    preq = SimRequest(
        scenario="pmvn", t0=200, k=3, seed=42, params=PmvnParams(base=params)
    )
    np.testing.assert_array_equal(simulate_pmvn(preq), simulate_pmvn(preq))

    dcc = DccParams(
        mu=np.zeros(3), omega=[5e-6] * 3, a=[0.05] * 3, b=[0.9] * 3,
        qbar=corr_matrix(3, 0.3), theta1=0.05, theta2=0.9,
    )
    dreq = SimRequest(scenario="dcc", t0=200, k=3, seed=42, params=dcc)
    np.testing.assert_array_equal(simulate_dcc(dreq), simulate_dcc(dreq))


def test_scenario_streams_differ():
    params = mvn_params(2)
    a = simulate_mvn(SimRequest(scenario="mvn", t0=50, k=2, seed=9, params=params))
    b = simulate_pmvn(
        SimRequest(scenario="pmvn", t0=50, k=2, seed=9, params=PmvnParams(base=params, regime_probs=(0.0, 1.0, 0.0)))
    )
    assert not np.allclose(a, b)


def test_replication_seed_independent_of_order():
    seeds = [replication_seed(123, r) for r in range(5)]
    assert len(set(seeds)) == 5
    assert seeds[3] == replication_seed(123, 3)


def test_mvn_moments():
    params = mvn_params(2, vol=0.01, rho=0.5)
    req = SimRequest(scenario="mvn", t0=100_000, k=2, seed=7, params=params)
    x = simulate_mvn(req)
    corr = np.corrcoef(x.T)[0, 1]
    assert corr == pytest.approx(0.5, abs=0.01)
    np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=3 * 0.01 / np.sqrt(100_000))


def test_mvn_covariance_consistency():
    rng = np.random.default_rng(0)
    for k in (2, 5):
        vols = rng.uniform(0.005, 0.02, k)
        sigma = corr_matrix(k, 0.4) * np.outer(vols, vols)
        req = SimRequest(
            scenario="mvn", t0=100_000, k=k, seed=11 + k,
            params=MvnParams(mu=np.zeros(k), sigma=sigma),
        )
        x = simulate(req)
        emp = np.cov(x, rowvar=False)
        rel = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
        assert rel < 0.05


def test_pmvn_regime_statistics():
    params = PmvnParams(base=mvn_params(2))
    req = SimRequest(scenario="pmvn", t0=100_000, k=2, seed=3, params=params)
    x, periods = simulate_pmvn_detail(req)
    assert x.shape == (100_000, 2)
    assert sum(p.length for p in periods) == 100_000
    assert {p.length for p in periods[:-1]} <= {3, 4, 5}
    high_days = sum(p.length for p in periods if p.regime == "high")
    low_days = sum(p.length for p in periods if p.regime == "low")
    assert high_days / 100_000 == pytest.approx(0.05, abs=0.01)
    assert low_days / 100_000 == pytest.approx(0.05, abs=0.01)
    for p in periods:
        if p.regime == "high":
            assert all(1.5 <= s <= 3.0 for s in p.scales)
        elif p.regime == "low":
            assert all(0.5 <= s <= 0.7 for s in p.scales)
        else:
            assert all(s == 1.0 for s in p.scales)


def test_pmvn_high_periods_inflate_realized_std():
    params = PmvnParams(base=mvn_params(2, vol=0.01, rho=0.2))
    req = SimRequest(scenario="pmvn", t0=50_000, k=2, seed=5, params=params)
    x, periods = simulate_pmvn_detail(req)
    high = np.zeros(50_000, dtype=bool)
    for p in periods:
        if p.regime == "high":
            high[p.start:p.start + p.length] = True
    assert high.any()
    ratio = x[high].std(axis=0) / x[~high].std(axis=0)
    assert (ratio > 1.4).all()


def test_pmvn_degenerate_regimes_match_mvn_distribution():
    # with the normal regime forced, scaling factors are all 1
    params = PmvnParams(base=mvn_params(2), regime_probs=(0.0, 1.0, 0.0))
    req = SimRequest(scenario="pmvn", t0=5_000, k=2, seed=1, params=params)
    _, periods = simulate_pmvn_detail(req)
    assert all(p.regime == "normal" for p in periods)
    assert all(s == 1.0 for p in periods for s in p.scales)

    # with both scale ranges collapsed to [1, 1], the output is
    # distributionally plain multivariate normal
    collapsed = PmvnParams(
        base=mvn_params(2), low_scale_range=(1.0, 1.0), high_scale_range=(1.0, 1.0)
    )
    w = np.array([0.5, 0.5])
    rejections = 0
    n = 4000
    crit = 1.949 * np.sqrt(2.0 / n)  # two-sample KS at the 0.1% level
    for seed in range(20):
        x = simulate_pmvn(SimRequest(scenario="pmvn", t0=n, k=2, seed=seed, params=collapsed))
        y = simulate_mvn(SimRequest(scenario="mvn", t0=n, k=2, seed=seed + 1000, params=collapsed.base))
        if ks_two_sample(x @ w, y @ w) > crit:
            rejections += 1
    assert rejections == 0


def test_dcc_collapses_to_mvn():
    # a = b = 0 and theta1 = theta2 = 0 gives i.i.d. normals with covariance
    # diag(sqrt(omega)) qbar diag(sqrt(omega))
    omega = np.array([1e-4, 2e-4])
    qbar = corr_matrix(2, 0.6)
    params = DccParams(
        mu=np.zeros(2), omega=omega, a=[0.0, 0.0], b=[0.0, 0.0],
        qbar=qbar, theta1=0.0, theta2=0.0,
    )
    req = SimRequest(scenario="dcc", t0=100_000, k=2, seed=21, params=params)
    x = simulate_dcc(req)
    target = qbar * np.outer(np.sqrt(omega), np.sqrt(omega))
    emp = np.cov(x, rowvar=False)
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def test_dcc_unconditional_variance_k1():
    params = DccParams(
        mu=np.zeros(1), omega=[5e-6], a=[0.1], b=[0.85], qbar=np.eye(1),
        theta1=0.0, theta2=0.0,
    )
    req = SimRequest(scenario="dcc", t0=100_000, k=1, seed=13, params=params)
    x = simulate_dcc(req).ravel()
    target = 5e-6 / (1 - 0.1 - 0.85)
    assert x.var() == pytest.approx(target, rel=0.05)


def test_dcc_volatility_clustering_sign():
    params = DccParams(
        mu=np.zeros(1), omega=[5e-6], a=[0.1], b=[0.85], qbar=np.eye(1),
        theta1=0.0, theta2=0.0,
    )
    req = SimRequest(scenario="dcc", t0=100_000, k=1, seed=17, params=params)
    x = simulate_dcc(req).ravel()
    sq = x * x
    sq = sq - sq.mean()
    autocorr = float(np.dot(sq[:-1], sq[1:]) / np.dot(sq, sq))
    assert autocorr > 0.02


def test_all_outputs_finite():
    params = mvn_params(3, rho=0.3)
    dcc = DccParams(
        mu=np.zeros(3), omega=[5e-6] * 3, a=[0.08] * 3, b=[0.9] * 3,
        qbar=corr_matrix(3, 0.3), theta1=0.04, theta2=0.93,
    )
    for scenario, p in (
        ("mvn", params),
        ("pmvn", PmvnParams(base=params)),
        ("dcc", dcc),
    ):
        x = simulate(SimRequest(scenario=scenario, t0=2_000, k=3, seed=2, params=p))
        assert np.isfinite(x).all()
        assert x.shape == (2_000, 3)


def random_correlation(k, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(k, k + 2))
    cov = f @ f.T
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return corr


@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("thetas", [(0.0, 0.0), (0.06, 0.91)], ids=["static", "dynamic"])
@pytest.mark.parametrize("seed", [3, 2024])
def test_dcc_matches_per_step_oracle(k, thetas, seed):
    rng = np.random.default_rng(k)
    params = DccParams(
        mu=rng.normal(5e-4, 2e-4, k),
        omega=rng.uniform(2e-6, 1e-5, k),
        a=rng.uniform(0.02, 0.1, k),
        b=rng.uniform(0.8, 0.88, k),
        qbar=random_correlation(k, seed),
        theta1=thetas[0],
        theta2=thetas[1],
    )
    req = SimRequest(scenario="dcc", t0=400, k=k, seed=seed, params=params)
    expected = dcc_path_per_step(params, _request_rng(req), req.t0, DCC_BURN_IN)
    np.testing.assert_array_equal(simulate_dcc(req), expected)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 20, 50])
@pytest.mark.parametrize("seed", range(6))
def test_pmvn_matches_per_period_oracle(k, seed):
    rng = np.random.default_rng(100 + k)
    vol = rng.uniform(0.005, 0.02, k)
    params = PmvnParams(
        base=MvnParams(mu=rng.normal(5e-4, 2e-4, k),
                       sigma=random_correlation(k, seed) * np.outer(vol, vol)),
        # frequent low and high periods, and lengths that do not divide T
        regime_probs=(0.2, 0.5, 0.3),
        period_lengths=(1, 3, 4, 7),
    )
    req = SimRequest(scenario="pmvn", t0=301, k=k, seed=seed, params=params)
    expected, expected_periods = pmvn_path_per_period(params, _request_rng(req), req.t0)
    path, periods = simulate_pmvn_detail(req)
    np.testing.assert_array_equal(path, expected)
    np.testing.assert_array_equal(simulate_pmvn(req), path)
    assert [(p.start, p.length, p.regime, p.scales) for p in periods] == expected_periods
    assert {p.regime for p in periods} == {"low", "normal", "high"}


NEAR_SINGULAR_RHO = 0.9999999999999998  # passes DccParams validation


@pytest.mark.parametrize("seed", range(20))
def test_dcc_loss_of_positive_definiteness_raises(seed):
    params = DccParams(
        mu=np.zeros(2), omega=[5e-6] * 2, a=[0.05] * 2, b=[0.9] * 2,
        qbar=corr_matrix(2, NEAR_SINGULAR_RHO), theta1=0.05, theta2=0.9,
    )
    req = SimRequest(scenario="dcc", t0=50, k=2, seed=seed, params=params)
    with pytest.raises(NumericalError, match="^correlation recursion lost positive definiteness$"):
        simulate_dcc(req)


def _dcc_matches_oracle_or_both_fail(req):
    """The path equals the per-step oracle's bit for bit, or both lose
    positive definiteness."""
    try:
        expected = dcc_path_per_step(req.params, _request_rng(req), req.t0, DCC_BURN_IN)
    except np.linalg.LinAlgError:
        with pytest.raises(NumericalError, match="^correlation recursion lost positive definiteness$"):
            simulate_dcc(req)
        return False
    np.testing.assert_array_equal(simulate_dcc(req), expected)
    return True


_THETAS = st.one_of(
    st.just((0.0, 0.0)),
    # theta1 + theta2 = total < 1, split at share
    st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0)).map(
        lambda ts: (ts[0] * ts[1], ts[0] - ts[0] * ts[1])),
)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), thetas=_THETAS, seed=st.integers(0, 2**64 - 1),
       param_seed=st.integers(0, 2**32 - 1), t0=st.integers(2, 40))
def test_dcc_matches_per_step_oracle_property(k, thetas, seed, param_seed, t0):
    rng = np.random.default_rng(param_seed)
    a = rng.uniform(0.0, 0.3, k)
    params = DccParams(
        mu=rng.normal(0.0, 1e-3, k),
        omega=rng.uniform(1e-7, 1e-4, k),
        a=a,
        b=rng.uniform(0.0, 0.999 - a),
        qbar=random_correlation(k, param_seed),
        theta1=thetas[0],
        theta2=thetas[1],
    )
    _dcc_matches_oracle_or_both_fail(SimRequest(scenario="dcc", t0=t0, k=k, seed=seed, params=params))


@pytest.mark.parametrize("k", [20, 50])
def test_dcc_default_cli_params_match_per_step_oracle(k):
    params = _scenario_params(configparser.ConfigParser(), "dcc", k)
    assert _dcc_matches_oracle_or_both_fail(SimRequest(scenario="dcc", t0=300, k=k, seed=7, params=params))


# rho = 1 - 1e-15 loses positive definiteness on some seeds and not others
@pytest.mark.parametrize("rho, outcomes", [(NEAR_SINGULAR_RHO, {False}), (0.999999999999999, {True, False})])
def test_dcc_loss_of_positive_definiteness_k3(rho, outcomes):
    params = DccParams(
        mu=np.zeros(3), omega=[5e-6] * 3, a=[0.05] * 3, b=[0.9] * 3,
        qbar=corr_matrix(3, rho), theta1=0.05, theta2=0.9,
    )
    assert {_dcc_matches_oracle_or_both_fail(SimRequest(scenario="dcc", t0=50, k=3, seed=seed, params=params))
            for seed in range(10)} == outcomes
