import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench import (
    DegreesOfFreedomError,
    EmpiricalBayes,
    ParameterError,
    PortfolioWeights,
    PredictiveParams,
    ReturnWindow,
    RiskMeasure,
    SampleNormal,
    VolatilitySensitive,
    eb_hyperparams,
    equal_weights,
    normal_es_factor,
    normal_quantile,
    parse_method,
    parse_methods,
    posterior_predictive,
    risk_estimate,
    sample_method_estimate,
    sample_stats,
    vs_hyperparams,
)
from riskbench.conjugate import _risk_estimates


def test_parse_method_specs():
    vs = parse_method("vs(4,2,0)")
    assert vs == VolatilitySensitive(n_r=4, h=2.0, l=0.0)
    assert vs.label == "vs(4,2,0)"
    assert parse_method("vs(10,0.5,1.5)").label == "vs(10,0.5,1.5)"
    assert parse_method("vs(4,2,0,125)") == VolatilitySensitive(n_r=4, h=2.0, l=0.0, r0=125.0)
    assert parse_method("vs") == VolatilitySensitive() == vs
    assert parse_method("vs(4.0,2,0)") == vs
    assert parse_method("eb") == EmpiricalBayes()
    assert parse_method("eb(300,250)") == EmpiricalBayes(d0=300.0, r0=250.0)
    assert parse_method("eb(n,100)") == EmpiricalBayes(d0=None, r0=100.0)
    assert parse_method("sample") == SampleNormal()
    assert parse_method(" SAMPLE ").label == "sample"


def test_parse_method_errors():
    for bad in ("vc(4,2,0)", "vs(4,2)", "vs(a,b,c)", "eb(1,2,3)", "sample(1)", "",
                "vs(nan,2,0)", "vs(inf,2,0)", "vs(1e400,2,0)", "vs(2.7,2,0)", "vs(4,2,nan)",
                "vs(4,inf,0)", "vs(4,2,0,inf)", "eb(nan,n)", "eb(inf,n)", "eb(n,inf)"):
        with pytest.raises(ParameterError):
            parse_method(bad)
    with pytest.raises(ParameterError):
        parse_methods(["eb", "eb"])


def test_labels_are_specs_with_12_digits():
    assert VolatilitySensitive(r0=7).label == "vs(4,2,0,7)"
    assert EmpiricalBayes(d0=300.5).label == "eb(300.5,n)"
    # %g printed both as vs(4,2,0), and parse_methods refused them as duplicates
    close = parse_methods(["vs(4,2.0000001,0)", "vs(4,2,0)"])
    assert [m.label for m in close] == ["vs(4,2.0000001,0)", "vs(4,2,0)"]


def _twelve_digits(values):
    return values.map(lambda x: float(f"{x:.12g}"))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.one_of(
    st.builds(VolatilitySensitive,
              n_r=st.integers(2, 10**12 - 1),
              h=_twelve_digits(st.floats(0, allow_infinity=False)),
              l=_twelve_digits(_FINITE),
              r0=st.none() | _twelve_digits(st.floats(0, allow_infinity=False, exclude_min=True))),
    st.builds(EmpiricalBayes, d0=st.none() | _twelve_digits(_FINITE),
              r0=st.none() | _twelve_digits(_FINITE)),
))
def test_labels_parse_back(method):
    assert parse_method(method.label) == method


def test_construction_checks_the_scheme():
    for bad in (dict(n_r=1), dict(h=-1.0), dict(h=math.inf), dict(l=math.nan), dict(r0=0.0)):
        with pytest.raises(ParameterError):
            VolatilitySensitive(**bad)
    for bad in ("vs(1,2,0)", "vs(4,-1,0)", "vs(4,2,0,0)", "vs(4,2,0,-3)"):
        with pytest.raises(ParameterError):
            parse_method(bad)  # refused when built, before any window is known
    with pytest.raises(ParameterError, match=r"^invalid method spec 'vs\(2\.7,2,0\)': .*n_r"):
        parse_method("vs(2.7,2,0)")  # the spec names the scheme's own check


def test_validate_window_constraints():
    with pytest.raises(ParameterError):
        VolatilitySensitive(n_r=10, h=2, l=0).validate(window=8, k=2)
    with pytest.raises(ParameterError):
        VolatilitySensitive(n_r=4, h=2, l=0).validate(window=5, k=4)
    with pytest.raises(ParameterError):
        EmpiricalBayes(d0=4.0).validate(window=250, k=3)
    for bad in (EmpiricalBayes(d0=math.nan), EmpiricalBayes(d0=math.inf),
                EmpiricalBayes(r0=math.nan), EmpiricalBayes(r0=math.inf)):
        with pytest.raises(ParameterError):
            bad.validate(window=250, k=3)
    EmpiricalBayes().validate(window=250, k=3)
    SampleNormal().validate(window=250, k=3)


def test_day_estimates_cover_levels_and_measures():
    rng = np.random.default_rng(0)
    window = ReturnWindow.from_matrix(rng.normal(0, 0.01, size=(60, 3)))
    w = equal_weights(3)
    for method in (VolatilitySensitive(), EmpiricalBayes(), SampleNormal()):
        ests = method.day_estimates(window, w, (0.975, 0.99), (RiskMeasure.VAR, RiskMeasure.CVAR))
        assert len(ests) == 4
        assert {e.method for e in ests} == {method.label}
        by_key = {(e.alpha, e.measure): e.value for e in ests}
        for alpha in (0.975, 0.99):
            assert by_key[(alpha, RiskMeasure.CVAR)] >= by_key[(alpha, RiskMeasure.VAR)]


@st.composite
def scalar_day_cases(draw):
    """A random window, a built-in method with random parameters, random
    weights and levels."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 3, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(rng.normal(0, 1e-3, k), rng.uniform(0.002, 0.03, k), (n, k))
    data[n - draw(st.integers(0, n)):] *= draw(st.floats(0.2, 5.0))
    method = draw(st.one_of(
        st.builds(VolatilitySensitive, n_r=st.integers(2, n), h=st.floats(0.0, 4.0),
                  l=st.floats(0.0, 4.0), r0=st.none() | st.floats(0.5, 500.0)),
        st.builds(EmpiricalBayes, d0=st.none() | st.floats(k + 2.0, 5000.0),
                  r0=st.none() | st.floats(0.5, 500.0)),
        st.just(SampleNormal()),
    ))
    raw_w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    levels = tuple(draw(st.lists(st.floats(0.51, 0.9999), min_size=1, max_size=4, unique=True)))
    return ReturnWindow.from_matrix(data), PortfolioWeights(raw_w / raw_w.sum()), method, levels


def own_predictive(method, window, weights):
    """The predictive a method's ``day_estimates`` prices, built from the
    scalar API; for ``sample``, from the sample moments directly."""
    if isinstance(method, VolatilitySensitive):
        return posterior_predictive(window, weights, vs_hyperparams(window, weights, method)[0])
    if isinstance(method, EmpiricalBayes):
        return posterior_predictive(window, weights, eb_hyperparams(window, method.d0, method.r0))
    stats = sample_stats(window)
    return PredictiveParams(float(weights.w @ stats.mean),
                            math.sqrt(float(weights.w @ stats.cov @ weights.w)), math.inf)


@settings(max_examples=150, deadline=None)
@given(scalar_day_cases(), st.floats(1e-3, 1.0))
def test_day_estimates_are_risk_estimate_of_their_own_predictive(case, small_df):
    window, weights, method, levels = case
    measures = (RiskMeasure.VAR, RiskMeasure.CVAR)
    pred = own_predictive(method, window, weights)
    # one pricing call over every level and measure has the bits of one call per pair
    assert method.day_estimates(window, weights, levels, measures) == [
        risk_estimate(pred, alpha, measure, method.label) for alpha in levels for measure in measures]
    if isinstance(method, SampleNormal):  # the normal solves no t quantile
        with mock.patch("riskbench.conjugate.t_quantiles", side_effect=AssertionError):
            method.day_estimates(window, weights, levels, measures)
    normal = PredictiveParams(pred.location, pred.scale, math.inf)
    for alpha in levels:
        factors = {RiskMeasure.VAR: normal_quantile(alpha), RiskMeasure.CVAR: normal_es_factor(alpha)}
        for measure, z in factors.items():
            # df = inf prices the normal, and sample is that normal of the sample moments
            assert risk_estimate(normal, alpha, measure).value == -pred.location + z * pred.scale
            if isinstance(method, SampleNormal):
                assert (sample_method_estimate(window, weights, alpha, measure).value
                        == -pred.location + z * pred.scale)
        heavy = PredictiveParams(pred.location, pred.scale, small_df)
        # VaR needs only df > 0: a positive factor above the location
        assert risk_estimate(heavy, alpha, RiskMeasure.VAR).value > -pred.location
        with pytest.raises(DegreesOfFreedomError, match=r"^CVaR multiplier requires df > 1, got "):
            risk_estimate(heavy, alpha, RiskMeasure.CVAR)
    with pytest.raises(DegreesOfFreedomError, match=r"^CVaR multiplier requires df > 1, got "):
        _risk_estimates(heavy, levels, measures)  # the step every day_estimates prices with
