import math

import numpy as np
import pytest

from riskbench import (
    EmpiricalBayes,
    ParameterError,
    ReturnWindow,
    RiskMeasure,
    SampleNormal,
    VolatilitySensitive,
    equal_weights,
    parse_method,
    parse_methods,
)


def test_parse_method_specs():
    vs = parse_method("vs(4,2,0)")
    assert vs == VolatilitySensitive(n_r=4, h=2.0, l=0.0)
    assert vs.label == "vs(4,2,0)"
    assert parse_method("vs(10,0.5,1.5)").label == "vs(10,0.5,1.5)"
    assert parse_method("vs(4,2,0,125)") == VolatilitySensitive(n_r=4, h=2.0, l=0.0, r0=125.0)
    assert parse_method("vs", nr=6, h=1.0, l=0.5).label == "vs(6,1,0.5)"
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
