import math

import numpy as np
import pytest
from scipy.integrate import quad

from riskbench import DegreesOfFreedomError, ParameterError, t_cdf, t_pdf, t_quantile
from riskbench.studentt import normal_es_factor, normal_quantile

from _oracles import normal_es, t_ppf_reference


def cauchy_quantile(p):
    return math.tan(math.pi * (p - 0.5))


def t2_quantile(p):
    # closed form at two degrees of freedom
    return (2 * p - 1) * math.sqrt(2.0 / (4 * p * (1 - p)))


def test_cauchy_closed_form():
    assert t_quantile(1, 0.75) == pytest.approx(1.0, abs=1e-12)
    for p in (0.51, 0.6, 0.9, 0.975, 0.999):
        assert t_quantile(1, p) == pytest.approx(cauchy_quantile(p), rel=1e-10)


def test_df2_closed_form():
    assert t_quantile(2, 0.95) == pytest.approx(2.91999, abs=1e-5)
    for p in (0.51, 0.75, 0.9, 0.99, 0.999):
        assert t_quantile(2, p) == pytest.approx(t2_quantile(p), rel=1e-10)


def test_normal_limit():
    assert t_quantile(1e8, 0.975) == pytest.approx(1.959964, abs=1e-4)
    assert t_quantile(1e8, 0.01) == pytest.approx(-2.326348, abs=1e-4)


@pytest.mark.parametrize("df", [0.5, 1, 2, 5, 30, 1000])
@pytest.mark.parametrize("p", [0.51, 0.9, 0.975, 0.99, 0.999])
def test_roundtrip(df, p):
    q = t_quantile(df, p)
    assert abs(t_cdf(df, q) - p) <= 1e-9


@pytest.mark.parametrize("df", [0.5, 1, 2, 5, 30, 1000])
@pytest.mark.parametrize("p", [0.51, 0.9, 0.975, 0.99, 0.999])
def test_against_scipy(df, p):
    assert t_quantile(df, p) == pytest.approx(t_ppf_reference(df, p), rel=1e-8)


def test_symmetry():
    for df in (0.7, 3, 12):
        for p in (0.2, 0.4, 0.49):
            assert t_quantile(df, p) == pytest.approx(-t_quantile(df, 1 - p), rel=1e-12)
    assert t_quantile(5, 0.5) == 0.0


def test_quantile_monotone_in_p():
    ps = np.linspace(0.51, 0.999, 25)
    for df in (0.5, 1, 4, 100):
        qs = [t_quantile(df, p) for p in ps]
        assert all(a < b for a, b in zip(qs, qs[1:]))


def test_heavy_tail_small_df():
    # quantiles grow rapidly as df drops below 1
    assert t_quantile(0.5, 0.999) > t_quantile(1, 0.999) > t_quantile(2, 0.999)
    assert abs(t_cdf(0.5, t_quantile(0.5, 0.999)) - 0.999) < 1e-10


@pytest.mark.parametrize("df, x", [(250, -8.5), (1e5, -8.0), (100, -9.0), (1000, -7.5)])
def test_cdf_lower_tail_relative_accuracy(df, x):
    # Far in the lower tail with x^2 <= df, where 0.5 minus the central mass
    # cancels; the quadrature of the density keeps its relative accuracy.
    expected, _ = quad(lambda u: t_pdf(df, u), -math.inf, x, epsabs=0, epsrel=1e-13)
    assert t_cdf(df, x) == pytest.approx(expected, rel=1e-8, abs=0)


def test_pdf_matches_cdf_derivative():
    for df in (1.5, 7):
        for x in (-1.2, 0.3, 2.5):
            eps = 1e-6
            numeric = (t_cdf(df, x + eps) - t_cdf(df, x - eps)) / (2 * eps)
            assert t_pdf(df, x) == pytest.approx(numeric, rel=1e-6)


def test_domain_errors():
    with pytest.raises(ParameterError):
        t_quantile(5, 0.0)
    with pytest.raises(ParameterError):
        t_quantile(5, 1.0)
    with pytest.raises(DegreesOfFreedomError):
        t_quantile(0.0, 0.9)
    with pytest.raises(DegreesOfFreedomError):
        t_quantile(-3, 0.9)


def test_normal_helpers():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    for alpha in (0.9, 0.975, 0.99):
        assert normal_es_factor(alpha) == pytest.approx(normal_es(alpha), rel=1e-12)
