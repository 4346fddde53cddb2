import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import stdtrit
from scipy.stats import t as student

from riskbench import DegreesOfFreedomError, ParameterError, t_pdf, t_quantile
from riskbench.studentt import gamma_half_ratio, normal_es_factor, normal_quantile, t_quantiles

from _oracles import normal_es, t_cdf, t_ppf_reference


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


@pytest.mark.parametrize("df", [1e6, 1e9, 1e12])
def test_pdf_keeps_its_digits_at_large_df(df):
    # A difference of log-gammas of size df*log(df)/2 lost 8e-7 relative at
    # df = 1e9 and 2e-4 at 1e12.
    for x in (0.3, 1.5, 4.0):
        assert t_pdf(df, x) == pytest.approx(student.pdf(x, df), rel=1e-13, abs=0)


# Gamma(x+1/2)/Gamma(x) to 17 digits at the float x (50-digit arithmetic).
GAMMA_HALF_RATIOS = [
    (2.0, 1.3293403881791370),
    (7.3, 2.6560158534804773),
    (149.9, 12.233160213913253),
    (150.0, 12.237246776944013),
    (1000.5, 31.626729695657518),
    (1e6 + 0.3, 1000.0000250000153),
    (1e12, 999999.999999875),
]


def test_gamma_half_ratio_pinned_values():
    xs = np.array([x for x, _ in GAMMA_HALF_RATIOS])
    exact = np.array([r for _, r in GAMMA_HALF_RATIOS])
    np.testing.assert_allclose(gamma_half_ratio(xs), exact, rtol=1e-15, atol=0)
    for x, r in GAMMA_HALF_RATIOS:
        assert gamma_half_ratio(x) == pytest.approx(r, rel=1e-15, abs=0)
    assert np.isnan(gamma_half_ratio(np.array([0.0, -1.0, np.nan]))).all()


@settings(max_examples=300, deadline=None)
@given(
    log_df=st.floats(math.log(4.0), math.log(1e12)),
    alphas=st.lists(st.floats(0.51, 0.9999), min_size=1, max_size=4),
)
def test_array_quantile_matches_stdtrit(log_df, alphas):
    # Inside this domain the kernel stops within its budgets, so every value
    # is finite.
    df = math.exp(log_df)
    q = t_quantiles(np.array([df]), alphas)[0]
    assert np.isfinite(q).all()
    np.testing.assert_allclose(q, stdtrit(df, alphas), rtol=1e-12, atol=0)


# Quantiles to 17 digits (50-digit arithmetic). Near alpha = 1/2 stdtrit is
# off by 4e-4 relative at df = 4 and by 2.8e-10 at df = 9e8.
T_QUANTILES = [
    (4.0, 0.5000001, 2.6666666652630906e-7),
    (900737506.2134694, 0.5000001, 2.5066282740073638e-7),
    (37.5, 0.500003, 7.5701788936359711e-6),
    (4.0, 0.9999, 13.033671720896822),
    (48.5, 0.9999, 4.0238179892526117),
    (1e6, 0.9999, 3.7190302747625712),
    (1e12, 0.975, 1.9599639845424261),
]


@pytest.mark.parametrize("df, alpha, exact", T_QUANTILES)
def test_array_quantile_pinned_values(df, alpha, exact):
    assert t_quantiles(np.array([df]), [alpha])[0, 0] == pytest.approx(exact, rel=5e-13, abs=0)


@settings(max_examples=100, deadline=None)
@given(
    dfs=st.lists(
        st.floats(math.log(0.5), math.log(1e12)).map(math.exp)
        | st.sampled_from([490.0, 4.0, 0.0, -3.0, math.inf, math.nan]),
        min_size=1, max_size=12,
    ),
    alphas=st.lists(st.floats(0.51, 0.9999), min_size=1, max_size=3),
)
def test_array_quantile_is_elementwise(dfs, alphas):
    df = np.array(dfs)
    whole = t_quantiles(df, alphas)
    assert whole.shape == (len(dfs), len(alphas))
    for i in range(len(dfs)):
        assert whole[i].tobytes() == t_quantiles(df[i:i + 1], alphas)[0].tobytes()
    assert np.isnan(whole[~(df > 0) | ~np.isfinite(df)]).all()


def test_array_quantile_rejects_levels_outside_its_range():
    q = t_quantiles(np.array([10.0, 500.0]), [0.5, 0.9, 1.0, 0.3])
    assert np.isnan(q[:, [0, 2, 3]]).all()
    assert np.isfinite(q[:, 1]).all()


@settings(max_examples=200, deadline=None)
@given(
    log_df=st.floats(math.log(0.05), math.log(1e12)),
    p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_quantile_is_total_odd_and_within_contract(log_df, p):
    df = math.exp(log_df)
    q = t_quantile(df, p)
    assert math.isfinite(q) or q == math.copysign(math.inf, p - 0.5)
    if 1.0 - p < 1.0:
        assert t_quantile(df, 1.0 - p) == -q
    assert abs(t_cdf(df, q) - p) <= 1e-10


# Quantiles to 17 digits (50-digit arithmetic). The first four are where the
# Newton loop alone does not stop within its budget, so the kernel bisects;
# at the last, stdtrit is 4e-4 relative off.
SCALAR_QUANTILES = [
    (0.5, 0.999, 102849.11563017537),
    (1.0, 0.9999, 3183.0987571185015),
    (1.5, 0.99999, 1124.5001233846194),
    (3.0, 1 - 1e-7, 222.57159098625124),
    (4.0, 0.5000001, 2.6666666652630906e-7),
]


@pytest.mark.parametrize("df, p, exact", SCALAR_QUANTILES)
def test_quantile_pinned_values(df, p, exact):
    assert t_quantile(df, p) == pytest.approx(exact, rel=5e-13, abs=0)
    assert t_quantile(df, 1 - p) == pytest.approx(-exact, rel=5e-13, abs=0)
