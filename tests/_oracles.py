"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: brute-force loops for
covariance, exact rational arithmetic for the binomial CDF, scipy reference
distributions for quantiles, and a posterior-sampling Monte Carlo oracle for
the closed-form predictive risk numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np
from scipy import stats as sstats
from scipy.special import betaln, stdtr

from riskbench.studentt import gamma_half_ratio


def brute_force_cov(data: np.ndarray) -> np.ndarray:
    """Double-loop unbiased sample covariance."""
    n, k = data.shape
    mean = data.mean(axis=0)
    cov = np.zeros((k, k))
    for row in data:
        d = row - mean
        for i in range(k):
            for j in range(k):
                cov[i, j] += d[i] * d[j]
    return cov / (n - 1)


def exact_binomial_cdf(c: int, days: int, p: Fraction) -> Fraction:
    """Exact rational binomial CDF."""
    return sum(Fraction(comb(days, j)) * p**j * (1 - p) ** (days - j) for j in range(c + 1))


def normal_es(alpha: float) -> float:
    """Expected shortfall multiplier of a standard normal at level alpha."""
    z = sstats.norm.ppf(alpha)
    return float(sstats.norm.pdf(z) / (1.0 - alpha))


def t_ppf_reference(df: float, p: float) -> float:
    return float(sstats.t.ppf(p, df))


def t_cdf(df: float, x: float) -> float:
    """CDF of the standard t-distribution with ``df`` degrees of freedom.

    scipy's ``stdtr`` below |x| = 1e150. Above, ``x^2`` overflows inside
    ``stdtr``, which then returns 0 or 1 although the tail of a small df is
    still near 1e-8 there. The tail ``I_z(df/2, 1/2) / 2``,
    ``z = df / (df + x^2)``, is then the leading term of the incomplete beta
    series, ``z^a / (a B(a, 1/2))`` with ``a = df/2``, taken in logs; the
    next term is below 1e-280 relative for df <= 1e12.
    """
    df, x = float(df), float(x)
    if abs(x) < 1e150:
        return float(stdtr(df, x))
    a = df / 2.0
    tail = math.exp(a * (math.log(df) - 2.0 * math.log(abs(x))) - math.log(a) - betaln(a, 0.5)) / 2.0
    return 1.0 - tail if x > 0 else tail


def t_pdf(df: float, x: float) -> float:
    """Density of the standard t-distribution. Its constant is the package's
    ``gamma_half_ratio``, the factor the CVaR kernel uses, so comparing this
    density with scipy's holds that factor to its digits."""
    scale = gamma_half_ratio(df / 2.0) / math.sqrt(math.pi * df)
    return scale * math.exp(-(df + 1.0) / 2.0 * math.log1p(x * x / df))


def posterior_predictive_samples(
    window_data: np.ndarray,
    weights: np.ndarray,
    m0: np.ndarray,
    r0: float,
    d0: float,
    s0: np.ndarray,
    n_draws: int,
    seed: int,
    chunk: int = 200_000,
) -> np.ndarray:
    """Monte Carlo draws of the predictive portfolio return by exact posterior
    sampling: (mu, Sigma) from the normal--inverse-Wishart posterior, then
    w'x ~ N(w'mu, w'Sigma w).

    The inverse-Wishart degrees of freedom convention here is the one where
    the marginal portfolio predictive has n + d0 - 2k t-degrees of freedom;
    scipy's parameterization absorbs a k+1 shift. Sigma is drawn as its
    lower Cholesky factor ``L`` by :func:`inverse_wishart_factors`, the
    factor of :func:`inverse_wishart_draws`, which matches scipy's sampler
    to rounding; ``w' Sigma w`` is ``|L' w|^2``.
    """
    data = np.asarray(window_data, dtype=float)
    n, k = data.shape
    xbar = data.mean(axis=0)
    scatter = (data - xbar).T @ (data - xbar)
    kappa_n = n + r0
    post_mean = (n * xbar + r0 * m0) / kappa_n
    dm = m0 - post_mean
    scale = scatter + s0 + (n * r0 / kappa_n) * np.outer(dm, dm)
    scipy_df = n + d0 - k - 1

    rng = np.random.default_rng(seed)
    c = np.linalg.cholesky(scale)
    out = np.empty(n_draws)
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        chol = inverse_wishart_factors(scipy_df, c, m, rng)
        z = rng.standard_normal((m, k))
        mu = post_mean + np.einsum("mij,mj->mi", chol, z) / np.sqrt(kappa_n)
        w_mu = mu @ weights
        w_sigma_w = np.square(weights @ chol).sum(axis=1)
        g = rng.standard_normal(m)
        out[done:done + m] = w_mu + np.sqrt(w_sigma_w) * g
        done += m
    return out


def inverse_wishart_factors(df: float, c: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Lower Cholesky factors ``c inv(A)`` of ``m`` inverse-Wishart draws
    with ``df`` degrees of freedom (scipy's convention) and scale ``c c'``,
    ``c`` lower triangular with a positive diagonal.

    The Bartlett factors ``A`` come from ``rng`` in the order
    ``scipy.stats.invwishart.rvs`` draws them: the normals below the
    diagonal, then the chi variates on it. ``inv(A)`` is lower triangular
    with a positive diagonal, and so is ``c inv(A)``: it is the Cholesky
    factor of the draw ``c inv(A) inv(A)' c'``. ``inv(A)`` is found row by
    row by forward substitution, for the whole batch at once.
    """
    k = c.shape[0]
    a = np.zeros((m, k, k))
    below, diag = np.tril_indices(k, -1), np.arange(k)
    a[:, below[0], below[1]] = rng.normal(size=(m, below[0].size))
    a[:, diag, diag] = rng.chisquare(df - k + 1 + diag, size=(m, k)) ** 0.5
    inv = np.zeros((m, k, k))
    for i in range(k):  # A[i, :i] inv[:i] + A[i, i] inv[i] = e_i
        inv[:, i, i] = 1.0
        inv[:, i, :i] -= np.einsum("mj,mjl->ml", a[:, i, :i], inv[:, :i, :i])
        inv[:, i, :i + 1] /= a[:, i, i, None]
    return c @ inv


def inverse_wishart_draws(df: float, c: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` inverse-Wishart draws with ``df`` degrees of freedom (scipy's
    convention) and scale ``c c'``: ``L L'`` for the factors ``L`` of
    :func:`inverse_wishart_factors`, formed for the whole batch at once where
    scipy loops over the draws."""
    ca = inverse_wishart_factors(df, c, m, rng)
    return ca @ ca.transpose(0, 2, 1)


def empirical_quantile_band(samples: np.ndarray, p: float, n_se: float = 3.0):
    """Order-statistic confidence band for the p-quantile of ``samples``:
    the empirical quantile plus/minus ``n_se`` binomial standard errors on
    the probability scale, mapped through the order statistics."""
    sorted_samples = np.sort(samples)
    b = sorted_samples.size
    se = np.sqrt(p * (1.0 - p) / b)
    lo_rank = int(np.floor((p - n_se * se) * b))
    hi_rank = int(np.ceil((p + n_se * se) * b))
    lo_rank = max(0, min(b - 1, lo_rank))
    hi_rank = max(0, min(b - 1, hi_rank))
    point = sorted_samples[min(b - 1, max(0, int(round(p * b)) - 1))]
    return sorted_samples[lo_rank], point, sorted_samples[hi_rank]


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic via sorted searchpoints."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def dcc_path_per_step(params, rng: np.random.Generator, t0: int, burn_in: int) -> np.ndarray:
    """DCC-GARCH(1,1) path drawn and factorized one step at a time: ``k``
    normals per step, ``np.diag`` / ``np.outer`` / ``np.fill_diagonal`` for
    the correlation, ``mu`` added inside the loop."""
    k = params.mu.size
    total = t0 + burn_in
    omega, a, b = params.omega, params.a, params.b
    theta1, theta2 = params.theta1, params.theta2
    static_corr = theta1 == 0.0 and theta2 == 0.0

    h = omega / (1.0 - a - b)
    q = params.qbar.copy()
    qbar_weighted = (1.0 - theta1 - theta2) * params.qbar
    corr_chol = np.linalg.cholesky(params.qbar) if static_corr else None

    out = np.empty((total, k))
    for t in range(total):
        if static_corr:
            chol_r = corr_chol
        else:
            d = np.sqrt(np.diag(q))
            corr = q / np.outer(d, d)
            np.fill_diagonal(corr, 1.0)
            chol_r = np.linalg.cholesky(corr)
        u = rng.standard_normal(k)
        vol = np.sqrt(h)
        eps = vol * (chol_r @ u)
        out[t] = params.mu + eps
        z = eps / vol
        h = omega + a * eps * eps + b * h
        if not static_corr:
            q = qbar_weighted + theta1 * np.outer(z, z) + theta2 * q
    return out[burn_in:]


def pmvn_path_per_period(params, rng: np.random.Generator, t0: int):
    """Perturbed-normal path and period records computed one period at a
    time: each period's rows are ``mu + (z @ chol.T) * scales`` with a fresh
    ``np.ones(k)`` for a normal period."""
    k = params.k
    chol = np.linalg.cholesky(params.base.sigma)
    p_low, p_normal, _ = params.regime_probs
    out = np.empty((t0, k))
    periods = []
    day = 0
    while day < t0:
        length = params.period_lengths[rng.integers(len(params.period_lengths))]
        u = rng.random()
        if u < p_low:
            regime, scales = "low", rng.uniform(*params.low_scale_range, size=k)
        elif u < p_low + p_normal:
            regime, scales = "normal", np.ones(k)
        else:
            regime, scales = "high", rng.uniform(*params.high_scale_range, size=k)
        m = min(length, t0 - day)
        z = rng.standard_normal((m, k))
        out[day:day + m] = params.base.mu + (z @ chol.T) * scales
        periods.append((day, m, regime, tuple(scales)))
        day += m
    return out, periods
