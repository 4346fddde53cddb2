"""Seedable generators for the three simulation scenarios: plain multivariate
normal returns, multivariate normal returns perturbed by short volatility
regimes, and a dynamic-conditional-correlation GARCH(1,1) process.

Every generator is a pure function of ``(seed, params, t0)``: a fixed seed
yields a bit-identical return matrix. Streams are namespaced per scenario so
the same seed produces independent draws across generators, and callers that
run replications derive one child seed per replication index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo

from .errors import DimensionError, NumericalError, ParameterError, ValidationError
from .returns import _frozen_array

__all__ = [
    "MvnParams",
    "PmvnParams",
    "PmvnPeriod",
    "DccParams",
    "SimRequest",
    "SCENARIOS",
    "rng_for",
    "replication_seed",
    "simulate",
    "simulate_mvn",
    "simulate_pmvn",
    "simulate_pmvn_detail",
    "simulate_dcc",
]

DCC_BURN_IN = 500

# Stream namespace per scenario, so identical seeds stay independent across
# generators.
_SCENARIO_STREAM = {"mvn": 1, "pmvn": 2, "dcc": 3}


def rng_for(seed: int, *stream_key: int) -> np.random.Generator:
    """Deterministic, independent generator for a seed and stream key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=stream_key))


def replication_seed(base_seed: int, replication: int) -> int:
    """64-bit child seed for one replication, independent across indices."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(replication),))
    return int(ss.generate_state(1, np.uint64)[0])


def _finite_vector(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float).reshape(-1)
    if not np.isfinite(values).all():
        raise ParameterError(f"{name} has non-finite entries")
    return values


def _validated_spd(sigma: np.ndarray, name: str) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise ParameterError(f"{name} has non-finite entries")
    if np.abs(sigma - sigma.T).max() > 1e-10 * max(1.0, np.abs(sigma).max()):
        raise ValidationError(f"{name} is not symmetric")
    try:
        np.linalg.cholesky((sigma + sigma.T) / 2.0)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{name} is not positive definite") from None
    return (sigma + sigma.T) / 2.0


@dataclass(frozen=True)
class MvnParams:
    """Fixed mean vector and positive-definite covariance."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = _finite_vector(self.mu, "mean mu")
        sigma = _validated_spd(self.sigma, "covariance")
        if sigma.shape[0] != mu.size:
            raise DimensionError("mean and covariance dimensions differ")
        object.__setattr__(self, "mu", _frozen_array(mu))
        object.__setattr__(self, "sigma", _frozen_array(sigma))

    @property
    def k(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class PmvnParams:
    """Perturbed-normal scenario: short periods of rescaled volatility.

    The timeline is partitioned into consecutive periods of 3, 4 or 5 days
    (equal probability). Each period is low / normal / high volatility with
    probabilities 0.05 / 0.90 / 0.05; in low periods each asset's std is
    scaled by an independent uniform draw from ``low_scale_range``, in high
    periods from ``high_scale_range``, and normal periods are unscaled.
    Correlations are preserved throughout.
    """

    base: MvnParams
    period_lengths: tuple[int, ...] = (3, 4, 5)
    regime_probs: tuple[float, float, float] = (0.05, 0.90, 0.05)
    low_scale_range: tuple[float, float] = (0.5, 0.7)
    high_scale_range: tuple[float, float] = (1.5, 3.0)

    def __post_init__(self):
        lengths = tuple(float(m) for m in self.period_lengths)
        if not lengths or not all(m >= 1 and m.is_integer() for m in lengths):
            raise ParameterError(
                f"period_lengths must be positive whole numbers, got {self.period_lengths!r}")
        probs = tuple(float(p) for p in self.regime_probs)
        if len(probs) != 3 or not all(p >= 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-12:
            raise ParameterError(f"regime_probs must be 3 nonnegatives summing to 1, got {probs!r}")
        for name in ("low_scale_range", "high_scale_range"):
            bounds = tuple(float(x) for x in getattr(self, name))
            if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1] < math.inf:
                raise ParameterError(
                    f"{name} must be two finite numbers 0 <= low <= high, got {bounds!r}")
            object.__setattr__(self, name, bounds)
        object.__setattr__(self, "period_lengths", tuple(int(m) for m in lengths))
        object.__setattr__(self, "regime_probs", probs)

    @property
    def k(self) -> int:
        return self.base.k


@dataclass(frozen=True)
class PmvnPeriod:
    """One realized volatility period: start day (0-based), length in days
    actually generated, regime name, and the per-asset scale factors."""

    start: int
    length: int
    regime: str
    scales: tuple[float, ...]


@dataclass(frozen=True)
class DccParams:
    """DCC-GARCH(1,1) generator parameters.

    Per-asset GARCH(1,1) recursions ``h_t = omega + a*eps_{t-1}^2 + b*h_{t-1}``
    plus the correlation recursion
    ``Q_t = (1 - theta1 - theta2)*qbar + theta1*z z' + theta2*Q_{t-1}``.
    """

    mu: np.ndarray
    omega: np.ndarray
    a: np.ndarray
    b: np.ndarray
    qbar: np.ndarray
    theta1: float
    theta2: float

    def __post_init__(self):
        mu = _finite_vector(self.mu, "mean mu")
        k = mu.size
        omega, a, b = (np.asarray(v, dtype=float).reshape(-1) for v in (self.omega, self.a, self.b))
        for name, v in (("omega", omega), ("a", a), ("b", b)):
            if v.size != k:
                raise DimensionError(f"{name} must have {k} entries, got {v.size}")
        if not ((omega > 0) & (omega < np.inf)).all():
            raise ParameterError("omega entries must be positive and finite")
        if not ((a >= 0) & (b >= 0) & (a + b < 1)).all():
            raise ParameterError("GARCH coefficients require a >= 0, b >= 0, a + b < 1 per asset")
        t1, t2 = float(self.theta1), float(self.theta2)
        if not (t1 >= 0 and t2 >= 0 and t1 + t2 < 1):
            raise ParameterError(
                f"correlation recursion requires theta1, theta2 >= 0 and theta1 + theta2 < 1, got ({t1}, {t2})"
            )
        qbar = _validated_spd(self.qbar, "unconditional quasi-correlation")
        if qbar.shape[0] != k:
            raise DimensionError("quasi-correlation dimension does not match mean")
        if np.abs(np.diag(qbar) - 1.0).max() > 1e-10:
            raise ParameterError("quasi-correlation matrix must have unit diagonal")
        object.__setattr__(self, "mu", _frozen_array(mu))
        object.__setattr__(self, "omega", _frozen_array(omega))
        object.__setattr__(self, "a", _frozen_array(a))
        object.__setattr__(self, "b", _frozen_array(b))
        object.__setattr__(self, "qbar", _frozen_array(qbar))
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)

    @property
    def k(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class SimRequest:
    """One simulation job: scenario name, path length, asset count, seed, params."""

    scenario: str
    t0: int
    k: int
    seed: int
    params: object = None

    def __post_init__(self):
        scenario = str(self.scenario).lower()
        if scenario not in _SCENARIO_STREAM:
            raise ParameterError(f"unknown scenario {self.scenario!r}; expected one of {sorted(_SCENARIO_STREAM)}")
        if int(self.t0) < 2:
            raise ParameterError(f"path length must be at least 2, got {self.t0!r}")
        if int(self.k) < 1:
            raise ParameterError(f"asset count must be at least 1, got {self.k!r}")
        if int(self.seed) < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.params is not None and getattr(self.params, "k", int(self.k)) != int(self.k):
            raise DimensionError("params dimension does not match requested asset count")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "t0", int(self.t0))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "seed", int(self.seed))


SCENARIOS = tuple(sorted(_SCENARIO_STREAM))


def _request_rng(req: SimRequest) -> np.random.Generator:
    return rng_for(req.seed, _SCENARIO_STREAM[req.scenario])


def simulate(req: SimRequest) -> np.ndarray:
    """Dispatch to the generator named by ``req.scenario``."""
    if req.scenario == "mvn":
        return simulate_mvn(req)
    if req.scenario == "pmvn":
        return simulate_pmvn(req)
    return simulate_dcc(req)


def simulate_mvn(req: SimRequest) -> np.ndarray:
    """I.i.d. multivariate normal rows, via the covariance Cholesky factor."""
    params: MvnParams = req.params
    if not isinstance(params, MvnParams):
        raise ParameterError("mvn scenario requires MvnParams")
    rng = _request_rng(req)
    chol = np.linalg.cholesky(params.sigma)
    z = rng.standard_normal((req.t0, params.k))
    return params.mu + z @ chol.T


def _pmvn_path(req: SimRequest) -> tuple[np.ndarray, list[tuple]]:
    """Perturbed-normal path together with the realized period schedule, as
    plain ``(start, length, regime, scales)`` tuples.

    Periods are sampled sequentially until the horizon is covered; a final
    period truncated by the horizon keeps its sampled regime. Scale draws are
    independent per asset per period, and rescaling the standard deviations
    leaves the correlation matrix untouched (the Cholesky factor is scaled
    row-wise).

    Each period's normals are multiplied by the factor inside the loop,
    straight into the path; the scales (one for every asset of a normal
    period) and the mean are applied to the whole path after it. Each entry
    is still ``(z L') * s + mu`` in that order, so the path is bit-identical
    to one that computes each period's rows in the loop. One product over
    all periods' normals would not be: it changes the last bit of some
    entries.
    """
    params: PmvnParams = req.params
    if not isinstance(params, PmvnParams):
        raise ParameterError("pmvn scenario requires PmvnParams")
    rng = _request_rng(req)
    k, t0 = params.k, req.t0
    chol_t = np.linalg.cholesky(params.base.sigma).T
    p_low, p_normal, _ = params.regime_probs
    out = np.empty((t0, k))
    scales = np.ones((t0, k))
    ones = (1.0,) * k
    periods = []
    day = 0
    while day < t0:
        length = params.period_lengths[rng.integers(len(params.period_lengths))]
        u = rng.random()
        m = min(length, t0 - day)
        if p_low <= u < p_low + p_normal:
            regime, scale = "normal", ones
        else:
            regime, bounds = (("low", params.low_scale_range) if u < p_low
                              else ("high", params.high_scale_range))
            scale = rng.uniform(*bounds, size=k)
            scales[day:day + m] = scale
        np.matmul(rng.standard_normal((m, k)), chol_t, out=out[day:day + m])
        periods.append((day, m, regime, scale))
        day += m
    out *= scales
    out += params.base.mu
    return out, periods


def simulate_pmvn_detail(req: SimRequest) -> tuple[np.ndarray, list[PmvnPeriod]]:
    """Perturbed-normal path together with the realized period schedule."""
    path, periods = _pmvn_path(req)
    return path, [PmvnPeriod(*period[:3], tuple(period[3])) for period in periods]


def simulate_pmvn(req: SimRequest) -> np.ndarray:
    return _pmvn_path(req)[0]


def simulate_dcc(req: SimRequest) -> np.ndarray:
    """DCC-GARCH(1,1) path with normal residuals.

    Variances start at their unconditional level ``omega / (1 - a - b)`` and
    the correlation recursion starts at ``qbar``; the first ``DCC_BURN_IN``
    steps are discarded so the emitted path starts near the stationary
    regime.

    All ``(t0 + DCC_BURN_IN) x k`` standard normals come from one draw. Row
    ``t`` is the same stream as a draw of ``k`` normals at step ``t``, so the
    path is bit-identical to drawing step by step. The recursion itself is
    sequential, with one Cholesky factorization of the correlation per step.

    A step allocates no array: every buffer is made once before the loop and
    every call writes to an output array passed positionally, the cheapest
    form of the call. ``d d'`` and ``z z'`` are ``d[:, None].dot(d[None, :],
    out)``: a BLAS product with an inner dimension of 1, so each entry is
    the one rounded product ``d_i * d_j``, as in a broadcast ``multiply``.
    ``chol @ e`` is ``chol.dot(e, tmp)``, the same BLAS ``gemv`` as
    ``np.matmul``. The correlation is factored by ``cholesky_lo``, the gufunc
    that ``np.linalg.cholesky`` itself calls, without the wrapper's checks
    and copies; on a matrix that is not positive definite it fills its
    output with NaN instead of raising.

    Both recursions live in one ``(k + 1, k)`` state: rows ``0..k-1`` hold
    ``Q`` and row ``k`` holds ``h``. Matching ``base`` (``qbar_w`` /
    ``omega``), ``decay`` (``theta2`` / ``b``) and ``shock``
    (``theta1*(z z')`` / ``(a*e)*e``) buffers let three calls,
    ``shock += base``, ``state *= decay`` and ``state += shock``, advance
    both. Each entry keeps the operation order of
    ``Q = (qbar_w + theta1*(z z')) + theta2*Q`` and
    ``h = (omega + (a*e)*e) + b*h``; only operands of ``+`` and ``*`` trade
    places, which is exact, so the path is bit-identical to the per-step
    ``np.linalg.cholesky`` loop. A static correlation (``theta1 = theta2 =
    0``) skips only the correlation and its factorization, which are the
    only readers of ``Q``.
    """
    params: DccParams = req.params
    if not isinstance(params, DccParams):
        raise ParameterError("dcc scenario requires DccParams")
    rng = _request_rng(req)
    k, t0 = params.k, req.t0
    total = t0 + DCC_BURN_IN
    omega, a, b = params.omega, params.a, params.b
    theta1, theta2 = params.theta1, params.theta2
    static_corr = theta1 == 0.0 and theta2 == 0.0

    state = np.vstack((params.qbar, omega / (1.0 - a - b)))
    base = np.vstack(((1.0 - theta1 - theta2) * params.qbar, omega))
    decay = np.vstack((np.full((k, k), theta2), b))
    shock = np.empty((k + 1, k))
    q, h, zz, ae = state[:k], state[k], shock[:k], shock[k]
    q_diag = q.diagonal()
    chol = np.linalg.cholesky(params.qbar)
    d, vol, tmp, z = (np.empty(k) for _ in range(4))
    corr = np.empty((k, k))
    corr_diag = corr.reshape(-1)[::k + 1]
    d_col, d_row, z_col, z_row = d[:, None], d[None, :], z[:, None], z[None, :]
    multiply, divide, add, sqrt = np.multiply, np.divide, np.add, np.sqrt
    chol_dot, fill_diag, isnan = chol.dot, corr_diag.fill, math.isnan

    eps = rng.standard_normal((total, k))  # overwritten row by row with the shocks
    with np.errstate(invalid="ignore"):  # cholesky_lo signals failure as NaN
        for e in eps:
            if not static_corr:
                sqrt(q_diag, d)
                d_col.dot(d_row, corr)
                divide(q, corr, corr)
                fill_diag(1.0)
                cholesky_lo(corr, chol)
                if isnan(chol[0, 0]):
                    raise NumericalError("correlation recursion lost positive definiteness")
            sqrt(h, vol)
            chol_dot(e, tmp)
            multiply(vol, tmp, e)
            divide(e, vol, z)
            z_col.dot(z_row, zz)
            multiply(theta1, zz, zz)
            multiply(a, e, ae)
            multiply(ae, e, ae)
            add(shock, base, shock)
            multiply(state, decay, state)
            add(state, shock, state)
    return eps[DCC_BURN_IN:] + params.mu
