"""riskbench: portfolio VaR/CVaR estimation with a volatility-sensitive
conjugate prior, baseline estimators, scenario simulators, and Basel
traffic-light backtesting.

The fitting modules (``backtest``, ``conjugate``, ``estimators``, ``priors``,
``studentt``) are loaded on first access to one of their names;
``simulate``, ``returns`` and ``errors`` are loaded eagerly, so
``riskbench simulate`` and ``--version`` load no fitting code. The package
needs numpy and the standard library only.
"""

import importlib

__version__ = "0.1.0"

from .errors import (
    DataError,
    DegenerateAssetError,
    DegreesOfFreedomError,
    DimensionError,
    NumericalError,
    ParameterError,
    RiskbenchError,
    ValidationError,
)
from .returns import (
    PortfolioWeights,
    ReturnWindow,
    RollingMoments,
    SampleStats,
    equal_weights,
    rolling_moments,
    sample_stats,
    short_window_std,
)
from .simulate import (
    DccParams,
    MvnParams,
    PmvnParams,
    PmvnPeriod,
    SimRequest,
    replication_seed,
    simulate,
    simulate_dcc,
    simulate_mvn,
    simulate_pmvn,
    simulate_pmvn_detail,
)

# Public names of the fitting modules, by submodule; see __getattr__.
_LAZY_MODULES = {
    "backtest": (
        "BacktestReport",
        "HitSequence",
        "RollingConfig",
        "Zone",
        "binomial_cdf",
        "classify_zone",
        "estimate_series",
        "hit_sequence",
        "rolling_forecasts",
        "run_backtest",
        "traffic_light",
    ),
    "conjugate": (
        "ConjugateHyperparams",
        "PredictiveParams",
        "RiskEstimate",
        "RiskMeasure",
        "posterior_predictive",
        "risk_estimate",
    ),
    "estimators": ("EmpiricalBayes", "SampleNormal", "VolatilitySensitive", "parse_method",
                   "parse_methods", "sample_method_estimate"),
    "priors": ("VolatilityDiagnostics", "VsConfig", "eb_hyperparams", "vs_hyperparams"),
    "studentt": ("normal_es_factor", "normal_quantile", "t_quantile"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    """Import a fitting module when one of its names (or the submodule
    itself) is first looked up on the package (PEP 562)."""
    module = _LAZY_NAMES.get(name, name if name in _LAZY_MODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


# The eager names, then the lazy ones as listed in _LAZY_MODULES.
__all__ = [
    "__version__",
    # returns
    "ReturnWindow",
    "PortfolioWeights",
    "SampleStats",
    "sample_stats",
    "short_window_std",
    "RollingMoments",
    "rolling_moments",
    "equal_weights",
    # simulation
    "MvnParams",
    "PmvnParams",
    "PmvnPeriod",
    "DccParams",
    "SimRequest",
    "simulate",
    "simulate_mvn",
    "simulate_pmvn",
    "simulate_pmvn_detail",
    "simulate_dcc",
    "replication_seed",
    # errors
    "RiskbenchError",
    "ValidationError",
    "DimensionError",
    "ParameterError",
    "DataError",
    "NumericalError",
    "DegenerateAssetError",
    "DegreesOfFreedomError",
    *_LAZY_NAMES,
]
