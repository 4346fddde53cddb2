"""riskbench: portfolio VaR/CVaR estimation with a volatility-sensitive
conjugate prior, baseline estimators, scenario simulators, and Basel
traffic-light backtesting."""

__version__ = "0.1.0"

from .backtest import (
    BacktestReport,
    HitSequence,
    RollingConfig,
    Zone,
    binomial_cdf,
    classify_zone,
    estimate_series,
    hit_sequence,
    rolling_forecasts,
    run_backtest,
    traffic_light,
)
from .conjugate import (
    ConjugateHyperparams,
    PredictiveParams,
    RiskEstimate,
    RiskMeasure,
    cvar_quantile_factor,
    posterior_predictive,
    risk_estimate,
    var_quantile_factor,
)
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
from .estimators import EmpiricalBayes, SampleNormal, VolatilitySensitive, parse_method, parse_methods
from .priors import VolatilityDiagnostics, VsConfig, eb_hyperparams, sample_method_estimate, vs_hyperparams
from .returns import (
    PortfolioWeights,
    ReturnWindow,
    RollingMoments,
    SampleStats,
    equal_weights,
    portfolio_return,
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
from .studentt import normal_es_factor, normal_quantile, t_cdf, t_pdf, t_quantile

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
    "portfolio_return",
    "equal_weights",
    # student-t
    "t_cdf",
    "t_pdf",
    "t_quantile",
    "normal_quantile",
    "normal_es_factor",
    # conjugate
    "RiskMeasure",
    "ConjugateHyperparams",
    "PredictiveParams",
    "RiskEstimate",
    "posterior_predictive",
    "var_quantile_factor",
    "cvar_quantile_factor",
    "risk_estimate",
    # priors
    "VsConfig",
    "VolatilityDiagnostics",
    "vs_hyperparams",
    "eb_hyperparams",
    "sample_method_estimate",
    # backtest
    "Zone",
    "HitSequence",
    "BacktestReport",
    "RollingConfig",
    "rolling_forecasts",
    "hit_sequence",
    "binomial_cdf",
    "classify_zone",
    "traffic_light",
    "run_backtest",
    "estimate_series",
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
    # estimators
    "VolatilitySensitive",
    "EmpiricalBayes",
    "SampleNormal",
    "parse_method",
    "parse_methods",
    # errors
    "RiskbenchError",
    "ValidationError",
    "DimensionError",
    "ParameterError",
    "DataError",
    "NumericalError",
    "DegenerateAssetError",
    "DegreesOfFreedomError",
]
