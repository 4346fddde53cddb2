"""Import hygiene: the simulate path loads neither scipy nor the process
pool, the package's lazily loaded names all resolve, and backtest and
estimate load scipy only on a day that the scalar reference prices. Each
check runs in a fresh interpreter, because the test process has imported
everything already."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import riskbench


def run_fresh_python(code, cwd):
    """Run ``code`` in a new interpreter that imports this riskbench; return
    its stdout parsed as JSON."""
    src = str(Path(riskbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_simulate_and_version_load_no_scipy(tmp_path):
    loaded = run_fresh_python("""
        import contextlib, io, json, sys

        def heavy_modules():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")

        from riskbench.cli import main
        seen = {"import": heavy_modules()}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            main(["--version"])
        seen["--version"] = heavy_modules()
        for scenario in ("mvn", "pmvn", "dcc"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--scenario", scenario, "--k", "3", "--t", "30",
                             "--out", scenario + ".csv"]) == 0
        seen["simulate"] = heavy_modules()
        print(json.dumps(seen))
    """, tmp_path)
    assert loaded == {"import": [], "--version": [], "simulate": []}


def test_lazy_package_names_resolve():
    names = run_fresh_python("""
        import json, types
        import riskbench
        namespace = {}
        exec("from riskbench import *", namespace)
        print(json.dumps({
            "missing": [n for n in riskbench.__all__ if n not in namespace],
            "modules": [m for m in ("backtest", "conjugate", "estimators", "priors", "studentt")
                        if not isinstance(getattr(riskbench, m), types.ModuleType)],
            "same": namespace["t_quantile"] is riskbench.studentt.t_quantile,
        }))
    """, None)
    assert names == {"missing": [], "modules": [], "same": True}
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        riskbench.not_a_name


# The package's public names; changing this list changes the API.
PUBLIC_NAMES = [
    "BacktestReport", "ConjugateHyperparams", "DataError", "DccParams", "DegenerateAssetError",
    "DegreesOfFreedomError", "DimensionError", "EmpiricalBayes", "HitSequence", "MvnParams",
    "NumericalError", "ParameterError", "PmvnParams", "PmvnPeriod", "PortfolioWeights",
    "PredictiveParams", "ReturnWindow", "RiskEstimate", "RiskMeasure", "RiskbenchError",
    "RollingConfig", "RollingMoments", "SampleNormal", "SampleStats", "SimRequest",
    "ValidationError", "VolatilityDiagnostics", "VolatilitySensitive", "VsConfig", "Zone",
    "__version__", "binomial_cdf", "classify_zone", "cvar_quantile_factor", "eb_hyperparams",
    "equal_weights", "estimate_series", "hit_sequence", "normal_es_factor", "normal_quantile",
    "parse_method", "parse_methods", "portfolio_return", "posterior_predictive",
    "replication_seed", "risk_estimate", "rolling_forecasts", "rolling_moments", "run_backtest",
    "sample_method_estimate", "sample_stats", "short_window_std", "simulate", "simulate_dcc",
    "simulate_mvn", "simulate_pmvn", "simulate_pmvn_detail", "t_cdf", "t_pdf", "t_quantile",
    "traffic_light", "var_quantile_factor", "vs_hyperparams",
]


def test_public_names_are_pinned():
    assert sorted(riskbench.__all__) == PUBLIC_NAMES


def test_backtest_and_estimate_load_no_scipy(tmp_path):
    seen = run_fresh_python("""
        import concurrent.futures, contextlib, io, json, sys
        from riskbench.cli import main

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        seen = {}

        class RecordingPool:
            def __init__(self, max_workers=None):
                seen["pool start"] = scipy_modules()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        concurrent.futures.ProcessPoolExecutor = RecordingPool
        readme = ["backtest", "--scenario", "pmvn", "--k", "5", "--t", "500", "--seed", "7",
                  "--replications", "20", "--window", "250", "--alpha", "0.975,0.99",
                  "--method", "vs(4,2,0)", "--method", "vs(4,0,0)", "--method", "eb",
                  "--method", "sample"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(readme + ["--jobs", "1", "--out", "bt1"]) == 0
            seen["--jobs 1"] = scipy_modules()
            assert main(readme + ["--jobs", "2", "--out", "bt2"]) == 0
            seen["--jobs 2"] = scipy_modules()
            assert main(["estimate", "--scenario", "dcc", "--k", "4", "--t", "400",
                         "--alpha", "0.975,0.999", "--out", "est.csv"]) == 0
        seen["estimate"] = scipy_modules()
        with open("est.csv") as fh:
            header = fh.readline()
        seen["measures"] = ["neg_var:" in header, "neg_cvar:" in header]
        print(json.dumps(seen))
    """, tmp_path)
    assert seen == {"pool start": [], "--jobs 1": [], "--jobs 2": [], "estimate": [],
                    "measures": [True, True]}
    assert (tmp_path / "bt1" / "report.csv").read_bytes() == \
        (tmp_path / "bt2" / "report.csv").read_bytes()


def test_scipy_loaded_only_on_scalar_days(tmp_path):
    seen = run_fresh_python("""
        import contextlib, io, json, sys
        import numpy as np
        from riskbench import RollingConfig, VolatilitySensitive, equal_weights, run_backtest
        from riskbench.cli import main

        def scipy_loaded():
            return any(m.split(".")[0] == "scipy" for m in sys.modules)

        # A flat column: the batched engine marks every vs and eb day, and the
        # scalar reference rejects the first one before it reaches a t quantile.
        rng = np.random.default_rng(8)
        with open("flat.csv", "w") as fh:
            fh.write("date,ALPHA,STALE\\n")
            for day, value in enumerate(rng.normal(0, 0.01, 270)):
                fh.write(f"2021-{1 + day // 28:02d}-{1 + day % 28:02d},{value:.10f},0\\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["backtest", "--input", "flat.csv", "--window", "250",
                         "--method", "vs(4,2,0)", "--method", "eb", "--method", "sample",
                         "--out", "bt"])
        seen = {"flat": [code, err.getvalue(), scipy_loaded()]}

        # Noise near the degenerate floor: the batched checks flag the later
        # days and the scalar reference prices them, importing scipy.
        returns = np.random.default_rng(9).normal(0, 0.01, (120, 3))
        floor = 60 * np.finfo(float).eps * 0.01
        scale = np.where(np.arange(120) < 60, 3.0, 1.5) * floor
        returns[:, 1] = 0.01 + scale * np.random.default_rng(9).standard_normal(120)
        _, failures = run_backtest(returns, equal_weights(3), RollingConfig(window=60),
                                   [VolatilitySensitive(4, 2.0, 0.0)])
        seen["near floor"] = [failures, scipy_loaded()]
        print(json.dumps(seen))
    """, tmp_path)
    assert seen == {
        "flat": [0, "warning: replication 0, method vs(4,2,0) skipped: asset 'STALE' has zero "
                    "variance over the window\nwarning: replication 0, method eb skipped: prior "
                    "scale matrix is not positive definite\n", False],
        "near floor": [[], True],
    }
