"""Import hygiene: the simulate path loads neither scipy nor the process
pool, a forked ``--jobs`` backtest loads no process pool, the pool that
other platforms use writes the bytes of ``--jobs 1``, the package's lazily
loaded names all resolve, and every command runs with scipy refused, with
the same output bytes. Each check runs in a fresh interpreter, because
the test process has imported everything already."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import riskbench


def run_fresh_python(code, cwd, path=()):
    """Run ``code`` in a new interpreter that imports this riskbench, with
    the directories ``path`` first on its module path; return its stdout
    parsed as JSON."""
    src = str(Path(riskbench.__file__).resolve().parents[1])
    entries = [*map(str, path), src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, entries)))
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


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
def test_forked_backtest_loads_no_process_pool(tmp_path):
    seen = run_fresh_python("""
        import contextlib, io, json, os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        from riskbench.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["backtest", "--scenario", "mvn", "--k", "2", "--t", "260",
                         "--method", "sample", "--replications", "2", "--jobs", "2",
                         "--out", "bt"])
        print(json.dumps([code, len(forks), "concurrent.futures.process" in sys.modules]))
    """, tmp_path)
    assert seen == [0, 1, False]


def test_process_pool_branch_writes_the_bytes_of_jobs_1(tmp_path):
    # Off Linux the workers are a process pool, and macOS and Windows start
    # its processes by spawn: each worker imports riskbench afresh and gets
    # its chunk pickled.
    seen = run_fresh_python("""
        import contextlib, io, json, multiprocessing, os, sys
        multiprocessing.set_start_method("spawn")
        os.sched_getaffinity = lambda pid: {0, 1}
        sys.platform = "darwin"
        from riskbench.cli import main
        args = ["backtest", "--scenario", "pmvn", "--k", "3", "--t", "300", "--window", "250",
                "--replications", "4", "--seed", "7"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(args + ["--jobs", jobs, "--out", "jobs" + jobs]) for jobs in ("2", "1")]
        print(json.dumps([codes, "concurrent.futures.process" in sys.modules]))
    """, tmp_path)
    assert seen == [[0, 0], True]
    for name in ("report.csv", "aggregate.json"):
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()


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
    "__version__", "binomial_cdf", "classify_zone", "eb_hyperparams",
    "equal_weights", "estimate_series", "hit_sequence", "normal_es_factor", "normal_quantile",
    "parse_method", "parse_methods", "posterior_predictive",
    "replication_seed", "risk_estimate", "rolling_forecasts", "rolling_moments", "run_backtest",
    "sample_method_estimate", "sample_stats", "short_window_std", "simulate", "simulate_dcc",
    "simulate_mvn", "simulate_pmvn", "simulate_pmvn_detail", "t_quantile",
    "traffic_light", "vs_hyperparams",
]


def test_public_names_are_pinned():
    assert sorted(riskbench.__all__) == PUBLIC_NAMES


# A sitecustomize module that refuses every scipy import in each interpreter
# started with its directory on the module path, --jobs workers included.
REFUSE_SCIPY = """
import sys


class RefuseScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is refused here: {name}")
        return None


sys.meta_path.insert(0, RefuseScipy)
"""

def run_with_and_without_scipy(code, tmp_path):
    """Run ``code`` in a fresh interpreter twice, once with every scipy import
    refused and once without; return what each run printed and the bytes of
    every file each run wrote to its working directory."""
    refuse = tmp_path / "refuse"
    refuse.mkdir()
    (refuse / "sitecustomize.py").write_text(REFUSE_SCIPY)
    seen = {}
    for run, path in (("refused", [refuse]), ("allowed", [])):
        (tmp_path / run).mkdir()
        seen[run] = run_fresh_python(code, tmp_path / run, path)
    outputs = {run: {p.relative_to(tmp_path / run): p.read_bytes()
                     for p in sorted((tmp_path / run).rglob("*")) if p.is_file()}
               for run in seen}
    return seen, outputs


# What a run prints about scipy after its commands.
SCIPY_SEEN = """
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    try:
        import scipy
        importable = True
    except ImportError:
        importable = False
    seen.update({"scipy loaded": loaded, "scipy importable": importable})
    print(json.dumps(seen))
"""

# The commands of the README, which must run without scipy, --jobs workers
# included; they write their outputs to the working directory.
COMMANDS = """
    import contextlib, io, json, sys
    from riskbench.cli import main

    readme = ["backtest", "--scenario", "pmvn", "--k", "5", "--t", "500", "--seed", "7",
              "--replications", "20", "--window", "250", "--alpha", "0.975,0.99",
              "--method", "vs(4,2,0)", "--method", "vs(4,0,0)", "--method", "eb",
              "--method", "sample"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--scenario", "pmvn", "--k", "5", "--t", "300", "--seed", "3",
                     "--out", "pmvn.csv"]) == 0
        assert main(readme + ["--jobs", "1", "--out", "bt1"]) == 0
        assert main(readme + ["--jobs", "2", "--out", "bt2"]) == 0
        assert main(["estimate", "--scenario", "dcc", "--k", "4", "--t", "400",
                     "--alpha", "0.975,0.999", "--out", "est.csv"]) == 0
    with open("est.csv") as fh:
        header = fh.readline()
    seen = {"measures": ["neg_var:" in header, "neg_cvar:" in header]}
""" + SCIPY_SEEN


def test_backtest_and_estimate_load_no_scipy(tmp_path):
    seen, outputs = run_with_and_without_scipy(COMMANDS, tmp_path)
    expected = {"scipy loaded": [], "measures": [True, True]}
    assert seen == {"refused": {**expected, "scipy importable": False},
                    "allowed": {**expected, "scipy importable": True}}
    assert len(outputs["refused"]) == 7  # CSV + sidecar, 2 x 2 backtest files, series
    assert outputs["refused"] == outputs["allowed"]
    report = outputs["refused"][Path("bt1", "report.csv")]
    assert report == outputs["refused"][Path("bt2", "report.csv")]


# The runs whose days the batched engine leaves to the scalar reference.
# scipy is loaded on none of them: the scalar reference prices its t
# quantiles with the same numpy kernel as the batched engine.
SCALAR_DAYS = """
    import contextlib, io, json, sys
    import numpy as np
    import riskbench.estimators
    from riskbench import RollingConfig, VolatilitySensitive, equal_weights, run_backtest
    from riskbench.cli import main

    # A flat column: the batched engine marks every vs and eb day, and the
    # scalar reference rejects the first one before it reaches a t quantile.
    rng = np.random.default_rng(8)
    with open("flat.csv", "w") as fh:
        fh.write("date,ALPHA,STALE\\n")
        for day, value in enumerate(rng.normal(0, 0.01, 270)):
            fh.write(f"2021-{1 + day // 28:02d}-{1 + day % 28:02d},{value:.10f},0\\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        flat = [main(["backtest", "--input", "flat.csv", "--window", "250",
                      "--method", "vs(4,2,0)", "--method", "eb", "--method", "sample",
                      "--out", "flat"]), err.getvalue()]

    # Noise near the degenerate floor: the batched checks flag the later
    # days and the scalar reference prices them.
    scalar_days = []
    predictive = riskbench.estimators.posterior_predictive
    riskbench.estimators.posterior_predictive = (
        lambda *args: scalar_days.append(args) or predictive(*args))
    returns = np.random.default_rng(9).normal(0, 0.01, (120, 3))
    floor = 60 * np.finfo(float).eps * 0.01
    scale = np.where(np.arange(120) < 60, 3.0, 1.5) * floor
    returns[:, 1] = 0.01 + scale * np.random.default_rng(9).standard_normal(120)
    reports, failures = run_backtest(returns, equal_weights(3), RollingConfig(window=60),
                                     [VolatilitySensitive(4, 2.0, 0.0)])
    with open("near_floor.json", "w") as fh:
        json.dump([[r.method, r.alpha, r.exceedances, r.cum_prob] for r in reports], fh)
    seen = {"flat": flat, "failures": [str(exc) for _, exc in failures],
            "scalar days": len(scalar_days) > 0}
""" + SCIPY_SEEN


def test_scipy_loaded_only_on_scalar_days(tmp_path):
    seen, outputs = run_with_and_without_scipy(SCALAR_DAYS, tmp_path)
    flat = [0, "warning: replication 0, method vs(4,2,0) skipped: asset 'STALE' has zero "
               "variance over the window\nwarning: replication 0, method eb skipped: prior "
               "scale matrix is not positive definite\n"]
    expected = {"scipy loaded": [], "flat": flat, "failures": [], "scalar days": True}
    assert seen == {"refused": {**expected, "scipy importable": False},
                    "allowed": {**expected, "scipy importable": True}}
    assert len(outputs["refused"]) == 4  # input CSV, 2 backtest files, near floor
    assert outputs["refused"] == outputs["allowed"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [d.split(">")[0].split("=")[0].strip() for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
