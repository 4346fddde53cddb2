"""Import hygiene: the simulate path loads no scipy, the package's lazily
loaded names all resolve, and a backtest loads scipy before its worker pool
starts. Each check runs in a fresh interpreter, because the test process has
imported everything already."""

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

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        from riskbench.cli import main
        seen = {"import": scipy_modules()}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            main(["--version"])
        seen["--version"] = scipy_modules()
        for scenario in ("mvn", "pmvn", "dcc"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--scenario", scenario, "--k", "3", "--t", "30",
                             "--out", scenario + ".csv"]) == 0
        seen["simulate"] = scipy_modules()
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


def test_scipy_loaded_before_worker_pool_starts(tmp_path):
    seen = run_fresh_python("""
        import contextlib, io, json, sys
        import riskbench.cli as cli

        seen = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                seen.append("scipy.special" in sys.modules)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        cli.ProcessPoolExecutor = RecordingPool
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["backtest", "--scenario", "mvn", "--k", "2", "--t", "260",
                             "--method", "sample", "--replications", "2", "--jobs", "2",
                             "--out", "bt"]) == 0
        print(json.dumps(seen))
    """, tmp_path)
    assert seen == [True]
