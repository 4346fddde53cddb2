#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the riskbench CLI.

Usage, from the root of a source checkout (no install needed; ``src/`` is put
on the path)::

    python3 benchmarks/run.py --workload backtest-readme --seed 1 --seconds 30 --trace 0

``--trace 0`` times the real CLI as subprocesses for ``--seconds`` and prints
the end-to-end metrics; times are the lower quartile of the run's samples
(see ``lower_quartile``). ``--trace 1`` runs the per-layer microbenchmarks
and a traced in-process run and prints the per-layer metrics. Either way every output is
checked, each metric is printed as ``metric <name> = <value> <unit> (n=...)``
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of the result,
with the environment it was measured in, goes to ``benchmarks/out/``.

Workloads, and why each was chosen:

* ``backtest-readme``: the README backtest (pmvn, k=5, T=500, window 250,
  two levels, four default methods, 20 replications) at ``--jobs 1`` and
  ``--jobs 2``. At k=5 the cost is Python overhead per call across 20,000
  daily fits.
* ``estimate-wide``: ``estimate`` over a pmvn CSV with k=50, T=2500, window
  500, three levels, VaR and CVaR. The cost moves to O(n k^2) moment
  arithmetic, and the CSV read and series write paths run. It runs on
  request but is not registered in ``BENCHMARK.json``: on a shared 2-vCPU
  host its run-to-run spread exceeded the 0.25 bound.
* ``simulate-dcc``: ``simulate --scenario dcc --k 20 --t 20000``. No fitting
  at all: a per-step Python loop plus 400,000 formatted CSV cells. A change
  to the fitting engine must show no change here.

BLAS is pinned to one thread (OpenBLAS spin threads otherwise inflate CPU
time and take the second core from ``--jobs 2`` workers).
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy is imported anywhere in this process

import argparse
import csv
import dataclasses
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Exactly what the installed ``riskbench`` console script runs.
CLI_ENTRY = "import sys; from riskbench.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 60
REPORT_HEADER = "replication,portfolio,method,alpha,exceedances,cum_prob,zone,runtime_ms"
REFERENCE_RTOL = 1e-10
SETUP_SAMPLES = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI command and the data shape it runs on.

    ``window``, ``levels``, ``methods`` and ``measures`` are the fit shape the
    per-layer microbenchmarks use; for ``simulate`` they are the CLI defaults
    a user would backtest the simulated CSV with.
    """

    name: str
    command: str  # "backtest", "estimate" or "simulate"
    scenario: str
    k: int
    t: int
    window: int
    levels: tuple[float, ...]
    methods: tuple[str, ...]
    measures: tuple[str, ...]
    replications: int = 1

    @property
    def alpha_arg(self) -> str:
        return ",".join(f"{a:g}" for a in self.levels)

    @property
    def items(self) -> int:
        """Units of work per command: fits, or simulated days for ``simulate``."""
        if self.command == "simulate":
            return self.t
        return self.replications * len(self.methods) * (self.t - self.window)

    @property
    def item_kind(self) -> str:
        return "simulated days" if self.command == "simulate" else "fits"

    def cli_args(self, seed: int, jobs: int, work: Path) -> list[str]:
        """The workload's command. Only ``backtest`` has a worker pool; for the
        other commands the jobs-2 variant is the same command run again."""
        if self.command == "backtest":
            return [
                "backtest", "--scenario", self.scenario, "--k", str(self.k), "--t", str(self.t),
                "--window", str(self.window), "--alpha", self.alpha_arg,
                *(f"--method={m}" for m in self.methods),
                "--replications", str(self.replications), "--seed", str(seed),
                "--jobs", str(jobs), "--out", str(work / f"jobs{jobs}"),
            ]
        if self.command == "estimate":
            return [
                "estimate", "--input", str(self.input_csv(work)), "--window", str(self.window),
                "--alpha", self.alpha_arg, *(f"--method={m}" for m in self.methods),
                "--out", str(work / f"series{jobs}.csv"),
            ]
        return [
            "simulate", "--scenario", self.scenario, "--k", str(self.k), "--t", str(self.t),
            "--seed", str(seed), "--out", str(work / f"returns{jobs}.csv"),
        ]

    def input_csv(self, work: Path) -> Path:
        return work / "input.csv"

    def outputs(self, work: Path, jobs: int) -> list[Path]:
        if self.command == "backtest":
            return [work / f"jobs{jobs}" / "report.csv", work / f"jobs{jobs}" / "aggregate.json"]
        if self.command == "estimate":
            return [work / f"series{jobs}.csv"]
        return [work / f"returns{jobs}.csv"]


DEFAULT_METHODS = ("vs(4,2,0)", "vs(4,0,0)", "eb", "sample")
WORKLOADS = {
    w.name: w
    for w in (
        Workload("backtest-readme", "backtest", "pmvn", k=5, t=500, window=250,
                 levels=(0.975, 0.99), methods=DEFAULT_METHODS, measures=("var",),
                 replications=20),
        Workload("estimate-wide", "estimate", "pmvn", k=50, t=2500, window=500,
                 levels=(0.95, 0.975, 0.99), methods=("vs(4,2,0)", "eb", "sample"),
                 measures=("var", "cvar")),
        Workload("simulate-dcc", "simulate", "dcc", k=20, t=20000, window=250,
                 levels=(0.975, 0.99), methods=("vs(4,2,0)", "eb", "sample"),
                 measures=("var",)),
    )
}


# ---------------------------------------------------------------------------
# bookkeeping


class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclasses.dataclass(frozen=True)
class Run:
    """One finished subprocess: wall and CPU seconds, peak RSS, exit status."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def run_cli(args: list[str], cwd: Path) -> Run:
    """Run the riskbench CLI once and measure it with ``wait4``.

    CPU time includes reaped worker processes; peak RSS is the largest single
    process of the command (``ru_maxrss``).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    err_path = cwd / "stderr.txt"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *args], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode, stderr)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def lower_quartile(values) -> float:
    """First quartile of the samples. Times on a shared machine are slowed in
    bursts by other load, never sped up; the lower quartile of a run moves
    about a quarter as much from run to run as the median does."""
    values = list(values)
    return float(statistics.quantiles(values, n=4)[0]) if len(values) > 1 else float(values[0])


# ---------------------------------------------------------------------------
# output checks


class OutputChecker:
    """Checks a workload's outputs: the first in full against the public API,
    every later one for byte identity with the first."""

    def __init__(self, wl: Workload, seed: int, work: Path, tally: Tally):
        self.wl, self.seed, self.work, self.tally = wl, seed, work, tally
        self.digests: list[str] | None = None

    def check(self, jobs: int) -> bool:
        paths = self.wl.outputs(self.work, jobs)
        if not all(p.is_file() for p in paths):
            return self.tally.record(False, f"{self.wl.name}: missing output among {paths}")
        digests = [sha256(p) for p in paths]
        if self.digests is None:
            try:
                problem = CONTENT_CHECKS[self.wl.command](self.wl, self.seed, self.work, paths)
            except Exception as exc:  # any crash in a check is a failed check
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                return self.tally.record(False, f"{self.wl.name}: {problem}")
            self.digests = digests
            return self.tally.record(True, "")
        return self.tally.record(digests == self.digests,
                                 f"{self.wl.name} jobs={jobs}: output bytes differ from the first run")


def check_backtest(wl: Workload, seed: int, work: Path, paths: list[Path]) -> str | None:
    from riskbench import traffic_light
    from riskbench.dataio import fmt_number

    report, aggregate = paths
    lines = report.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return f"report header {lines[:1]!r}"
    rows = list(csv.reader(lines[1:]))
    expected = wl.replications * len(wl.methods) * len(wl.levels)
    if len(rows) != expected:
        return f"{len(rows)} report rows, expected {expected}"
    days = wl.t - wl.window
    for row in rows:
        rep = traffic_light(int(row[4]), days, float(row[3]))
        if row[5] != fmt_number(rep.cum_prob) or row[6] != rep.zone.value:
            return f"row {row}: traffic_light gives {fmt_number(rep.cum_prob)} {rep.zone.value}"
    zones = json.loads(aggregate.read_text(encoding="utf-8"))
    if len(zones) != len(wl.methods):
        return f"aggregate.json has {len(zones)} methods, expected {len(wl.methods)}"
    return None


def check_estimate(wl: Workload, seed: int, work: Path, paths: list[Path]) -> str | None:
    import numpy as np
    from riskbench import equal_weights, parse_methods
    from riskbench.dataio import ingest_returns

    rows = list(csv.reader(paths[0].read_text(encoding="utf-8").splitlines()))
    header, body = rows[0], rows[1:]
    if len(body) != wl.t - wl.window:
        return f"{len(body)} series rows, expected {wl.t - wl.window}"
    values = np.array([[float(c) for c in r[1:]] for r in body])
    if values.shape[1] != 1 + 2 * len(wl.methods) * len(wl.levels) or not np.isfinite(values).all():
        return f"series values have shape {values.shape} or are not all finite"
    history = ingest_returns(wl.input_csv(work))
    weights = equal_weights(len(history.asset_ids))
    column = {name: i for i, name in enumerate(header[1:])}
    days = sorted({0, 1, len(body) // 3, len(body) // 2, len(body) - 1})
    for i in days:
        t = wl.window + i
        if body[i][0] != history.dates[t].isoformat():
            return f"row {i} is dated {body[i][0]}, expected {history.dates[t]}"
        for method in parse_methods(wl.methods):
            for alpha in wl.levels:
                for measure in ("var", "cvar"):
                    ref = reference_estimate(history.data[t - wl.window:t], weights, method,
                                             alpha, measure)
                    got = -values[i, column[f"neg_{measure}:{method.label}:{alpha:g}"]]
                    if abs(got - ref) > REFERENCE_RTOL * abs(ref):
                        return f"day {t + 1} {method.label} {measure} {alpha}: {got} != reference {ref}"
        realized = float(history.data[t] @ weights.w)
        if abs(values[i, 0] - realized) > REFERENCE_RTOL * abs(realized):
            return f"day {t + 1}: realized return {values[i, 0]} != {realized}"
    return None


def reference_estimate(data, weights, method, alpha: float, measure: str) -> float:
    """Scalar reference path: hyperparameters, predictive, risk number."""
    from riskbench import (EmpiricalBayes, ReturnWindow, VolatilitySensitive, VsConfig,
                           eb_hyperparams, posterior_predictive, risk_estimate,
                           sample_method_estimate, vs_hyperparams)

    window = ReturnWindow.from_matrix(data)
    if isinstance(method, VolatilitySensitive):
        hp, _ = vs_hyperparams(window, weights, VsConfig(method.n_r, method.h, method.l, method.r0))
    elif isinstance(method, EmpiricalBayes):
        hp = eb_hyperparams(window, d0=method.d0, r0=method.r0)
    else:
        return sample_method_estimate(window, weights, alpha, measure).value
    return risk_estimate(posterior_predictive(window, weights, hp), alpha, measure).value


def check_simulate(wl: Workload, seed: int, work: Path, paths: list[Path]) -> str | None:
    import numpy as np
    from riskbench import SimRequest, simulate
    from riskbench.dataio import ingest_returns

    history = ingest_returns(paths[0])
    if history.asset_ids != tuple(f"A{i + 1}" for i in range(wl.k)):
        return f"asset ids {history.asset_ids[:3]}..."
    expected = simulate(SimRequest(wl.scenario, wl.t, wl.k, seed, scenario_params(wl)))
    if history.data.shape != expected.shape:
        return f"read back shape {history.data.shape}, expected {expected.shape}"
    # 12 significant digits leave at most 5e-12 relative rounding error.
    if not (np.abs(history.data - expected) <= 1e-11 * np.abs(expected)).all():
        return "CSV read back differs from in-process simulate() beyond 12 significant digits"
    return None


CONTENT_CHECKS = {"backtest": check_backtest, "estimate": check_estimate,
                  "simulate": check_simulate}


def scenario_params(wl: Workload):
    """The CLI's default generator parameters for the workload's scenario, so
    in-process runs draw the same paths as the CLI command."""
    import configparser
    from riskbench.cli import _scenario_params

    return _scenario_params(configparser.ConfigParser(), wl.scenario, wl.k)


# ---------------------------------------------------------------------------
# end-to-end measurement


def prepare(wl: Workload, seed: int, work: Path, tally: Tally) -> bool:
    """Write the workload's input file, outside the measured region."""
    work.mkdir(parents=True, exist_ok=True)
    if wl.command != "estimate":
        return True
    run = run_cli(["simulate", "--scenario", wl.scenario, "--k", str(wl.k), "--t", str(wl.t),
                   "--seed", str(seed), "--out", str(wl.input_csv(work))], work)
    return tally.record(run.returncode == 0, f"{wl.name}: writing the input CSV failed: {run.stderr}")


def timed_command(wl: Workload, seed: int, jobs: int, work: Path, tally: Tally,
                  checker: OutputChecker) -> Run | None:
    run = run_cli(wl.cli_args(seed, jobs, work), work)
    if not tally.record(run.returncode == 0,
                        f"{wl.name} jobs={jobs} exited {run.returncode}: {run.stderr.strip()}"):
        return None
    return run if checker.check(jobs) else None


def end_to_end(wl: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """Time set-up, then repeat the workload's command while the time lasts.

    A backtest repetition runs ``--jobs 1`` and ``--jobs 2``, in an order
    that alternates so slow drift in the machine favours neither. Commands
    without a worker pool take no ``--jobs`` flag, so their jobs-2 variant is
    the same command: ``jobs2_wall_s`` then reports the same runs as
    ``wall_s`` rather than spending half the time on duplicates.
    """
    checker = OutputChecker(wl, seed, work, tally)
    start = time.perf_counter()
    setup = []
    for _ in range(SETUP_SAMPLES):
        run = run_cli(["--version"], work)
        if tally.record(run.returncode == 0, f"--version exited {run.returncode}"):
            setup.append(run.wall_s)
    variants = (1, 2) if wl.command == "backtest" else (1,)
    runs = {1: [], 2: []}
    rep, last = 0, 0.0
    while rep == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for jobs in (variants if rep % 2 == 0 else variants[::-1]):
            run = timed_command(wl, seed, jobs, work, tally, checker)
            if run is not None:
                runs[jobs].append(run)
        last = time.perf_counter() - t0
        rep += 1
    if len(variants) == 1:
        runs[2] = runs[1]

    one = runs[1]
    if not (one and runs[2] and setup):
        return {}
    print(f"items_per_s counts {wl.items} {wl.item_kind} per command")
    raw = {"wall_s": [r.wall_s for r in one], "setup_s": setup,
           "jobs2_wall_s": [r.wall_s for r in runs[2]]}
    for name, values in raw.items():
        print(f"samples {name} = {json.dumps(values)} (median {median(values):.6g})")
    wall = lower_quartile(r.wall_s for r in one)
    return {
        "wall_s": (wall, "s", len(one)),
        "cpu_s": (lower_quartile(r.cpu_s for r in one), "s", len(one)),
        "setup_s": (lower_quartile(setup), "s", len(setup)),
        "peak_rss_mb": (median(r.peak_rss_mb for r in one), "MB", len(one)),
        "items_per_s": (wl.items / wall, "1/s", len(one)),
        "jobs2_wall_s": (lower_quartile(r.wall_s for r in runs[2]), "s", len(runs[2])),
    }


def pipeline_run(wl: Workload, seed: int, traced: bool, spans_path: Path) -> dict:
    """One in-process pipeline run (``spans.py``) in a fresh interpreter."""
    env = dict(os.environ, **BLAS_ENV)
    spec = json.dumps(dataclasses.asdict(wl))
    out = subprocess.run([sys.executable, str(BENCH_DIR / "spans.py"), "--workload", spec,
                          "--seed", str(seed), "--traced", str(int(traced)),
                          "--spans", str(spans_path)],
                         env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"in-process run failed: {out.stderr.strip()}")
    return json.loads(out.stdout.splitlines()[-1])


def per_layer(wl: Workload, seed: int, work: Path, tally: Tally) -> dict:
    """Checked CLI runs for ``cli.jobs2_efficiency``, an untraced and a traced
    in-process run, and the microbenchmarks of every layer."""
    import layers
    import spans

    checker = OutputChecker(wl, seed, work, tally)
    run_cli(["--version"], work)  # warm-up: the first interpreter start reads more from disk
    pairs = [(timed_command(wl, seed, 1, work, tally, checker),
              timed_command(wl, seed, 2, work, tally, checker)) for _ in range(2)]
    metrics = {}
    if all(one and two for one, two in pairs):
        ratios = [one.wall_s / (2.0 * two.wall_s) for one, two in pairs]
        metrics["cli.jobs2_efficiency"] = (median(ratios), "ratio", len(ratios))

    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    try:
        untraced = pipeline_run(wl, seed, False, spans_path)
        traced = pipeline_run(wl, seed, True, spans_path)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        tally.record(False, f"{wl.name}: {exc}")
    else:
        expected = sha256(wl.outputs(work, 1)[0])
        for run in (untraced, traced):
            tally.record(sha256(Path(run["output"])) == expected,
                         f"{wl.name}: in-process output {run['output']} differs from the CLI's")
        metrics.update(spans.traced_metrics(untraced, traced))
    metrics.update(layers.layer_metrics(wl, seed, work))
    return metrics


# ---------------------------------------------------------------------------
# environment and output


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import riskbench

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "riskbench": riskbench.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "seed": seed,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return the printed result, plus details."""
    tally = Tally()
    work = OUT / wl.name
    metrics = {}
    try:
        if prepare(wl, seed, work, tally):
            metrics = (per_layer(wl, seed, work, tally) if trace
                       else end_to_end(wl, seed, seconds, work, tally))
    except Exception:  # report the crash as a failed operation and still print a result
        traceback.print_exc()
        tally.record(False, f"{wl.name}: the benchmark raised {traceback.format_exc(limit=1)}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    registered = registered_metrics(trace)
    tally.record(registered.items() <= {n: m[1] for n, m in metrics.items()}.items(),
                 f"{wl.name}: some registered metric was not measured")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items() if name in registered},
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "all_metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()},
        "failures": tally.messages,
    }


def registered_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit as registered in BENCHMARK.json for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "riskbench" / "__init__.py").is_file():
        print(f"error: no riskbench sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riskbench

    if Path(riskbench.__file__).resolve().parent != SRC / "riskbench":
        print(f"error: imported riskbench from {riskbench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
