#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 benchmarks/selftest.py

Checks that every registered metric is measured and printed with its unit in
both modes, that a deliberately corrupted output is counted as a failure,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys

import layers
import run
from run import DEFAULT_METHODS, OUT, OutputChecker, Tally, Workload

TINY = (
    Workload("tiny-backtest", "backtest", "pmvn", k=2, t=40, window=20, levels=(0.975, 0.99),
             methods=DEFAULT_METHODS, measures=("var",), replications=2),
    Workload("tiny-estimate", "estimate", "pmvn", k=3, t=60, window=30, levels=(0.95, 0.99),
             methods=("vs(4,2,0)", "eb", "sample"), measures=("var", "cvar")),
    Workload("tiny-simulate", "simulate", "dcc", k=2, t=80, window=20, levels=(0.975, 0.99),
             methods=("vs(4,2,0)", "eb", "sample"), measures=("var",)),
)
SEED = 5


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def metrics_printed(wl: Workload, trace: bool) -> None:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run_workload(wl, SEED, 0.1, trace)
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{wl.name} trace={int(trace)} runs clean ({result['failures']})")
    registered = run.registered_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == registered, f"{wl.name} trace={int(trace)} reports exactly the registered metrics")
    lines = printed.getvalue().splitlines()
    for name, unit in registered.items():
        check(any(line.startswith(f"metric {name} = ") and f" {unit} (n=" in line for line in lines),
              f"{wl.name} prints {name} with unit {unit} and a sample count")


def scale_cell(path, row: int, col: int, factor: float) -> None:
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    rows[row][col] = f"{float(rows[row][col]) * factor:.12g}"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def corruption_is_a_failure(wl: Workload) -> None:
    work = OUT / wl.name
    first = wl.outputs(work, 1)[0]
    fresh = OutputChecker(wl, SEED, work, Tally())
    check(fresh.check(1) and fresh.tally.failed == 0, f"{wl.name}: genuine output passes")
    seen = OutputChecker(wl, SEED, work, Tally())
    seen.check(1)
    backup = first.read_bytes()
    try:
        # a cum_prob for the backtest; a VaR (on a day the reference
        # recomputes) or a simulated return otherwise
        scale_cell(first, 1, 5 if wl.command == "backtest" else 2, 1.001)
        for checker in (OutputChecker(wl, SEED, work, Tally()), seen):
            checker.check(1)
            check(checker.tally.failed == 1, f"{wl.name}: corrupted output counted as a failure")
    finally:
        first.write_bytes(backup)


def refuses_without_sources() -> None:
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for source in run.BENCH_DIR.glob("*.py"):
        shutil.copy(source, bare / "benchmarks")
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "backtest-readme",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    last = (out.stdout.strip().splitlines() or [""])[-1]
    check(out.returncode != 0 and not last.startswith("{"),
          "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    layers.BUDGET_S = 0.01
    for wl in TINY:
        metrics_printed(wl, trace=False)
        metrics_printed(wl, trace=True)
        corruption_is_a_failure(wl)
    refuses_without_sources()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
          "run.py knows every workload BENCHMARK.json registers")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
