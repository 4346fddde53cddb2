"""Traced in-process run of a workload.

The run composes the same public functions the CLI command composes and
records a span around each call into a layer: ``simulate``, ``ingest``,
``forecast`` (``rolling_forecasts`` / ``estimate_series``), ``score``
(``hit_sequence`` + ``traffic_light``) and ``write``, all children of one
``run`` span. Spans stay in memory (name, start, end, parent, run id) and are
written out as JSON lines when the run ends. The same pipeline also runs with
tracing off, and the difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import json
import time
import uuid
from pathlib import Path

STAGES = ("simulate", "ingest", "forecast", "score", "write")
START_DATE = dt.date(2020, 1, 1)  # the CLI's default first date


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"id": index, "name": name, "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: total duration minus time covered by child spans,
        and the number of spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, tuple[float, int]] = {}
        for s, children in zip(self.spans, child_time):
            total, count = out.get(s["name"], (0.0, 0))
            out[s["name"]] = (total + s["end"] - s["start"] - children, count + 1)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class NullTracer:
    """Tracing off: the same pipeline code with no recording."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def _backtest(wl, seed: int, work: Path, tr) -> Path:
    from riskbench import (RollingConfig, SimRequest, equal_weights, hit_sequence,
                           parse_methods, replication_seed, rolling_forecasts, simulate,
                           traffic_light)
    from riskbench.backtest import realized_portfolio_returns
    from riskbench.dataio import fmt_number
    from run import REPORT_HEADER, scenario_params

    params = scenario_params(wl)
    weights = equal_weights(wl.k)
    rolling = RollingConfig(window=wl.window, levels=wl.levels)
    methods = parse_methods(wl.methods)
    rows = []
    for rep in range(wl.replications):
        with tr.span("simulate"):
            returns = simulate(SimRequest(wl.scenario, wl.t, wl.k, replication_seed(seed, rep), params))
        realized = realized_portfolio_returns(returns, weights, wl.window + 1)
        for method in methods:
            with tr.span("forecast"):
                forecasts = rolling_forecasts(returns, weights, rolling, method)
            with tr.span("score"):
                for alpha in rolling.levels:
                    hits = hit_sequence([f for f in forecasts if f[1].alpha == alpha], realized)
                    report = traffic_light(hits.exceedances, hits.days, alpha)
                    rows.append((rep, method.label, alpha, report))
    path = work / "inprocess-report.csv"
    with tr.span("write"):
        rows.sort(key=lambda r: r[:3])
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(REPORT_HEADER + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            for rep, label, alpha, report in rows:
                writer.writerow([rep, 0, label, f"{alpha:g}", report.exceedances,
                                 fmt_number(report.cum_prob), report.zone.value, 0])
    return path


def _estimate(wl, seed: int, work: Path, tr) -> Path:
    from riskbench import RiskMeasure, RollingConfig, equal_weights, estimate_series, parse_methods
    from riskbench.dataio import fmt_number, ingest_returns

    with tr.span("ingest"):
        history = ingest_returns(wl.input_csv(work))
    weights = equal_weights(len(history.asset_ids))
    rolling = RollingConfig(window=wl.window, levels=wl.levels)
    methods = parse_methods(wl.methods)
    with tr.span("forecast"):
        series = estimate_series(history.data, weights, rolling, methods)
    columns = [(m.label, a, measure) for m in methods for a in rolling.levels
               for measure in (RiskMeasure.VAR, RiskMeasure.CVAR)]
    path = work / "inprocess-series.csv"
    with tr.span("write"):
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["date", "return"]
                            + [f"neg_{ms.value}:{label}:{a:g}" for label, a, ms in columns])
            for day, realized, estimates in series:
                writer.writerow([history.dates[day - 1].isoformat(), fmt_number(realized)]
                                + [fmt_number(-estimates[c]) for c in columns])
    return path


def _simulate(wl, seed: int, work: Path, tr) -> Path:
    from riskbench import SimRequest, simulate
    from riskbench.dataio import weekday_dates, write_returns_csv
    from run import scenario_params

    with tr.span("simulate"):
        data = simulate(SimRequest(wl.scenario, wl.t, wl.k, seed, scenario_params(wl)))
    path = work / "inprocess-returns.csv"
    with tr.span("write"):
        write_returns_csv(path, data, tuple(f"A{i + 1}" for i in range(wl.k)),
                          weekday_dates(START_DATE, wl.t))
    return path


PIPELINES = {"backtest": _backtest, "estimate": _estimate, "simulate": _simulate}


def run_pipeline(workload: str, seed: int, traced: bool, spans_path: Path) -> dict:
    """Run the pipeline of ``workload`` (a JSON ``Workload``) in this process; ``wall_s``, the output
    file and, when traced, per-name ``self_s`` and span ``counts``."""
    from run import OUT, Workload

    wl = Workload(**{key: tuple(v) if isinstance(v, list) else v
                     for key, v in json.loads(workload).items()})
    work = OUT / wl.name
    pipeline = PIPELINES[wl.command]
    if not traced:
        start = time.perf_counter()
        output = pipeline(wl, seed, work, NullTracer())
        return {"wall_s": time.perf_counter() - start, "output": str(output)}
    tracer = Tracer()
    with tracer.span("run"):
        output = pipeline(wl, seed, work, tracer)
    tracer.write(spans_path)
    root = tracer.spans[0]
    self_times = tracer.self_times()
    return {"wall_s": root["end"] - root["start"], "output": str(output),
            "self_s": {name: v for name, (v, _) in self_times.items()},
            "counts": {name: c for name, (_, c) in self_times.items()}}


def traced_metrics(untraced: dict, traced: dict) -> dict:
    """Per-stage self time, coverage and overhead as ``name -> (value, unit, n)``."""
    self_s, counts = traced["self_s"], traced["counts"]
    metrics = {f"span.{stage}": (self_s.get(stage, 0.0), "s", counts.get(stage, 0))
               for stage in STAGES}
    wall = traced["wall_s"]
    metrics["trace.coverage"] = ((wall - self_s["run"]) / wall, "ratio", sum(counts.values()))
    metrics["trace.overhead_s"] = (wall - untraced["wall_s"], "s", 1)
    return metrics


def main(argv=None) -> int:
    """Entry point for one fresh process per pipeline run, so the t-quantile
    cache and other process state start cold, as in the CLI."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(description="one in-process pipeline run")
    parser.add_argument("--workload", required=True, help="Workload fields as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)
    from run import SRC

    sys.path.insert(0, str(SRC))
    import riskbench.cli  # noqa: F401  (import time is set-up, not pipeline time)

    result = run_pipeline(args.workload, args.seed, bool(args.traced), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
