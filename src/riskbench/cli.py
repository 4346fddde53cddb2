"""Command-line interface: simulate scenario paths, run rolling backtests,
and export daily risk-estimate series.

Configuration comes from an INI-style file (``--config``) with flag
overrides; flags always win. Every command is deterministic given its
configuration and seed, including under ``--jobs`` greater than one: worker
results are collected and written in a canonical sort order. Exit codes:
0 success, 2 validation error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime as dt
import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    ReturnHistory,
    fmt_number,
    ingest_returns,
    load_weights,
    weekday_dates,
    write_returns_csv,
)
from .errors import DataError, NumericalError, ValidationError
from .simulate import (
    DccParams,
    MvnParams,
    PmvnParams,
    SCENARIOS,
    SimRequest,
    replication_seed,
    simulate,
    simulate_pmvn_detail,
)

SEED_ENV_VAR = "RISKBENCH_SEED"
DEFAULT_SEED = 0
DEFAULT_T0 = 500
DEFAULT_K = 5
DEFAULT_WINDOW = 250
DEFAULT_LEVELS = "0.975,0.99"
DEFAULT_METHODS = ["vs(4,2,0)", "vs(4,0,0)", "eb", "sample"]
DEFAULT_START_DATE = "2020-01-01"

REPORT_HEADER = "replication,portfolio,method,alpha,exceedances,cum_prob,zone,runtime_ms"


# ---------------------------------------------------------------------------
# configuration handling


def _load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        if not Path(path).is_file():
            raise ValidationError(f"config file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ValidationError(f"cannot parse config file {path}: {exc}") from None
    return parser


def _floats(raw) -> tuple[float, ...]:
    """Numbers separated by commas and/or whitespace."""
    return tuple(float(p) for p in str(raw).replace(",", " ").split())


_KIND_NAMES = {int: "an integer", float: "a number", _floats: "a list of numbers"}


def _cfg_get(cfg: configparser.ConfigParser, section: str, key: str, flag_value, default,
             kind=None):
    """Resolution order: explicit flag, config file value, default.

    ``kind`` (``int``, ``float`` or ``_floats``) converts the value; a value
    it rejects is a :class:`ValidationError` naming ``section.key``.
    """
    if flag_value is not None:
        raw = flag_value
    elif cfg.has_option(section, key):
        raw = cfg.get(section, key)
    else:
        raw = default
    if kind is None or raw is None:
        return raw
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{section}.{key} must be {_KIND_NAMES[kind]}, got {raw!r}"
        ) from None


def _resolve_seed(cfg: configparser.ConfigParser, section: str, flag_value) -> int:
    seed = _cfg_get(cfg, section, "seed", flag_value, None, int)
    if seed is not None:
        return seed
    raw = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _resolve_k(cfg: configparser.ConfigParser, section: str, flag_value) -> int:
    k = _cfg_get(cfg, section, "k", flag_value, DEFAULT_K, int)
    if k < 1:
        raise ValidationError(f"{section}.k must be at least 1, got {k}")
    return k


def _vector(values: tuple[float, ...], k: int, what: str) -> np.ndarray:
    if len(values) == 1:
        return np.full(k, values[0])
    if len(values) != k:
        raise ValidationError(f"{what} needs 1 or {k} values, got {len(values)}")
    return np.array(values)


def _correlation_matrix(rho: float, k: int) -> np.ndarray:
    if not -1.0 / max(k - 1, 1) < rho < 1.0:
        raise ValidationError(f"constant correlation {rho} is not positive definite for k={k}")
    mat = np.full((k, k), rho)
    np.fill_diagonal(mat, 1.0)
    return mat


def _scenario_params(cfg: configparser.ConfigParser, scenario: str, k: int):
    """Build generator params for a scenario from its config section.

    Shipped defaults are synthetic illustrative values (round numbers), not
    fitted to any market data: 5 bp daily drift, 1% daily vol, constant 0.3
    correlation, and mildly persistent GARCH dynamics for the dcc scenario.
    """
    section = f"scenario.{scenario}"

    def get(key, default, kind=_floats):
        return _cfg_get(cfg, section, key, None, default, kind)

    mean = _vector(get("mean", "0.0005"), k, f"{section}.mean")
    corr = _correlation_matrix(get("correlation", "0.3", float), k)
    if scenario in ("mvn", "pmvn"):
        vol = _vector(get("vol", "0.01"), k, f"{section}.vol")
        if (vol <= 0).any():
            raise ValidationError("vol entries must be positive")
        sigma = corr * np.outer(vol, vol)
        base = MvnParams(mu=mean, sigma=sigma)
        if scenario == "mvn":
            return base
        return PmvnParams(
            base=base,
            period_lengths=tuple(int(v) for v in get("period_lengths", "3,4,5")),
            regime_probs=get("regime_probs", "0.05,0.9,0.05"),
            low_scale_range=get("low_scale", "0.5,0.7"),
            high_scale_range=get("high_scale", "1.5,3.0"),
        )
    return DccParams(
        mu=mean,
        omega=_vector(get("omega", "5e-6"), k, f"{section}.omega"),
        a=_vector(get("arch", "0.05"), k, f"{section}.arch"),
        b=_vector(get("garch", "0.9"), k, f"{section}.garch"),
        qbar=corr,
        theta1=get("theta1", "0.05", float),
        theta2=get("theta2", "0.9", float),
    )


def _jsonable(obj):
    """``json.dump`` hook: a params or period dataclass as a dict of its
    fields, an array as nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    scenario = str(_cfg_get(cfg, "simulate", "scenario", args.scenario, "mvn")).lower()
    if scenario not in SCENARIOS:
        raise ValidationError(f"unknown scenario {scenario!r}; expected one of {list(SCENARIOS)}")
    k = _resolve_k(cfg, "simulate", args.k)
    t0 = _cfg_get(cfg, "simulate", "t", args.t, DEFAULT_T0, int)
    seed = _resolve_seed(cfg, "simulate", args.seed)
    start_raw = str(_cfg_get(cfg, "simulate", "start_date", args.start_date, DEFAULT_START_DATE))
    try:
        start = dt.date.fromisoformat(start_raw)
    except ValueError:
        raise ValidationError(f"start date must be ISO-8601, got {start_raw!r}") from None
    out = _cfg_get(cfg, "simulate", "out", args.out, None)
    if out is None:
        raise ValidationError("simulate needs an output path (--out)")

    params = _scenario_params(cfg, scenario, k)
    req = SimRequest(scenario=scenario, t0=t0, k=k, seed=seed, params=params)
    dates = weekday_dates(start, t0)  # a calendar overflow fails before simulating
    meta = {
        "command": "simulate",
        "scenario": scenario,
        "k": k,
        "t0": t0,
        "seed": seed,
        "start_date": start.isoformat(),
        "params": params,
        "version": __version__,
    }
    if scenario == "pmvn":
        data, meta["periods"] = simulate_pmvn_detail(req)
    else:
        data = simulate(req)

    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    asset_ids = tuple(f"A{i + 1}" for i in range(k))
    write_returns_csv(out_path, data, asset_ids, dates)
    with open(f"{out_path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    print(f"wrote {t0} x {k} {scenario} returns to {out_path} (seed {seed})")
    return 0


# ---------------------------------------------------------------------------
# backtest


def _run_chunk(shared, chunk):
    """Backtest every method on a chunk of consecutive replications, fitted
    together as one stack (see :func:`riskbench.backtest.run_backtests`).

    ``shared`` is ``(weights, rolling, methods, asset_ids, timing)``;
    ``chunk`` is a list of ``(replication, source)`` with ``source`` a return
    matrix or a :class:`SimRequest`, simulated when the stack reaches it.
    Returns report rows in ``REPORT_HEADER`` order and
    ``(replication, label, message)`` failures. With ``timing``, each row's
    ``runtime_ms`` is the chunk's fitting wall time (all methods and
    replications, excluding simulation) divided by its replications.
    """
    from .backtest import run_backtests

    weights, rolling, methods, asset_ids, timing = shared
    simulating = 0.0

    def histories():
        nonlocal simulating
        for _, source in chunk:
            start = time.perf_counter()
            returns = simulate(source) if isinstance(source, SimRequest) else source
            simulating += time.perf_counter() - start
            yield returns

    start = time.perf_counter()
    results = list(run_backtests(histories(), weights, rolling, methods, asset_ids))
    fit_s = time.perf_counter() - start - simulating
    runtime_ms = int(round(fit_s * 1000 / len(chunk))) if timing else 0
    rows, fails = [], []
    for (rep, _), (reports, failures) in zip(chunk, results):
        rows += [(rep, 0, r.method, r.alpha, r.exceedances, r.cum_prob, r.zone.value, runtime_ms)
                 for r in reports]
        fails += [(rep, label, str(exc)) for label, exc in failures]
    return rows, fails


def _scenario_request(inputs, rep: int) -> SimRequest:
    """The simulation request of replication ``rep`` of a scenario input."""
    return SimRequest(scenario=inputs["scenario"], t0=inputs["t0"], k=inputs["k"],
                      seed=replication_seed(inputs["seed"], rep), params=inputs["params"])


def _resolve_backtest_inputs(cfg, args, command: str):
    """Shared backtest/estimate input resolution; validates before computing.

    The fitting modules are imported here and not at module level, so
    ``simulate`` and ``--version`` never load them. Levels are printed with
    :func:`fmt_number` in every output, so two levels that print alike are
    refused.
    """
    from .backtest import RollingConfig
    from .estimators import parse_methods

    section = command
    input_path = _cfg_get(cfg, section, "input", args.input, None)
    scenario = _cfg_get(cfg, section, "scenario", args.scenario, None)
    if input_path is not None and scenario is not None:
        raise ValidationError("give either an input CSV or a scenario, not both")
    if input_path is None and scenario is None:
        raise ValidationError("either an input CSV (--input) or a scenario (--scenario) is required")

    window = _cfg_get(cfg, section, "window", args.window, DEFAULT_WINDOW, int)
    levels = _cfg_get(cfg, section, "levels", args.alpha, DEFAULT_LEVELS, _floats)
    rolling = RollingConfig(window=window, levels=levels)
    labels = [fmt_number(alpha) for alpha in rolling.levels]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValidationError(f"{section}.levels repeat {', '.join(repeated)} "
                              "(levels are printed with 12 significant digits)")

    method_specs = args.method or None
    if method_specs is None and cfg.has_option(section, "methods"):
        method_specs = cfg.get(section, "methods").split()
    if method_specs is None:
        method_specs = DEFAULT_METHODS
    nr = _cfg_get(cfg, section, "nr", args.nr, 4, int)
    h = _cfg_get(cfg, section, "h", args.h, 2.0, float)
    l = _cfg_get(cfg, section, "l", args.l, 0.0, float)
    r0 = _cfg_get(cfg, section, "r0", args.r0, None, float)
    methods = tuple(parse_methods(method_specs, nr=nr, h=h, l=l, r0=r0))

    seed = _resolve_seed(cfg, section, args.seed)
    mode = str(_cfg_get(cfg, section, "mode", args.mode, "returns"))
    weights_spec = str(_cfg_get(cfg, section, "weights", args.weights, "equal"))

    history: ReturnHistory | None = None
    if input_path is not None:
        history = ingest_returns(input_path, mode=mode)
        k = len(history.asset_ids)
        t0 = history.data.shape[0]
        asset_ids = history.asset_ids
        params = None
    else:
        scenario = str(scenario).lower()
        if scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {scenario!r}; expected one of {list(SCENARIOS)}")
        k = _resolve_k(cfg, section, args.k)
        t0 = _cfg_get(cfg, section, "t", args.t, DEFAULT_T0, int)
        asset_ids = tuple(f"A{i + 1}" for i in range(k))
        params = _scenario_params(cfg, scenario, k)

    if t0 <= window:
        raise ValidationError(f"history length {t0} must exceed the rolling window {window}")
    for method in methods:
        method.validate(window, k)
    weights = load_weights(weights_spec, asset_ids)

    return {
        "history": history,
        "scenario": scenario if input_path is None else None,
        "params": params,
        "k": k,
        "t0": t0,
        "seed": seed,
        "rolling": rolling,
        "methods": methods,
        "weights": weights,
        "asset_ids": asset_ids,
    }


def cmd_backtest(args) -> int:
    from .backtest import Zone

    cfg = _load_config(args.config)
    inputs = _resolve_backtest_inputs(cfg, args, "backtest")
    out = _cfg_get(cfg, "backtest", "out", args.out, None)
    if out is None:
        raise ValidationError("backtest needs an output directory (--out)")
    jobs = _cfg_get(cfg, "backtest", "jobs", args.jobs, 1, int)
    if jobs < 1:
        raise ValidationError(f"backtest.jobs must be at least 1, got {jobs}")
    replications = _cfg_get(cfg, "backtest", "replications", args.replications, 1, int)
    if replications < 1:
        raise ValidationError(f"backtest.replications must be at least 1, got {replications}")

    if inputs["history"] is not None:
        if replications != 1:
            raise ValidationError("replications > 1 requires a scenario input")
        sources = [inputs["history"].data]
    else:
        sources = [_scenario_request(inputs, rep) for rep in range(replications)]
    run = functools.partial(_run_chunk, (inputs["weights"], inputs["rolling"],
                                         inputs["methods"], inputs["asset_ids"],
                                         bool(args.timing)))
    # One contiguous chunk of replications per worker, one chunk when serial.
    count = min(jobs, len(sources))
    indexed = list(enumerate(sources))
    chunks = [indexed[i * len(sources) // count:(i + 1) * len(sources) // count]
              for i in range(count)]
    if count > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = list(map(run, chunks))

    rows = sorted((row for reps_rows, _ in results for row in reps_rows), key=lambda r: r[:4])
    for _, reps_fails in results:
        for rep, label, message in reps_fails:
            print(f"warning: replication {rep}, method {label} skipped: {message}", file=sys.stderr)

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.csv"
    with open(report_path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(REPORT_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(
            (*row[:3], fmt_number(row[3]), row[4], fmt_number(row[5]), *row[6:]) for row in rows
        )

    zones = Counter((row[2], row[3], row[6]) for row in rows)
    totals = Counter(row[2:4] for row in rows)
    aggregate = {
        method: {
            fmt_number(alpha): {
                zone.value: float(fmt_number(zones[method, alpha, zone.value] / totals[method, alpha]))
                for zone in Zone
            }
            for alpha in inputs["rolling"].levels
        }
        for method, _ in totals
    }
    aggregate_path = out_dir / "aggregate.json"
    with open(aggregate_path, "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"wrote {len(rows)} report rows to {report_path} and zone proportions to {aggregate_path}")
    return 0


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    from .backtest import estimate_series
    from .conjugate import RiskMeasure

    cfg = _load_config(args.config)
    inputs = _resolve_backtest_inputs(cfg, args, "estimate")
    out = _cfg_get(cfg, "estimate", "out", args.out, None)
    if out is None:
        raise ValidationError("estimate needs an output path (--out)")

    history = inputs["history"]
    if history is not None:
        returns, dates = history.data, history.dates
    else:
        returns = simulate(_scenario_request(inputs, 0))
        dates = weekday_dates(dt.date.fromisoformat(DEFAULT_START_DATE), inputs["t0"])

    series = estimate_series(returns, inputs["weights"], inputs["rolling"], inputs["methods"],
                             inputs["asset_ids"])
    columns = [(method.label, alpha, measure) for method in inputs["methods"]
               for alpha in inputs["rolling"].levels
               for measure in (RiskMeasure.VAR, RiskMeasure.CVAR)]

    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "return"] + [
            f"neg_{measure.value}:{label}:{fmt_number(alpha)}" for label, alpha, measure in columns
        ])
        writer.writerows(
            [dates[day - 1].isoformat(), fmt_number(realized)]
            + [fmt_number(-estimates[column]) for column in columns]
            for day, realized, estimates in series
        )
    print(f"wrote {len(series)} daily estimate rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override file values")
    p.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then {DEFAULT_SEED})")
    p.add_argument("--out", help="output path")


def _add_estimation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="input return/price CSV (mutually exclusive with --scenario)")
    p.add_argument("--scenario", choices=SCENARIOS, help="simulate the input instead of reading a CSV")
    p.add_argument("--k", type=int, help="number of assets (scenario input)")
    p.add_argument("--t", type=int, help="path length in days (scenario input)")
    p.add_argument("--window", type=int, help=f"rolling window length (default {DEFAULT_WINDOW})")
    p.add_argument("--alpha", help=f"comma-separated VaR levels (default {DEFAULT_LEVELS})")
    p.add_argument(
        "--method",
        action="append",
        help="estimator spec: vs(n_r,h,l[,r0]), eb[(d0,r0)], or sample; repeatable",
    )
    p.add_argument("--nr", type=int, help="short window for bare 'vs' (default 4)")
    p.add_argument("--h", type=float, help="high-volatility exponent for bare 'vs' (default 2)")
    p.add_argument("--l", type=float, help="low-volatility exponent for bare 'vs' (default 0)")
    p.add_argument("--r0", type=float, help="prior mean precision override (default: window length)")
    p.add_argument("--mode", choices=("returns", "prices"), help="input CSV interpretation")
    p.add_argument("--weights", help="'equal' or a CSV of asset,weight rows (default equal)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbench",
        description="Portfolio VaR/CVaR estimation, scenario simulation, and Basel backtesting.",
    )
    parser.add_argument("--version", action="version", version=f"riskbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic return CSV")
    _add_common_flags(p_sim)
    p_sim.add_argument("--scenario", choices=SCENARIOS, help="generator (default mvn)")
    p_sim.add_argument("--k", type=int, help=f"number of assets (default {DEFAULT_K})")
    p_sim.add_argument("--t", type=int, help=f"path length in days (default {DEFAULT_T0})")
    p_sim.add_argument("--start-date", help=f"first output date (default {DEFAULT_START_DATE})")

    p_back = sub.add_parser("backtest", help="rolling backtest with traffic-light reports")
    _add_common_flags(p_back)
    _add_estimation_flags(p_back)
    p_back.add_argument("--replications", type=int, help="number of simulated replications (default 1)")
    p_back.add_argument("--jobs", type=int, help="worker processes (default 1)")
    p_back.add_argument(
        "--timing",
        action="store_true",
        help="record runtime_ms: fitting wall time of each worker's replications, all methods "
             "together, divided by its replications",
    )

    p_est = sub.add_parser("estimate", help="export daily -VaR/-CVaR series")
    _add_common_flags(p_est)
    _add_estimation_flags(p_est)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "backtest": cmd_backtest, "estimate": cmd_estimate}
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
