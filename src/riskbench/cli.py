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
import math
import os
import sys
import time
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
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


# The keys each config section takes, whether or not a given run reads them
# (``k`` is read only with a scenario input, for example).
_ESTIMATION_KEYS = "input scenario k t seed window levels methods mode weights out"
_CONFIG_KEYS = {
    "simulate": "scenario k t seed start_date out".split(),
    "backtest": (_ESTIMATION_KEYS + " replications jobs").split(),
    "estimate": _ESTIMATION_KEYS.split(),
    "scenario.mvn": "mean vol correlation".split(),
    "scenario.pmvn": "mean vol correlation period_lengths regime_probs low_scale high_scale".split(),
    "scenario.dcc": "mean correlation omega arch garch theta1 theta2".split(),
}


def _check_config_keys(parser: configparser.ConfigParser, path: str) -> None:
    """Refuse a section or key that no command reads, which would otherwise
    leave its value at the default without a word. configparser copies the
    ``[DEFAULT]`` keys into every section, so they are checked once, against
    the keys of all sections."""
    defaults = parser.defaults()
    every_key = {key for keys in _CONFIG_KEYS.values() for key in keys}
    keys = [("DEFAULT", key, every_key) for key in defaults]
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ValidationError(f"{path}: unknown config section [{section}]; "
                                  f"expected {', '.join(_CONFIG_KEYS)}")
        keys += [(section, key, _CONFIG_KEYS[section]) for key in parser[section]
                 if key not in defaults]
    for section, key, allowed in keys:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown config key {section}.{key}; "
                                  f"expected {', '.join(sorted(allowed))}")


def _load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        if not Path(path).is_file():
            raise ValidationError(f"config file not found: {path}")
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ValidationError(f"cannot parse config file {path}: {exc}") from None
        except UnicodeDecodeError:
            raise ValidationError(f"config file {path} is not UTF-8 text") from None
        _check_config_keys(parser, path)
    return parser


def _float(raw) -> float:
    """One finite number."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {raw!r}")
    return value


def _floats(raw) -> tuple[float, ...]:
    """Finite numbers separated by commas and/or whitespace."""
    return tuple(_float(p) for p in str(raw).replace(",", " ").split())


_KIND_NAMES = {int: "an integer", _float: "a finite number", _floats: "a list of finite numbers"}


def _cfg_get(cfg: configparser.ConfigParser, section: str, key: str, flag_value, default,
             kind=None, at_least=None):
    """Resolution order: explicit flag, config file value, default.

    ``kind`` (``int``, ``_float`` or ``_floats``) converts the value; a value
    it rejects, or one below ``at_least``, is a :class:`ValidationError`
    naming ``section.key``.
    """
    raw = flag_value if flag_value is not None else cfg.get(section, key, fallback=default)
    if kind is None or raw is None:
        return raw
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{section}.{key} must be {_KIND_NAMES[kind]}, got {raw!r}"
        ) from None
    if at_least is not None and value < at_least:
        raise ValidationError(f"{section}.{key} must be at least {at_least}, got {value}")
    return value


def _resolve_seed(cfg: configparser.ConfigParser, section: str, flag_value) -> int:
    seed = _cfg_get(cfg, section, "seed", flag_value, None, int, at_least=0)
    if seed is not None:
        return seed
    raw = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ValidationError(f"{SEED_ENV_VAR} must be a non-negative integer, got {raw!r}")


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


@np.errstate(over="ignore", invalid="ignore")  # MvnParams refuses a non-finite covariance
def _scenario_params(cfg: configparser.ConfigParser, scenario: str, k: int):
    """Build generator params for a scenario from its config section.

    Shipped defaults are synthetic illustrative values (round numbers), not
    fitted to any market data: 5 bp daily drift, 1% daily vol, constant 0.3
    correlation, and mildly persistent GARCH dynamics for the dcc scenario.
    """
    section = f"scenario.{scenario}"

    def get(key, default, kind=_floats):
        return _cfg_get(cfg, section, key, None, default, kind)

    def vector(key, default):
        return _vector(get(key, default), k, f"{section}.{key}")

    def named(keys, build, *args, **kwargs):
        """``build(*args, **kwargs)``, its error prefixed with the config keys it reads."""
        try:
            return build(*args, **kwargs)
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(" and ".join(f"{section}.{key}" for key in keys) + f": {exc}") from None

    mean = vector("mean", "0.0005")
    corr = named(["correlation"], _correlation_matrix, get("correlation", "0.3", _float), k)
    if scenario in ("mvn", "pmvn"):
        vol = vector("vol", "0.01")
        if not (vol > 0).all():
            raise ValidationError(f"{section}.vol entries must be positive")
        base = named(["vol", "correlation"], MvnParams, mu=mean, sigma=corr * np.outer(vol, vol))
        if scenario == "mvn":
            return base
        # Each key replaces a shipped default of a valid PmvnParams in turn, so
        # that an error names its own key.
        params = PmvnParams(base=base)
        for key, field, default in (("period_lengths", "period_lengths", "3,4,5"),
                                    ("regime_probs", "regime_probs", "0.05,0.9,0.05"),
                                    ("low_scale", "low_scale_range", "0.5,0.7"),
                                    ("high_scale", "high_scale_range", "1.5,3.0")):
            params = named([key], replace, params, **{field: get(key, default)})
        return params
    # Likewise each group of keys joins a valid DccParams with constant
    # variances and correlations (a = b = theta1 = theta2 = 0) in turn.
    params = DccParams(mu=mean, omega=np.ones(k), a=np.zeros(k), b=np.zeros(k), qbar=corr,
                       theta1=0.0, theta2=0.0)
    params = named(["omega"], replace, params, omega=vector("omega", "5e-6"))
    params = named(["arch", "garch"], replace, params, a=vector("arch", "0.05"),
                   b=vector("garch", "0.9"))
    return named(["theta1", "theta2"], replace, params, theta1=get("theta1", "0.05", _float),
                 theta2=get("theta2", "0.9", _float))


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
    k = _cfg_get(cfg, "simulate", "k", args.k, DEFAULT_K, int, at_least=1)
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


def _run_chunk(shared, chunk: range):
    """Backtest every method on a ``range`` of consecutive replications,
    fitted together as one stack (see :func:`riskbench.backtest.run_backtests`).

    ``shared`` is ``(inputs, timing)``, with ``inputs`` from
    :func:`_resolve_backtest_inputs`: each replication's history is drawn
    by :func:`_replication` when the stack reaches it.
    Returns report rows in ``REPORT_HEADER`` order and
    ``(replication, label, error)`` failures. With ``timing``, each row's
    ``runtime_ms`` is the chunk's fitting wall time (all methods and
    replications, excluding simulation) divided by its replications.
    """
    from .backtest import run_backtests

    inputs, timing = shared
    simulating = 0.0

    def histories():
        nonlocal simulating
        for rep in chunk:
            start = time.perf_counter()
            returns = _replication(inputs, rep)
            simulating += time.perf_counter() - start
            yield returns

    start = time.perf_counter()
    results = list(run_backtests(histories(), inputs["weights"], inputs["rolling"],
                                 inputs["methods"], inputs["asset_ids"]))
    fit_s = time.perf_counter() - start - simulating
    runtime_ms = int(round(fit_s * 1000 / len(chunk))) if timing else 0
    rows, fails = [], []
    for rep, (reports, failures) in zip(chunk, results):
        rows += [(rep, 0, r.method, r.alpha, r.exceedances, r.cum_prob, r.zone.value, runtime_ms)
                 for r in reports]
        fails += [(rep, label, exc) for label, exc in failures]
    return rows, fails


def _replication(inputs, rep: int) -> np.ndarray:
    """Replication ``rep``'s history: the input CSV's data, or the scenario
    simulated at ``replication_seed(seed, rep)``."""
    request = inputs["request"]
    if request is None:
        return inputs["history"].data
    return simulate(replace(request, seed=replication_seed(request.seed, rep)))


def _resolve_backtest_inputs(cfg, args, section: str):
    """Shared backtest/estimate input resolution; validates before computing.

    The dict holds ``rolling``, ``methods``, ``weights``, ``asset_ids`` and
    either ``history``, the input CSV, or ``request``, the scenario at the
    base seed (the other is None). The fitting modules are imported here and
    not at module level, so ``simulate`` and ``--version`` never load them.
    Levels are printed with :func:`fmt_number` in every output, so two
    levels that print alike are refused.
    """
    from .backtest import RollingConfig
    from .estimators import parse_methods

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

    methods = tuple(parse_methods(
        args.method or cfg.get(section, "methods", fallback=" ".join(DEFAULT_METHODS)).split()))

    seed = _resolve_seed(cfg, section, args.seed)
    mode = str(_cfg_get(cfg, section, "mode", args.mode, "returns"))
    weights_spec = str(_cfg_get(cfg, section, "weights", args.weights, "equal"))

    history = None
    if input_path is not None:
        history = ingest_returns(input_path, mode=mode)
        t0, k = history.data.shape
        asset_ids = history.asset_ids
    else:
        scenario = str(scenario).lower()
        if scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {scenario!r}; expected one of {list(SCENARIOS)}")
        k = _cfg_get(cfg, section, "k", args.k, DEFAULT_K, int, at_least=1)
        t0 = _cfg_get(cfg, section, "t", args.t, DEFAULT_T0, int)
        asset_ids = tuple(f"A{i + 1}" for i in range(k))
        params = _scenario_params(cfg, scenario, k)

    if t0 <= window:
        raise ValidationError(f"history length {t0} must exceed the rolling window {window}")
    for method in methods:
        method.validate(window, k)
    weights = load_weights(weights_spec, asset_ids)
    request = SimRequest(scenario, t0, k, seed, params) if history is None else None

    return {
        "history": history,
        "request": request,
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
    jobs = _cfg_get(cfg, "backtest", "jobs", args.jobs, 1, int, at_least=1)
    replications = _cfg_get(cfg, "backtest", "replications", args.replications, 1, int,
                            at_least=1)

    if inputs["history"] is not None and replications != 1:
        raise ValidationError("replications > 1 requires a scenario input")
    run = functools.partial(_run_chunk, (inputs, bool(args.timing)))
    # One contiguous range of replications per worker, one range when serial.
    count = min(jobs, replications, os.cpu_count() or 1)
    chunks = [range(i * replications // count, (i + 1) * replications // count)
              for i in range(count)]
    if count > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = list(map(run, chunks))

    rows = sorted((row for reps_rows, _ in results for row in reps_rows), key=lambda r: r[:4])
    fails = [fail for _, reps_fails in results for fail in reps_fails]
    for rep, label, exc in fails:
        print(f"warning: replication {rep}, method {label} skipped: {exc}", file=sys.stderr)
    if fails and not rows:
        raise fails[0][2]  # every method failed on every replication

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

    returns = _replication(inputs, 0)
    dates = (inputs["history"].dates if inputs["history"] is not None
             else weekday_dates(dt.date.fromisoformat(DEFAULT_START_DATE), len(returns)))

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
    p.add_argument("--config", help="INI config file; flags override file values, and an unknown "
                   "section or key exits 2")
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
        help="estimator spec, repeatable: vs(n_r,h,l[,r0]) (bare vs = vs(4,2,0)), "
             "eb[(d0,r0)] or sample; d0 and r0 default to the window length",
    )
    p.add_argument("--mode", choices=("returns", "prices"), help="input CSV interpretation")
    p.add_argument("--weights", help="'equal' or a CSV of asset,weight rows (default equal)")


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated flags: each flag has one spelling, and --h is not read as --help.
    parser = argparse.ArgumentParser(
        prog="riskbench",
        description="Portfolio VaR/CVaR estimation, scenario simulation, and Basel backtesting.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"riskbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic return CSV", allow_abbrev=False)
    _add_common_flags(p_sim)
    p_sim.add_argument("--scenario", choices=SCENARIOS, help="generator (default mvn)")
    p_sim.add_argument("--k", type=int, help=f"number of assets (default {DEFAULT_K})")
    p_sim.add_argument("--t", type=int, help=f"path length in days (default {DEFAULT_T0})")
    p_sim.add_argument("--start-date", help=f"first output date (default {DEFAULT_START_DATE})")

    p_back = sub.add_parser("backtest", help="rolling backtest with traffic-light reports",
                            allow_abbrev=False)
    _add_common_flags(p_back)
    _add_estimation_flags(p_back)
    p_back.add_argument("--replications", type=int, help="number of simulated replications (default 1)")
    p_back.add_argument("--jobs", type=int, help="worker processes, at most one per CPU and "
                        "replication (default 1)")
    p_back.add_argument(
        "--timing",
        action="store_true",
        help="record runtime_ms: fitting wall time of each worker's replications, all methods "
             "together, divided by its replications",
    )

    p_est = sub.add_parser("estimate", help="export daily -VaR/-CVaR series", allow_abbrev=False)
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
