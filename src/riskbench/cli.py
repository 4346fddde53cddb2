"""Command-line interface: simulate scenario paths, run rolling backtests,
and export daily risk-estimate series.

Configuration comes from an INI-style file (``--config``) with flag
overrides; flags always win. Every command is deterministic given its
configuration and seed, including under ``--jobs`` greater than one: worker
results are collected and written in a canonical sort order. Exit codes:
0 success, 2 validation error, 3 data error, 4 numerical error.

Importing this module registers :func:`gc.freeze` to run at exit. The
interpreter's finalization otherwise runs full garbage-collector sweeps over
every long-lived object (numpy's and this package's modules, some 24,000
objects), about 16 ms of a 0.23 s run on a 2-vCPU host; the sweeps skip
frozen objects, whose memory the process hands back as it ends anyway.
Output files are closed by ``with`` blocks before that, and the standard
streams are flushed by finalization itself. Forked workers leave by
``os._exit`` and never run it.
"""

from __future__ import annotations

import argparse
import atexit
import configparser
import csv
import datetime as dt
import functools
import gc
import json
import math
import os
import sys
import time
from collections import Counter, namedtuple
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
DEFAULT_METHODS = ["vs(4,2,0)", "vs(4,0,0)", "eb", "sample"]

REPORT_HEADER = "replication,portfolio,method,alpha,exceedances,cum_prob,zone,runtime_ms"

atexit.register(gc.freeze)


# ---------------------------------------------------------------------------
# configuration handling


def _float(raw) -> float:
    """One finite number."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {raw!r}")
    return value


def _floats(raw) -> tuple[float, ...]:
    """Finite numbers separated by commas and/or whitespace."""
    return tuple(_float(p) for p in str(raw).replace(",", " ").split())


def _levels(raw) -> tuple[float, ...]:
    """VaR levels, checked as :class:`~riskbench.backtest.RollingConfig` checks them."""
    from .backtest import RollingConfig

    return RollingConfig(levels=_floats(raw)).levels


def _choice(*names):
    """A conversion to one of ``names``, in any letter case."""
    def choice(raw) -> str:
        if str(raw).lower() not in names:
            raise ValidationError(f"unknown value {raw!r}; expected one of {', '.join(names)}")
        return str(raw).lower()
    return choice


def _specs(raw) -> list[str]:
    """Method specs: a config value's words, or the repeated flag's list."""
    return raw.split() if isinstance(raw, str) else raw


_date = dt.date.fromisoformat
_KIND_NAMES = {int: "an integer", _float: "a finite number", _floats: "a list of finite numbers",
               _levels: "a list of finite numbers", _date: "an ISO-8601 date"}


# A config key's default (used as is), conversion of a flag's text or a config
# value, least value, flag help (``{default}`` shows the default), flag when
# not ``--key``, and environment variable read when neither sets the key.
_Setting = namedtuple("_Setting", "default kind least help flag env",
                      defaults=(None, str, None, "", None, None))


_SETTINGS = {
    # The command keys. Each is also a flag of every command whose section takes it.
    "input": _Setting(help="input return/price CSV (mutually exclusive with --scenario)"),
    "scenario": _Setting("mvn", _choice(*SCENARIOS), help=(
        f"scenario to simulate: {', '.join(SCENARIOS)} (default {{default}} for simulate; "
        "backtest and estimate need it or --input)")),
    "k": _Setting(5, int, 1, "number of assets (default {default}; scenario input)"),
    "t": _Setting(500, int, 2, "path length in days (default {default}; scenario input)"),
    "seed": _Setting(0, int, 0, f"RNG seed (fallback: ${SEED_ENV_VAR}, then {{default}})",
                     env=SEED_ENV_VAR),
    "start_date": _Setting(dt.date(2020, 1, 1), _date,
                           help="first output date (default {default})"),
    "window": _Setting(250, int, 2, "rolling window length (default {default})"),
    "levels": _Setting((0.975, 0.99), _levels, flag="--alpha",
                       help="comma-separated VaR levels (default {default})"),
    "methods": _Setting(DEFAULT_METHODS, _specs, flag="--method", help=(
        "estimator spec, repeatable: vs(n_r,h,l[,r0]) (bare vs = vs(4,2,0)), eb[(d0,r0)] or "
        "sample; d0 and r0 default to the window length")),
    "mode": _Setting("returns", _choice("returns", "prices"),
                     help="input CSV interpretation: returns or prices (default {default})"),
    "weights": _Setting("equal", help="'equal' or a CSV of asset,weight rows (default {default})"),
    "out": _Setting(help="output path"),
    "replications": _Setting(1, int, 1, "number of simulated replications (default {default})"),
    "jobs": _Setting(1, int, 1, "worker processes, at most one per usable CPU and replication "
                                "(default {default})"),
    # The scenario keys, config only. Their defaults are round illustrative
    # numbers, not fitted to market data; the pmvn keys default to PmvnParams'.
    "mean": _Setting((0.0005,), _floats),
    "vol": _Setting((0.01,), _floats),
    "correlation": _Setting(0.3, _float),
    "period_lengths": _Setting(None, _floats),
    "regime_probs": _Setting(None, _floats),
    "low_scale": _Setting(None, _floats),
    "high_scale": _Setting(None, _floats),
    "omega": _Setting((5e-6,), _floats),
    "arch": _Setting((0.05,), _floats),
    "garch": _Setting((0.9,), _floats),
    "theta1": _Setting(0.05, _float),
    "theta2": _Setting(0.9, _float),
}

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
        for section in set(_CONFIG_KEYS).difference(parser.sections()):  # so [DEFAULT] reaches it
            parser.add_section(section)
    return parser


def _get(cfg: configparser.ConfigParser, args, section: str, key: str):
    """``section.key``: its flag, else its config value, else its environment
    variable if it has one, else its default. Each but the default goes
    through the key's conversion; a value it refuses, or one below the key's
    least value, is a :class:`ValidationError` naming where it came from."""
    setting, where = _SETTINGS[key], f"{section}.{key}"
    raw = getattr(args, key, None)
    try:
        if raw is None:
            raw = cfg.get(section, key, fallback=None)
        if raw is None and setting.env:
            raw, where = os.environ.get(setting.env), setting.env
        if raw is None:
            return setting.default
        value = setting.kind(raw)
    except (ValidationError, configparser.Error) as exc:  # configparser: a bad %-interpolation
        raise ValidationError(f"{where}: {exc}") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{where} must be {_KIND_NAMES[setting.kind]}, got {raw!r}") from None
    if setting.least is not None and value < setting.least:
        raise ValidationError(f"{where} must be at least {setting.least}, got {value}")
    return value


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
    """Build generator params for a scenario from its config section; the
    defaults are those of ``_SETTINGS``."""
    section = f"scenario.{scenario}"

    def get(key):
        return _get(cfg, None, section, key)

    def vector(key):
        return _vector(get(key), k, f"{section}.{key}")

    def named(keys, build, *args, **kwargs):
        """``build(*args, **kwargs)``, its error prefixed with the config keys it reads."""
        try:
            return build(*args, **kwargs)
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(" and ".join(f"{section}.{key}" for key in keys) + f": {exc}") from None

    mean = vector("mean")
    corr = named(["correlation"], _correlation_matrix, get("correlation"), k)
    if scenario in ("mvn", "pmvn"):
        vol = vector("vol")
        if not (vol > 0).all():
            raise ValidationError(f"{section}.vol entries must be positive")
        base = named(["vol", "correlation"], MvnParams, mu=mean, sigma=corr * np.outer(vol, vol))
        if scenario == "mvn":
            return base
        # Each key set in the config replaces a field of a valid PmvnParams
        # in turn, so that an error names its own key.
        params = PmvnParams(base=base)
        for key, field in (("period_lengths", "period_lengths"), ("regime_probs", "regime_probs"),
                           ("low_scale", "low_scale_range"), ("high_scale", "high_scale_range")):
            value = get(key)
            if value is not None:
                params = named([key], replace, params, **{field: value})
        return params
    # Likewise each group of keys joins a valid DccParams with constant
    # variances and correlations (a = b = theta1 = theta2 = 0) in turn.
    params = DccParams(mu=mean, omega=np.ones(k), a=np.zeros(k), b=np.zeros(k), qbar=corr,
                       theta1=0.0, theta2=0.0)
    params = named(["omega"], replace, params, omega=vector("omega"))
    params = named(["arch", "garch"], replace, params, a=vector("arch"), b=vector("garch"))
    return named(["theta1", "theta2"], replace, params, theta1=get("theta1"),
                 theta2=get("theta2"))


def _scenario_request(cfg: configparser.ConfigParser, args, section: str, seed: int) -> SimRequest:
    """The section's scenario, ``k`` and ``t`` at ``seed``, params from the scenario's section."""
    scenario = _get(cfg, args, section, "scenario")
    k = _get(cfg, args, section, "k")
    t0 = _get(cfg, args, section, "t")
    return SimRequest(scenario, t0, k, seed, _scenario_params(cfg, scenario, k))


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


def cmd_simulate(cfg, args, out_path: Path) -> int:
    req = _scenario_request(cfg, args, "simulate", _get(cfg, args, "simulate", "seed"))
    start = _get(cfg, args, "simulate", "start_date")
    dates = weekday_dates(start, req.t0)  # a calendar overflow fails before simulating
    meta = {
        "command": "simulate",
        "scenario": req.scenario,
        "k": req.k,
        "t0": req.t0,
        "seed": req.seed,
        "start_date": start.isoformat(),
        "params": req.params,
        "version": __version__,
    }
    if req.scenario == "pmvn":
        data, meta["periods"] = simulate_pmvn_detail(req)
    else:
        data = simulate(req)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    asset_ids = tuple(f"A{i + 1}" for i in range(req.k))
    write_returns_csv(out_path, data, asset_ids, dates)
    with open(f"{out_path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    print(f"wrote {req.t0} x {req.k} {req.scenario} returns to {out_path} (seed {req.seed})")
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


def _map_chunks(run, chunks: list[range]) -> list:
    """``[run(chunk) for chunk in chunks]``, each chunk after the first in a
    worker process. On Linux the workers are forked children of this process
    (see :func:`_fork_map`); elsewhere a fork after numpy's BLAS has started
    threads is unsafe (macOS) or impossible (Windows), so a process pool runs
    every chunk."""
    if len(chunks) == 1:
        return [run(chunks[0])]
    if sys.platform != "linux":
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            return list(pool.map(run, chunks))
    return _fork_map(run, chunks)


def _fork_map(run, chunks: list[range]) -> list:
    """Fork one child per chunk after the first, run the first chunk here,
    then read each child's pickled result, or the exception its chunk raised,
    from its pipe in chunk order and reap it.

    A child always leaves by ``os._exit``, so it runs neither this process's
    ``atexit`` handlers nor its caller's code. A child that ends without a
    result is a :class:`ChildProcessError` naming its replications and how it
    ended. Whatever this process raises, every child not yet reaped is killed
    and reaped first.
    """
    import pickle
    import signal
    import warnings

    import numpy.random  # noqa: F401  (once here, not once in every child)

    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, pipe, chunk) of every child not yet reaped
    try:
        for chunk in chunks[1:]:
            read_end, write_end = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with threads forks. The
                # CLI's only threads are BLAS's, and OpenBLAS, numpy's
                # default, shuts its pool down before a fork. A warning
                # turned into an error would also strand the new child.
                warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    try:
                        payload = pickle.dumps((run(chunk), None))
                    except Exception as exc:
                        payload = pickle.dumps((None, exc))
                    with open(write_end, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, open(read_end, "rb"), chunk))
        results = [run(chunks[0])]
        while children:
            pid, pipe, chunk = children[0]
            payload = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            try:
                result, exc = pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):  # nothing, or a cut-off pickle
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit code {code}"
                reps = (f"replications {chunk.start}-{chunk.stop - 1}" if len(chunk) > 1
                        else f"replication {chunk.start}")
                raise ChildProcessError(
                    f"the worker for {reps} ended without a result ({how})") from None
            if exc is not None:
                raise exc
            results.append(result)
        return results
    finally:
        for pid, pipe, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


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

    input_path = _get(cfg, args, section, "input")
    simulated = args.scenario is not None or cfg.has_option(section, "scenario")
    if simulated == (input_path is not None):
        raise ValidationError("exactly one of an input CSV (--input) and a scenario (--scenario) "
                              "is required")

    window = _get(cfg, args, section, "window")
    rolling = RollingConfig(window=window, levels=_get(cfg, args, section, "levels"))
    labels = [fmt_number(alpha) for alpha in rolling.levels]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValidationError(f"{section}.levels repeat {', '.join(repeated)} "
                              "(levels are printed with 12 significant digits)")

    methods = tuple(parse_methods(_get(cfg, args, section, "methods")))
    if not methods:
        raise ValidationError(f"{section}.methods is empty; give at least one method")

    seed = _get(cfg, args, section, "seed")
    mode = _get(cfg, args, section, "mode")

    history = request = None
    if input_path is not None:
        history = ingest_returns(input_path, mode=mode)
        t0, k = history.data.shape
        asset_ids = history.asset_ids
    else:
        request = _scenario_request(cfg, args, section, seed)
        t0, k = request.t0, request.k
        asset_ids = tuple(f"A{i + 1}" for i in range(k))

    if t0 <= window:
        raise ValidationError(f"history length {t0} must exceed the rolling window {window}")
    for method in methods:
        method.validate(window, k)
    weights = load_weights(_get(cfg, args, section, "weights"), asset_ids)

    return {
        "history": history,
        "request": request,
        "rolling": rolling,
        "methods": methods,
        "weights": weights,
        "asset_ids": asset_ids,
    }


def cmd_backtest(cfg, args, out_dir: Path) -> int:
    from .backtest import Zone

    inputs = _resolve_backtest_inputs(cfg, args, "backtest")
    jobs = _get(cfg, args, "backtest", "jobs")
    replications = _get(cfg, args, "backtest", "replications")

    if inputs["history"] is not None and replications != 1:
        raise ValidationError("replications > 1 requires a scenario input")
    run = functools.partial(_run_chunk, (inputs, bool(args.timing)))
    # One contiguous range of replications per worker, one range when serial.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    count = min(jobs, replications, cpus or 1)
    chunks = [range(i * replications // count, (i + 1) * replications // count)
              for i in range(count)]
    results = _map_chunks(run, chunks)

    rows = sorted((row for reps_rows, _ in results for row in reps_rows), key=lambda r: r[:4])
    fails = [fail for _, reps_fails in results for fail in reps_fails]
    for rep, label, exc in fails:
        print(f"warning: replication {rep}, method {label} skipped: {exc}", file=sys.stderr)
    if fails and not rows:
        raise fails[0][2]  # every method failed on every replication

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


def cmd_estimate(cfg, args, out_path: Path) -> int:
    from .backtest import estimate_arrays

    inputs = _resolve_backtest_inputs(cfg, args, "estimate")

    returns = _replication(inputs, 0)
    dates = (inputs["history"].dates if inputs["history"] is not None
             else weekday_dates(_SETTINGS["start_date"].default, len(returns)))
    keys, realized, values = estimate_arrays(returns, inputs["weights"], inputs["rolling"],
                                             inputs["methods"], inputs["asset_ids"])
    columns = ["return"] + [f"neg_{measure.value}:{label}:{fmt_number(alpha)}"
                            for label, alpha, measure in keys]

    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_returns_csv(out_path, np.column_stack([realized, -values]), columns,
                      dates[inputs["rolling"].window:])
    print(f"wrote {len(realized)} daily estimate rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command section, with a ``--config`` flag and one
    flag per key of the section (see ``_SETTINGS``)."""
    # No abbreviated flags: each flag has one spelling, and --h is not read as --help.
    parser = argparse.ArgumentParser(
        prog="riskbench",
        description="Portfolio VaR/CVaR estimation, scenario simulation, and Basel backtesting.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"riskbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("simulate", "generate a synthetic return CSV"),
                           ("backtest", "rolling backtest with traffic-light reports"),
                           ("estimate", "export daily -VaR/-CVaR series")):
        p = sub.add_parser(command, help=about, allow_abbrev=False)
        p.add_argument("--config", help="INI config file; flags override file values, and an "
                       "unknown section or key exits 2")
        for key in _CONFIG_KEYS[command]:
            setting = _SETTINGS[key]
            default = setting.default
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            flag = setting.flag or "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, metavar=flag[2:].upper().replace("-", "_"),
                           action="append" if setting.kind is _specs else "store",
                           help=setting.help.format(default=shown))
        if command == "backtest":
            p.add_argument("--timing", action="store_true", help=(
                "record runtime_ms: fitting wall time of each worker's replications, all methods "
                "together, divided by its replications"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"simulate": cmd_simulate, "backtest": cmd_backtest, "estimate": cmd_estimate}
    try:
        cfg = _load_config(args.config)
        out = _get(cfg, args, args.command, "out")
        if out is None:
            raise ValidationError(f"{args.command} needs an output path (--out)")
        return handlers[args.command](cfg, args, Path(out))
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
