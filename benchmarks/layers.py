"""Per-layer microbenchmarks at a workload's own shape.

Each benchmark calls only public functions, on inputs built from the
workload's seed and shape, warms up before timing, and reports the median
time per call over batches together with the number of batches. Calls whose
cost depends on the t-quantile cache (a new degrees-of-freedom value per day
in the real run) get windows no earlier benchmark has seen, so they are
timed as cold as in the workload.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from pathlib import Path

BUDGET_S = 0.25  # timed seconds per microbenchmark
BATCHES = 15
POOL_BYTES = 32 * 2**20  # cap on memory held by prebuilt return windows


def time_per_call(call, items: int, budget_s: float | None = None) -> tuple[float, int]:
    """Median seconds per ``call(i)`` over batches, and the batch count.

    ``call(0)`` is the warm-up and sizes the batches; later calls use each
    index ``1 .. items-1`` at most once.
    """
    budget_s = BUDGET_S if budget_s is None else budget_s
    start = time.perf_counter()
    call(0)
    first = time.perf_counter() - start
    per_batch = max(1, min((items - 1) // BATCHES, int(budget_s / BATCHES / max(first, 1e-9))))
    samples, i, spent = [], 1, 0.0
    while i + per_batch <= items and (len(samples) < 3 or spent < budget_s):
        start = time.perf_counter()
        for j in range(i, i + per_batch):
            call(j)
        elapsed = time.perf_counter() - start
        samples.append(elapsed / per_batch)
        spent += elapsed
        i += per_batch
    return statistics.median(samples), len(samples)


def time_repeated(fn, budget_s: float | None = None) -> tuple[float, int]:
    """Median seconds per call of ``fn()`` with the same arguments each time."""
    return time_per_call(lambda _: fn(), 10**9, budget_s)


def _paths(wl, seed: int, count: int):
    """Return paths shaped like the workload's: replication paths for a
    backtest, the input CSV for estimate, the simulated path for simulate."""
    from riskbench import SimRequest, replication_seed, simulate
    from run import scenario_params

    params = scenario_params(wl)
    if wl.command == "backtest":
        return [simulate(SimRequest(wl.scenario, wl.t, wl.k, replication_seed(seed, r), params))
                for r in range(count)]
    return [simulate(SimRequest(wl.scenario, wl.t, wl.k, seed, params))]


def layer_metrics(wl, seed: int, work: Path) -> dict:
    """``name -> (value, unit, samples)`` for every layer at the workload's shape."""
    from riskbench import (RiskMeasure, ReturnWindow, SimRequest, VsConfig, binomial_cdf,
                           eb_hyperparams, equal_weights, parse_methods, posterior_predictive,
                           risk_estimate, sample_stats, short_window_std, simulate, t_quantile,
                           traffic_light, vs_hyperparams)
    from riskbench.dataio import ingest_returns, weekday_dates, write_returns_csv
    from run import scenario_params
    from spans import START_DATE

    metrics = {}

    def record(name, seconds_and_n, unit="us", scale=1e6):
        seconds, n = seconds_and_n
        metrics[name] = (seconds * scale, unit, n)

    n, k = wl.window, wl.k
    levels = wl.levels
    measures = tuple(RiskMeasure(m) for m in wl.measures)
    weights = equal_weights(k)
    ids = tuple(f"a{i + 1}" for i in range(k))

    # Day windows in workload order, without repeats, up to POOL_BYTES.
    pool_size = max(64, min(4096, POOL_BYTES // (n * k * 8)))
    days_per_path = wl.t - n
    paths = _paths(wl, seed, -(-pool_size // days_per_path))
    slices = [(p, t) for p in paths for t in range(n, wl.t)][:pool_size]
    record("returns.window_build_us", time_per_call(
        lambda i: ReturnWindow(data=slices[i][0][slices[i][1] - n:slices[i][1]], asset_ids=ids),
        len(slices)))
    windows = [ReturnWindow(data=p[t - n:t], asset_ids=ids) for p, t in slices]
    half = len(windows) // 2
    fresh, other = windows[:half], windows[half:]

    methods = {m.label: m for m in parse_methods(wl.methods)}
    vs = methods["vs(4,2,0)"]
    for label, name in (("vs(4,2,0)", "vs"), ("eb", "eb"), ("sample", "sample")):
        pool = fresh if label == "vs(4,2,0)" else other
        record(f"estimators.{name}_fit_us", time_per_call(
            lambda i, m=methods[label], pool=pool: m.day_estimates(pool[i], weights, levels, measures),
            len(pool)))

    stats = [sample_stats(w) for w in other]
    record("returns.sample_stats_us", time_per_call(lambda i: sample_stats(other[i]), len(other)))
    record("returns.short_window_std_us", time_per_call(
        lambda i: short_window_std(other[i], vs.n_r, stats[i].mean), len(other)))
    cfg = VsConfig(vs.n_r, vs.h, vs.l, vs.r0)
    record("priors.vs_hyperparams_us", time_per_call(
        lambda i: vs_hyperparams(other[i], weights, cfg), len(other)))
    record("priors.eb_hyperparams_us", time_per_call(lambda i: eb_hyperparams(other[i]), len(other)))

    # Predictive parameters of the vs method on windows whose df no fit has
    # seen: VaR is timed cold, CVaR at the same (df, alpha) just after it, as
    # in the estimate loop.
    hps = [vs_hyperparams(w, weights, cfg)[0] for w in other]
    preds = []
    record("conjugate.posterior_predictive_us", time_per_call(
        lambda i: preds.append(posterior_predictive(other[i], weights, hps[i])), len(other)))
    alpha = levels[0]
    record("conjugate.var_us", time_per_call(
        lambda i: risk_estimate(preds[i], alpha, RiskMeasure.VAR), len(preds)))
    record("conjugate.cvar_us", time_per_call(
        lambda i: risk_estimate(preds[i], alpha, RiskMeasure.CVAR), len(preds)))

    df0 = 2.0 * n - 2 * k + 0.5
    record("studentt.t_quantile_cold_us", time_per_call(
        lambda i: t_quantile(df0 + i * 1e-6, alpha), 10**6))
    record("studentt.t_quantile_warm_us", time_repeated(lambda: t_quantile(df0, alpha)))

    days = wl.t - n
    count = round(days * (1.0 - alpha))
    record("backtest.binomial_cdf_us", time_repeated(lambda: binomial_cdf(count, days, 1.0 - alpha)))
    record("backtest.traffic_light_us", time_repeated(lambda: traffic_light(count, days, alpha)))

    for scenario in ("pmvn", "dcc"):
        params = scenario_params(dataclasses.replace(wl, scenario=scenario))
        record(f"simulate.{scenario}_path_ms", time_per_call(
            lambda i, p=params: simulate(SimRequest(scenario, wl.t, wl.k, seed + i, p)), 4, 0.0),
            unit="ms", scale=1e3)

    # CSV I/O on one path of the workload's shape; MB are computed file bytes.
    data = paths[0]
    asset_ids = tuple(f"A{i + 1}" for i in range(wl.k))
    dates = weekday_dates(START_DATE, wl.t)
    io_path = work / "layer-io.csv"
    write_returns_csv(io_path, data, asset_ids, dates)
    mb = io_path.stat().st_size / 1e6
    for name, call in (("write", lambda _: write_returns_csv(io_path, data, asset_ids, dates)),
                       ("ingest", lambda _: ingest_returns(io_path))):
        seconds, batches = time_per_call(call, 10**9, 3 * BUDGET_S)
        metrics[f"dataio.{name}_mb_per_s"] = (mb / seconds, "MB/s", batches)
    io_path.unlink()
    return metrics
