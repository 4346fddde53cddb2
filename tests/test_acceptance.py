"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The Monte Carlo criteria are seeded and therefore deterministic; stated
runtime budgets are asserted where the criterion carries one.
"""

import csv
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from riskbench import (
    ReturnWindow,
    RiskMeasure,
    VsConfig,
    Zone,
    eb_hyperparams,
    equal_weights,
    posterior_predictive,
    risk_estimate,
    t_cdf,
    t_quantile,
    traffic_light,
    vs_hyperparams,
)
from riskbench.cli import main as cli_main
from riskbench.studentt import normal_quantile

from _oracles import (
    empirical_quantile_band,
    exact_binomial_cdf,
    posterior_predictive_samples,
)


def report(line: str) -> None:
    print(f"\n{line}")


def random_window(rng, n, k, scale=0.01):
    chol = np.tril(rng.normal(0, 0.3, (k, k))) + np.eye(k)
    data = rng.standard_normal((n, k)) @ chol.T * scale + rng.normal(0, 0.002, k)
    return ReturnWindow.from_matrix(data)


def inflate_recent(data, n_r, factor):
    out = np.array(data, dtype=float)
    mean = out.mean(axis=0)
    out[-n_r:] = mean + (out[-n_r:] - mean) * factor
    return out


def run_cli(*argv) -> int:
    return cli_main(list(argv))


# ---------------------------------------------------------------------------
# criterion 1: closed-form VaR vs exact posterior-sampling Monte Carlo


@pytest.mark.slow
def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = [(k, n) for k in (2, 5) for n in (30, 100) for _ in range(5)]
    assert len(cases) == 20
    checked = 0
    for idx, (k, n) in enumerate(cases):
        window = random_window(rng, n, k)
        w = equal_weights(k)
        hp = eb_hyperparams(window)  # d0 = r0 = n
        pred = posterior_predictive(window, w, hp)
        draws = posterior_predictive_samples(
            window.data, w.w, hp.m0, hp.r0, hp.d0, hp.s0,
            n_draws=10**6, seed=9000 + idx,
        )
        losses = -draws
        for alpha in (0.975, 0.99):
            value = risk_estimate(pred, alpha, RiskMeasure.VAR).value
            lo, point, hi = empirical_quantile_band(losses, alpha, n_se=3.0)
            assert lo <= value <= hi, (
                f"closed-form VaR {value:.6g} outside MC band [{lo:.6g}, {hi:.6g}] "
                f"(empirical {point:.6g}) for k={k}, n={n}, alpha={alpha}"
            )
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"criterion 1 exceeded its 2 minute budget ({elapsed:.1f}s)"
    report(
        f"PASS criterion 1: closed-form VaR within 3 MC standard errors of the "
        f"posterior-sampling oracle in {checked}/40 checks over 20 instances ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 2: hyperparameter-scheme property suite


def _engineered_window(seed, n, k, n_r, factor):
    rng = np.random.default_rng(seed)
    data = inflate_recent(random_window(rng, n, k).data, n_r, factor)
    return ReturnWindow.from_matrix(data)


def _vs_estimates(window, w, n_r, h, l, alphas=(0.975, 0.99)):
    hp, diag = vs_hyperparams(window, w, VsConfig(n_r=n_r, h=h, l=l))
    pred = posterior_predictive(window, w, hp)
    out = {}
    for alpha in alphas:
        out[("var", alpha)] = risk_estimate(pred, alpha, RiskMeasure.VAR).value
        out[("cvar", alpha)] = risk_estimate(pred, alpha, RiskMeasure.CVAR).value
    return out, diag, pred


def test_criterion_2_property_suite():
    started = time.perf_counter()
    n, n_r = 10_000, 4
    h_grid = (0.0, 0.5, 1.0, 2.0, 4.0)

    # property 3: bit-identical equivalence with empirical Bayes at n_r = n
    for seed, (nn, k) in enumerate([(50, 3), (10_000, 5)]):
        window = random_window(np.random.default_rng(300 + seed), nn, k)
        eb = eb_hyperparams(window, d0=float(nn), r0=float(nn))
        for h, l in ((2.0, 0.0), (1.0, 3.0)):
            vs, _ = vs_hyperparams(window, equal_weights(k), VsConfig(n_r=nn, h=h, l=l))
            assert vs.d0 == eb.d0 and vs.r0 == eb.r0
            assert np.array_equal(vs.m0, eb.m0) and np.array_equal(vs.s0, eb.s0)

    for k in (2, 5):
        w = equal_weights(k)

        # property 1: nondecreasing in h when recent variance runs high
        high_window = _engineered_window(400 + k, n, k, n_r, 3.0)
        values = [_vs_estimates(high_window, w, n_r, h, 0.0)[0] for h in h_grid]
        _, diag, _ = _vs_estimates(high_window, w, n_r, 1.0, 0.0)
        assert diag.v_rw > diag.v_w
        for key in values[0]:
            series = [v[key] for v in values]
            assert all(a <= b + 1e-15 for a, b in zip(series, series[1:])), (
                f"property 1 violated for {key}: {series}"
            )

        # property 2: nonincreasing in l when recent variance runs low
        low_window = _engineered_window(500 + k, n, k, n_r, 0.25)
        values_l = [_vs_estimates(low_window, w, n_r, 0.0, l)[0] for l in h_grid]
        _, diag_low, _ = _vs_estimates(low_window, w, n_r, 0.0, 1.0)
        assert diag_low.v_rw < diag_low.v_w
        for key in values_l[0]:
            series = [v[key] for v in values_l]
            assert all(a >= b - 1e-15 for a, b in zip(series, series[1:])), (
                f"property 2 violated for {key}: {series}"
            )

        # properties 4 and 5: dominance over empirical Bayes with d0 = n
        for factor, expect_vs_higher in ((3.0, True), (0.25, False)):
            window = _engineered_window(600 + k + int(factor * 10), n, k, n_r, factor)
            _, diag, _ = _vs_estimates(window, w, n_r, 2.0, 0.0)
            ratio = diag.v_rw / diag.v_w
            assert ratio > 1.01 if expect_vs_higher else ratio < 0.99
            eb_pred = posterior_predictive(window, w, eb_hyperparams(window, d0=float(n), r0=float(n)))
            for h, l in ((2.0, 0.0), (0.0, 0.0)):
                vs_vals, _, _ = _vs_estimates(window, w, n_r, h, l)
                for alpha in (0.975, 0.99):
                    for measure in (RiskMeasure.VAR, RiskMeasure.CVAR):
                        eb_val = risk_estimate(eb_pred, alpha, measure).value
                        vs_val = vs_vals[(measure.value, alpha)]
                        if expect_vs_higher:
                            assert vs_val > eb_val
                        else:
                            assert vs_val < eb_val

    # convex-combination limit of the squared risk spread term
    for k, h in ((2, 1.0), (5, 2.0)):
        w = equal_weights(k)
        window = _engineered_window(700 + k, n, k, n_r, 2.5)
        _, diag, pred = _vs_estimates(window, w, n_r, h, 0.0)
        rho = diag.v_rw / diag.v_w
        assert rho > 1
        for alpha in (0.975, 0.99):
            spread = risk_estimate(pred, alpha, RiskMeasure.VAR).value + pred.location
            squared = spread * spread  # squared second summand (q_alpha * scale)^2
            z = normal_quantile(alpha)
            target = z * z * (
                diag.v_w / (1.0 + rho**h) + (rho**h / (1.0 + rho**h)) * diag.v_rw
            )
            assert abs(squared - target) / target < 0.02, (
                f"convex combination off by {(squared - target) / target:.3%} "
                f"(k={k}, h={h}, alpha={alpha})"
            )

    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"criterion 2 exceeded its 1 minute budget ({elapsed:.1f}s)"
    report(
        f"PASS criterion 2: exact empirical-Bayes equivalence, monotonicity, dominance, "
        f"and the convex-combination limit all hold at n=10^4 ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 3: t-quantile correctness


def test_criterion_3_t_quantile():
    assert t_quantile(1, 0.75) == pytest.approx(1.0, abs=1e-10)
    assert t_quantile(1, 0.975) == pytest.approx(math.tan(math.pi * 0.475), rel=1e-10)
    for p in (0.51, 0.9, 0.975, 0.99, 0.999):
        closed = (2 * p - 1) * math.sqrt(2.0 / (4 * p * (1 - p)))
        assert t_quantile(2, p) == pytest.approx(closed, rel=1e-10)
    assert t_quantile(1e8, 0.975) == pytest.approx(1.959964, abs=1e-4)
    worst = 0.0
    for df in (0.5, 1, 2, 5, 30, 1000):
        for p in (0.51, 0.9, 0.975, 0.99, 0.999):
            worst = max(worst, abs(t_cdf(df, t_quantile(df, p)) - p))
    assert worst <= 1e-9
    report(
        f"PASS criterion 3: t-quantile matches closed forms at df=1,2 and the normal "
        f"limit at df=1e8; worst round-trip CDF error {worst:.2e} <= 1e-9"
    )


# ---------------------------------------------------------------------------
# criterion 4: Basel zone boundaries against the exact binomial oracle


def test_criterion_4_basel_zones():
    # alpha = 0.99: the classical 0-4 / 5-9 / >=10 bands must emerge
    for c in range(0, 30):
        exact = exact_binomial_cdf(c, 250, Fraction(1, 100))
        expected = Zone.GREEN if exact < Fraction(95, 100) else (
            Zone.RED if exact > Fraction(9999, 10000) else Zone.AMBER
        )
        assert traffic_light(c, 250, 0.99).zone == expected
    assert traffic_light(4, 250, 0.99).zone == Zone.GREEN
    assert traffic_light(5, 250, 0.99).zone == Zone.AMBER
    assert traffic_light(9, 250, 0.99).zone == Zone.AMBER
    assert traffic_light(10, 250, 0.99).zone == Zone.RED

    # alpha = 0.975: golden boundaries frozen from the exact oracle
    golden = {Zone.GREEN: range(0, 11), Zone.AMBER: range(11, 17), Zone.RED: range(17, 40)}
    for zone, counts in golden.items():
        for c in counts:
            exact = exact_binomial_cdf(c, 250, Fraction(1, 40))
            expected = Zone.GREEN if exact < Fraction(95, 100) else (
                Zone.RED if exact > Fraction(9999, 10000) else Zone.AMBER
            )
            assert expected == zone, f"golden boundary table wrong at c={c}"
            assert traffic_light(c, 250, 0.975).zone == zone
    report(
        "PASS criterion 4: traffic-light bands are 0-4/5-9/>=10 at alpha=0.99 and "
        "0-10/11-16/>=17 at alpha=0.975, verified against the exact binomial CDF"
    )


# ---------------------------------------------------------------------------
# criterion 5: scaled multivariate-normal study


def test_criterion_5_mvn_study(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "mvn_study"
    code = run_cli(
        "backtest", "--scenario", "mvn", "--k", "5", "--t", "500",
        "--window", "250", "--alpha", "0.975,0.99", "--replications", "20",
        "--seed", "20240501", "--method", "vs(4,2,0)", "--method", "sample",
        "--jobs", "2", "--out", str(out),
    )
    assert code == 0
    agg = json.loads((out / "aggregate.json").read_text())
    vs_green = agg["vs(4,2,0)"]["0.975"]["green"]
    sample_green = agg["sample"]["0.975"]["green"]
    assert vs_green >= 0.9, f"vs(4,2,0) green proportion {vs_green} < 0.9"
    assert sample_green >= 0.8, f"sample green proportion {sample_green} < 0.8"
    for method, by_alpha in agg.items():
        for alpha, proportions in by_alpha.items():
            assert proportions["red"] == 0.0, f"unexpected red zone for {method} at {alpha}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"criterion 5 exceeded its 5 minute budget ({elapsed:.1f}s)"
    report(
        f"PASS criterion 5: 20-replication MVN study green proportions at 97.5% -- "
        f"vs(4,2,0) {vs_green:.2f} >= 0.9, sample {sample_green:.2f} >= 0.8, no red zones "
        f"({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 6: scaled perturbed-normal ordering


def test_criterion_6_pmvn_ordering(tmp_path):
    started = time.perf_counter()
    wins = 0
    details = []
    for batch in range(5):
        out = tmp_path / f"pmvn_batch{batch}"
        code = run_cli(
            "backtest", "--scenario", "pmvn", "--k", "5", "--t", "500",
            "--window", "250", "--alpha", "0.99", "--replications", "20",
            "--seed", str(777_000 + batch), "--method", "vs(4,2,0)",
            "--method", "sample", "--jobs", "2", "--out", str(out),
        )
        assert code == 0
        agg = json.loads((out / "aggregate.json").read_text())
        vs_green = agg["vs(4,2,0)"]["0.99"]["green"]
        sample_green = agg["sample"]["0.99"]["green"]
        details.append((vs_green, sample_green))
        if vs_green > sample_green:
            wins += 1
    assert wins >= 4, f"vs(4,2,0) beat sample in only {wins}/5 batches: {details}"
    elapsed = time.perf_counter() - started
    report(
        f"PASS criterion 6: vs(4,2,0) green proportion strictly above sample in "
        f"{wins}/5 PMVN seed batches {details} ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# criterion 7: byte-identical determinism, including parallel runs


def test_criterion_7_determinism(tmp_path):
    sim1, sim2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (sim1, sim2):
        assert run_cli("simulate", "--scenario", "pmvn", "--k", "4", "--t", "300",
                       "--seed", "31337", "--out", str(out)) == 0
    assert sim1.read_bytes() == sim2.read_bytes()
    assert (tmp_path / "s1.csv.meta.json").read_bytes() == (tmp_path / "s2.csv.meta.json").read_bytes()

    args = ["backtest", "--scenario", "dcc", "--k", "3", "--t", "320", "--window", "250",
            "--alpha", "0.975,0.99", "--replications", "6", "--seed", "4242",
            "--method", "vs(4,2,0)", "--method", "eb", "--method", "sample"]
    outs = []
    for name, jobs in (("b1", "1"), ("b2", "3"), ("b3", "3")):
        out = tmp_path / name
        assert run_cli(*args, "--jobs", jobs, "--out", str(out)) == 0
        outs.append(out)
    for other in outs[1:]:
        assert (outs[0] / "report.csv").read_bytes() == (other / "report.csv").read_bytes()
        assert (outs[0] / "aggregate.json").read_bytes() == (other / "aggregate.json").read_bytes()
    report(
        "PASS criterion 7: simulate and backtest reruns are byte-identical, "
        "including with --jobs 3"
    )


# ---------------------------------------------------------------------------
# criterion 8: calibration of true-quantile forecasts


def test_criterion_8_calibration():
    k, days, reps = 5, 250, 50
    rho = 0.3
    vol = 0.01
    sigma = (np.full((k, k), rho) + np.eye(k) * (1 - rho)) * vol * vol
    mu = np.full(k, 0.0004)
    w = np.full(k, 1.0 / k)
    port_mean = float(w @ mu)
    port_sd = math.sqrt(float(w @ sigma @ w))
    chol = np.linalg.cholesky(sigma)
    rng = np.random.default_rng(88)
    for alpha in (0.975, 0.99):
        true_var = -port_mean + normal_quantile(alpha) * port_sd
        freqs = []
        for _ in range(reps):
            z = rng.standard_normal((days, k))
            returns = (mu + z @ chol.T) @ w
            freqs.append(float(np.mean(returns < -true_var)))
        avg = float(np.mean(freqs))
        tol = 3 * math.sqrt(alpha * (1 - alpha) / days)
        assert abs(avg - (1 - alpha)) < tol, (
            f"average exceedance frequency {avg:.5f} outside {1 - alpha} +/- {tol:.5f}"
        )
    report(
        "PASS criterion 8: true-quantile forecasts on simulated normal returns hit "
        "their nominal exceedance frequency within 3 binomial standard errors"
    )


# ---------------------------------------------------------------------------
# qualitative check: the volatility-sensitive series widens in high periods


def test_qualitative_vs_widens_in_high_periods(tmp_path):
    started = time.perf_counter()
    runs_with_high = 0
    wins = 0
    for run in range(20):
        seed = 550_000 + run
        data_csv = tmp_path / f"pm_{run}.csv"
        assert run_cli("simulate", "--scenario", "pmvn", "--k", "5", "--t", "500",
                       "--seed", str(seed), "--out", str(data_csv)) == 0
        meta = json.loads((tmp_path / f"pm_{run}.csv.meta.json").read_text())
        high = np.zeros(500, dtype=bool)
        for p in meta["periods"]:
            if p["regime"] == "high":
                high[p["start"]:p["start"] + p["length"]] = True

        est_csv = tmp_path / f"est_{run}.csv"
        assert run_cli("estimate", "--input", str(data_csv), "--window", "250",
                       "--alpha", "0.99", "--method", "vs(4,2,0)", "--method", "eb",
                       "--out", str(est_csv)) == 0
        with open(est_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        i_vs = header.index("neg_var:vs(4,2,0):0.99")
        i_eb = header.index("neg_var:eb:0.99")
        # estimate row j corresponds to day window + 1 + j, i.e. 0-based
        # return index 250 + j
        high_eval = [j for j in range(len(body)) if high[250 + j]]
        if not high_eval:
            continue
        runs_with_high += 1
        vs_max = max(-float(body[j][i_vs]) for j in high_eval)
        eb_max = max(-float(body[j][i_eb]) for j in high_eval)
        if vs_max > eb_max:
            wins += 1
    assert runs_with_high >= 18, f"only {runs_with_high}/20 runs had high-volatility days"
    assert wins >= 18, f"vs exceeded eb during high periods in only {wins}/20 runs"
    elapsed = time.perf_counter() - started
    report(
        f"PASS qualitative: max vs(4,2,0) VaR exceeded max eb VaR during injected "
        f"high-volatility periods in {wins}/{runs_with_high} runs ({elapsed:.1f}s)"
    )
