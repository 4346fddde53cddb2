import csv
import json

import numpy as np
import pytest

from riskbench.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert run_cli("simulate", "--scenario", "mvn", "--k", "5", "--t", "120",
                       "--seed", "7", "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["scenario"] == "mvn"
    assert meta["k"] == 5
    rows = read_csv(out1)
    assert rows[0] == ["date", "A1", "A2", "A3", "A4", "A5"]
    assert len(rows) == 121


def test_simulate_pmvn_metadata(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli("simulate", "--scenario", "pmvn", "--k", "3", "--t", "200",
                   "--seed", "11", "--out", str(out)) == 0
    meta = json.loads((out.parent / "p.csv.meta.json").read_text())
    periods = meta["periods"]
    assert sum(p["length"] for p in periods) == 200
    assert {p["regime"] for p in periods} <= {"low", "normal", "high"}


def test_simulate_rejects_bad_scenario_params(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[scenario.dcc]\ntheta1 = 0.6\ntheta2 = 0.5\n")
    code = run_cli("simulate", "--scenario", "dcc", "--k", "2", "--t", "100",
                   "--seed", "1", "--out", str(tmp_path / "x.csv"), "--config", str(cfg))
    assert code == 2
    assert not (tmp_path / "x.csv").exists()


def test_backtest_file_input_cardinality(tmp_path):
    data_csv = tmp_path / "r.csv"
    run_cli("simulate", "--scenario", "mvn", "--k", "5", "--t", "400",
            "--seed", "3", "--out", str(data_csv))
    out = tmp_path / "bt"
    assert run_cli("backtest", "--input", str(data_csv), "--window", "250",
                   "--alpha", "0.975,0.99",
                   "--method", "vs(4,2,0)", "--method", "vs(4,0,0)",
                   "--method", "eb", "--method", "sample",
                   "--out", str(out)) == 0
    rows = read_csv(out / "report.csv")
    assert rows[0] == ["replication", "portfolio", "method", "alpha",
                       "exceedances", "cum_prob", "zone", "runtime_ms"]
    assert len(rows) - 1 == 8  # 4 methods x 2 levels
    agg = json.loads((out / "aggregate.json").read_text())
    assert set(agg) == {"vs(4,2,0)", "vs(4,0,0)", "eb", "sample"}
    for method, by_alpha in agg.items():
        assert set(by_alpha) == {"0.975", "0.99"}
        for proportions in by_alpha.values():
            assert sum(proportions.values()) == pytest.approx(1.0, abs=1e-9)


def test_backtest_scenario_replications_and_jobs_determinism(tmp_path):
    args = ["backtest", "--scenario", "mvn", "--k", "3", "--t", "300",
            "--window", "250", "--alpha", "0.99", "--replications", "4",
            "--seed", "5", "--method", "eb", "--method", "sample"]
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert run_cli(*args, "--out", str(out1), "--jobs", "1") == 0
    assert run_cli(*args, "--out", str(out2), "--jobs", "3") == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()
    rows = read_csv(out1 / "report.csv")
    assert len(rows) - 1 == 8  # 4 replications x 2 methods x 1 level
    assert [r[0] for r in rows[1:]] == ["0", "0", "1", "1", "2", "2", "3", "3"]


def test_backtest_input_and_scenario_conflict(tmp_path):
    code = run_cli("backtest", "--input", "x.csv", "--scenario", "mvn",
                   "--out", str(tmp_path / "o"))
    assert code == 2


def test_backtest_insufficient_history(tmp_path):
    data_csv = tmp_path / "short.csv"
    run_cli("simulate", "--scenario", "mvn", "--k", "2", "--t", "100",
            "--seed", "1", "--out", str(data_csv))
    code = run_cli("backtest", "--input", str(data_csv), "--window", "250",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_backtest_missing_input_file(tmp_path):
    code = run_cli("backtest", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o"))
    assert code == 3


def test_estimate_series_output(tmp_path):
    data_csv = tmp_path / "r.csv"
    run_cli("simulate", "--scenario", "pmvn", "--k", "4", "--t", "320",
            "--seed", "9", "--out", str(data_csv))
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--input", str(data_csv), "--window", "250",
                   "--alpha", "0.975,0.99", "--method", "vs(4,2,0)",
                   "--method", "eb", "--out", str(out)) == 0
    rows = read_csv(out)
    header, body = rows[0], rows[1:]
    assert len(body) == 320 - 250
    assert header[:2] == ["date", "return"]
    # per method and level the -CVaR series sits below the -VaR series
    for label in ("vs(4,2,0)", "eb"):
        for alpha in ("0.975", "0.99"):
            i_var = header.index(f"neg_var:{label}:{alpha}")
            i_cvar = header.index(f"neg_cvar:{label}:{alpha}")
            for row in body:
                assert float(row[i_cvar]) <= float(row[i_var])


def test_estimate_eb_equals_vs_at_full_short_window(tmp_path):
    data_csv = tmp_path / "r.csv"
    run_cli("simulate", "--scenario", "mvn", "--k", "3", "--t", "300",
            "--seed", "13", "--out", str(data_csv))
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--input", str(data_csv), "--window", "250",
                   "--alpha", "0.99", "--method", "vs(250,2,0)",
                   "--method", "eb", "--out", str(out)) == 0
    rows = read_csv(out)
    header, body = rows[0], rows[1:]
    i_vs = header.index("neg_var:vs(250,2,0):0.99")
    i_eb = header.index("neg_var:eb:0.99")
    for row in body:
        assert row[i_vs] == row[i_eb]  # identical at 12 significant digits


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[simulate]\nscenario = mvn\nk = 4\nt = 150\nseed = 21\n"
        "[scenario.mvn]\nmean = 0.001\nvol = 0.02\ncorrelation = 0.2\n"
    )
    out1 = tmp_path / "c1.csv"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out1)) == 0
    rows = read_csv(out1)
    assert len(rows[0]) == 5  # date + 4 assets
    # the --k flag overrides the config value
    out2 = tmp_path / "c2.csv"
    assert run_cli("simulate", "--config", str(cfg), "--k", "2", "--out", str(out2)) == 0
    assert len(read_csv(out2)[0]) == 3


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("RISKBENCH_SEED", "99")
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    assert run_cli("simulate", "--scenario", "mvn", "--k", "2", "--t", "50", "--out", str(out1)) == 0
    assert run_cli("simulate", "--scenario", "mvn", "--k", "2", "--t", "50",
                   "--seed", "99", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "e1.csv.meta.json").read_text())
    assert meta["seed"] == 99


def test_backtest_prices_mode(tmp_path):
    rng = np.random.default_rng(6)
    returns = rng.normal(0.0005, 0.01, size=(301, 2))
    prices = 100.0 * np.cumprod(1.0 + returns, axis=0)
    lines = ["date,P1,P2"]
    import datetime as dt

    from riskbench.dataio import weekday_dates

    for date, row in zip(weekday_dates(dt.date(2019, 1, 1), 301), prices):
        lines.append(f"{date.isoformat()},{row[0]:.10f},{row[1]:.10f}")
    src = tmp_path / "prices.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bt"
    assert run_cli("backtest", "--input", str(src), "--mode", "prices",
                   "--window", "250", "--alpha", "0.99", "--method", "sample",
                   "--out", str(out)) == 0
    rows = read_csv(out / "report.csv")
    assert len(rows) == 2  # 300 return rows -> 50 evaluation days, one method/level


def test_weights_file(tmp_path):
    data_csv = tmp_path / "r.csv"
    run_cli("simulate", "--scenario", "mvn", "--k", "2", "--t", "300",
            "--seed", "2", "--out", str(data_csv))
    wpath = tmp_path / "w.csv"
    wpath.write_text("asset,weight\nA1,0.8\nA2,0.2\n")
    out = tmp_path / "bt"
    assert run_cli("backtest", "--input", str(data_csv), "--window", "250",
                   "--alpha", "0.99", "--method", "sample",
                   "--weights", str(wpath), "--out", str(out)) == 0
    assert len(read_csv(out / "report.csv")) == 2


def test_duplicate_weight_rows_exit_3(tmp_path, capsys):
    wpath = tmp_path / "w.csv"
    wpath.write_text("asset,weight\nA1,0.5\nA2,0.5\nA1,0.2\n")
    out = tmp_path / "bt"
    assert run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "260",
                   "--method", "sample", "--weights", str(wpath), "--out", str(out)) == 3
    assert "duplicate weight for asset 'A1' (first given on line 2)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, ini, key", [
    ("backtest", "[backtest]\nwindow = abc\n", "backtest.window"),
    ("backtest", "[backtest]\njobs = two\n", "backtest.jobs"),
    ("backtest", "[scenario.pmvn]\ncorrelation = x\n", "scenario.pmvn.correlation"),
    ("simulate", "[scenario.pmvn]\ncorrelation = x\n", "scenario.pmvn.correlation"),
    ("simulate", "[simulate]\nt = 1e3\n", "simulate.t"),
])
def test_bad_numeric_config_value_exits_2(tmp_path, capsys, command, ini, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    code = run_cli(command, "--config", str(cfg), "--scenario", "pmvn", "--k", "2",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_worker_pool_capped_at_replications(tmp_path, monkeypatch):
    created = []

    class RecordingPool:
        """Runs jobs in-process and records the pool size it was asked for."""

        def __init__(self, max_workers=None):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    assert run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "260",
                   "--method", "sample", "--replications", "2", "--jobs", "5000",
                   "--out", str(tmp_path / "o")) == 0
    assert created == [2]
    assert len(read_csv(tmp_path / "o" / "report.csv")) == 1 + 2 * 2


def test_jobs_map_one_contiguous_chunk_per_worker(tmp_path, monkeypatch):
    tasks = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            chunks = list(iterable)
            tasks.append([[rep for rep, _ in chunk] for chunk in chunks])
            return map(fn, chunks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    args = ["backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method", "sample",
            "--replications", "5"]
    assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "two")) == 0
    assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "one")) == 0
    assert tasks == [[[0, 1], [2, 3, 4]]]
    assert (tmp_path / "two" / "report.csv").read_bytes() == \
        (tmp_path / "one" / "report.csv").read_bytes()


@pytest.mark.parametrize("flag, value, key", [
    ("--replications", "0", "backtest.replications"),
    ("--replications", "-3", "backtest.replications"),
    ("--jobs", "0", "backtest.jobs"),
    ("--jobs", "-1", "backtest.jobs"),
])
def test_replications_and_jobs_below_one_exit_2(tmp_path, capsys, flag, value, key):
    out = tmp_path / "bt"
    assert run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method", "sample",
                   flag, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert key in err and f"got {value}" in err
    assert not out.exists()


def test_flat_input_column_is_named_by_its_header(tmp_path, capsys):
    rng = np.random.default_rng(8)
    import datetime as dt

    from riskbench.dataio import weekday_dates

    lines = ["date,ALPHA,STALE"]
    for date, value in zip(weekday_dates(dt.date(2021, 1, 1), 270), rng.normal(0, 0.01, 270)):
        lines.append(f"{date.isoformat()},{value:.10f},0")
    src = tmp_path / "flat.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bt"
    assert run_cli("backtest", "--input", str(src), "--window", "250",
                   "--method", "vs(4,2,0)", "--method", "sample", "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert "method vs(4,2,0) skipped: asset 'STALE' has zero variance" in err
    assert {row[2] for row in read_csv(out / "report.csv")[1:]} == {"sample"}



@pytest.mark.parametrize("timing", [False, True])
def test_backtest_runtime_ms_per_replication(tmp_path, timing):
    out = tmp_path / "bt"
    args = ["backtest", "--scenario", "mvn", "--k", "2", "--t", "300", "--replications", "3",
            "--method", "eb", "--method", "sample", "--out", str(out)]
    assert run_cli(*args, *(["--timing"] if timing else [])) == 0
    runtimes = {}
    for row in read_csv(out / "report.csv")[1:]:
        runtimes.setdefault(row[0], set()).add(row[7])
    assert sorted(runtimes) == ["0", "1", "2"]
    # one chunk: its fitting time divided by its replications, on every row
    assert len(set.union(*runtimes.values())) == 1
    [value] = runtimes["0"]
    assert value.isdigit()
    if not timing:
        assert value == "0"


@pytest.mark.parametrize("scenario, keys", [
    ("mvn", {"mu", "sigma"}),
    ("pmvn", {"base", "period_lengths", "regime_probs", "low_scale_range", "high_scale_range"}),
    ("dcc", {"mu", "omega", "a", "b", "qbar", "theta1", "theta2"}),
])
def test_simulate_metadata_params(tmp_path, scenario, keys):
    out = tmp_path / "sub" / "s.csv"
    assert run_cli("simulate", "--scenario", scenario, "--k", "2", "--t", "40",
                   "--seed", "4", "--out", str(out)) == 0
    meta = json.loads((tmp_path / "sub" / "s.csv.meta.json").read_text())
    assert set(meta["params"]) == keys
    if scenario == "pmvn":
        assert set(meta["params"]["base"]) == {"mu", "sigma"}
        assert meta["params"]["base"]["sigma"] == [[1e-4, 3e-5], [3e-5, 1e-4]]
        assert meta["params"]["period_lengths"] == [3, 4, 5]
        assert {frozenset(p) for p in meta["periods"]} == {
            frozenset({"start", "length", "regime", "scales"})}
        assert all(len(p["scales"]) == 2 for p in meta["periods"])
    else:
        assert "periods" not in meta
    if scenario == "dcc":
        assert meta["params"]["qbar"] == [[1.0, 0.3], [0.3, 1.0]]
        assert meta["params"]["theta1"] == 0.05


@pytest.mark.parametrize("command", ["simulate", "backtest", "estimate"])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_nonpositive_asset_count_exits_2(tmp_path, capsys, command, k):
    out = tmp_path / "o"
    assert run_cli(command, "--scenario", "mvn", "--k", k, "--t", "300", "--out", str(out)) == 2
    assert f"error: {command}.k must be at least 1, got {k}" in capsys.readouterr().err
    assert not out.exists()


def test_start_date_past_the_calendar_exits_2(tmp_path, capsys):
    out = tmp_path / "late.csv"
    assert run_cli("simulate", "--scenario", "mvn", "--k", "2", "--t", "20",
                   "--start-date", "9999-12-20", "--out", str(out)) == 2
    assert "error: 20 weekdays from 9999-12-20 run past 9999-12-31" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["vs(nan,2,0)", "vs(1e400,2,0)", "vs(2.7,2,0)", "vs(4,2,nan)",
                                  "vs(4,inf,0)", "vs(4,2,0,inf)", "eb(inf,n)", "eb(n,inf)"])
def test_non_finite_or_fractional_method_spec_exits_2(tmp_path, capsys, spec):
    assert run_cli("backtest", "--scenario", "pmvn", "--replications", "2", "--method", spec,
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid ") and repr(spec) in err
    assert list(tmp_path.iterdir()) == []


def test_dcc_loss_of_positive_definiteness_exits_4(tmp_path, capsys):
    cfg = tmp_path / "dcc.ini"
    cfg.write_text("[scenario.dcc]\ncorrelation = 0.9999999999999998\n")
    out = tmp_path / "d.csv"
    assert run_cli("simulate", "--scenario", "dcc", "--k", "2", "--t", "50", "--seed", "0",
                   "--config", str(cfg), "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err == "numerical error: correlation recursion lost positive definiteness\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["backtest", "estimate"])
def test_level_above_the_cap_exits_2(tmp_path, capsys, command):
    code = run_cli(command, "--scenario", "mvn", "--k", "2", "--t", "80", "--window", "40",
                   "--alpha", "0.99,0.99999", "--method", "sample", "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "0.99999" in err and "0.9999]" in err


def test_levels_that_print_alike_exit_2(tmp_path, capsys):
    code = run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "80", "--window", "40",
                   "--alpha", "0.99,0.975,0.99", "--method", "sample", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "backtest.levels repeat 0.99 " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_levels_are_labelled_with_12_digits(tmp_path):
    # With "%g" both levels printed as 0.9751, and aggregate.json kept one.
    levels = "0.9751,0.97510001,0.9999"
    out = tmp_path / "bt"
    assert run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "80", "--window", "40",
                   "--alpha", levels, "--method", "sample", "--out", str(out)) == 0
    assert [row[3] for row in read_csv(out / "report.csv")[1:]] == levels.split(",")
    assert sorted(json.loads((out / "aggregate.json").read_text())["sample"]) == levels.split(",")
    series = tmp_path / "est.csv"
    assert run_cli("estimate", "--scenario", "mvn", "--k", "2", "--t", "80", "--window", "40",
                   "--alpha", levels, "--method", "sample", "--out", str(series)) == 0
    assert read_csv(series)[0][2::2] == [f"neg_var:sample:{a}" for a in levels.split(",")]
