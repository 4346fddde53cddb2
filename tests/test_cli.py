import contextlib
import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("k", [9, 12])
def test_backtest_default_methods_are_jobs_deterministic_at_wider_k(tmp_path, k):
    # Each worker stacks a different number of days; a day's bits must not
    # depend on it, at k where BLAS would round a row by its position.
    args = ["backtest", "--scenario", "pmvn", "--k", str(k), "--t", "300", "--window", "250",
            "--replications", "6", "--seed", "11"]
    outs = [tmp_path / f"j{jobs}" for jobs in (1, 2, 3)]
    for jobs, out in zip((1, 2, 3), outs):
        assert run_cli(*args, "--out", str(out), "--jobs", str(jobs)) == 0
    for name in ("report.csv", "aggregate.json"):
        assert len({(out / name).read_bytes() for out in outs}) == 1


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


def test_weights_file(tmp_path, capsys):
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
    # a non-finite weight is a data error naming the file and line, as a bad cell is
    for cell in ("nan", "inf", "-inf"):
        wpath.write_text(f"asset,weight\nA1,0.8\nA2,{cell}\n")
        assert run_cli("backtest", "--input", str(data_csv), "--window", "250", "--method",
                       "sample", "--weights", str(wpath), "--out", str(tmp_path / cell)) == 3
        assert f"{wpath} line 3: non-finite weight '{cell}'" in capsys.readouterr().err
        assert not (tmp_path / cell).exists()


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
    *(("simulate", f"[scenario.pmvn]\nperiod_lengths = {value}\n", "scenario.pmvn.period_lengths")
      for value in ("nan", "inf", "1e400", "3,nan")),
    ("simulate", "[scenario.pmvn]\nperiod_lengths = 3.5\n", "period_lengths"),
    ("simulate", "[scenario.pmvn]\nlow_scale = 0.5\n", "low_scale"),
    ("simulate", "[scenario.pmvn]\nhigh_scale = 2\n", "high_scale"),
    ("simulate", "[scenario.pmvn]\nregime_probs = nan,0.5,0.5\n", "scenario.pmvn.regime_probs"),
    *(("simulate", f"[scenario.{scenario}]\n{key} = {value}\n", f"scenario.{scenario}.{key}")
      for scenario, key, value in (
          ("mvn", "mean", "nan"), ("mvn", "vol", "inf"), ("pmvn", "mean", "-inf"),
          ("pmvn", "vol", "nan"), ("dcc", "mean", "inf"), ("dcc", "omega", "nan"),
          ("dcc", "arch", "nan"), ("dcc", "garch", "inf"), ("dcc", "theta1", "nan"),
          ("dcc", "theta2", "inf"))),
    ("backtest", "[scenario.pmvn]\nmean = nan\n", "scenario.pmvn.mean"),
    # values the generators refuse, named by the config keys they came from
    *(("simulate", f"[scenario.{scenario}]\n{ini}\n",
       " and ".join(f"scenario.{scenario}.{key}" for key in keys))
      for scenario, ini, keys in (
          ("dcc", "arch = 0.6\ngarch = 0.5", ("arch", "garch")),
          ("dcc", "arch = -0.1", ("arch", "garch")),
          ("dcc", "theta1 = 0.6\ntheta2 = 0.5", ("theta1", "theta2")),
          ("dcc", "omega = -1e-6", ("omega",)),
          ("dcc", "correlation = 1.5", ("correlation",)),
          ("mvn", "correlation = -1", ("correlation",)),
          ("mvn", "vol = 1e200", ("vol", "correlation")),
          ("pmvn", "period_lengths = 2.5", ("period_lengths",)),
          ("pmvn", "period_lengths = 0", ("period_lengths",)),
          ("pmvn", "regime_probs = 0.5,0.5,0.5", ("regime_probs",)),
          ("pmvn", "low_scale = 0.4", ("low_scale",)),
          ("pmvn", "high_scale = 3,2", ("high_scale",)),
          ("pmvn", "high_scale = 2", ("high_scale",)))),
])
def test_bad_numeric_config_value_exits_2(tmp_path, capsys, command, ini, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ini)
    scenario = re.match(r"\[scenario\.(\w+)\]", ini)
    code = run_cli(command, "--config", str(cfg), "--scenario", scenario[1] if scenario else "pmvn",
                   "--k", "2", "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("o*"))


@pytest.fixture
def worker_chunks(monkeypatch):
    """Run every backtest's chunks in process, and return the chunks of each
    backtest, one list per run."""
    made = []

    def recording_map(run, chunks):
        made.append(chunks)
        return [run(chunk) for chunk in chunks]

    monkeypatch.setattr("riskbench.cli._map_chunks", recording_map)
    return made


def allow_cpus(monkeypatch, count):
    """Let this process run on ``count`` CPUs, whatever the host has."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: count)


def test_worker_pool_capped_at_replications(tmp_path, monkeypatch, worker_chunks):
    allow_cpus(monkeypatch, 8)
    assert run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "260",
                   "--method", "sample", "--replications", "2", "--jobs", "5000",
                   "--out", str(tmp_path / "o")) == 0
    assert [len(chunks) for chunks in worker_chunks] == [2]
    assert len(read_csv(tmp_path / "o" / "report.csv")) == 1 + 2 * 2


def test_jobs_map_one_contiguous_chunk_per_worker(tmp_path, monkeypatch, worker_chunks):
    allow_cpus(monkeypatch, 8)
    args = ["backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method", "sample",
            "--replications", "5"]
    assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "two")) == 0
    assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "one")) == 0
    assert worker_chunks == [[range(0, 2), range(2, 5)], [range(0, 5)]]
    assert (tmp_path / "two" / "report.csv").read_bytes() == \
        (tmp_path / "one" / "report.csv").read_bytes()


def test_replications_reach_the_workers_as_index_ranges(tmp_path, monkeypatch):
    # No history or request is built ahead of the fit: a huge replication
    # count is one range, handed over at once.
    chunks = []

    def recording_chunk(shared, chunk):
        chunks.append(chunk)
        return [], []

    def no_replication(inputs, rep):
        raise AssertionError(f"replication {rep} was built before its fit")

    monkeypatch.setattr("riskbench.cli._run_chunk", recording_chunk)
    monkeypatch.setattr("riskbench.cli._replication", no_replication)
    assert run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method",
                   "sample", "--replications", "100000000000", "--jobs", "1",
                   "--out", str(tmp_path / "o")) == 0
    assert chunks == [range(100000000000)]


def test_worker_pool_capped_at_the_cpu_count(tmp_path, worker_chunks):
    args = ["backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method", "sample",
            "--replications", "100"]
    assert run_cli(*args, "--jobs", "64", "--out", str(tmp_path / "many")) == 0
    assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "one")) == 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert all(len(chunks) <= cpus for chunks in worker_chunks)
    assert (tmp_path / "many" / "report.csv").read_bytes() == \
        (tmp_path / "one" / "report.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_one_allowed_cpu_starts_no_worker(tmp_path, monkeypatch):
    # The bound is the CPUs this process may run on, not the host's count.
    args = ["backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method", "sample",
            "--replications", "4"]
    assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "one")) == 0

    def no_worker(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr("os.fork", no_worker)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_worker)
    assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "two")) == 0
    for name in ("report.csv", "aggregate.json"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")


@pytest.fixture
def forks(monkeypatch):
    """Let the backtest use 8 CPUs, and return the pid of every child it forks."""
    allow_cpus(monkeypatch, 8)
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr("os.fork", recording_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FORK_ARGS = ["backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method", "sample",
             "--replications", "5"]


@linux_only
def test_a_child_whose_chunk_raises_fails_as_at_jobs_1(tmp_path, capsys, monkeypatch, forks):
    from riskbench import cli
    from riskbench.errors import NumericalError

    run_chunk = cli._run_chunk

    def failing_chunk(shared, chunk):
        if 3 in chunk:
            raise NumericalError("replication 3 cannot be fitted")
        return run_chunk(shared, chunk)

    monkeypatch.setattr("riskbench.cli._run_chunk", failing_chunk)
    ends = []
    for jobs in ("1", "2"):
        code = run_cli(*FORK_ARGS, "--jobs", jobs, "--out", str(tmp_path / jobs))
        ends.append((code, capsys.readouterr().err))
        assert not (tmp_path / jobs).exists()
    assert ends[0] == ends[1] == (4, "numerical error: replication 3 cannot be fitted\n")
    assert len(forks) == 1
    assert_no_child_left()


@linux_only
@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(9), "exit code 9"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL"),
], ids=["exit", "signal"])
def test_a_child_that_dies_is_an_io_error(tmp_path, capsys, monkeypatch, forks, death, how):
    from riskbench import cli

    run_chunk = cli._run_chunk

    def dying_chunk(shared, chunk):
        if chunk.start:
            death()
        return run_chunk(shared, chunk)

    monkeypatch.setattr("riskbench.cli._run_chunk", dying_chunk)
    out = tmp_path / "bt"
    assert run_cli(*FORK_ARGS, "--jobs", "2", "--out", str(out)) == 3
    assert capsys.readouterr().err == \
        f"i/o error: the worker for replications 2-4 ended without a result ({how})\n"
    assert not out.exists() and len(forks) == 1
    assert_no_child_left()


@linux_only
def test_children_are_killed_and_reaped_when_the_parent_range_raises(tmp_path, capsys,
                                                                     monkeypatch, forks):
    from riskbench.errors import NumericalError

    def chunk_failing_here(shared, chunk):
        if chunk.start == 0:
            raise NumericalError("the first range cannot be fitted")
        time.sleep(120)  # in a child: only a kill ends it in time

    monkeypatch.setattr("riskbench.cli._run_chunk", chunk_failing_here)
    start = time.monotonic()
    assert run_cli(*FORK_ARGS, "--jobs", "3", "--out", str(tmp_path / "bt")) == 4
    assert time.monotonic() - start < 60
    assert capsys.readouterr().err == "numerical error: the first range cannot be fitted\n"
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert_no_child_left()


def test_console_entry_writes_whole_outputs_with_the_heap_frozen_at_exit(tmp_path):
    # The console script runs sys.exit(main()); the handler registered
    # before riskbench.cli is imported runs after its gc.freeze.
    import riskbench

    entry = ("import atexit, gc, os, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,\n"
             "                              file=sys.stderr))\n"
             "if hasattr(os, 'sched_getaffinity'):\n"
             "    os.sched_getaffinity = lambda pid: {0, 1}\n"
             "from riskbench.cli import main\n"
             "sys.exit(main())\n")
    src = str(Path(riskbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    backtest = ["backtest", "--scenario", "pmvn", "--k", "3", "--t", "300", "--window", "250",
                "--replications", "4", "--seed", "2"]
    simulate = ["simulate", "--scenario", "dcc", "--k", "3", "--t", "2000", "--seed", "2"]
    for argv, out, last_line in (
            (backtest + ["--jobs", "2"], tmp_path / "bt",
             f"wrote 32 report rows to {tmp_path / 'bt' / 'report.csv'} and zone proportions "
             f"to {tmp_path / 'bt' / 'aggregate.json'}"),
            (simulate, tmp_path / "s.csv", f"wrote 2000 x 3 dcc returns to {tmp_path / 's.csv'} "
                                           "(seed 2)")):
        proc = subprocess.run([sys.executable, "-c", entry, *argv, "--out", str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
        assert proc.stdout.endswith(last_line + "\n")
    assert run_cli(*backtest, "--out", str(tmp_path / "bt1")) == 0
    assert run_cli(*simulate, "--out", str(tmp_path / "s1.csv")) == 0
    for name in ("report.csv", "aggregate.json"):
        assert (tmp_path / "bt" / name).read_bytes() == (tmp_path / "bt1" / name).read_bytes()
    for name in ("s.csv", "s.csv.meta.json"):
        one = name.replace("s.csv", "s1.csv")
        assert (tmp_path / name).read_bytes() == (tmp_path / one).read_bytes()


@pytest.mark.parametrize("command", ["backtest", "estimate"])
def test_empty_method_list_exits_2(tmp_path, capsys, command):
    (tmp_path / "c.ini").write_text(f"[{command}]\nmethods =\n")
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(tmp_path / "c.ini"), "--scenario", "mvn", "--k", "2",
                   "--t", "300", "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        f"error: {command}.methods is empty; give at least one method\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "backtest", "estimate"])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_exits_2_naming_its_source(tmp_path, capsys, monkeypatch, command, source):
    args = [command, "--scenario", "mvn", "--k", "2", "--t", "260", "--out", str(tmp_path / "o")]
    if source == "flag":
        args += ["--seed", "-1"]
    elif source == "config":
        (tmp_path / "c.ini").write_text(f"[{command}]\nseed = -1\n")
        args += ["--config", str(tmp_path / "c.ini")]
    else:
        monkeypatch.setenv("RISKBENCH_SEED", "-1")
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    where = "RISKBENCH_SEED" if source == "env" else f"{command}.seed"
    assert err.startswith(f"error: {where} must be") and err.count("\n") == 1
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("spec, names", [
    ("vs(4,1e308,0)", ["d0", "h = 1e+308"]),
    ("vs(4,2,1e308)", ["d0", "l = 1e+308"]),
    ("eb(1e308,n)", ["d0 = 1e+308"]),
    ("eb(5e305,n)", ["d0 = 5e+305"]),
    ("eb(30,1e308)", ["r0 = 1e+308"]),
])
def test_overflowing_prior_strength_is_a_numerical_error(tmp_path, capsys, spec, names):
    data_csv = tmp_path / "r.csv"
    run_cli("simulate", "--scenario", "pmvn", "--k", "3", "--t", "400", "--seed", "2",
            "--out", str(data_csv))
    capsys.readouterr()
    out = tmp_path / "series.csv"
    assert run_cli("estimate", "--input", str(data_csv), "--window", "250", "--method", spec,
                   "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert "overflow" in err and all(name in err for name in names)
    assert "Traceback" not in err and not out.exists()
    # backtest skips the method with the same message, and the others run
    assert run_cli("backtest", "--input", str(data_csv), "--window", "250", "--method", spec,
                   "--method", "sample", "--out", str(tmp_path / "bt")) == 0
    [warning] = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: replication 0, method ")
    assert warning.endswith(" skipped: " + err[len("numerical error: "):].strip())


@pytest.mark.parametrize("source", [
    ["--input", "r.csv"],
    ["--scenario", "mvn", "--k", "3", "--t", "300", "--replications", "3", "--jobs", "2"],
])
def test_backtest_with_every_method_skipped_raises_the_first_failure(tmp_path, capsys,
                                                                    monkeypatch, source):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--scenario", "pmvn", "--k", "3", "--t", "400", "--seed", "2",
            "--out", "r.csv")
    capsys.readouterr()
    assert run_cli("backtest", *source, "--window", "250", "--method", "vs(4,1e308,0)",
                   "--method", "eb(1e308,n)", "--out", "bt") == 4
    *warnings, last = capsys.readouterr().err.splitlines()
    reps = 3 if "--replications" in source else 1
    assert [w.split(" skipped: ")[0] for w in warnings] == [
        f"warning: replication {rep}, method {label}"
        for rep in range(reps) for label in ("vs(4,1e+308,0)", "eb(1e+308,n)")]
    assert last == "numerical error: " + warnings[0].split(" skipped: ")[1]
    assert "d0 overflow" in last and not (tmp_path / "bt").exists()


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


def test_constant_input_column_fails_eb_as_on_the_scalar_path(tmp_path, capsys):
    # eb's scalar path refuses every window of 13 rows (a singular prior
    # scale matrix); the batched engine must not score it.
    rng = np.random.default_rng(0)
    import datetime as dt

    from riskbench.dataio import weekday_dates

    lines = ["date,CONST,NOISE"]
    for date, value in zip(weekday_dates(dt.date(2021, 1, 1), 60), rng.normal(0, 0.01, 60)):
        lines.append(f"{date.isoformat()},0.05,{value:.10f}")
    src = tmp_path / "const.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bt"
    assert run_cli("backtest", "--input", str(src), "--window", "13", "--method", "eb",
                   "--method", "sample", "--out", str(out)) == 0
    assert "method eb skipped: prior scale matrix is not positive definite" in capsys.readouterr().err
    assert {row[2] for row in read_csv(out / "report.csv")[1:]} == {"sample"}
    assert run_cli("estimate", "--input", str(src), "--window", "13", "--method", "eb",
                   "--out", str(tmp_path / "series.csv")) == 4
    assert "prior scale matrix is not positive definite" in capsys.readouterr().err
    assert not (tmp_path / "series.csv").exists()



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
        # keys the config does not set keep PmvnParams' own defaults
        from riskbench import PmvnParams

        for field in ("period_lengths", "regime_probs", "low_scale_range", "high_scale_range"):
            assert meta["params"][field] == list(getattr(PmvnParams, field))
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


EXAMPLE_INI = Path(__file__).resolve().parents[1] / "configs" / "example.ini"


def test_example_config_runs_every_command(tmp_path):
    for command, out in (("simulate", "r.csv"), ("backtest", "bt"), ("estimate", "e.csv")):
        assert run_cli(command, "--config", str(EXAMPLE_INI), "--out", str(tmp_path / out)) == 0


@pytest.mark.parametrize("command", ["backtest", "estimate"])
@pytest.mark.parametrize("flag, value", [("--nr", "6"), ("--h", "1"), ("--l", "0.5"), ("--r0", "7")])
def test_removed_method_flags_exit_2(tmp_path, capsys, command, flag, value):
    # the method spec sets n_r, h, l and r0; --h is not an abbreviation of --help
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--scenario", "mvn", flag, value, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ini, name", [
    ("[backtest]\nnr = 6\n", "backtest.nr"),
    ("[estimate]\nwindw = 300\n", "estimate.windw"),
    ("[scenario.dcc]\nvol = 0.02\n", "scenario.dcc.vol"),
    ("[DEFAULT]\nr0 = 7\n", "DEFAULT.r0"),
    ("[backtes]\nwindow = 300\n", "[backtes]"),
])
@pytest.mark.parametrize("command", ["simulate", "backtest", "estimate"])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, ini, name):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--scenario", "mvn", "--out", str(out)) == 2
    assert f"error: {cfg}: unknown config {'section' if '[' in name else 'key'} {name}; " \
        in capsys.readouterr().err
    assert not out.exists()


def test_default_keys_and_keys_unused_by_the_run_are_accepted(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[DEFAULT]\nseed = 3\nk = 2\n[simulate]\nt = 300\n[backtest]\nwindow = 200\n"
                   "[scenario.mvn]\nvol = 0.02\n")
    data_csv = tmp_path / "r.csv"
    assert run_cli("simulate", "--config", str(cfg), "--scenario", "mvn", "--out",
                   str(data_csv)) == 0
    # backtest.k (copied from [DEFAULT]) is not read with --input
    assert run_cli("backtest", "--config", str(cfg), "--input", str(data_csv), "--method",
                   "sample", "--out", str(tmp_path / "bt")) == 0


def test_default_keys_reach_a_section_the_file_leaves_out(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[DEFAULT]\nk = 2\nt = 30\n")
    out = tmp_path / "r.csv"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    assert read_csv(out)[0] == ["date", "A1", "A2"] and len(read_csv(out)) == 31


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(b"[simulate]\nk = 2\n; caf\xe9\n")
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == f"error: config file {cfg} is not UTF-8 text\n"
    assert not (tmp_path / "x.csv").exists()


def test_non_utf8_input_csv_exits_3(tmp_path, capsys):
    data_csv = tmp_path / "r.csv"
    run_cli("simulate", "--scenario", "mvn", "--k", "2", "--t", "300", "--out", str(data_csv))
    # past the first read buffer, so the error comes in the middle of parsing
    data_csv.write_bytes(data_csv.read_bytes() + b"2099-01-01,0.01,0.0\xff\n")
    capsys.readouterr()
    assert run_cli("backtest", "--input", str(data_csv), "--method", "sample",
                   "--out", str(tmp_path / "bt")) == 3
    assert capsys.readouterr().err == f"data error: {data_csv}: file is not UTF-8 text\n"
    assert not (tmp_path / "bt").exists()


def test_non_utf8_weights_exits_3(tmp_path, capsys):
    wpath = tmp_path / "w.csv"
    wpath.write_bytes(b"asset,weight\nA1,0.5\nA\xe92,0.5\n")
    assert run_cli("backtest", "--scenario", "mvn", "--k", "2", "--t", "260", "--method",
                   "sample", "--weights", str(wpath), "--out", str(tmp_path / "bt")) == 3
    assert capsys.readouterr().err == f"data error: {wpath}: file is not UTF-8 text\n"
    assert not (tmp_path / "bt").exists()


ERROR_PREFIXES = ("error: ", "data error: ", "numerical error: ", "i/o error: ")
METHODS = ["vs(4,2,0)", "vs(2,0,1)", "vs(4,0,0)", "eb", "eb(30,n)", "sample"]
NEAR_VALID_METHODS = ["vs(80,2,0)", "vs(4,1e308,0)", "eb(4,n)", "eb(30,1e308)", "eb(1e308,n)",
                      "vs(nan,2,0)", "vs(4,2)", "garch", ""]
LEVELS = ["0.5001", "0.9", "0.975", "0.99", "0.9999"]


def near(draw, valid, invalid):
    """A draw from ``valid`` nine times in ten, else from ``invalid``."""
    return draw(valid if draw(st.integers(0, 9)) < 9 else invalid)


@st.composite
def cli_runs(draw):
    """``(argv, files)``: a backtest or estimate on tiny shapes, each flag
    valid nine times in ten and just outside its valid range otherwise;
    ``files`` maps the names of the input and weights CSVs the argv reads
    to their text."""
    command = draw(st.sampled_from(["backtest", "estimate"]))
    k = near(draw, st.integers(1, 3), st.integers(-1, 0))
    window = near(draw, st.integers(2, 50), st.integers(-1, 1))
    t = near(draw, st.integers(max(window, 0) + 1, 60), st.integers(0, 60))
    levels = near(draw, st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3, unique=True),
                  st.lists(st.sampled_from(LEVELS + ["0.5", "0.99999", "1", "abc", "nan"]),
                           max_size=3))
    specs = near(draw, st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True),
                 st.lists(st.sampled_from(METHODS + NEAR_VALID_METHODS), min_size=1,
                          max_size=3))
    argv = [command, "--window", str(window), "--alpha", ",".join(levels),
            "--seed", str(near(draw, st.integers(0, 2**64), st.just(-1)))]
    for spec in specs:
        argv += ["--method", spec]
    files, assets = {}, max(k, 1)
    scenario = draw(st.booleans())
    if scenario:
        argv += ["--scenario", draw(st.sampled_from(["mvn", "pmvn", "dcc"])),
                 "--k", str(k), "--t", str(t)]
    else:
        # a flat column, or prices that are not all positive, now and then
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = draw(st.sampled_from([0.0, 1.0])) + rng.normal(0, 0.01, (t, assets))
        values[:, :near(draw, st.just(0), st.just(1))] = draw(st.sampled_from([0.0, 1.0]))
        lines = ["date," + ",".join(f"A{i + 1}" for i in range(assets))]
        lines += [f"2021-{1 + day // 28:02d}-{1 + day % 28:02d},"
                  + ",".join(map("{:.10f}".format, row)) for day, row in enumerate(values)]
        files["r.csv"] = "\n".join(lines) + "\n"
        argv += ["--input", "r.csv", "--mode", draw(st.sampled_from(["returns", "prices"]))]
    if draw(st.booleans()):
        weights = near(draw, st.just([1 / assets] * assets),
                       st.lists(st.sampled_from(["0.5", "1", "-0.5", "x"]), max_size=4))
        files["w.csv"] = "asset,weight\n" + "".join(f"A{i + 1},{w}\n"
                                                    for i, w in enumerate(weights))
        argv += ["--weights", "w.csv"]
    if command == "backtest":
        # more than one replication needs a scenario
        replications = near(draw, st.integers(1, 3) if scenario else st.just(1), st.integers(0, 3))
        argv += ["--replications", str(replications), "--jobs", str(draw(st.integers(1, 2)))]
    return argv, files


@settings(max_examples=60, deadline=None)
@given(cli_runs())
@example((["backtest", "--scenario", "mvn", "--k", "2", "--t", "40", "--window", "30",
           "--method", "vs(4,1e308,0)", "--replications", "2", "--jobs", "2"], {}))
def test_every_run_ends_in_a_documented_exit_code(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        out, err = Path(tmp, "out"), io.StringIO()
        argv = [str(Path(tmp, arg)) if arg in files else arg for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        err = err.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code:
            assert err.splitlines()[-1].startswith(ERROR_PREFIXES)
            assert not out.exists()


def write_returns(path, rows):
    """A return CSV of ``rows`` on consecutive weekdays from 2021-01-01,
    every cell as ``repr`` prints it."""
    import datetime as dt

    from riskbench.dataio import weekday_dates

    lines = ["date," + ",".join(f"A{i + 1}" for i in range(rows.shape[1]))]
    lines += [f"{date.isoformat()}," + ",".join(map(repr, row.tolist()))
              for date, row in zip(weekday_dates(dt.date(2021, 1, 1), len(rows)), rows)]
    path.write_text("\n".join(lines) + "\n")
    return lines[-1].split(",")[0]


@pytest.mark.parametrize("command, last_row, weights, message", [
    # the last day's realized return overflows; every forecast is finite
    ("estimate", (1.5e308, -1.5e308), (1.5, -0.5),
     "numerical error: refusing to serialize non-finite value inf on {date} in column 'return'"),
    ("backtest", (1e308, 1e308), (3.0, -2.0),
     "numerical error: realized portfolio return on day 300 is not finite: "),
])
def test_non_finite_realized_return_exits_4_and_writes_nothing(tmp_path, capsys, command,
                                                               last_row, weights, message):
    rows = np.random.default_rng(4).normal(0, 0.01, (300, 2))
    rows[-1] = last_row
    date = write_returns(tmp_path / "r.csv", rows)
    (tmp_path / "w.csv").write_text(f"asset,weight\nA1,{weights[0]}\nA2,{weights[1]}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(tmp_path / "r.csv"), "--weights",
                   str(tmp_path / "w.csv"), "--method", "sample", "--method", "eb",
                   "--out", str(out)) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(message.format(date=date)) and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def write_overflowing_returns(path):
    """300 days of 3 assets whose first column is 1e160 times larger from
    day 101: the covariance of every window that reaches it overflows."""
    rows = np.random.default_rng(0).normal(0, 0.01, (300, 3))
    rows[100:, 0] *= 1e160
    write_returns(path, rows)


def test_an_overflowing_scalar_fit_warns_nothing_before_its_named_error(tmp_path, capsys):
    # vs and eb leave those days to the scalar path, whose own checks decide
    write_overflowing_returns(tmp_path / "r.csv")
    out = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("estimate", "--input", str(tmp_path / "r.csv"), "--window", "60",
                       "--method", "vs(4,2,0)", "--out", str(out)) == 4
    assert capsys.readouterr().err == (
        "numerical error: prior scale matrix overflows at prior degrees of freedom d0 = 60.0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "backtest"])
def test_an_infinite_predictive_scale_is_a_numerical_error(tmp_path, capsys, command):
    # sample's portfolio variance overflows to inf: no such forecast is scored
    write_overflowing_returns(tmp_path / "r.csv")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, "--input", str(tmp_path / "r.csv"), "--window", "60",
                       "--method", "sample", "--out", str(out)) == 4
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "numerical error: predictive scale must be positive and finite, got inf"
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--k", "abc"], "simulate.k"),
    (["simulate", "--t", "1"], "simulate.t"),
    (["simulate", "--scenario", "foo"], "simulate.scenario"),
    (["simulate", "--start-date", "x"], "simulate.start_date"),
    (["backtest", "--scenario", "mvn", "--window", "1"], "backtest.window"),
    (["backtest", "--scenario", "mvn", "--window", "2.5"], "backtest.window"),
    (["backtest", "--scenario", "foo"], "backtest.scenario"),
    (["backtest", "--scenario", "mvn", "--seed", "x"], "backtest.seed"),
    (["estimate", "--scenario", "mvn", "--alpha", "0.99,0.3"], "estimate.levels"),
    (["estimate", "--scenario", "mvn", "--alpha", ""], "estimate.levels"),
    (["estimate", "--input", "r.csv", "--mode", "bogus"], "estimate.mode"),
])
def test_bad_flag_value_exits_2_naming_its_key(tmp_path, capsys, argv, key):
    # a flag's text goes through the conversion of its config key
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and err.count("\n") == 1
    assert not out.exists()


def test_scenario_and_mode_are_read_in_any_letter_case(tmp_path):
    for flags, config in ((["--scenario", "PMVN"], ""), ([], "[simulate]\nscenario = Pmvn\n")):
        (tmp_path / "c.ini").write_text(config)
        out = tmp_path / f"s{len(flags)}.csv"
        assert run_cli("simulate", "--config", str(tmp_path / "c.ini"), *flags, "--k", "2", "--t",
                       "300", "--out", str(out)) == 0
        assert json.loads(Path(f"{out}.meta.json").read_text())["scenario"] == "pmvn"
    assert run_cli("backtest", "--input", str(out), "--mode", "Returns", "--method", "sample",
                   "--out", str(tmp_path / "bt")) == 0


def test_readme_config_table_lists_the_keys_of_every_section():
    from riskbench import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([\w.]+)` \| `([\w ]+)` \|$", readme, re.M)
    assert len(rows) == len(cli._CONFIG_KEYS)
    assert {section: keys.split() for section, keys in rows} == cli._CONFIG_KEYS


COMMANDS = ["simulate", "backtest", "estimate"]
# Values drawn for the property below: each key takes those its conversion or
# least value refuses, and from a config file also any value with a bare %,
# which configparser's interpolation refuses.
CANDIDATE_VALUES = ["abc", "", "1.5", "0", "1", "-3", "nan", "inf", "1e400", "0.3", "0.99,1",
                    "2020-13-01", "1,inf", "5%"]


def bad_values(key, source):
    from riskbench import cli

    setting, bad = cli._SETTINGS[key], []
    for value in CANDIDATE_VALUES:
        if source == "config" and "%" in value:
            bad.append(value)
            continue
        try:
            converted = setting.kind(value)
        except ValueError:
            bad.append(value)
            continue
        if setting.least is not None and converted < setting.least:
            bad.append(value)
    return bad


@st.composite
def bad_setting_runs(draw):
    """``(command, section, key, value, source)``: a run whose only bad
    setting is ``section.key = value``, given in the config file or, for a
    command key, as its flag."""
    from riskbench import cli

    section = draw(st.sampled_from(sorted(cli._CONFIG_KEYS)))
    command = section if section in COMMANDS else draw(st.sampled_from(COMMANDS))
    source = draw(st.sampled_from(["config", "flag"] if section in COMMANDS else ["config"]))
    key = draw(st.sampled_from([key for key in cli._CONFIG_KEYS[section]
                                if bad_values(key, source)]))
    return command, section, key, draw(st.sampled_from(bad_values(key, source))), source


@settings(max_examples=80, deadline=None)
@given(bad_setting_runs())
@example(("backtest", "backtest", "window", "1", "config"))
@example(("backtest", "backtest", "levels", "0.99,0.3", "config"))
@example(("estimate", "estimate", "levels", "", "config"))
@example(("simulate", "simulate", "scenario", "foo", "config"))
@example(("estimate", "estimate", "scenario", "foo", "config"))
@example(("simulate", "simulate", "start_date", "x", "config"))
@example(("simulate", "simulate", "t", "1", "config"))
@example(("backtest", "backtest", "mode", "bogus", "config"))
@example(("backtest", "backtest", "weights", "50%.csv", "config"))
@example(("backtest", "backtest", "k", "abc", "flag"))
@example(("backtest", "backtest", "scenario", "foo", "flag"))
def test_a_bad_setting_exits_2_naming_its_key(run):
    from riskbench import cli

    command, section, key, value, source = run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "o")
        # a small valid run, all in the config file so that no flag overrides the bad value
        values = {"scenario": section.removeprefix("scenario.") if section != command else "mvn",
                  "k": "2", "t": "40", "out": str(out)}
        if command != "simulate":
            values |= {"window": "30", "methods": "sample"}
            if key == "mode":  # read only with an input CSV, and refused before it is opened
                values = {"input": str(Path(tmp, "r.csv")), "window": "30", "out": str(out)}
        if command == "backtest":
            values |= {"replications": "2", "jobs": "1"}
        lines, argv = [f"[{command}]"], [command, "--config", str(Path(tmp, "run.ini"))]
        if section == command and source == "flag":
            setting = cli._SETTINGS[key]
            argv += [setting.flag or "--" + key.replace("_", "-"), value]
        elif section == command:
            values[key] = value
        else:
            lines.append(f"[{section}]\n{key} = {value}")
        lines[1:1] = [f"{name} = {text}" for name, text in values.items()]
        Path(tmp, "run.ini").write_text("\n".join(lines) + "\n")
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and f"{section}.{key}" in err
        assert stdout.getvalue() == "" and not out.exists()
