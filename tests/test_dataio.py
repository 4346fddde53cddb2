import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskbench import DataError, NumericalError
from riskbench.dataio import (
    fmt_number,
    ingest_returns,
    load_weights,
    weekday_dates,
    write_returns_csv,
)


def write(tmp_path, text, name="input.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_prices_to_returns(tmp_path):
    path = write(tmp_path, "date,X\n2020-01-01,100\n2020-01-02,110\n")
    hist = ingest_returns(path, mode="prices")
    assert hist.data.shape == (1, 1)
    assert hist.data[0, 0] == pytest.approx(0.10, rel=1e-12)
    assert hist.dates == (dt.date(2020, 1, 2),)


def test_returns_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(0, 0.01, size=(30, 3))
    dates = weekday_dates(dt.date(2021, 3, 1), 30)
    path = tmp_path / "out.csv"
    write_returns_csv(path, data, ("A", "B", "C"), dates)
    hist = ingest_returns(path, mode="returns")
    assert hist.asset_ids == ("A", "B", "C")
    assert hist.dates == dates
    np.testing.assert_allclose(hist.data, data, rtol=1e-11)
    # a second write of the ingested matrix is byte-identical
    path2 = tmp_path / "out2.csv"
    write_returns_csv(path2, hist.data, hist.asset_ids, hist.dates)
    assert path.read_bytes() == path2.read_bytes()


def test_blank_cell_names_line(tmp_path):
    rows = ["date,A,B"] + [f"2020-01-{d:02d},0.01,0.01" for d in range(1, 11)]
    rows[6] = "2020-01-06,,0.01"  # physical line 7
    path = write(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(DataError, match="line 7"):
        ingest_returns(path)


def test_non_numeric_cell(tmp_path):
    path = write(tmp_path, "date,A\n2020-01-01,0.01\n2020-01-02,oops\n")
    with pytest.raises(DataError, match="line 3"):
        ingest_returns(path)


def test_duplicate_dates_rejected(tmp_path):
    path = write(tmp_path, "date,A\n2020-01-01,0.01\n2020-01-01,0.02\n")
    with pytest.raises(DataError, match="duplicate date"):
        ingest_returns(path)


def test_unsorted_dates_sorted(tmp_path):
    path = write(tmp_path, "date,A\n2020-01-03,0.03\n2020-01-01,0.01\n2020-01-02,0.02\n")
    hist = ingest_returns(path)
    assert [d.day for d in hist.dates] == [1, 2, 3]
    np.testing.assert_allclose(hist.data.ravel(), [0.01, 0.02, 0.03])


def test_too_few_rows(tmp_path):
    path = write(tmp_path, "date,A\n2020-01-01,0.01\n")
    with pytest.raises(DataError, match="at least 2"):
        ingest_returns(path)


def test_bad_header(tmp_path):
    path = write(tmp_path, "day,A\n2020-01-01,0.01\n2020-01-02,0.01\n")
    with pytest.raises(DataError, match="header"):
        ingest_returns(path)


def test_bad_date(tmp_path):
    path = write(tmp_path, "date,A\n01/02/2020,0.01\n2020-01-02,0.01\n")
    with pytest.raises(DataError, match="line 2"):
        ingest_returns(path)


def test_nonpositive_price(tmp_path):
    path = write(tmp_path, "date,A\n2020-01-01,100\n2020-01-02,0\n")
    with pytest.raises(DataError, match="nonpositive"):
        ingest_returns(path, mode="prices")


def test_fmt_number():
    assert fmt_number(0.1) == "0.1"
    assert fmt_number(1 / 3) == "0.333333333333"
    with pytest.raises(NumericalError):
        fmt_number(float("nan"))
    with pytest.raises(NumericalError):
        fmt_number(float("inf"))


def test_write_validates_before_touching_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("keep me\n")
    data = np.zeros((3, 2))
    data[1, 1] = np.nan
    data[2, 0] = np.inf
    dates = weekday_dates(dt.date(2021, 3, 1), 3)
    with pytest.raises(NumericalError, match=r"nan on 2021-03-02 for asset 'B'"):
        write_returns_csv(path, data, ("A", "B"), dates)
    assert path.read_text() == "keep me\n"


finite_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-10**15, 10**15).map(float),
)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(2, 5), st.integers(1, 4)), elements=finite_cells))
def test_written_rows_match_fmt_number_and_read_back(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("w") / "out.csv"
    ids = tuple(f"A{i}" for i in range(data.shape[1]))
    dates = weekday_dates(dt.date(2022, 1, 3), data.shape[0])
    write_returns_csv(path, data, ids, dates)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "date," + ",".join(ids) and lines[-1] == ""
    for line, date, row in zip(lines[1:-1], dates, data):
        assert line == date.isoformat() + "," + ",".join(fmt_number(v) for v in row)
    np.testing.assert_allclose(ingest_returns(path).data, data, rtol=5e-12, atol=0)


def test_weekday_dates_skip_weekends():
    dates = weekday_dates(dt.date(2020, 1, 3), 4)  # Friday start
    assert [d.isoformat() for d in dates] == ["2020-01-03", "2020-01-06", "2020-01-07", "2020-01-08"]


def test_load_weights(tmp_path):
    w = load_weights("equal", ("A", "B"))
    np.testing.assert_allclose(w.w, [0.5, 0.5])
    path = write(tmp_path, "asset,weight\nA,0.3\nB,0.7\n", name="w.csv")
    w2 = load_weights(str(path), ("A", "B"))
    np.testing.assert_allclose(w2.w, [0.3, 0.7])
    missing = write(tmp_path, "asset,weight\nA,1.0\n", name="w2.csv")
    with pytest.raises(DataError, match="missing weights"):
        load_weights(str(missing), ("A", "B"))


def test_duplicate_weight_rows_rejected(tmp_path):
    path = write(tmp_path, "asset,weight\nA,0.3\nB,0.7\n\nA,0.4\n", name="w.csv")
    with pytest.raises(DataError, match=r"line 5: duplicate weight for asset 'A' \(first given on line 2\)"):
        load_weights(str(path), ("A", "B"))
