"""CSV ingestion and emission for return histories, plus weight loading.

Input format: a UTF-8 CSV whose header is ``date,ASSET1,ASSET2,...`` with
ISO-8601 dates in the first column and one numeric column per asset. Rows are
sorted ascending by date on ingest; duplicate dates are rejected. All numeric
output uses 12 significant digits, and non-finite values are refused.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import functools
import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, ParameterError
from .returns import PortfolioWeights, equal_weights

__all__ = [
    "ReturnHistory",
    "ingest_returns",
    "write_returns_csv",
    "weekday_dates",
    "load_weights",
    "fmt_number",
]


@dataclass(frozen=True)
class ReturnHistory:
    """A full return history: T0 x k matrix, asset labels, and row dates."""

    data: np.ndarray
    asset_ids: tuple[str, ...]
    dates: tuple[dt.date, ...]


def fmt_number(x: float) -> str:
    """Render a float with 12 significant digits; non-finite values error out."""
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"refusing to serialize non-finite value {x!r}")
    return f"{x:.12g}"


@contextlib.contextmanager
def _utf8_csv(path, encoding: str = "utf-8"):
    """A CSV reader over the text file ``path``; bytes that are not UTF-8
    raise :class:`DataError` naming the file."""
    try:
        with open(path, newline="", encoding=encoding) as fh:
            yield csv.reader(fh)
    except UnicodeDecodeError:
        raise DataError(f"{path}: file is not UTF-8 text") from None


def _parse_date(text: str, line_no: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"line {line_no}: invalid ISO-8601 date {text!r}") from None


def ingest_returns(path, mode: str = "returns") -> ReturnHistory:
    """Read a return (or price) history CSV into a matrix.

    In ``prices`` mode values are converted to simple returns
    ``p_t / p_{t-1} - 1`` and the first row is dropped. Parse failures raise
    :class:`DataError` naming the offending physical line of the file.
    """
    if mode not in ("returns", "prices"):
        raise ParameterError(f"mode must be 'returns' or 'prices', got {mode!r}")
    # The cells go into one flat buffer of doubles, row after row, with each
    # row's date and physical line number in parallel lists.
    cells = array("d")
    dates: list[dt.date] = []
    line_nos: list[int] = []
    with _utf8_csv(path, "utf-8-sig") as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise DataError(
                f"line 1: header must be 'date,ASSET1,...', got {','.join(header)!r}"
            )
        asset_ids = tuple(h.strip() for h in header[1:])
        if any(not a for a in asset_ids):
            raise DataError("line 1: blank asset name in header")
        if len(set(asset_ids)) != len(asset_ids):
            raise DataError("line 1: duplicate asset names in header")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(asset_ids) + 1:
                raise DataError(
                    f"line {line_no}: expected {len(asset_ids) + 1} cells, got {len(row)}"
                )
            dates.append(_parse_date(row[0], line_no))
            line_nos.append(line_no)
            for col, cell in zip(asset_ids, row[1:]):
                cell = cell.strip()
                if not cell:
                    raise DataError(f"line {line_no}: blank cell in column {col!r}")
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"line {line_no}: non-numeric cell {cell!r} in column {col!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"line {line_no}: non-finite value in column {col!r}")
                cells.append(value)

    if len(dates) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(dates)}")
    seen: dict[dt.date, int] = {}
    for date, line_no in zip(dates, line_nos):
        if date in seen:
            raise DataError(
                f"line {line_no}: duplicate date {date.isoformat()} (first seen on line {seen[date]})"
            )
        seen[date] = line_no
    order = sorted(range(len(dates)), key=dates.__getitem__)
    data = np.frombuffer(cells).reshape(len(dates), len(asset_ids))[order]
    dates = tuple(dates[i] for i in order)

    if mode == "prices":
        bad = np.flatnonzero((data <= 0).any(axis=1))
        if bad.size:
            row = bad[0]
            raise DataError(
                f"line {line_nos[order[row]]}: nonpositive price on {dates[row].isoformat()}; "
                "cannot form returns"
            )
        data = data[1:] / data[:-1] - 1.0
        dates = dates[1:]
    return ReturnHistory(data=data, asset_ids=asset_ids, dates=dates)


# The CSV writer lays out ``_BLOCK_ROWS`` rows at a time as one byte array of
# fixed-width slots padded with spaces, which no number or ISO date contains,
# and writes the block with its spaces dropped. A row is a 16-byte date slot,
# one 24-byte slot per cell and an 8-byte slot for the newline, so the slots
# can be filled through ``uint64`` and ``uint32`` views. A cell slot holds an
# 8-byte head (``,`` sign ``0.`` and up to three zeros) and four 3-digit groups
# of 4 bytes each, or ``,`` and the cell's ``%.12g`` text.
_BLOCK_ROWS = 1024
_SLOT = 24
_DATE_SLOT = 16
_END_SLOT = 8
_PAD = ord(" ")
_POW10 = np.array([1e12, 1e13, 1e14, 1e15])  # exact, as is every power up to 1e22
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


@functools.cache
def _emitter_tables():
    """Byte tables of the block writer, built on first use (importing this
    module touches no numpy kernel).

    ``head[neg * 4 + zeros]`` is a cell's first 8 bytes; ``groups[n]`` the
    three ASCII digits of ``n < 1000`` and a pad; ``last[n]`` the same with
    the trailing zeros of ``n`` (``n % 1000 != 0``) padded, as the last group.
    """
    head = np.full((2, 4, 8), _PAD, np.uint8)
    head[:, :, 0] = ord(",")
    head[1, :, 1] = ord("-")
    head[:, :, 2:4] = np.frombuffer(b"0.", np.uint8)
    head[:, :, 4:7][:, np.arange(3) < np.arange(4)[:, None]] = ord("0")
    n = np.arange(1000)[:, None]
    groups = np.full((1000, 4), _PAD, np.uint8)
    groups[:, :3] = n // (100, 10, 1) % 10 + ord("0")
    last = np.where(n % (1000, 100, 10, 1) == 0, _PAD, groups).astype(np.uint8)
    tables = (head.view(np.uint64).ravel(), groups.view(np.uint32).ravel(),
              last.view(np.uint32).ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


def _iso_dates(dates, out) -> None:
    """Write ``date.isoformat()`` of each date into the first 10 bytes of a row of ``out``."""
    days = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates)) - _EPOCH_ORDINAL
    days = days.astype("M8[D]")
    months = days.astype("M8[M]")
    year = days.astype("M8[Y]").astype(np.int64) + 1970
    month = months.astype(np.int64) % 12 + 1
    day = (days - months).astype(np.int64) + 1
    out[:, 0:4] = year[:, None] // (1000, 100, 10, 1) % 10 + ord("0")
    out[:, 5:7] = month[:, None] // (10, 1) % 10 + ord("0")
    out[:, 8:10] = day[:, None] // (10, 1) % 10 + ord("0")
    out[:, [4, 7]] = ord("-")


def _fixed_cells(x, a, band, cells):
    """Fill the slots of the cells of ``x`` in ``band``, [1e-4, 1), and return
    the mask of those whose bytes equal ``%.12g``.

    Such a cell prints in fixed notation as ``0.`` + ``zeros`` zeros + the 12
    digits of ``m = rint(|x| * 10^(12 + zeros))``, trailing zeros cut.
    ``zeros`` counts the thresholds 0.1, 0.01 and 1e-3 that ``|x|`` is below;
    each of those doubles lies above its power of ten, so the count is exact
    and the product lies in [1e11, 1e12]. The power of ten is exact, so the
    product is rounded once, by at most 6.1e-5, and ``rint`` gives the digits
    ``%.12g`` gives unless the product lies within 1e-3 of a tie. Those cells
    and the cells whose last three digits are zero (among them ``m == 1e12``,
    which prints with one zero fewer) are left out of the mask.
    """
    head, group, last_group = _emitter_tables()
    a = np.where(band, a, 0.5)  # keeps the scaling below finite for every cell
    zeros = (a < 0.1).view(np.int8) + (a < 0.01).view(np.int8)
    zeros += (a < 1e-3).view(np.int8)
    s = a * _POW10[zeros]
    m = np.rint(s)
    digits = m.astype(np.int64)
    high = digits // 1000
    last = digits - high * 1000
    words = cells.view(np.uint32)  # (rows, k, 6): the head, then the 4 groups
    words[..., 5] = last_group[last]
    for word in (4, 3):
        rest, high = high, high // 1000
        words[..., word] = group[rest - high * 1000]
    words[..., 2] = group.take(high, mode="clip")  # high is 1000 only when m == 1e12
    cells.view(np.uint64)[..., 0] = head[np.signbit(x) * 4 + zeros]
    return band & (np.abs(s - m) < 0.499) & (last != 0)


def _format_cells(x, cells) -> None:
    """Fill the ``(rows, k, _SLOT)`` byte slots of a block of cells: in numpy
    where :func:`_fixed_cells` vouches for the bytes, else with ``%.12g``
    itself, in one call."""
    a = np.abs(x)
    band = (a >= 1e-4) & (a < 1.0)
    slow = ~_fixed_cells(x, a, band, cells) if band.any() else np.ones(x.shape, bool)
    if slow.any():
        values = x[slow].tolist()
        text = ((",%-23.12g" * len(values)) % tuple(values)).encode("ascii")
        cells[slow] = np.frombuffer(text, np.uint8).reshape(len(values), _SLOT)


def write_returns_csv(path, data, asset_ids, dates) -> None:
    """Write a return matrix in the ingest format (12 significant digits, LF).

    ``dates`` are :class:`datetime.date` objects, one per row. Every cell is
    checked to be finite before the file is opened, so a bad matrix leaves an
    existing file untouched. The header goes through :func:`csv.writer`.

    Rows are written in blocks of ``_BLOCK_ROWS``. Each block is laid out as
    one byte array of space-padded fixed-width slots, filled with array
    arithmetic and lookup tables, and written with its spaces dropped by one
    boolean compaction. A row's bytes equal ``date.isoformat()``, then
    ``",%.12g" % x`` per cell (the text of :func:`fmt_number`), then ``"\n"``,
    for every finite double: numpy computes the digits of cells in [1e-4, 1),
    and ``%.12g`` itself formats, in one call per block, every other cell and
    every cell whose digits the arithmetic cannot vouch for (see
    ``_fixed_cells``).
    """
    data = np.asarray(data, dtype=float)
    if data.shape != (len(dates), len(asset_ids)):
        raise ParameterError(
            f"matrix shape {data.shape} does not match {len(dates)} dates x {len(asset_ids)} assets"
        )
    bad = ~np.isfinite(data)
    if bad.any():
        day, col = np.argwhere(bad)[0]
        raise NumericalError(
            f"refusing to serialize non-finite value {float(data[day, col])!r} "
            f"on {dates[day].isoformat()} in column {asset_ids[col]!r}"
        )
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(["date", *asset_ids])
    t, k = data.shape
    buf = np.full((min(t, _BLOCK_ROWS), _DATE_SLOT + _SLOT * k + _END_SLOT), _PAD, np.uint8)
    buf[:, -_END_SLOT] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        for start in range(0, t, _BLOCK_ROWS):
            block = data[start:start + _BLOCK_ROWS]
            rows = buf[:len(block)]
            _iso_dates(dates[start:start + len(block)], rows)
            _format_cells(block, rows[:, _DATE_SLOT:-_END_SLOT].reshape(len(block), k, _SLOT))
            fh.write(np.compress((rows != _PAD).ravel(), rows.ravel()))


def weekday_dates(start: dt.date, count: int) -> tuple[dt.date, ...]:
    """``count`` consecutive weekdays starting at ``start`` (weekend-shifted).

    Raises :class:`ParameterError` when the last of them falls after
    ``datetime.date.max``.
    """
    days = np.busday_offset(start, np.arange(count), roll="forward")
    if days.size and days[-1] > np.datetime64(dt.date.max):
        raise ParameterError(
            f"{count} weekdays from {start.isoformat()} run past {dt.date.max.isoformat()}"
        )
    return tuple(days.tolist())


def load_weights(spec: str, asset_ids) -> PortfolioWeights:
    """Resolve a weight scheme: the literal ``equal`` or a CSV of asset,weight rows."""
    k = len(asset_ids)
    if spec == "equal":
        return equal_weights(k)
    weights = {}
    first_line = {}
    with _utf8_csv(spec) as reader:
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["asset", "weight"]:
            raise DataError(f"{spec}: weights header must be 'asset,weight'")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise DataError(f"{spec} line {line_no}: expected 'asset,weight'")
            name = row[0].strip()
            if name in first_line:
                raise DataError(
                    f"{spec} line {line_no}: duplicate weight for asset {name!r}"
                    f" (first given on line {first_line[name]})"
                )
            first_line[name] = line_no
            try:
                weights[name] = float(row[1])
            except ValueError:
                raise DataError(f"{spec} line {line_no}: non-numeric weight {row[1]!r}") from None
            if not math.isfinite(weights[name]):
                raise DataError(f"{spec} line {line_no}: non-finite weight {row[1]!r}")
    missing = [a for a in asset_ids if a not in weights]
    if missing:
        raise DataError(f"{spec}: missing weights for assets {missing}")
    extra = [a for a in weights if a not in set(asset_ids)]
    if extra:
        raise DataError(f"{spec}: weights for unknown assets {extra}")
    return PortfolioWeights(np.array([weights[a] for a in asset_ids]))
