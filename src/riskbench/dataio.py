"""CSV ingestion and emission for return histories, plus weight loading.

Input format: a UTF-8 CSV whose header is ``date,ASSET1,ASSET2,...`` with
ISO-8601 dates in the first column and one numeric column per asset. Rows are
sorted ascending by date on ingest; duplicate dates are rejected. All numeric
output uses 12 significant digits, and non-finite values are refused.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
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
    rows: list[tuple[dt.date, list[float], int]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
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
            date = _parse_date(row[0], line_no)
            values = []
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
                values.append(value)
            rows.append((date, values, line_no))

    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
    seen: dict[dt.date, int] = {}
    for date, _, line_no in rows:
        if date in seen:
            raise DataError(
                f"line {line_no}: duplicate date {date.isoformat()} (first seen on line {seen[date]})"
            )
        seen[date] = line_no
    rows.sort(key=lambda r: r[0])
    dates = tuple(r[0] for r in rows)
    data = np.array([r[1] for r in rows], dtype=float)

    if mode == "prices":
        for (date, values, line_no) in rows:
            if any(v <= 0 for v in values):
                raise DataError(
                    f"line {line_no}: nonpositive price on {date.isoformat()}; cannot form returns"
                )
        data = data[1:] / data[:-1] - 1.0
        dates = dates[1:]
    return ReturnHistory(data=data, asset_ids=asset_ids, dates=dates)


def write_returns_csv(path, data, asset_ids, dates) -> None:
    """Write a return matrix in the ingest format (12 significant digits, LF).

    Every cell is checked to be finite before the file is opened, so a bad
    matrix leaves an existing file untouched. Each row is formatted with one
    ``%``-template; ``"%.12g" % x`` gives the same text as :func:`fmt_number`.
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
            f"on {dates[day].isoformat()} for asset {asset_ids[col]!r}"
        )
    row_format = "%s" + ",%.12g" * len(asset_ids) + "\n"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["date", *asset_ids])
        fh.writelines(
            row_format % (date.isoformat(), *row) for date, row in zip(dates, data.tolist())
        )


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
    with open(spec, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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
    missing = [a for a in asset_ids if a not in weights]
    if missing:
        raise DataError(f"{spec}: missing weights for assets {missing}")
    extra = [a for a in weights if a not in set(asset_ids)]
    if extra:
        raise DataError(f"{spec}: weights for unknown assets {extra}")
    return PortfolioWeights(np.array([weights[a] for a in asset_ids]))
