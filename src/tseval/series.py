"""Univariate time-series container, differencing, and chronological splitting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TimeSeries",
    "load_csv",
    "write_csv",
    "write_rows",
    "difference",
    "estimation_validation_split",
]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered, finite, real-valued observations, stored as a read-only
    float64 array."""

    values: np.ndarray
    name: str = "series"

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {vals.shape}")
        if vals.size < 1:
            raise ValueError("a time series needs at least one observation")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite value at index {bad}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Contiguous sub-series over ``[start, stop)``."""
        return TimeSeries(self.values[start:stop], self.name)


def load_csv(path, column: str | int = 0) -> TimeSeries:
    """Read one column of a CSV file as a time series.

    The file may carry a single header row; it is detected by the first
    row's cell failing to parse as a number. ``column`` selects by
    zero-based index or, when the file has a header, by name. Rows are
    taken in file order, after any UTF-8 byte-order mark, and the series is
    named after the file stem. Error messages use 1-based file line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: file is empty")

    idx: int
    first_data_row = 0
    if isinstance(column, str):
        header = [cell.strip() for cell in rows[0]]
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r} in header {header}")
        idx = header.index(column)
        first_data_row = 1
    else:
        idx = int(column)
        if idx < 0:
            raise ValueError(f"{path}: column index must be >= 0, got {idx}")
        if idx >= len(rows[0]):
            raise ValueError(f"{path}: row 1 has no column {idx}")
        try:
            float(rows[0][idx])
        except ValueError:
            first_data_row = 1  # header row

    values = []
    for lineno, row in enumerate(rows[first_data_row:], start=first_data_row + 1):
        if idx >= len(row):
            raise ValueError(f"{path}: row {lineno} has no column {idx}")
        cell = row[idx].strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(
                f"{path}: non-numeric value {cell!r} at row {lineno}"
            ) from None
    if not values:
        raise ValueError(f"{path}: column {column!r} is empty")
    return TimeSeries(np.asarray(values), name=path.stem)


def write_rows(fh, header, rows) -> None:
    """Write a header row, then each of ``rows`` as it comes, as CSV with
    ``\n`` line endings to the open text file ``fh``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_csv(series: TimeSeries, path) -> None:
    """Write a series as one observation per row, under a ``y`` header row."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        write_rows(fh, ["y"], ([repr(float(v))] for v in series.values))


def difference(series: TimeSeries, d: int) -> TimeSeries:
    """Apply d rounds of consecutive differencing (result[i] = y[i+1] - y[i])."""
    if d < 0:
        raise ValueError("d must be non-negative")
    if d > len(series) - 1:
        raise ValueError(f"cannot difference length-{len(series)} series {d} times")
    if d == 0:
        return series
    return TimeSeries(np.diff(series.values, n=d), series.name)


def estimation_validation_split(
    series: TimeSeries, fraction: float
) -> tuple[TimeSeries, TimeSeries]:
    """Split chronologically: first floor(fraction*t) observations, then the rest."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    t = len(series)
    cut = math.floor(fraction * t)
    if cut < 1 or t - cut < 1:
        raise ValueError(
            f"degenerate split: fraction {fraction} of {t} observations leaves "
            f"sides of size {cut} and {t - cut}"
        )
    return series.slice(0, cut), series.slice(cut, t)
