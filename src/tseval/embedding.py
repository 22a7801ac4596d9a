"""Time-delay embedding, squared distances between embedded rows, and
false-nearest-neighbours dimension selection.

:func:`estimate_embedding_dimension` steps d = 1, 2, ... and stops at the
first dimension whose false-neighbour fraction is at most the tolerance;
:func:`fnn_fractions` runs every step up to ``d_max``. Both keep one
(t-1) x (t-1) matrix of running squared distances and update it in row
chunks, so each step's temporaries (the squared coordinate differences and
the zero mask) hold about ``_CHUNK`` entries whatever the length of the
series.
:func:`squared_distances` is chunked the same way; it is the k-NN metric,
and an :class:`EmbeddedDataset` keeps the matrix of its own rows once it
has been asked for it.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries

__all__ = [
    "EmbeddedDataset",
    "embed",
    "squared_distances",
    "fnn_fractions",
    "estimate_embedding_dimension",
]


@dataclass(frozen=True, eq=False)
class EmbeddedDataset:
    """Lagged predictor matrix with aligned targets.

    Row k holds predictors (y_k, ..., y_{k+p-1}) and target y_{k+p};
    ``target_time`` maps each row to the source index of its target.
    """

    predictors: np.ndarray
    targets: np.ndarray
    target_time: np.ndarray
    p: int

    def __post_init__(self) -> None:
        X = np.ascontiguousarray(self.predictors, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        tt = np.asarray(self.target_time, dtype=int)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise ValueError(f"predictors must be n x {self.p}, got {X.shape}")
        if y.shape != (X.shape[0],) or tt.shape != (X.shape[0],):
            raise ValueError("targets/target_time must have one entry per row")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("predictors and targets must be finite")
        if X.shape[0] >= 2 and not np.all(np.diff(tt) > 0):
            raise ValueError("target_time must be strictly increasing")
        for arr, field in ((X, "predictors"), (y, "targets"), (tt, "target_time")):
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    @property
    def n(self) -> int:
        return int(self.targets.size)

    @cached_property
    def knn_distances(self) -> np.ndarray:
        """Read-only n x n squared distances between the rows, computed on
        first use; entry (i, j) is what k-NN ``predict`` computes for row i
        against training row j."""
        D = squared_distances(self.predictors, self.predictors)
        D.flags.writeable = False
        return D

    @cached_property
    def knn_mask(self) -> float:
        """Masks a column out of a k-NN search: ``inf`` (``argpartition`` is
        2-3x slower on NaN), or NaN, which sorts after an overflowed ``inf``."""
        return np.inf if self.knn_distances.max() < np.inf else np.nan


# entries of the temporaries that one row chunk may hold (1 MiB of floats)
_CHUNK = 1 << 17


def _row_chunks(m: int, width: int) -> Iterator[slice]:
    """Consecutive slices over m rows, each covering at most ``_CHUNK``
    entries of a row ``width`` wide (and at least one row)."""
    step = max(1, _CHUNK // max(1, width))
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of A to every row of B.

    Each entry is one ``einsum`` reduction of the row difference with
    itself, whatever the chunking, so an entry does not depend on which
    other rows share its call.
    """
    out = np.empty((A.shape[0], B.shape[0]))
    for rows in _row_chunks(A.shape[0], B.size):
        diff = A[rows, None, :] - B[None, :, :]
        np.einsum("mnp,mnp->mn", diff, diff, out=out[rows])
    return out


def embed(series: TimeSeries, p: int) -> EmbeddedDataset:
    """Recast a series as (p lagged predictors -> next value) rows."""
    if p < 1:
        raise ValueError("embedding dimension p must be >= 1")
    t = len(series)
    if t <= p:
        raise ValueError(f"series length {t} must exceed embedding dimension {p}")
    y = series.values
    X = sliding_window_view(y, p)[: t - p]
    return EmbeddedDataset(
        predictors=X.copy(),
        targets=y[p:].copy(),
        target_time=np.arange(p, t),
        p=p,
    )


# FNN false-neighbour tests: a pair is false when the extra coordinate grows
# its distance more than R_TOL-fold or leaves it beyond A_TOL standard
# deviations of the series.
R_TOL = 10.0
A_TOL = 2.0


def fnn_fractions(series: TimeSeries, d_max: int) -> np.ndarray:
    """False-nearest-neighbour fraction for each dimension d = 1..d_max.

    A point's neighbour at dimension d is its Euclidean-nearest other point
    (ties to the lowest index). The pair is false when the extra coordinate
    revealed at d+1 either blows up the distance ratio beyond ``R_TOL`` or
    leaves the pair farther apart than ``A_TOL`` series standard deviations.

    Squared distances are running sums, one squared coordinate difference
    per dimension in coordinate order, so nothing cancels. Each step adds
    its coordinate and finds the neighbours one row chunk at a time.

    Duplicate points need care: distances up to 1e-9 standard deviations
    count as zero, the lowest-indexed zero-distance candidate is taken, and
    the pair is a true neighbour only when it also stays together at d+1
    (a zero-distance pair that separates has an infinite distance ratio).
    """
    return np.fromiter(_false_fractions(series, d_max), dtype=float, count=d_max)


def _false_fractions(series: TimeSeries, d_max: int) -> Iterator[float]:
    """The fractions of :func:`fnn_fractions`, one dimension at a time."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    t = len(series)
    if t <= d_max + 1:
        raise ValueError(f"series length {t} too short for d_max {d_max}")
    y = series.values
    sd = float(np.std(y))
    zero = 1e-9 * sd
    all_d2 = np.zeros((t - 1, t - 1))
    np.fill_diagonal(all_d2, np.inf)  # a point is not its own neighbour
    for d in range(1, d_max + 1):
        m = t - d  # points present in both the d and d+1 embeddings
        coordinate = y[d - 1 : t - 1]
        has_dup = np.empty(m, dtype=bool)
        nn = np.empty(m, dtype=np.intp)
        d2 = np.empty(m)
        for rows in _row_chunks(m, m):
            D2 = all_d2[rows, :m]
            step = np.subtract.outer(coordinate[rows], coordinate)
            D2 += np.square(step, out=step)
            is_zero = D2 <= zero * zero
            has_dup[rows] = is_zero.any(axis=1)
            nn[rows] = np.where(has_dup[rows], np.argmax(is_zero, axis=1), np.argmin(D2, axis=1))
            d2[rows] = D2[np.arange(D2.shape[0]), nn[rows]]
        extra = np.abs(y[d:] - y[nn + d])
        dup_false = has_dup & (extra > zero)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_false = extra / np.sqrt(d2) > R_TOL
        lonely = np.sqrt(d2 + extra**2) > A_TOL * sd
        plain_false = ~has_dup & (ratio_false | lonely)
        yield float(np.count_nonzero(dup_false | plain_false)) / m


def estimate_embedding_dimension(
    series: TimeSeries, d_max: int = 30, tolerance: float = 0.01
) -> int:
    """Smallest dimension whose false-neighbour fraction drops to ``tolerance``.

    Stops at that dimension; falls back to ``d_max`` (with a warning) when
    no dimension qualifies. Deterministic for a fixed series.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    for d, fraction in enumerate(_false_fractions(series, d_max), start=1):
        if fraction <= tolerance:
            return d
    warnings.warn(
        f"false-neighbour fraction stayed above {tolerance:g} up to d_max={d_max}; "
        "returning d_max",
        stacklevel=2,
    )
    return d_max
