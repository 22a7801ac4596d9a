"""Time-delay embedding, squared distances between embedded rows, and
false-nearest-neighbours dimension selection.

:func:`estimate_embedding_dimension` steps d = 1, 2, ... and stops at the
first dimension whose false-neighbour fraction is at most the tolerance;
:func:`fnn_fractions` runs every step up to ``d_max``. Both keep the
running squared distances between the t-1 points once, as the upper
triangle of their symmetric matrix, and update them in row chunks, so each
step's temporaries (the squared coordinate differences and the chunk's whole
rows) hold about ``_CHUNK`` entries whatever the length of the series.
:func:`squared_distances`, the k-NN metric, is the same running sum, in
coordinate order. :func:`nearest_rows` is the one k-NN neighbour search: it
orders those distances one row chunk at a time, for k-NN ``predict`` and for
an :class:`EmbeddedDataset`, which keeps no distance matrix: once asked, it
keeps each row's first ``KNN_WINDOW`` neighbours, so it holds ``KNN_WINDOW``
integers a row whatever the length of the series.
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
    "KNN_WINDOW",
    "EmbeddedDataset",
    "embed",
    "squared_distances",
    "nearest_rows",
    "fnn_fractions",
    "estimate_embedding_dimension",
]


@dataclass(frozen=True, eq=False)
class EmbeddedDataset:
    """Lagged predictor matrix with aligned targets.

    Row k of :func:`embed`'s output holds predictors (y_k, ..., y_{k+p-1})
    and target y_{k+p}, so its target's source index is k + p.
    """

    predictors: np.ndarray
    targets: np.ndarray
    p: int

    def __post_init__(self) -> None:
        X = np.ascontiguousarray(self.predictors, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise ValueError(f"predictors must be n x {self.p}, got {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("targets must have one entry per row")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("predictors and targets must be finite")
        for arr, field in ((X, "predictors"), (y, "targets")):
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    @property
    def n(self) -> int:
        return int(self.targets.size)

    @cached_property
    def knn_window(self) -> np.ndarray:
        """Read-only n x min(``KNN_WINDOW``, n) array, computed on first use:
        row i holds its first :func:`nearest_rows` among every row, which is
        the order in which k-NN ``predict`` would take them as neighbours."""
        window = nearest_rows(self.predictors, self.predictors, min(KNN_WINDOW, self.n))
        window.flags.writeable = False
        return window


# columns of each row's k-NN neighbour order that a dataset keeps
KNN_WINDOW = 128

# entries of the temporaries that one row chunk may hold (1 MiB of floats);
# squared distances take chunks a quarter that size, which stay in cache
_CHUNK = 1 << 17
# points per block of FNN running sums: smaller blocks keep fewer sums twice
# (their diagonal squares) but gather each row from more pieces
_BLOCK = 256


def _row_chunks(m: int, width: int, chunk: int = _CHUNK) -> Iterator[slice]:
    """Consecutive slices over m rows, each covering at most ``chunk``
    entries of a row ``width`` wide (and at least one row)."""
    step = max(1, chunk // max(1, width))
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of A to every row of B.

    Each entry is FNN's running sum, the squared coordinate differences added
    in coordinate order, and no other row of the call changes it. a - b is the
    product [a, 1] @ [1, -b] of exact terms, rounded once like the subtraction,
    which numpy's ufunc buffering slows several-fold on rows of ~1000 entries.
    """
    out = (np.empty if A.shape[1] else np.zeros)((A.shape[0], B.shape[0]))
    left = np.stack([A.T, np.ones(A.T.shape)], axis=2)
    right = np.stack([np.ones(B.T.shape), -B.T], axis=1)
    squares = np.empty(max(_CHUNK // 4, B.shape[0]))
    for rows in _row_chunks(A.shape[0], B.shape[0], _CHUNK // 4):
        acc = out[rows]
        step = squares[: acc.size].reshape(acc.shape)
        for j in range(A.shape[1]):
            d = np.matmul(left[j, rows], right[j], out=step if j else acc)
            np.square(d, out=d)
            if j:
                acc += d
    return out


def nearest_rows(A: np.ndarray, B: np.ndarray, k: int) -> np.ndarray:
    """The k-NN neighbour order: for each row of A, the indices of its first k
    rows of B by :func:`squared_distances`, ascending, ties to the lowest
    index. The distances are taken one row chunk of A at a time."""
    nearest = np.empty((A.shape[0], k), dtype=np.intp)
    for rows in _row_chunks(A.shape[0], B.shape[0]):
        nearest[rows] = _nearest_columns(squared_distances(A[rows], B), k)
    return nearest


def _nearest_columns(dist: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of a stable argsort of each row of ``dist``:
    ascending distance, ties to the lowest column.

    ``argpartition`` finds the k-th smallest distance. A row with exactly k
    entries at or below it keeps those k, sorted by column and then stably by
    distance; a row tied at the k-th distance is sorted whole.
    """
    nearest = np.sort(np.argpartition(dist, k - 1, axis=1)[:, :k], axis=1)
    near = np.take_along_axis(dist, nearest, axis=1)
    nearest = np.take_along_axis(nearest, np.argsort(near, axis=1, kind="stable"), axis=1)
    tied = np.count_nonzero(dist <= near.max(axis=1)[:, None], axis=1) != k
    nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return nearest


def embed(series: TimeSeries, p: int) -> EmbeddedDataset:
    """Recast a series as (p lagged predictors -> next value) rows."""
    if p < 1:
        raise ValueError("embedding dimension p must be >= 1")
    t = len(series)
    if t <= p:
        raise ValueError(f"series length {t} must exceed embedding dimension {p}")
    y = series.values
    X = sliding_window_view(y, p)[: t - p]
    return EmbeddedDataset(predictors=X.copy(), targets=y[p:].copy(), p=p)


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
    its coordinate and finds the neighbours one row chunk at a time. The sum
    for (i, j) equals the one for (j, i) bit for bit, so only about half of
    the (t-1) x (t-1) sums are kept.

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
    # block b keeps the running sums of points [a, a + _BLOCK), a = b * _BLOCK,
    # against the points from a on; as the sums are symmetric, the rest of a
    # point's row is its column in the blocks above
    blocks = [np.zeros((min(_BLOCK, t - 1 - a), t - 1 - a)) for a in range(0, t - 1, _BLOCK)]
    for block in blocks:
        np.fill_diagonal(block, np.inf)  # a point is not its own neighbour
    for d in range(1, d_max + 1):
        m = t - d  # points present in both the d and d+1 embeddings
        coordinate = y[d - 1 : t - 1]
        has_dup = np.empty(m, dtype=bool)
        nn = np.empty(m, dtype=np.intp)
        d2 = np.empty(m)
        for b, a in enumerate(range(0, m, _BLOCK)):
            for chunk in _row_chunks(min(_BLOCK, m - a), m):
                rows = slice(a + chunk.start, a + chunk.stop)
                own = blocks[b][chunk, : m - a]
                step = np.subtract.outer(coordinate[rows], coordinate[a:m])
                own += np.square(step, out=step)
                above = [block[:, rows.start - c * _BLOCK : rows.stop - c * _BLOCK].T
                         for c, block in enumerate(blocks[:b])]
                D2 = np.concatenate([*above, own], axis=1) if b else own
                at, nearest = np.arange(D2.shape[0]), np.argmin(D2, axis=1)
                dup = D2[at, nearest] <= zero * zero  # only then scan for the first zero
                nearest[dup] = np.argmax(D2[dup] <= zero * zero, axis=1)
                has_dup[rows], nn[rows], d2[rows] = dup, nearest, D2[at, nearest]
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
