"""Time-delay embedding, squared distances between embedded rows, and
false-nearest-neighbours dimension selection.

:func:`estimate_embedding_dimension` steps d = 1, 2, ... and stops at the
first dimension whose false-neighbour fraction is at most the tolerance;
:func:`fnn_fractions` runs every step up to ``d_max``. Both keep the
running squared distances between the t-1 points once, as the upper
triangle of their symmetric matrix, and update them in row chunks of a
quarter of ``_CHUNK`` entries, whose minima are read while they are in
cache; a step's other temporaries hold a few entries per point or one chunk.
:func:`squared_distances`, the k-NN metric, is the same running sum, in
coordinate order. :func:`nearest_rows` is the one k-NN neighbour search: it
orders those distances one row chunk at a time, for k-NN ``predict`` and for
the neighbour window that :func:`~tseval.evaluation.run_plan` builds once per
problem. An :class:`EmbeddedDataset` holds only the rows and their targets.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries

__all__ = [
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


# entries of the temporaries that one row chunk may hold (1 MiB of floats);
# squared distances take chunks a quarter that size, which stay in cache
_CHUNK = 1 << 17
# points per block of FNN running sums: smaller blocks keep fewer sums twice
# (their diagonal squares) but fold more blocks into each point's minimum
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

    ``partition`` finds the k-th smallest distance. A row with exactly k
    entries at or below it sorts those k, taken in column order, stably where
    two are equal; a row tied at the k-th distance is sorted whole.
    """
    count, at = _first_k(dist <= np.partition(dist, k - 1, axis=1)[:, k - 1, None], k)
    untied, tied = np.flatnonzero(count == k), np.flatnonzero(count != k)
    at = at[count[count >= k] == k]  # a NaN k-th distance leaves a row fewer than k
    near = dist.ravel()[at]
    order = np.argsort(near, axis=1) + np.arange(0, at.size, k)[:, None]
    ranked = near.ravel()[order]
    equal = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    order[equal] = np.argsort(near[equal], axis=1, kind="stable") + k * equal[:, None]
    nearest = np.empty((dist.shape[0], k), dtype=np.intp)
    nearest[untied] = at.ravel()[order] - dist.shape[1] * untied[:, None]
    nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return nearest


def _first_k(mask: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The number of true entries in each row of ``mask``, and the flat
    indices of the first k of each row that has at least k, in order."""
    flat = np.flatnonzero(mask)
    start = np.searchsorted(flat, np.arange(mask.shape[0] + 1) * mask.shape[1])
    count = np.diff(start)
    return count, flat[start[:-1][count >= k, None] + np.arange(k)]


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
    its coordinate one row chunk at a time. The sum for (i, j) equals the one
    for (j, i) bit for bit, so only about half of the (t-1) x (t-1) sums are
    kept, and a point's nearest lower-indexed points are read from columns.

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
    # against the points from a on; as the sums are symmetric, a point's sums
    # with the points before a are its column in the blocks above
    blocks = [np.zeros((min(_BLOCK, t - 1 - a), t - 1 - a)) for a in range(0, t - 1, _BLOCK)]
    for block in blocks:
        np.fill_diagonal(block, np.inf)  # a point is not its own neighbour
    squares = np.empty(max(_CHUNK // 4, t - 1))
    for d in range(1, d_max + 1):
        m = t - d  # points present in both the d and d+1 embeddings
        coordinate = y[d - 1 : t - 1]
        # a - b as the product [a, 1] @ [1, -b], as in squared_distances
        left, right = np.stack([coordinate, np.ones(m)], 1), np.stack([np.ones(m), -coordinate])
        # each point's least sum in its own row, and above with the first block to reach it
        nn, mine = np.empty(m, dtype=np.intp), np.empty(m)
        above, home = np.full(m, np.inf), np.zeros(m, dtype=np.intp)
        for b, a in enumerate(range(0, m, _BLOCK)):
            width = min(_BLOCK, m - a)  # the block's rows at this step
            later = np.full(m - a - width, np.inf)  # its least sum of each later point
            for chunk in _row_chunks(width, m - a, _CHUNK // 4):
                rows = slice(a + chunk.start, a + chunk.stop)
                own = blocks[b][chunk, : m - a]
                step = squares[: own.size].reshape(own.shape)
                own += np.square(np.matmul(left[rows], right[:, a:m], out=step), out=step)
                nearest = np.argmin(own, axis=1)
                nn[rows], mine[rows] = a + nearest, own[np.arange(nearest.size), nearest]
                np.minimum(later, own[:, width:].min(axis=0), out=later)
            lower = later < above[a + width : m]  # ties stay with the earlier block
            above[a + width : m][lower], home[a + width : m][lower] = later[lower], b
        # the blocks above hold lower indices, and block 0 has none
        wins = (mine < above) | (np.arange(m) < _BLOCK)
        d2 = np.where(wins, mine, above)
        has_dup = d2 <= zero * zero
        rest = np.flatnonzero(~wins & ~has_dup)  # the first minimum of their column
        for c in np.unique(home[rest]).tolist():
            points = rest[home[rest] == c]
            for part in _row_chunks(points.size, _BLOCK, _CHUNK // 4):
                at = points[part]
                nn[at] = c * _BLOCK + np.argmin(blocks[c][:, at - c * _BLOCK], axis=0)
        dups = np.flatnonzero(has_dup)  # the first point at zero distance, in the whole row
        for b in np.unique(dups // _BLOCK).tolist():
            points = dups[dups // _BLOCK == b]
            for part in _row_chunks(points.size, m):
                at = points[part]
                whole = [block[:, at - c * _BLOCK].T for c, block in enumerate(blocks[:b])]
                whole.append(blocks[b][at - b * _BLOCK, : m - b * _BLOCK])
                nn[at] = np.argmax(np.concatenate(whole, axis=1) <= zero * zero, axis=1)
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
