"""Time-delay embedding and false-nearest-neighbours dimension selection."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries

__all__ = [
    "EmbeddedDataset",
    "embed",
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
        if X.shape[0] >= 2 and not np.all(np.diff(tt) > 0):
            raise ValueError("target_time must be strictly increasing")
        for arr, field in ((X, "predictors"), (y, "targets"), (tt, "target_time")):
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    @property
    def n(self) -> int:
        return int(self.targets.size)


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


def _windows(values: np.ndarray, d: int) -> np.ndarray:
    return sliding_window_view(values, d)


def fnn_fractions(series: TimeSeries, d_max: int) -> np.ndarray:
    """False-nearest-neighbour fraction for each dimension d = 1..d_max.

    A point's neighbour at dimension d is its Euclidean-nearest other point
    (ties to the lowest index). The pair is false when the extra coordinate
    revealed at d+1 either blows up the distance ratio beyond ``R_TOL`` or
    leaves the pair farther apart than ``A_TOL`` series standard deviations.

    Duplicate points need care: distances below 1e-9 standard deviations
    count as zero, the lowest-indexed zero-distance candidate is taken, and
    the pair is a true neighbour only when it also stays together at d+1
    (a zero-distance pair that separates has an infinite distance ratio).
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    t = len(series)
    if t <= d_max + 1:
        raise ValueError(f"series length {t} too short for d_max {d_max}")
    y = series.values
    sd = float(np.std(y))
    zero = 1e-9 * sd
    fractions = np.empty(d_max, dtype=float)
    for d in range(1, d_max + 1):
        m = t - d  # points present in both the d and d+1 embeddings
        X = _windows(y, d)[:m]
        sq = np.einsum("ij,ij->i", X, X)
        D2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.fill_diagonal(D2, np.inf)
        # the tolerance absorbs the cancellation noise of the expansion above
        tol2 = zero * zero + 8.0 * np.finfo(float).eps * (sq[:, None] + sq[None, :])
        is_zero = D2 <= tol2
        has_dup = is_zero.any(axis=1)
        nn = np.where(has_dup, np.argmax(is_zero, axis=1), np.argmin(D2, axis=1))
        idx = np.arange(m)
        extra = np.abs(y[idx + d] - y[nn + d])
        dist = np.sqrt(np.maximum(D2[idx, nn], 0.0))
        dup_false = has_dup & (extra > zero)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_false = extra / dist > R_TOL
        lonely = np.sqrt(dist**2 + extra**2) > A_TOL * sd
        plain_false = ~has_dup & (ratio_false | lonely)
        fractions[d - 1] = float(np.count_nonzero(dup_false | plain_false)) / m
    return fractions


def estimate_embedding_dimension(
    series: TimeSeries, d_max: int = 30, tolerance: float = 0.01
) -> int:
    """Smallest dimension whose false-neighbour fraction drops to ``tolerance``.

    Falls back to ``d_max`` (with a warning) when no dimension qualifies.
    Deterministic for a fixed series.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    fractions = fnn_fractions(series, d_max)
    qualifying = np.flatnonzero(fractions <= tolerance)
    if qualifying.size:
        return int(qualifying[0]) + 1
    warnings.warn(
        f"false-neighbour fraction stayed above {tolerance:g} up to d_max={d_max}; "
        "returning d_max",
        stacklevel=2,
    )
    return d_max
