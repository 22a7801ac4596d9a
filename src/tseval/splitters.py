"""Resampling plans over embedded-row indices for the 11 estimation procedures.

Two families:

* cross-validation (CV, CV-Bl, CV-Mod, CV-hvBl): test folds partition the
  rows; training may use rows from the future.
* out-of-sample and prequential (Holdout, Rep-Holdout, Preq-Bls,
  Preq-Sld-Bls, Preq-Bls-Gap, Preq-Grow, Preq-Slide): every iteration
  trains strictly before it tests.

Block convention everywhere: n rows split into K contiguous blocks in
temporal order, the first (n mod K) blocks one row larger.

The study fixes every other setting. Holdout trains on the first 70% of the
rows and tests on the rest; each Rep-Holdout repetition trains on 60% of the
rows and tests on the next 10%; Preq-Sld-Bls trains on the one block before
the test block; Preq-Grow and Preq-Slide test one row at a time after a
warm-up (Preq-Grow) or sliding window (Preq-Slide) of half the rows.

A plan holds the train, test and gap rows of all its iterations as half-open
row runs (:class:`Runs`): one per window, two for blocked CV, about n/K for CV.
``gap`` only records the rows a method keeps out of both sides (empty for most
methods); nothing reads it to fit or score.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import NamedTuple

import numpy as np

__all__ = [
    "CV_METHODS",
    "OOS_METHODS",
    "METHODS",
    "EmptyTrainingSetError",
    "Runs",
    "Iteration",
    "ResamplingPlan",
    "plan_cv",
    "plan_cv_bl",
    "plan_cv_mod",
    "plan_cv_hvbl",
    "plan_holdout",
    "plan_rep_holdout",
    "plan_preq_bls",
    "plan_preq_sld_bls",
    "plan_preq_bls_gap",
    "plan_preq_grow",
    "plan_preq_slide",
    "build_plan",
]

CV_METHODS = ("CV", "CV-Bl", "CV-Mod", "CV-hvBl")
OOS_METHODS = (
    "Holdout",
    "Rep-Holdout",
    "Preq-Bls",
    "Preq-Sld-Bls",
    "Preq-Bls-Gap",
    "Preq-Grow",
    "Preq-Slide",
)
METHODS = OOS_METHODS + CV_METHODS


class EmptyTrainingSetError(ValueError):
    """Raised when proximity removal leaves an iteration without training rows."""


@dataclass(frozen=True, eq=False)
class Runs:
    """Row runs [lo, hi) of each iteration, in compressed sparse row form:
    iteration i holds runs ``start[i]:start[i + 1]``, each non-empty,
    non-negative and starting after a gap of at least one row from the last."""

    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "start"):
            array = np.array(getattr(self, name), dtype=np.intp)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        lo, hi, start = self.lo, self.hi, self.start
        if not (lo.ndim == hi.ndim == start.ndim == 1 and lo.size == hi.size and start.size
                and start[0] == 0 and start[-1] == lo.size and (start[1:] >= start[:-1]).all()):
            raise ValueError("run offsets must rise from 0 to the number of runs")
        floor = np.concatenate(([-1], hi))  # what run j must start above: hi[j - 1],
        floor[start] = -1  # or -1 for the first run of an iteration
        if not ((lo > floor[:-1]) & (hi > lo)).all():
            raise ValueError("runs must be non-empty, non-negative, increasing and separated")

    def __len__(self) -> int:
        """The number of iterations."""
        return self.start.size - 1

    def owner(self) -> np.ndarray:
        """The iteration of each run."""
        return np.repeat(np.arange(len(self)), self.start[1:] - self.start[:-1])

    def sizes(self) -> np.ndarray:
        """Rows per iteration."""
        total = np.concatenate(([0], np.cumsum(self.hi - self.lo)))
        return np.diff(total[self.start])

    def rows(self) -> np.ndarray:
        """Every iteration's rows in turn, each iteration's increasing."""
        length = self.hi - self.lo
        return np.repeat(self.lo - (np.cumsum(length) - length), length) + np.arange(length.sum())


class Iteration(NamedTuple):
    """One iteration's rows, expanded from a plan's runs."""

    train: np.ndarray
    test: np.ndarray
    gap: np.ndarray


@dataclass(frozen=True, eq=False)
class ResamplingPlan:
    """One method's train, test and gap runs over n rows (no gap by default),
    validated once: within [0, n), non-empty train and test, no shared rows."""

    method: str
    n: int
    train: Runs
    test: Runs
    gap: Runs | None = None

    def __post_init__(self) -> None:
        if self.gap is None:
            object.__setattr__(self, "gap", Runs((), (), np.zeros(len(self.test) + 1, np.intp)))
        parts = (self.train, self.test, self.gap)
        if len({len(part) for part in parts}) > 1:
            raise ValueError("train, test and gap must have the same number of iterations")
        lo, hi = (np.concatenate([getattr(part, name) for part in parts]) for name in ("lo", "hi"))
        if hi.max(initial=0) > self.n:
            raise ValueError(f"index out of range [0, {self.n})")
        if not all((part.start[1:] > part.start[:-1]).all() for part in parts[:2]):
            raise ValueError("train and test must be non-empty")
        # row r of iteration i at i * (n + 1) + r: one sorted line of runs, merged
        # in linear time from the three parts' increasing runs by a stable sort
        shift = np.concatenate([part.owner() for part in parts]) * (self.n + 1)
        lo, hi = lo + shift, hi + shift
        order = np.argsort(lo, kind="stable")
        if (lo[order[1:]] < hi[order[:-1]]).any():
            raise ValueError("train, test and gap rows overlap")

    @cached_property
    def iterations(self) -> tuple[Iteration, ...]:
        """Each iteration's rows as strictly increasing, read-only ``intp``
        arrays, each a slice of one array per part (see ``_views``)."""
        rows = np.arange(self.n, dtype=np.intp)
        rows.flags.writeable = False
        parts = [_views(part, rows) for part in (self.train, self.test, self.gap)]
        return tuple(map(Iteration, *parts))


def _views(runs: Runs, rows: np.ndarray) -> list[np.ndarray]:
    """Each iteration's rows as a slice of one read-only array: of ``rows``
    where no iteration has more than one run, else of the part's expansion."""
    counts = runs.start[1:] - runs.start[:-1]
    if counts.max(initial=0) <= 1:
        lo, hi = runs.lo.tolist(), runs.hi.tolist()
        return [rows[lo[s] : hi[s]] if c else rows[:0]
                for s, c in zip(runs.start.tolist(), counts.tolist())]
    flat = runs.rows()
    flat.flags.writeable = False
    ends = np.concatenate(([0], np.cumsum(runs.sizes()))).tolist()
    return [flat[a:b] for a, b in pairwise(ends)]


def _runs(lo: np.ndarray, hi: np.ndarray, bounds: np.ndarray) -> Runs:
    """The non-empty ones of the candidate runs [lo, hi), where iteration i
    has candidates ``bounds[i]:bounds[i + 1]``."""
    keep = lo < hi
    return Runs(lo[keep], hi[keep], np.concatenate(([0], np.cumsum(keep)))[bounds])


def _windows(method: str, n: int, *parts) -> ResamplingPlan:
    """A plan of one run per iteration in each of train, test and gap, each
    part given as (lo, hi) arrays; empty runs are dropped."""
    bounds = np.arange(len(parts[0][0]) + 1)
    return ResamplingPlan(method, n, *(_runs(np.asarray(lo), np.asarray(hi), bounds)
                                       for lo, hi in parts))


def _block_bounds(n: int, K: int) -> np.ndarray:
    """K+1 boundaries of the contiguous block partition of [0, n)."""
    i = np.arange(K + 1)
    return i * (n // K) + np.minimum(i, n % K)


def _check_k(n: int, K: int, minimum: int = 2, radius: int = 1) -> None:
    if K < minimum:
        raise ValueError(f"K must be >= {minimum}, got {K}")
    if K > n:
        raise ValueError(f"K={K} exceeds row count n={n}")
    if radius < 1:
        raise ValueError("removal radius p must be >= 1")


def _cv(method: str, n: int, K: int, order: np.ndarray, p: int = 0) -> ResamplingPlan:
    """K-fold CV whose test folds are the K blocks of ``order``, each sorted.
    A fold trains on the stretches [a, b) of rows around its runs, less the
    rows within p of a test row: [a + p, b - p), but not past 0 or n. The rest
    of a stretch is gap."""
    fold = np.empty(n, dtype=np.intp)
    fold[order] = np.repeat(np.arange(K), np.diff(_block_bounds(n, K)))
    edges = np.flatnonzero(fold[1:] != fold[:-1]) + 1
    lo, hi = np.concatenate(([0], edges)), np.concatenate((edges, [n]))
    by_fold = np.argsort(fold[lo], kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(fold[lo], minlength=K))))
    test = Runs(lo[by_fold], hi[by_fold], start)
    # per fold, the stretches before its first run, between its runs and after its last
    a, b = np.insert(test.hi, start[:-1], 0), np.insert(test.lo, start[1:], n)
    bounds = start + np.arange(K + 1)
    kept_lo, kept_hi = a + p * (a > 0), b - p * (b < n)
    train = _runs(kept_lo, kept_hi, bounds)
    empty = np.flatnonzero(np.diff(train.start) == 0)
    if empty.size:
        raise EmptyTrainingSetError(
            f"{method}: empty training set in iteration {empty[0]} "
            f"(removal radius {p} covers every training row)"
        )
    if not p:
        return ResamplingPlan(method, n, train, test)
    # [a, kept_lo) and [kept_hi, b); all of [a, b) where nothing is kept
    kept = kept_lo < kept_hi
    gap_lo = np.column_stack((a, np.where(kept, kept_hi, b))).ravel()
    gap_hi = np.column_stack((np.where(kept, kept_lo, b), b)).ravel()
    return ResamplingPlan(method, n, train, test, _runs(gap_lo, gap_hi, 2 * bounds))


def plan_cv(n: int, K: int, seed: int | None = None) -> ResamplingPlan:
    """Randomized K-fold cross-validation over a seeded shuffle of the rows.

    The folds are the K blocks of ``default_rng(seed).permutation(n)``, each
    sorted.
    """
    _check_k(n, K)
    return _cv("CV", n, K, np.random.default_rng(seed).permutation(n))


def plan_cv_bl(n: int, K: int) -> ResamplingPlan:
    """Blocked K-fold cross-validation: contiguous test blocks, no shuffling."""
    _check_k(n, K)
    return _cv("CV-Bl", n, K, np.arange(n))


def plan_cv_mod(n: int, K: int, p: int, seed: int | None = None) -> ResamplingPlan:
    """Randomized CV with training rows within radius p of any test row removed."""
    _check_k(n, K, radius=p)
    return _cv("CV-Mod", n, K, np.random.default_rng(seed).permutation(n), p)


def plan_cv_hvbl(n: int, K: int, p: int) -> ResamplingPlan:
    """Blocked CV with a p-row buffer removed on both sides of the test block."""
    _check_k(n, K, radius=p)
    return _cv("CV-hvBl", n, K, np.arange(n), p)


def plan_holdout(n: int) -> ResamplingPlan:
    """Single chronological split: the first floor(0.7*n) rows train."""
    cut = int(np.floor(0.7 * n))
    if cut < 1:
        raise ValueError(f"train fraction 0.7 of {n} rows leaves a degenerate side")
    return _windows("Holdout", n, ([0], [cut]), ([cut], [n]))


def plan_rep_holdout(n: int, nreps: int = 10, seed: int | None = None) -> ResamplingPlan:
    """Repeated holdout at nreps random cut points.

    Each repetition draws a cut ``a`` uniformly from the integers
    [train_size, n - test_size] (both ends included), where train_size is
    floor(0.6*n) and test_size floor(0.1*n); it trains on the train_size
    rows before ``a`` and tests on the test_size rows from ``a``.
    """
    if nreps < 1:
        raise ValueError("nreps must be >= 1")
    train_size = int(np.floor(0.6 * n))
    test_size = int(np.floor(0.1 * n))
    if train_size < 1 or test_size < 1:
        raise ValueError(f"window fractions (0.6, 0.1) are infeasible for n={n}")
    a = np.random.default_rng(seed).integers(train_size, n - test_size + 1, size=nreps)
    return _windows("Rep-Holdout", n, (a - train_size, a), (a, a + test_size))


def plan_preq_bls(n: int, K: int) -> ResamplingPlan:
    """Prequential in blocks, growing: train on blocks 1..i, test on block i+1."""
    _check_k(n, K)
    b = _block_bounds(n, K)
    return _windows("Preq-Bls", n, (np.zeros_like(b[1:-1]), b[1:-1]), (b[1:-1], b[2:]))


def plan_preq_sld_bls(n: int, K: int) -> ResamplingPlan:
    """Prequential in blocks, sliding: train on block i, test on block i+1."""
    _check_k(n, K)
    b = _block_bounds(n, K)
    return _windows("Preq-Sld-Bls", n, (b[:-2], b[1:-1]), (b[1:-1], b[2:]))


def plan_preq_bls_gap(n: int, K: int) -> ResamplingPlan:
    """Prequential in blocks with one untouched block between train and test."""
    _check_k(n, K, minimum=3)
    b = _block_bounds(n, K)
    return _windows("Preq-Bls-Gap", n, (np.zeros_like(b[1:-2]), b[1:-2]), (b[2:-1], b[3:]),
                    (b[1:-2], b[2:-1]))


def plan_preq_grow(n: int) -> ResamplingPlan:
    """Exhaustive prequential with a growing window.

    Walks j over n//2, ..., n - 1; each iteration trains on [0, j) and tests
    on row j. The warm-up is half the rows: a window of only one block
    starves the learner and distorts the loss estimate far beyond what any
    of the block methods exhibit.
    """
    j = np.arange(n // 2, n)
    return _windows("Preq-Grow", n, (np.zeros_like(j), j), (j, j + 1))


def plan_preq_slide(n: int) -> ResamplingPlan:
    """Exhaustive prequential with a sliding window of n//2 rows (half, as in
    ``plan_preq_grow``), testing each later row in turn."""
    j = np.arange(n // 2, n)
    return _windows("Preq-Slide", n, (j - n // 2, j), (j, j + 1))


def build_plan(
    method: str,
    n: int,
    *,
    K: int = 10,
    p: int = 1,
    nreps: int = 10,
    seed: int | None = None,
) -> ResamplingPlan:
    """Dispatch to the named procedure; only K, p, nreps and seed vary."""
    if method == "CV":
        return plan_cv(n, K, seed)
    if method == "CV-Bl":
        return plan_cv_bl(n, K)
    if method == "CV-Mod":
        return plan_cv_mod(n, K, p, seed)
    if method == "CV-hvBl":
        return plan_cv_hvbl(n, K, p)
    if method == "Holdout":
        return plan_holdout(n)
    if method == "Rep-Holdout":
        return plan_rep_holdout(n, nreps, seed=seed)
    if method == "Preq-Bls":
        return plan_preq_bls(n, K)
    if method == "Preq-Sld-Bls":
        return plan_preq_sld_bls(n, K)
    if method == "Preq-Bls-Gap":
        return plan_preq_bls_gap(n, K)
    if method == "Preq-Grow":
        return plan_preq_grow(n)
    if method == "Preq-Slide":
        return plan_preq_slide(n)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
