"""Resampling plans over embedded-row indices for the 11 estimation procedures.

Blocks everywhere: n rows split into K contiguous blocks in temporal order,
the first (n mod K) blocks one row larger. In cross-validation the test folds
partition the rows, and training may use rows from the future:

* CV: the folds are the K blocks of ``default_rng(seed).permutation(n)``,
  each sorted.
* CV-Bl: the folds are the K blocks.
* CV-Mod: CV, less the training rows within p of a test row.
* CV-hvBl: CV-Bl, less the p rows on each side of the test block.

The out-of-sample and prequential methods train strictly before they test:

* Holdout: train on the first floor(0.7 n) rows, test on the rest.
* Rep-Holdout: nreps times, draw a cut ``a`` uniformly from the integers
  [floor(0.6 n), n - floor(0.1 n)]; train on the floor(0.6 n) rows before
  ``a`` and test on the floor(0.1 n) rows from ``a``.
* Preq-Bls: train on blocks 1..i, test on block i+1.
* Preq-Sld-Bls: train on block i, test on block i+1.
* Preq-Bls-Gap: train on blocks 1..i, keep block i+1 out, test on block i+2.
* Preq-Grow: for j = n//2, ..., n - 1, train on [0, j) and test on row j. A
  warm-up of only one block starves the learner and distorts the loss
  estimate far beyond what any of the block methods exhibit.
* Preq-Slide: the same j, training on the n//2 rows before j.

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

    @classmethod
    def stack(cls, parts) -> Runs:
        """The iterations of each of ``parts`` in turn, numbered on from part to part."""
        offsets = np.cumsum([0] + [part.lo.size for part in parts])
        return cls(np.concatenate([part.lo for part in parts]),
                   np.concatenate([part.hi for part in parts]),
                   np.concatenate([[0]] + [part.start[1:] + a for part, a in zip(parts, offsets)]))

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


def _check_k(n: int, K: int, minimum: int = 2) -> None:
    if K < minimum:
        raise ValueError(f"K must be >= {minimum}, got {K}")
    if K > n:
        raise ValueError(f"K={K} exceeds row count n={n}")


def _cv(method: str, n: int, K: int, order: np.ndarray, p: int) -> ResamplingPlan:
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


def build_plan(
    method: str,
    n: int,
    *,
    K: int = 10,
    p: int = 1,
    nreps: int = 10,
    seed: int | None = None,
) -> ResamplingPlan:
    """The named method's plan over n rows (see the module docstring). K is read
    by the four CV methods, Preq-Bls, Preq-Sld-Bls and Preq-Bls-Gap; p by CV-Mod
    and CV-hvBl; nreps by Rep-Holdout; seed by CV, CV-Mod and Rep-Holdout.
    Holdout, Preq-Grow and Preq-Slide read none of them."""
    if method in CV_METHODS:
        _check_k(n, K)
        removal = method in ("CV-Mod", "CV-hvBl")
        if removal and p < 1:
            raise ValueError("removal radius p must be >= 1")
        shuffled = method in ("CV", "CV-Mod")
        order = np.random.default_rng(seed).permutation(n) if shuffled else np.arange(n)
        return _cv(method, n, K, order, p if removal else 0)
    if method == "Holdout":
        cut = int(np.floor(0.7 * n))
        if cut < 1:
            raise ValueError(f"train fraction 0.7 of {n} rows leaves a degenerate side")
        return _windows(method, n, ([0], [cut]), ([cut], [n]))
    if method == "Rep-Holdout":
        if nreps < 1:
            raise ValueError("nreps must be >= 1")
        train_size = int(np.floor(0.6 * n))
        test_size = int(np.floor(0.1 * n))
        if train_size < 1 or test_size < 1:
            raise ValueError(f"window fractions (0.6, 0.1) are infeasible for n={n}")
        a = np.random.default_rng(seed).integers(train_size, n - test_size + 1, size=nreps)
        return _windows(method, n, (a - train_size, a), (a, a + test_size))
    if method in ("Preq-Bls", "Preq-Sld-Bls", "Preq-Bls-Gap"):
        _check_k(n, K, minimum=3 if method == "Preq-Bls-Gap" else 2)
        b = _block_bounds(n, K)
        if method == "Preq-Bls":
            return _windows(method, n, (np.zeros_like(b[1:-1]), b[1:-1]), (b[1:-1], b[2:]))
        if method == "Preq-Sld-Bls":
            return _windows(method, n, (b[:-2], b[1:-1]), (b[1:-1], b[2:]))
        return _windows(method, n, (np.zeros_like(b[1:-2]), b[1:-2]), (b[2:-1], b[3:]),
                        (b[1:-2], b[2:-1]))
    if method in ("Preq-Grow", "Preq-Slide"):
        j = np.arange(n // 2, n)
        lo = np.zeros_like(j) if method == "Preq-Grow" else j - n // 2
        return _windows(method, n, (lo, j), (j, j + 1))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
