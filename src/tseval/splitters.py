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

Each iteration holds its train, test and gap rows as strictly increasing,
read-only integer arrays, ready to index the embedded rows with. ``gap``
only records the rows a method keeps out of both sides (empty for most
methods); nothing reads it to fit or score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CV_METHODS",
    "OOS_METHODS",
    "METHODS",
    "EmptyTrainingSetError",
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


def _overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two strictly increasing index arrays share an entry."""
    if not (a.size and b.size) or a[-1] < b[0] or b[-1] < a[0]:
        return False
    return bool((a.searchsorted(b, "right") != a.searchsorted(b)).any())


@dataclass(frozen=True, eq=False)
class Iteration:
    """One train/test assignment; ``gap`` holds rows excluded from both."""

    train: np.ndarray
    test: np.ndarray
    gap: np.ndarray = ()

    def __post_init__(self) -> None:
        for name in ("train", "test", "gap"):
            part = np.asarray(getattr(self, name), dtype=np.intp)
            if part.ndim != 1 or (part[1:] <= part[:-1]).any():
                raise ValueError(f"{name} must be a strictly increasing index sequence")
            part.flags.writeable = False
            object.__setattr__(self, name, part)
        if not self.train.size or not self.test.size:
            raise ValueError("train and test must be non-empty")
        if _overlap(self.train, self.test):
            raise ValueError("train and test overlap")
        if _overlap(self.gap, self.train) or _overlap(self.gap, self.test):
            raise ValueError("gap overlaps train or test")


@dataclass(frozen=True, eq=False)
class ResamplingPlan:
    method: str
    n: int
    iterations: tuple[Iteration, ...]

    def __post_init__(self) -> None:
        for it in self.iterations:
            for part in (it.train, it.test, it.gap):
                if part.size and (part[0] < 0 or part[-1] >= self.n):
                    raise ValueError(f"index out of range [0, {self.n})")


def _rows(n: int) -> np.ndarray:
    """Read-only 0..n-1; contiguous parts are slices (views) of it."""
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


def _block_bounds(n: int, K: int) -> np.ndarray:
    """K+1 boundaries of the contiguous block partition of [0, n)."""
    base, rem = divmod(n, K)
    sizes = np.full(K, base, dtype=int)
    sizes[:rem] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


def _check_k(n: int, K: int, minimum: int = 2) -> None:
    if K < minimum:
        raise ValueError(f"K must be >= {minimum}, got {K}")
    if K > n:
        raise ValueError(f"K={K} exceeds row count n={n}")


def plan_cv(n: int, K: int, seed: int | None = None) -> ResamplingPlan:
    """Randomized K-fold cross-validation over a seeded shuffle of the rows.

    The folds are the K blocks of ``default_rng(seed).permutation(n)``, each
    sorted.
    """
    _check_k(n, K)
    order = np.random.default_rng(seed).permutation(n)
    bounds = _block_bounds(n, K)
    iterations = []
    for i in range(K):
        test = np.sort(order[bounds[i] : bounds[i + 1]])
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        iterations.append(Iteration(np.flatnonzero(mask), test))
    return ResamplingPlan("CV", n, tuple(iterations))


def plan_cv_bl(n: int, K: int) -> ResamplingPlan:
    """Blocked K-fold cross-validation: contiguous test blocks, no shuffling."""
    _check_k(n, K)
    rows = _rows(n)
    b = _block_bounds(n, K)
    iterations = [
        Iteration(np.concatenate((rows[: b[i]], rows[b[i + 1] :])), rows[b[i] : b[i + 1]])
        for i in range(K)
    ]
    return ResamplingPlan("CV-Bl", n, tuple(iterations))


def _remove_near(base: ResamplingPlan, p: int, method: str) -> ResamplingPlan:
    if p < 1:
        raise ValueError("removal radius p must be >= 1")
    iterations = []
    for k, it in enumerate(base.iterations):
        near = np.abs(it.train[:, None] - it.test[None, :]).min(axis=1) <= p
        if near.all():
            raise EmptyTrainingSetError(
                f"{method}: empty training set in iteration {k} "
                f"(removal radius {p} covers every training row)"
            )
        iterations.append(Iteration(it.train[~near], it.test, it.train[near]))
    return ResamplingPlan(method, base.n, tuple(iterations))


def plan_cv_mod(n: int, K: int, p: int, seed: int | None = None) -> ResamplingPlan:
    """Randomized CV with training rows within radius p of any test row removed."""
    base = plan_cv(n, K, seed)
    return _remove_near(base, p, "CV-Mod")


def plan_cv_hvbl(n: int, K: int, p: int) -> ResamplingPlan:
    """Blocked CV with a p-row buffer removed on both sides of the test block."""
    base = plan_cv_bl(n, K)
    return _remove_near(base, p, "CV-hvBl")


def plan_holdout(n: int) -> ResamplingPlan:
    """Single chronological split: the first floor(0.7*n) rows train."""
    cut = int(np.floor(0.7 * n))
    if cut < 1:
        raise ValueError(f"train fraction 0.7 of {n} rows leaves a degenerate side")
    rows = _rows(n)
    return ResamplingPlan("Holdout", n, (Iteration(rows[:cut], rows[cut:]),))


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
    lo, hi = train_size, n - test_size
    rng = np.random.default_rng(seed)
    rows = _rows(n)
    iterations = []
    for _ in range(nreps):
        a = int(rng.integers(lo, hi + 1))
        iterations.append(Iteration(rows[a - train_size : a], rows[a : a + test_size]))
    return ResamplingPlan("Rep-Holdout", n, tuple(iterations))


def plan_preq_bls(n: int, K: int) -> ResamplingPlan:
    """Prequential in blocks, growing: train on blocks 1..i, test on block i+1."""
    _check_k(n, K)
    rows = _rows(n)
    b = _block_bounds(n, K)
    iterations = [Iteration(rows[: b[i]], rows[b[i] : b[i + 1]]) for i in range(1, K)]
    return ResamplingPlan("Preq-Bls", n, tuple(iterations))


def plan_preq_sld_bls(n: int, K: int) -> ResamplingPlan:
    """Prequential in blocks, sliding: train on block i, test on block i+1."""
    _check_k(n, K)
    rows = _rows(n)
    b = _block_bounds(n, K)
    iterations = [Iteration(rows[b[i - 1] : b[i]], rows[b[i] : b[i + 1]]) for i in range(1, K)]
    return ResamplingPlan("Preq-Sld-Bls", n, tuple(iterations))


def plan_preq_bls_gap(n: int, K: int) -> ResamplingPlan:
    """Prequential in blocks with one untouched block between train and test."""
    _check_k(n, K, minimum=3)
    rows = _rows(n)
    b = _block_bounds(n, K)
    iterations = [
        Iteration(rows[: b[i]], rows[b[i + 1] : b[i + 2]], rows[b[i] : b[i + 1]])
        for i in range(1, K - 1)
    ]
    return ResamplingPlan("Preq-Bls-Gap", n, tuple(iterations))


def plan_preq_grow(n: int) -> ResamplingPlan:
    """Exhaustive prequential with a growing window.

    Walks j over n//2, ..., n - 1; each iteration trains on [0, j) and tests
    on row j. The warm-up is half the rows: a window of only one block
    starves the learner and distorts the loss estimate far beyond what any
    of the block methods exhibit.
    """
    rows = _rows(n)
    iterations = [Iteration(rows[:j], rows[j : j + 1]) for j in range(n // 2, n)]
    return ResamplingPlan("Preq-Grow", n, tuple(iterations))


def plan_preq_slide(n: int) -> ResamplingPlan:
    """Exhaustive prequential with a sliding window of n//2 rows (half, as in
    ``plan_preq_grow``), testing each later row in turn."""
    window = n // 2
    rows = _rows(n)
    iterations = [Iteration(rows[j - window : j], rows[j : j + 1]) for j in range(window, n)]
    return ResamplingPlan("Preq-Slide", n, tuple(iterations))


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
