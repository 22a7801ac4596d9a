"""Regression learners behind a single fit/predict contract.

Two learners: an L1-penalised linear model (lasso) on internally
standardized predictors, and k-nearest-neighbours averaging. Both are
deterministic. The lasso is solved exactly by following its piecewise-linear
path from lambda_max down to the penalty (the homotopy / LARS-lasso method),
one active-set solve per breakpoint, so near-collinear predictors such as the
lags of a random walk cost no more than well-conditioned ones.

One engine solves every lasso: it follows the paths of a stack of problems
in lockstep, one stacked solve per breakpoint, and each problem's arithmetic
is its own, so a fit does not depend on what else was in the stack. ``fit``
gives it one problem. :func:`fit_lasso_folds` gives it every training set of
every resampling plan of a problem, each plan's sets given as its train row
runs, in calls of at most 128 sets that may span plans. Each set's means,
standardized Gram matrix and correlations come from prefix sums of the rows
and their outer products, one per plan, summed over the set's runs. Sets of
fewer than two rows, and sets in which a column's variance is too small a
share of its second moment for prefix sums to resolve, are left to
:func:`fit`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .embedding import nearest_rows

__all__ = [
    "LearnerSpec",
    "LassoModel",
    "KnnModel",
    "LassoFolds",
    "fit",
    "fit_lasso_folds",
    "predict",
    "lambda_max",
    "kkt_violation",
]


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative learner configuration.

    ``lam`` is the L1 penalty on standardized predictors; ``None`` picks
    0.01 * lambda_max of the training fold, so the model is close to an
    ordinary least-squares fit without ever being ill-posed.

    ``tol`` is the fixed acceptance test, not a field: a fit whose KKT
    residual (see :func:`kkt_violation`) exceeds 10 * tol, or whose path
    needs more than ``MAX_ITER`` breakpoints (a coefficient joining or leaving
    the active set), warns with a ``UserWarning``. k-NN ignores it.
    """

    kind: str = "lasso"
    lam: float | None = None
    k: int = 5
    tol: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in ("lasso", "knn"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.lam is not None and not self.lam >= 0:
            raise ValueError("lam must be non-negative")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True, eq=False)
class LassoModel:
    """Linear fit in the original units, plus the standardized solution and
    penalty that :func:`kkt_violation` checks."""

    p: int
    coefficients: np.ndarray
    intercept: float
    std_coefficients: np.ndarray
    column_means: np.ndarray
    column_scales: np.ndarray
    lam: float


@dataclass(frozen=True, eq=False)
class KnnModel:
    """The training rows that k-NN averages over."""

    predictors: np.ndarray
    targets: np.ndarray
    k: int

    @property
    def p(self) -> int:
        return self.predictors.shape[1]


def _validate_xy(predictors, targets) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(predictors, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValueError(f"{X.shape[0]} predictor rows but {y.size} targets")
    if y.size == 0:
        raise ValueError("empty training set")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training values")
    return X, y


def lambda_max(predictors, targets) -> float:
    """Smallest penalty that zeroes every coefficient: max_j |<x_j, y>| / n
    on standardized predictors and centered targets."""
    X, y = _validate_xy(predictors, targets)
    if y.size < 2 or X.shape[1] == 0:
        return 0.0
    *_, c = _standardized_gram(X, y)
    return float(np.max(np.abs(c)))


def _standardized_gram(
    X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column means and standard deviations of X, and the Gram matrix
    G = Xs'Xs / n and correlations c = Xs'(y - mean y) / n of the
    standardized predictors Xs. A constant column keeps scale 1, so its Xs
    column, G row and c entry are zero."""
    n = y.size
    mu = X.mean(axis=0)
    Xc = X - mu
    S = Xc.T @ Xc / n
    sigma = np.sqrt(S.diagonal())
    scales = np.where(sigma > 0, sigma, 1.0)
    return mu, sigma, S / np.outer(scales, scales), (y - y.mean()) @ Xc / (n * scales)


def _kkt_residual(grad: np.ndarray, beta: np.ndarray, lam, live: np.ndarray) -> np.ndarray:
    """Worst stationarity residual of each problem (last axis): |grad_j| must
    equal its ``lam`` where beta_j is non-zero and must not exceed it on the
    other live coefficients."""
    excess = np.abs(grad) - np.asarray(lam)[..., None]
    residual = np.where(beta != 0, np.abs(excess), np.where(live, excess, 0.0))
    return np.max(residual, axis=-1, initial=0.0)


# The lasso path warns when it needs more breakpoints than this.
MAX_ITER = 1000

# A column whose residual on the active columns keeps less than this share of
# its squared norm is treated as a combination of them and never joins.
_SPAN_TOL = 1e-10


def _lasso_paths(
    G: np.ndarray, c: np.ndarray, lam: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimise 0.5 b'G_f b - c_f'b + lam_f |b|_1 for each problem f of a
    stack by following its lasso path from lambda_max down to lam_f (homotopy
    / LARS-lasso; Osborne, Presnell and Turlach 2000, Efron et al. 2004).

    Between breakpoints the active coefficients are b_A(t) = u - t w with
    G_AA [u, w] = [c_A, s_A], and every gradient c - G b is r + t a, so each
    step solves the active system once and jumps to the next breakpoint: a
    coefficient joining at |gradient| = t, or one reaching zero. The problems
    step in lockstep, with one stacked solve per step in which each problem's
    inactive rows and columns are the identity's, and each leaves the stack
    once it reaches its penalty. No problem's arithmetic reads another's, so
    a solution does not depend on the stack it was solved in.
    A live column that is (numerically) a combination of the active ones
    never joins, so G_AA stays non-singular; its gradient then follows the
    active ones. Returns the coefficients and whether each problem reached
    its penalty within ``MAX_ITER`` breakpoints.
    """
    F, p = c.shape
    beta = np.zeros((F, p))
    reached = np.ones(F, dtype=bool)
    magnitude = np.where(live, np.abs(c), 0.0)
    level = np.max(magnitude, axis=1, initial=0.0)  # lambda_max: beta = 0 down to here
    go = np.flatnonzero(level > lam)
    if not go.size:  # every solution is zero, as when there are no columns
        return beta, reached
    level, lam, live = level[go], lam[go], live[go]
    # rows [c_j, s_j, G_j] of each problem: the right-hand sides of its active system
    rows = np.concatenate([c[go, :, None], np.zeros((go.size, p, 1)), G[go]], axis=2)
    at = np.arange(go.size)
    col = np.argmax(magnitude[go], axis=1)  # the column of each problem's last event
    rows[at, col, 1] = np.sign(rows[at, col, 0])
    was = np.zeros(go.size)  # that column's sign before the event: 0 if it joined
    identity = np.eye(p)
    for step in range(MAX_ITER + 1):
        if not go.size:
            break
        active = rows[:, :, 1] != 0
        rhs = np.where(active[:, :, None], rows, 0.0)
        system = np.where(active[:, :, None] & active[:, None, :], rows[:, :, 2:], identity)
        solved = np.linalg.solve(system, rhs)
        u, w = solved[:, :, 0], solved[:, :, 1]
        ra = np.swapaxes(rhs[:, :, 2:], 1, 2) @ solved[:, :, :2]
        r, a = rows[:, :, 0] - ra[:, :, 0], ra[:, :, 1]
        # a column in the span of the active ones would make G_AA singular
        diag = rows[:, :, 2:].diagonal(axis1=1, axis2=2)
        span = np.sum(rhs[:, :, 2:] * solved[:, :, 2:], axis=1)
        free = live & ~active & (diag - span > _SPAN_TOL * diag)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(free & (a < 1.0), r / (1.0 - a), -np.inf)
            down = np.where(free & (a > -1.0), -r / (1.0 + a), -np.inf)
            to_zero = np.where(rows[:, :, 1] * w < 0.0, u / w, -np.inf)
        # A coefficient that just left may re-enter only at the opposite
        # bound, and one that just joined cannot leave before it has moved.
        # The direction tests above imply both in exact arithmetic; stating
        # them keeps rounding at a = +-1 or w = 0 from undoing a breakpoint,
        # which would cycle.
        up[was > 0, col[was > 0]] = -np.inf
        down[was < 0, col[was < 0]] = -np.inf
        to_zero[was == 0, col[was == 0]] = -np.inf
        events = np.stack([up, down, to_zero])
        nearest = events.max(axis=2)
        kind = np.argmax(nearest, axis=0)
        level = np.minimum(nearest[kind, at], level)
        done = level <= lam
        if step == MAX_ITER:  # out of breakpoints: stop on the current active set
            reached[go[~done]] = False
            done[:] = True
        beta[go[done]] = np.where(active, u - lam[:, None] * w, 0.0)[done]
        col = np.argmax(events[kind, at], axis=1)
        was = np.where(kind == 2, rows[at, col, 1], 0.0)
        rows[at, col, 1] = np.array([1.0, -1.0, 0.0])[kind]
        if done.any():
            keep = ~done
            go, rows, col, was, level, lam, live = (
                x[keep] for x in (go, rows, col, was, level, lam, live))
            at = at[: go.size]
    return beta, reached


def _lasso_fits(
    spec: LearnerSpec, G: np.ndarray, c: np.ndarray, live: np.ndarray, stacklevel: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of standardized lasso problems in one lockstep call, at
    ``spec.lam`` or by default 0.01 * max_j |c_j| of each problem. Warns, at
    the caller of ``fit`` or of ``run_plan`` (``stacklevel``), when a solution
    misses ``spec``'s acceptance test. Returns the coefficients and the
    penalties."""
    if spec.lam is None:
        lam = 0.01 * np.max(np.abs(c), axis=1, initial=0.0)
    else:
        lam = np.full(len(c), spec.lam)
    beta, reached = _lasso_paths(G, c, lam, live)
    grad = c - (G @ beta[:, :, None])[:, :, 0]
    if not (reached.all() and np.all(_kkt_residual(grad, beta, lam, live) <= 10.0 * spec.tol)):
        warnings.warn(
            f"lasso path did not meet tol={spec.tol:g} within max_iter={MAX_ITER} steps",
            stacklevel=stacklevel,
        )
    return beta, lam


def _fit_lasso(spec: LearnerSpec, X: np.ndarray, y: np.ndarray) -> LassoModel:
    p = X.shape[1]
    mu, sigma, G, c = _standardized_gram(X, y)
    live = sigma > 0
    scales = np.where(live, sigma, 1.0)
    # with fewer than two rows, no columns or only constant ones, c is zero, and the
    # path returns the intercept-only model
    beta, lam = _lasso_fits(spec, G[None], c[None], live[None])
    coef = beta[0] / scales
    return LassoModel(
        p=p,
        coefficients=coef,
        intercept=float(y.mean()) - float(coef @ mu),
        std_coefficients=beta[0],
        column_means=mu,
        column_scales=scales,
        lam=float(lam[0]),
    )


# A set in which some column's variance is at most this share of its second
# moment about the dataset mean would lose more than half its digits to
# cancellation in the prefix-sum moments; it is left to ``fit``, which also
# detects constant columns exactly.
_MOMENT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LassoFolds:
    """Lasso fits of a stack of training sets, one row per set, in the
    original units. Rows where ``fitted`` is False are NaN: those sets are
    left for :func:`fit`."""

    coefficients: np.ndarray
    intercepts: np.ndarray
    fitted: np.ndarray


# Sets per lockstep call: enough to share a call's fixed cost, few enough
# that its arrays stay small whatever p.
_STACK = 128


def fit_lasso_folds(spec: LearnerSpec, predictors, targets, stack) -> list[LassoFolds]:
    """Fit the lasso on every training set of each entry of ``stack``, given
    as row runs into the predictors and targets (:class:`~tseval.splitters.Runs`,
    as a plan's ``train``); returns one :class:`LassoFolds` per entry. See the
    module docstring for the method; each solved set equals ``fit`` on the
    set's rows within the solver's tolerance, whatever else is in the stack."""
    if spec.kind != "lasso":
        raise ValueError("fit_lasso_folds fits the lasso only")
    if not all(np.diff(trains.start).all() for trains in stack):
        raise ValueError("empty training set")
    X, y = _validate_xy(predictors, targets)
    Z = np.column_stack([X, y])
    shift = Z.mean(axis=0)
    Z -= shift
    starts = np.cumsum([0, *(len(trains.start) - 1 for trains in stack)])
    coefficients = np.full((starts[-1], X.shape[1]), np.nan)
    intercepts = np.full(starts[-1], np.nan)
    fits, waiting = [], None
    for i, trains in enumerate(stack):
        fitted, waiting = _plan_sets(Z, shift, trains, starts[i], waiting)
        rows = slice(starts[i], starts[i + 1])
        fits.append(LassoFolds(coefficients[rows], intercepts[rows], fitted))
        # the last plan's sets all go; before it, only full calls, and the
        # rest wait for the next plan's sets, copied off this plan's arrays
        ready = waiting[0].size if i == len(stack) - 1 else waiting[0].size // _STACK * _STACK
        for a in range(0, ready, _STACK):
            _solve_sets(spec, [x[a : a + _STACK] for x in waiting], coefficients, intercepts)
        waiting = [x[ready:].copy() for x in waiting]
    return fits


def _plan_sets(Z: np.ndarray, shift: np.ndarray, trains, first: int, waiting) -> tuple:
    """Which of a plan's training sets are fitted, and the sets to solve:
    ``waiting`` then the plan's, each with its row in the stack (the plan's
    first is ``first``), scales, offsets to the original units, Gram matrix
    and correlations. A set's moments of Z = [X, y] - ``shift`` are the
    differences of one prefix sum of [1, z][1, z]' over its runs."""
    n, q = Z.shape
    W = np.column_stack([np.ones(n), Z])
    prefix = np.zeros((n + 1, q + 1, q + 1))
    np.cumsum(W[:, :, None] * W[:, None, :], axis=0, out=prefix[1:])
    runs = prefix[trains.hi]
    runs -= prefix[trains.lo]
    sums = np.add.reduceat(runs, trains.start[:-1])
    del prefix, runs  # before the moments' temporaries
    count = sums[:, 0, 0]
    moments = sums / count[:, None, None]
    mean = moments[:, 0, 1:]
    cov = moments[:, 1:, 1:] - mean[:, :, None] * mean[:, None, :]
    var = cov.diagonal(axis1=1, axis2=2)
    raw = moments[:, 1:, 1:].diagonal(axis1=1, axis2=2)
    fitted = (count >= 2) & np.all(var > _MOMENT_TOL * raw, axis=1)
    solved = np.flatnonzero(fitted)
    p = q - 1
    sigma = np.sqrt(var[solved, :p])
    G = cov[solved, :p, :p] / (sigma[:, :, None] * sigma[:, None, :])
    c = cov[solved, :p, p] / sigma
    part = (first + solved, sigma, mean[solved, :p] + shift[:p], mean[solved, p] + shift[p], G, c)
    return fitted, part if waiting is None else [np.concatenate(x) for x in zip(waiting, part)]


def _solve_sets(spec: LearnerSpec, sets, coefficients, intercepts) -> None:
    """Solve the sets of one lockstep call (see :func:`_plan_sets`) and write
    their fits in the original units at their rows of ``coefficients`` and
    ``intercepts``."""
    rows, sigma, x_offset, y_offset, G, c = sets
    beta, _ = _lasso_fits(spec, G, c, np.ones_like(c, dtype=bool), stacklevel=5)
    coefficients[rows] = beta / sigma
    intercepts[rows] = y_offset - np.einsum("ij,ij->i", coefficients[rows], x_offset)


def fit(spec: LearnerSpec, predictors, targets) -> LassoModel | KnnModel:
    """Train a learner; see :class:`LearnerSpec` for the configuration."""
    X, y = _validate_xy(predictors, targets)
    if spec.kind == "knn":
        if y.size < spec.k:
            raise ValueError(
                f"knn with k={spec.k} needs at least {spec.k} training rows, got {y.size}")
        return KnnModel(X.copy(), y.copy(), spec.k)
    return _fit_lasso(spec, X, y)


def predict(model: LassoModel | KnnModel, predictors) -> np.ndarray:
    """Predict targets for an m x p matrix of predictor rows."""
    X = np.atleast_2d(np.asarray(predictors, dtype=float))
    if X.shape[1] != model.p:
        raise ValueError(f"model expects {model.p} predictors, got {X.shape[1]}")
    if isinstance(model, LassoModel):
        return X @ model.coefficients + model.intercept
    return model.targets[nearest_rows(X, model.predictors, model.k)].mean(axis=1)


def kkt_violation(model: LassoModel, predictors, targets) -> float:
    """Worst stationarity residual of a lasso fit on its training data.

    For active coefficients the standardized-gradient magnitude must equal
    the penalty; for inactive ones it must not exceed it.
    """
    if not isinstance(model, LassoModel):
        raise ValueError("KKT residual is defined for lasso models only")
    X, y = _validate_xy(predictors, targets)
    Xs = (X - model.column_means) / model.column_scales
    r = (y - y.mean()) - Xs @ model.std_coefficients
    grad = Xs.T @ r / y.size
    return float(_kkt_residual(grad, model.std_coefficients, model.lam, X.std(axis=0) > 0))
