"""Regression learners behind a single fit/predict contract.

Two learners: an L1-penalised linear model (lasso) on internally
standardized predictors, and k-nearest-neighbours averaging. Both are
deterministic. The lasso is solved exactly by following its piecewise-linear
path from lambda_max down to the penalty (the homotopy / LARS-lasso method),
one p x p active-set solve per breakpoint, so near-collinear predictors such
as the lags of a random walk cost no more than well-conditioned ones.

:func:`fit_lasso_folds` fits the lasso on every training set of a resampling
plan at once, given as the plan's train row runs. Each set's means, standardized
Gram matrix and correlations come from prefix sums of the rows and their outer
products, summed over the set's runs. The path runs on the first unsolved set;
its active set A and signs s are a candidate for all the others, which solve
G_AA b = c_A - lam s in one stacked solve. A set takes b when b has the signs
s and every inactive gradient |c_j - G_jA b| is at most lam: these are the
lasso's KKT conditions, so b is its exact solution (within rounding). The path
then runs on the first set that failed, and so on until every set is solved.
Sets of fewer than two rows, and sets in which a column's variance is too
small a share of its second moment for prefix sums to resolve, are left to
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


def _kkt_residual(grad: np.ndarray, beta: np.ndarray, lam: float, live: np.ndarray) -> float:
    """Worst stationarity residual: |grad_j| must equal ``lam`` where beta_j is
    non-zero and must not exceed it on the other live coefficients."""
    active = beta != 0
    on = np.abs(np.abs(grad[active]) - lam)
    off = np.abs(grad[live & ~active]) - lam
    return float(max(np.max(on, initial=0.0), np.max(off, initial=0.0)))


# The lasso path warns when it needs more breakpoints than this.
MAX_ITER = 1000

# A column whose residual on the active columns keeps less than this share of
# its squared norm is treated as a combination of them and never joins.
_SPAN_TOL = 1e-10


def _lasso_path(
    G: np.ndarray, c: np.ndarray, lam: float, live: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Minimise 0.5 b'Gb - c'b + lam |b|_1 by following the lasso path from
    lambda_max down to ``lam`` (homotopy / LARS-lasso; Osborne, Presnell and
    Turlach 2000, Efron et al. 2004).

    Between breakpoints the active coefficients are b_A(t) = u - t w with
    G_AA [u, w] = [c_A, s_A], and every gradient c - G b is r + t a, so each
    step solves the active system once and jumps to the next breakpoint: a
    coefficient joining at |gradient| = t, or one reaching zero.
    A live column that is (numerically) a combination of the active ones
    never joins, so G_AA stays non-singular; its gradient then follows the
    active ones. Returns the coefficients and whether ``lam`` was reached
    within ``MAX_ITER`` breakpoints.
    """
    beta = np.zeros(c.size)
    magnitude = np.where(live, np.abs(c), 0.0)
    level = float(np.max(magnitude, initial=0.0))  # lambda_max: beta = 0 down to here
    if level <= lam:
        return beta, True
    first = int(np.argmax(magnitude))
    active = [first]
    # rows [c_j, s_j, G_j]: the right-hand sides of the active system
    rows = np.column_stack([c, np.zeros_like(c), G])
    rows[first, 1] = np.sign(c[first])
    joined, dropped, dropped_sign = first, -1, 0.0
    diag = G.diagonal()
    for _ in range(MAX_ITER):
        A = np.array(active, dtype=int)
        rhs = rows[A]
        GA = rhs[:, 2:]
        solved = np.linalg.solve(GA[:, A], rhs)
        u, w = solved[:, 0], solved[:, 1]
        ra = GA.T @ solved[:, :2]
        r, a = c - ra[:, 0], ra[:, 1]
        # a column in the span of the active ones would make G_AA singular
        free = live & (diag - np.einsum("ij,ij->j", GA, solved[:, 2:]) > _SPAN_TOL * diag)
        free[A] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(free & (a < 1.0), r / (1.0 - a), -np.inf)
            down = np.where(free & (a > -1.0), -r / (1.0 + a), -np.inf)
            to_zero = np.where(rhs[:, 1] * w < 0.0, u / w, -np.inf)
        # A coefficient that just left may re-enter only at the opposite
        # bound, and one that just joined cannot leave before it has moved.
        # The direction tests above imply both in exact arithmetic; stating
        # them keeps rounding at a = +-1 or w = 0 from undoing a breakpoint,
        # which would cycle.
        if dropped_sign > 0:
            up[dropped] = -np.inf
        elif dropped_sign < 0:
            down[dropped] = -np.inf
        if joined >= 0:
            to_zero[-1] = -np.inf
        events = (up.max(), down.max(), np.max(to_zero, initial=-np.inf))
        kind = int(np.argmax(events))
        nxt = min(events[kind], level)
        if nxt <= lam:
            beta[A] = u - lam * w
            return beta, True
        level = nxt
        joined, dropped, dropped_sign = -1, -1, 0.0
        if kind == 2:
            k = int(np.argmax(to_zero))
            dropped = active.pop(k)
            dropped_sign, rows[dropped, 1] = rows[dropped, 1], 0.0
        else:
            joined = int(np.argmax(up if kind == 0 else down))
            active.append(joined)
            rows[joined, 1] = 1.0 if kind == 0 else -1.0
    A = np.array(active, dtype=int)
    beta[A] = np.linalg.solve(G[np.ix_(A, A)], c[A] - lam * rows[A, 1])
    return beta, False


def _path_solution(
    spec: LearnerSpec, G: np.ndarray, c: np.ndarray, lam: float, live: np.ndarray
) -> np.ndarray:
    """The path's solution; warns when it misses ``spec``'s acceptance test."""
    beta, reached = _lasso_path(G, c, lam, live)
    if not reached or _kkt_residual(c - G @ beta, beta, lam, live) > 10.0 * spec.tol:
        warnings.warn(
            f"lasso path did not meet tol={spec.tol:g} within max_iter={MAX_ITER} steps",
            stacklevel=4,
        )
    return beta


def _fit_lasso(spec: LearnerSpec, X: np.ndarray, y: np.ndarray) -> LassoModel:
    p = X.shape[1]
    mu, sigma, G, c = _standardized_gram(X, y)
    live = sigma > 0
    scales = np.where(live, sigma, 1.0)
    lam = spec.lam
    if lam is None:
        lam = 0.01 * float(np.max(np.abs(c), initial=0.0))
    # with fewer than two rows, no columns or only constant ones, c is zero, and the
    # path returns the intercept-only model
    beta = _path_solution(spec, G, c, lam, live)
    coef = beta / scales
    return LassoModel(
        p=p,
        coefficients=coef,
        intercept=float(y.mean()) - float(coef @ mu),
        std_coefficients=beta,
        column_means=mu,
        column_scales=scales,
        lam=lam,
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
    left for :func:`fit`. ``path_runs`` counts the sets the path solved; the
    others passed the KKT certificate."""

    coefficients: np.ndarray
    intercepts: np.ndarray
    fitted: np.ndarray
    path_runs: int


def _set_moments(Z: np.ndarray, trains) -> np.ndarray:
    """Sums of [1, z][1, z]' over each training set's rows of Z, from one
    prefix sum: each set adds up the differences over its runs."""
    n, q = Z.shape
    W = np.column_stack([np.ones(n), Z])
    prefix = np.zeros((n + 1, q + 1, q + 1))
    np.cumsum(W[:, :, None] * W[:, None, :], axis=0, out=prefix[1:])
    return np.add.reduceat(prefix[trains.hi] - prefix[trains.lo], trains.start[:-1])


def _certify(G, c, lam, active, signs) -> tuple[np.ndarray, np.ndarray]:
    """Solve every set's active system for the candidate (active, signs) in
    one stacked solve; return the solutions and which of them meet the KKT
    conditions exactly. A set is refused when an active column is within
    ``_SPAN_TOL`` of the span of the other active ones, as the path would
    never let it join; if any set's system is singular, none is certified
    and the path solves the sets one by one."""
    GA = G[:, :, active]
    GAA = GA[:, active]
    rhs = (c[:, active] - lam[:, None] * signs)[:, :, None]
    identity = np.broadcast_to(np.eye(active.size), GAA.shape)
    try:
        solved = np.linalg.solve(GAA, np.concatenate([rhs, identity], axis=2))
    except np.linalg.LinAlgError:
        return rhs[:, :, 0], np.zeros(len(c), dtype=bool)
    b = solved[:, :, 0]
    # 1 / (G_AA^-1)_jj is what column j keeps of its norm off the other
    # active columns
    inverse = solved[:, :, 1:].diagonal(axis1=1, axis2=2)
    ok = np.all((inverse > 0.0) & (_SPAN_TOL * GAA.diagonal(axis1=1, axis2=2) * inverse < 1.0),
                axis=1)
    ok &= np.all(np.sign(b) == signs, axis=1)
    grad = c - (GA @ b[:, :, None])[:, :, 0]
    inactive = np.ones(c.shape[1], dtype=bool)
    inactive[active] = False
    ok &= np.all(np.abs(grad[:, inactive]) <= lam[:, None], axis=1)
    return b, ok


def fit_lasso_folds(spec: LearnerSpec, predictors, targets, trains) -> LassoFolds:
    """Fit the lasso on each training set, given as row runs into the
    predictors and targets (:class:`~tseval.splitters.Runs`, as a plan's
    ``train``). See the module docstring for the method; each solved set
    equals ``fit`` on the set's rows within the solver's tolerance."""
    if spec.kind != "lasso":
        raise ValueError("fit_lasso_folds fits the lasso only")
    if not np.diff(trains.start).all():
        raise ValueError("empty training set")
    X, y = _validate_xy(predictors, targets)
    p = X.shape[1]
    Z = np.column_stack([X, y])
    shift = Z.mean(axis=0)
    sums = _set_moments(Z - shift, trains)
    count = sums[:, 0, 0]
    moments = sums / count[:, None, None]
    mean = moments[:, 0, 1:]
    cov = moments[:, 1:, 1:] - mean[:, :, None] * mean[:, None, :]
    var = cov.diagonal(axis1=1, axis2=2)
    raw = moments[:, 1:, 1:].diagonal(axis1=1, axis2=2)
    fitted = (count >= 2) & np.all(var > _MOMENT_TOL * raw, axis=1)
    solved = np.flatnonzero(fitted)

    sigma = np.sqrt(var[solved, :p])
    G = cov[solved, :p, :p] / (sigma[:, :, None] * sigma[:, None, :])
    c = cov[solved, :p, p] / sigma
    if spec.lam is None:
        lam = 0.01 * np.max(np.abs(c), axis=1)
    else:
        lam = np.full(solved.size, spec.lam)
    live = np.ones(p, dtype=bool)
    beta = np.zeros((solved.size, p))
    todo = np.arange(solved.size)
    tried = set()
    path_runs = 0
    while todo.size:
        head, todo = todo[0], todo[1:]
        beta[head] = _path_solution(spec, G[head], c[head], lam[head], live)
        path_runs += 1
        active = np.flatnonzero(beta[head])
        signs = np.sign(beta[head, active])
        pattern = (active.tobytes(), signs.tobytes())
        if not todo.size or pattern in tried:
            continue  # every set still to do has already failed this pattern
        tried.add(pattern)
        b, ok = _certify(G[todo], c[todo], lam[todo], active, signs)
        beta[todo[ok][:, None], active] = b[ok]
        todo = todo[~ok]

    F = len(count)
    coefficients = np.full((F, p), np.nan)
    intercepts = np.full(F, np.nan)
    coefficients[solved] = beta / sigma
    intercepts[solved] = mean[solved, p] + shift[p] - np.einsum(
        "ij,ij->i", coefficients[solved], mean[solved, :p] + shift[:p]
    )
    return LassoFolds(coefficients, intercepts, fitted, path_runs)


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
    return _kkt_residual(grad, model.std_coefficients, model.lam, X.std(axis=0) > 0)
