"""Loss estimation over resampling plans and estimator-accuracy metrics.

``estimate_losses`` builds every estimation procedure's plan over the
embedded rows of one estimation series and runs them together with
``run_plan``, which aggregates each plan's per-iteration RMSEs into its loss
estimate. ``true_loss`` computes the ground truth the estimators are judged
against: the model retrained on the whole estimation part and scored on the
held-out validation part.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embedding import _CHUNK, EmbeddedDataset, _first_k, embed, nearest_rows
from .learners import LearnerSpec, fit, fit_lasso_folds, predict
from .series import TimeSeries
from .splitters import ResamplingPlan, Runs, build_plan

__all__ = [
    "rmse",
    "EstimationResult",
    "LossEstimate",
    "estimate_losses",
    "run_plan",
    "true_loss",
    "RankTable",
    "average_ranks",
    "BASELINE", "ROPE", "PRIOR_STRENGTH",
    "BayesSignResult",
    "bayes_sign_test",
]

logger = logging.getLogger("tseval")


def rmse(predictions, actuals) -> float:
    """Root mean squared error; zero iff the sequences coincide."""
    pred = np.asarray(predictions, dtype=float)
    act = np.asarray(actuals, dtype=float)
    if pred.shape != act.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {act.shape}")
    if pred.size == 0:
        raise ValueError("rmse of empty sequences is undefined")
    return float(np.sqrt(np.mean((pred - act) ** 2)))


@dataclass(frozen=True)
class EstimationResult:
    """One method's loss estimate on one problem, beside the problem's true
    loss; the estimation errors are read from those two numbers."""

    problem_id: str
    method: str
    estimate: float
    true_loss: float

    @property
    def pae(self) -> float:
        """Signed estimation error: negative values are under-estimations."""
        return self.estimate - self.true_loss

    @property
    def apae(self) -> float:
        """Absolute estimation error |estimate - true_loss|."""
        return abs(self.pae)

    @property
    def pct_diff(self) -> float:
        """Estimation error in percent of the true loss; NaN unless it is > 0."""
        return 100.0 * self.pae / self.true_loss if self.true_loss > 0 else math.nan


@dataclass(frozen=True)
class LossEstimate:
    estimate: float
    fold_losses: tuple[float, ...]


# Exhaustive prequential tests one row at a time; pooling the squared errors
# before the root keeps those estimates on the same scale as the block methods.
_POOLED = ("Preq-Grow", "Preq-Slide")

# columns of each row's k-NN neighbour order that run_plan builds per problem
# (a drifting walk's CV-Bl and CV-hvBl rows need 70-74 in the median)
KNN_WINDOW = 128


def run_plan(plans, dataset, learner: LearnerSpec) -> list[LossEstimate | Exception]:
    """Fit/score the learner over every iteration of each of a problem's plans,
    reading their train and test row runs directly. Returns each plan's
    estimate, or the exception that stopped that plan alone (without the
    traceback, whose frames would hold the plans' arrays).

    The lasso fits the training sets of all the plans together with
    :func:`~tseval.learners.fit_lasso_folds` on one stack of their train
    runs (moments from one prefix sum, and the folds' lasso paths followed in
    lockstep, up to 128 consecutive folds to a call) and predicts each plan's
    test rows in one product.

    k-NN predicts the test rows of all the plans in one pass from one
    neighbour window, each row's first ``KNN_WINDOW`` rows in
    :func:`~tseval.embedding.nearest_rows` order, built once per call: a row's
    neighbours are the first k of its window that lie in its fold's training
    runs.

    Both leave some test rows to one fallback: the rows of the lasso's
    folds that ``fit_lasso_folds`` leaves to ``fit`` (fewer than two rows,
    or a column too nearly constant for prefix sums), and the k-NN rows whose
    window holds fewer than k of their fold's training rows. Each fold with
    such rows is fitted once with ``fit`` on its training runs' rows, and
    ``predict`` runs on those rows only. So the k-NN predictions are those of
    ``fit`` and ``predict`` fold by fold, byte for byte, and a training set of
    fewer than k rows fails its plan with ``fit``'s error for the first such
    fold.

    The estimate averages per-iteration RMSEs (one error estimate per fold),
    except for Preq-Grow and Preq-Slide, whose squared errors are pooled
    across iterations before taking the root. An estimate that is not finite
    fails its plan, and a failure of the shared fit, window or pass fails
    every plan.
    """
    X, y = dataset.predictors, dataset.targets
    try:
        # every plan's folds in one stack of each side, numbered on from plan to plan
        test, train = (Runs.stack([getattr(plan, side) for plan in plans])
                       for side in ("test", "train"))
        rows, fold = test.rows(), np.repeat(np.arange(len(test)), test.sizes())
        cuts = np.searchsorted(fold, np.cumsum([len(plan.test) for plan in plans])[:-1])
        tests = np.split(rows, cuts)
        if learner.kind == "lasso":
            fits = fit_lasso_folds(learner, X, y, train)
            served = [(np.einsum("ij,ij->i", X[part], fits.coefficients[i]) + fits.intercepts[i],
                       fits.fitted[i]) for part, i in zip(tests, np.split(fold, cuts))]
        else:  # the window is a temporary, freed before the fallback runs
            both = _knn_predictions(learner.k, y, nearest_rows(X, X, min(KNN_WINDOW, dataset.n)),
                                    rows, fold, train)
            served = list(zip(*(np.split(array, cuts) for array in both)))
    except Exception as exc:  # noqa: BLE001 - the plans share this work and fail together
        return [exc.with_traceback(None)] * len(plans)
    outcomes: list[LossEstimate | Exception] = []
    for plan, test, (predictions, found) in zip(plans, tests, served):
        try:
            outcomes.append(_plan_loss(plan, dataset, learner, test, predictions, found))
        except Exception as exc:  # noqa: BLE001 - isolate per plan
            outcomes.append(exc.with_traceback(None))
    return outcomes


def _plan_loss(plan: ResamplingPlan, dataset, learner: LearnerSpec, tests, predictions,
               found) -> LossEstimate:
    """One plan's estimate from the predictions of its test rows ``tests``;
    those of the rows that are not ``found`` (by the neighbour window or the
    lasso's shared fits) are unset, and the fallback makes them."""
    X, y, train = dataset.predictors, dataset.targets, plan.train
    bounds = np.concatenate(([0], np.cumsum(plan.test.sizes())))
    left = ~found
    refit = np.flatnonzero(np.logical_or.reduceat(left, bounds[:-1]))
    for i in refit.tolist():
        runs = slice(train.start[i], train.start[i + 1])
        rows = np.concatenate([np.arange(a, b) for a, b in zip(train.lo[runs], train.hi[runs])])
        model = fit(learner, X[rows], y[rows])
        at = bounds[i] + np.flatnonzero(left[bounds[i] : bounds[i + 1]])
        predictions[at] = predict(model, X[tests[at]])
    logger.debug("run_plan %s %s: %d folds, %d rows from the %s, %d fallback folds, %d fallback"
                 " rows", plan.method, learner.kind, len(plan.test), np.count_nonzero(found),
                 "neighbour window" if learner.kind == "knn" else "shared fits", refit.size,
                 np.count_nonzero(left))
    squares = (predictions - y[tests]) ** 2
    if tests.size == len(plan.test):
        fold_losses = np.sqrt(squares)  # the mean of one square is that square
    else:
        fold_losses = np.sqrt([squares[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
    if plan.method in _POOLED:
        estimate = float(np.sqrt(sum(squares.tolist()) / squares.size))
    else:
        estimate = float(np.mean(fold_losses))
    if not math.isfinite(estimate):
        raise ValueError(f"estimate {estimate} is not finite")
    return LossEstimate(estimate, tuple(fold_losses.tolist()))


def _knn_predictions(k: int, y, window, tests, fold, train):
    """k-NN predictions of the test rows ``tests``, in their folds ``fold``
    (see :func:`run_plan`), from the neighbour ``window``, and a mask of the
    rows found: those whose window holds k rows of their fold's runs in
    ``train``. The other rows' predictions are left unset."""
    n, predictions, found = y.size, np.empty(tests.size), np.zeros(tests.size, dtype=bool)
    owner, lo, hi = train.owner(), train.lo, train.hi
    # rows per chunk, and folds, each an n-wide membership row (one per test row in Preq-Grow)
    step, most = _CHUNK // 4 // window.shape[1], max(1, _CHUNK // n)
    start = 0
    while start < tests.size:
        stop = min(start + step, int(np.searchsorted(fold, fold[start] + most)))
        first, last = fold[start], fold[stop - 1] + 1
        runs = slice(train.start[first], train.start[last])
        # a fold's rows lie between an odd and an even toggle: its runs' ends
        toggles = np.zeros((last - first, n + 1), dtype=bool)
        toggles[owner[runs] - first, lo[runs]] = toggles[owner[runs] - first, hi[runs]] = True
        member = np.logical_xor.accumulate(toggles[:, :n], axis=1)
        near = window[tests[start:stop]]
        count, at = _first_k(member.ravel()[near + n * (fold[start:stop, None] - first)], k)
        hit = start + np.flatnonzero(count >= k)
        predictions[hit], found[hit] = y[near.ravel()[at]].mean(axis=1), True
        start = stop
    return predictions, found


def estimate_losses(dataset: EmbeddedDataset, seeds: dict, learner: LearnerSpec, *,
                    K: int = 10, nreps: int = 10) -> dict[str, LossEstimate | Exception]:
    """Build the plan of each method in ``seeds`` (method name -> plan seed or
    None) over the rows of an embedded estimation series, and run them all in
    one :func:`run_plan`. Returns each method's estimate, or the exception
    that stopped it alone, in the order of ``seeds``. The plans share the
    lasso fits or the k-NN neighbour window of that one call."""
    outcomes: dict[str, LossEstimate | Exception] = {}
    plans = []
    for method, seed in seeds.items():
        try:
            plans.append(build_plan(method, dataset.n, K=K, p=dataset.p, nreps=nreps, seed=seed))
        except Exception as exc:  # noqa: BLE001 - isolate per method
            outcomes[method] = exc.with_traceback(None)
    outcomes.update(zip((plan.method for plan in plans), run_plan(plans, dataset, learner)))
    return {method: outcomes[method] for method in seeds}


def true_loss(
    estimation_series: TimeSeries,
    validation_series: TimeSeries,
    learner: LearnerSpec,
    p: int,
) -> float:
    """Ground-truth loss: train on every row whose target falls in the
    estimation part, test on every row whose target falls in the validation
    part (their predictors may reach back into the estimation part). Row k
    of the embedding targets y_{k+p}, so the first n_est - p rows train."""
    n_est = len(estimation_series)
    if n_est <= p:
        raise ValueError(f"estimation part must be longer than p={p}")
    full = TimeSeries(
        np.concatenate([estimation_series.values, validation_series.values]),
        name=estimation_series.name,
    )
    dataset = embed(full, p)
    X, y, train = dataset.predictors, dataset.targets, n_est - p
    model = fit(learner, X[:train], y[:train])
    loss = rmse(predict(model, X[train:]), y[train:])
    if not math.isfinite(loss):
        raise ValueError(f"true loss {loss} is not finite")
    return loss


@dataclass(frozen=True)
class RankTable:
    """Mean and standard deviation of per-problem APAE ranks (1 = best)."""

    methods: tuple[str, ...]
    mean_rank: np.ndarray
    sd_rank: np.ndarray
    n_problems: int

    def sorted_methods(self) -> list[tuple[str, float, float]]:
        order = np.argsort(self.mean_rank, kind="stable")
        return [
            (self.methods[i], float(self.mean_rank[i]), float(self.sd_rank[i]))
            for i in order
        ]


def _row_ranks(A: np.ndarray) -> np.ndarray:
    """1-based ranks within each row; a run of tied values shares the mean
    of its positions (the "average" tie rule), which is
    (#values below + #values at or below + 1) / 2."""
    below = (A[:, None, :] < A[:, :, None]).sum(axis=2)
    at_or_below = (A[:, None, :] <= A[:, :, None]).sum(axis=2)
    return (below + at_or_below + 1) / 2


def average_ranks(apae_matrix, methods) -> RankTable:
    """Rank methods per problem by ascending APAE (ties share the average
    of the tied positions) and aggregate across problems."""
    A = np.atleast_2d(np.asarray(apae_matrix, dtype=float))
    if A.size == 0:
        raise ValueError("empty APAE matrix")
    if np.any(np.isnan(A)):
        raise ValueError("APAE matrix contains NaN entries")
    methods = tuple(methods)
    if A.shape[1] != len(methods):
        raise ValueError(f"{A.shape[1]} columns for {len(methods)} methods")
    ranks = _row_ranks(A)
    sd = ranks.std(axis=0, ddof=1) if A.shape[0] > 1 else np.zeros(len(methods))
    return RankTable(methods, ranks.mean(axis=0), sd, A.shape[0])


# The sign-test defaults of the library and the command line: the baseline, the
# ROPE half-width (percent of the true loss) and the prior's strength on the ROPE.
BASELINE, ROPE, PRIOR_STRENGTH = "Rep-Holdout", 2.5, 1.0


@dataclass(frozen=True)
class BayesSignResult:
    p_left: float
    p_rope: float
    p_right: float
    counts: tuple[int, int, int]


def _negbin_pmf(shape: float, q: float, n: int) -> np.ndarray:
    """NB(shape, q)_j for j < n (see :func:`bayes_sign_test`); NB(0, q) is 1 at j = 0."""
    j = np.arange(1, n)
    with np.errstate(divide="ignore"):
        logs = np.concatenate(([0.0], np.cumsum(np.log(shape + j - 1) - np.log(j))))
    return np.exp(logs[:n] + shape * math.log1p(-q) + np.arange(n) * math.log(q))


def _p_largest(a: int, m: float, b: int) -> float:
    """P(X_a > max(X_m, X_b)) for gammas of integer shapes a, b and shape m."""
    t = np.cumsum(np.concatenate(([0.0], _negbin_pmf(m, 2 / 3, a + b - 1))))  # T_{i-1}
    return float(_negbin_pmf(m, 1 / 2, a).sum() - _negbin_pmf(a, 1 / 2, b) @ t[a : a + b])


def bayes_sign_test(
    differences, rope: float = ROPE, prior_strength: float = PRIOR_STRENGTH
) -> BayesSignResult:
    """Posterior probabilities that differences concentrate left of, inside,
    or right of the practical-equivalence region [-rope, rope], so ``rope`` is
    its half-width (Benavoli et al. 2017).

    With region counts n_L, n_rope, n_R and M = n_rope + ``prior_strength``,
    each probability is the exact chance that its share of a Dirichlet(n_L,
    M, n_R) draw is the largest, that is, that its gamma X_L, X_M or X_R is
    (a shape-0 gamma is 0). As P(X_n > x) = e^-x sum_{i<n} x^i / i! for an
    integer n, with NB(s, q)_j = Gamma(s + j) / (Gamma(s) j!) (1 - q)^s q^j:
    P(X_L > X_M) = sum_{j<n_L} NB(M, 1/2)_j, and P(X_M < X_L < X_R) =
    sum_{k<n_R} NB(n_L, 1/2)_k P(Gamma(n_L + k) > 2 X_M), whose last factor
    is T_{n_L+k-1}, T_i = sum_{j<=i} NB(M, 2/3)_j. P_left is the first minus
    the second, P_right swaps L and R, and P_rope = 1 - P_left - P_right.

    Rounding: a negative P_left or P_right becomes 0; if they sum to s > 1,
    both are divided by s and P_rope is 0. So each lies in [0, 1], the three
    sum to 1 within a few ulps, and swapping L and R swaps them exactly.
    """
    diffs = np.asarray(differences, dtype=float)
    if diffs.size < 1:
        raise ValueError("need at least one difference")
    if not rope > 0:
        raise ValueError("rope must be positive")
    if not 0.0 <= prior_strength < math.inf:
        raise ValueError("prior_strength must be finite and non-negative")
    counts = (
        int(np.count_nonzero(diffs < -rope)),
        int(np.count_nonzero(np.abs(diffs) <= rope)),
        int(np.count_nonzero(diffs > rope)),
    )
    n_left, m, n_right = counts[0], counts[1] + prior_strength, counts[2]
    left = max(_p_largest(n_left, m, n_right), 0.0)
    right = max(_p_largest(n_right, m, n_left), 0.0)
    scale = max(left + right, 1.0)
    return BayesSignResult(left / scale, 1.0 - (left + right) / scale, right / scale, counts)
