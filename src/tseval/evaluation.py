"""Loss estimation over resampling plans and estimator-accuracy metrics.

``estimate_loss`` runs one estimation procedure over the embedded rows of
an estimation series and aggregates per-iteration RMSEs into the loss
estimate. ``true_loss`` computes the ground truth the estimators are
judged against: the model retrained on the whole estimation part and
scored on the held-out validation part.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddedDataset, _row_chunks, embed
from .learners import LearnerSpec, check_knn_rows, fit, fit_lasso_folds, knn_average, predict
from .series import TimeSeries
from .splitters import ResamplingPlan, build_plan

__all__ = [
    "rmse",
    "apae",
    "pae",
    "pct_diff",
    "EstimationResult",
    "LossEstimate",
    "estimate_loss",
    "run_plan",
    "true_loss",
    "RankTable",
    "average_ranks",
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


def pae(estimate, true_loss):
    """Signed estimation error: negative values are under-estimations."""
    return np.asarray(estimate, dtype=float) - np.asarray(true_loss, dtype=float)


def apae(estimate, true_loss):
    """Absolute estimation error |estimate - true_loss|."""
    return np.abs(pae(estimate, true_loss))


def pct_diff(estimate, true_loss):
    """Estimation error as a percentage of the true loss (requires > 0)."""
    L = np.asarray(true_loss, dtype=float)
    if np.any(L <= 0.0):
        raise ValueError("percentual difference needs a positive true loss")
    return 100.0 * pae(estimate, true_loss) / L


@dataclass(frozen=True)
class EstimationResult:
    problem_id: str
    method: str
    estimate: float
    true_loss: float
    apae: float
    pae: float
    pct_diff: float

    @classmethod
    def from_losses(
        cls, problem_id: str, method: str, estimate: float, true_loss: float
    ) -> "EstimationResult":
        signed = float(pae(estimate, true_loss))
        pct = float(pct_diff(estimate, true_loss)) if true_loss > 0 else float("nan")
        return cls(
            problem_id=problem_id,
            method=method,
            estimate=float(estimate),
            true_loss=float(true_loss),
            apae=abs(signed),
            pae=signed,
            pct_diff=pct,
        )


@dataclass(frozen=True)
class LossEstimate:
    estimate: float
    fold_losses: tuple[float, ...]


# Exhaustive prequential tests one row at a time; pooling the squared errors
# before the root keeps those estimates on the same scale as the block methods.
_POOLED = ("Preq-Grow", "Preq-Slide")


def run_plan(plan: ResamplingPlan, dataset, learner: LearnerSpec) -> LossEstimate:
    """Fit/score the learner over every iteration of an existing plan.

    The lasso fits every training set of the plan at once with
    :func:`~tseval.learners.fit_lasso_folds` (prefix-sum moments, one path run
    per distinct active set and signs, a KKT certificate for the rest) and
    predicts every test row in one product; the sets it leaves to ``fit``
    (fewer than two rows, or a column too nearly constant for prefix sums)
    go through ``fit`` and ``predict`` one by one.

    k-NN reads every distance from the dataset's ``knn_distances`` matrix,
    computed once per dataset, and predicts the plan's test rows in row
    chunks: each row's columns outside its fold's training set are masked
    with the dataset's ``knn_mask`` (``inf``, or NaN once a distance is
    ``inf``), and :func:`~tseval.learners.knn_average` picks the neighbours. The
    predictions are those of ``fit`` and ``predict`` fold by fold, byte for
    byte, and a training set of fewer than k rows raises ``fit``'s error for
    the first such fold.

    The estimate averages per-iteration RMSEs (one error estimate per fold),
    except for Preq-Grow and Preq-Slide, whose squared errors are pooled
    across iterations before taking the root.
    """
    X, y = dataset.predictors, dataset.targets
    iterations = plan.iterations
    tests = np.concatenate([it.test for it in iterations])
    bounds = np.cumsum([0] + [it.test.size for it in iterations])
    if learner.kind == "lasso":
        folds = fit_lasso_folds(learner, X, y, [it.train for it in iterations])
        fold = np.repeat(np.arange(len(iterations)), np.diff(bounds))
        predictions = np.einsum(
            "ij,ij->i", X[tests], folds.coefficients[fold]
        ) + folds.intercepts[fold]
        refit = np.flatnonzero(~folds.fitted)
        logger.debug(
            "run_plan %s: %d folds, %d path runs, %d fallback folds",
            plan.method, len(iterations), folds.path_runs, refit.size,
        )
    else:
        predictions = _knn_predictions(learner.k, dataset, iterations, tests, bounds)
        refit = ()
    for i in refit:
        it = iterations[i]
        model = fit(learner, X[it.train], y[it.train])
        predictions[bounds[i] : bounds[i + 1]] = predict(model, X[it.test])
    squares = (predictions - y[tests]) ** 2
    fold_losses = np.sqrt([squares[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
    if plan.method in _POOLED:
        estimate = float(np.sqrt(sum(squares.tolist()) / squares.size))
    else:
        estimate = float(np.mean(fold_losses))
    return LossEstimate(estimate, tuple(fold_losses.tolist()))


def _knn_predictions(k: int, dataset, iterations, tests, bounds) -> np.ndarray:
    """k-NN prediction of every test row of a plan (see :func:`run_plan`)."""
    for it in iterations:
        check_knn_rows(k, it.train.size)
    D, n = dataset.knn_distances, dataset.n
    fold = np.repeat(np.arange(len(iterations)), np.diff(bounds))
    predictions = np.empty(tests.size)
    for rows in _row_chunks(tests.size, n):
        first, last = fold[rows.start], fold[rows.stop - 1]
        trains = [it.train for it in iterations[first : last + 1]]
        member = np.zeros((len(trains), n), dtype=bool)
        member[np.repeat(np.arange(len(trains)), [t.size for t in trains]),
               np.concatenate(trains)] = True
        block = D[tests[rows]]
        block[~member[fold[rows] - first]] = dataset.knn_mask
        predictions[rows] = knn_average(block, dataset.targets, k)
    return predictions


def estimate_loss(
    dataset: EmbeddedDataset,
    method: str,
    learner: LearnerSpec,
    *,
    K: int = 10,
    nreps: int = 10,
    seed: int | None = None,
) -> LossEstimate:
    """Build the named plan over the rows of an embedded estimation series
    and run it. The caller embeds the series once for all its methods, so
    k-NN computes the rows' distance matrix once for all of them too."""
    plan = build_plan(method, dataset.n, K=K, p=dataset.p, nreps=nreps, seed=seed)
    return run_plan(plan, dataset, learner)


def true_loss(
    estimation_series: TimeSeries,
    validation_series: TimeSeries,
    learner: LearnerSpec,
    p: int,
) -> float:
    """Ground-truth loss: train on every row whose target falls in the
    estimation part, test on every row whose target falls in the validation
    part (their predictors may reach back into the estimation part)."""
    n_est = len(estimation_series)
    if n_est <= p:
        raise ValueError(f"estimation part must be longer than p={p}")
    full = TimeSeries(
        np.concatenate([estimation_series.values, validation_series.values]),
        name=estimation_series.name,
    )
    dataset = embed(full, p)
    in_est = dataset.target_time < n_est
    model = fit(learner, dataset.predictors[in_est], dataset.targets[in_est])
    predictions = predict(model, dataset.predictors[~in_est])
    return rmse(predictions, dataset.targets[~in_est])


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

    def mean_of(self, method: str) -> float:
        return float(self.mean_rank[self.methods.index(method)])


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
    differences,
    rope_low: float = -2.5,
    rope_high: float = 2.5,
    prior_strength: float = 1.0,
) -> BayesSignResult:
    """Posterior probabilities that differences concentrate left of, inside,
    or right of the practical-equivalence region (Benavoli et al. 2017).

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
    if not rope_low < rope_high:
        raise ValueError("rope_low must be below rope_high")
    if not 0.0 <= prior_strength < math.inf:
        raise ValueError("prior_strength must be finite and non-negative")
    counts = (
        int(np.count_nonzero(diffs < rope_low)),
        int(np.count_nonzero((diffs >= rope_low) & (diffs <= rope_high))),
        int(np.count_nonzero(diffs > rope_high)),
    )
    n_left, m, n_right = counts[0], counts[1] + prior_strength, counts[2]
    left = max(_p_largest(n_left, m, n_right), 0.0)
    right = max(_p_largest(n_right, m, n_left), 0.0)
    scale = max(left + right, 1.0)
    return BayesSignResult(left / scale, 1.0 - (left + right) / scale, right / scale, counts)
