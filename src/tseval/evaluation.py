"""Loss estimation over resampling plans and estimator-accuracy metrics.

``estimate_loss`` runs one estimation procedure over the embedded rows of
an estimation series and aggregates per-iteration RMSEs into the loss
estimate. ``true_loss`` computes the ground truth the estimators are
judged against: the model retrained on the whole estimation part and
scored on the held-out validation part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import embed
from .learners import LearnerSpec, fit, predict
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

    The estimate averages per-iteration RMSEs (one error estimate per fold),
    except for Preq-Grow and Preq-Slide, whose squared errors are pooled
    across iterations before taking the root.
    """
    X, y = dataset.predictors, dataset.targets
    fold_losses = []
    sse = 0.0
    count = 0
    for it in plan.iterations:
        model = fit(learner, X[it.train], y[it.train])
        errors = predict(model, X[it.test]) - y[it.test]
        fold_losses.append(float(np.sqrt(np.mean(errors**2))))
        sse += float(errors @ errors)
        count += errors.size
    if plan.method in _POOLED:
        estimate = float(np.sqrt(sse / count))
    else:
        estimate = float(np.mean(fold_losses))
    return LossEstimate(estimate, tuple(fold_losses))


def estimate_loss(
    estimation_series: TimeSeries,
    method: str,
    learner: LearnerSpec,
    p: int,
    *,
    K: int = 10,
    nreps: int = 10,
    seed: int | None = None,
) -> LossEstimate:
    """Embed once, build the named plan over the rows, and run it."""
    dataset = embed(estimation_series, p)
    plan = build_plan(method, dataset.n, K=K, p=p, nreps=nreps, seed=seed)
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
    of its positions (the "average" tie rule)."""
    order = np.argsort(A, axis=1, kind="stable")
    ordered = np.take_along_axis(A, order, axis=1)
    position = np.arange(A.shape[1])
    starts = np.ones(A.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.ones(A.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, position, A.shape[1])[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(A.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=1)
    return ranks


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


def bayes_sign_test(
    differences,
    rope_low: float = -2.5,
    rope_high: float = 2.5,
    samples: int = 100_000,
    prior_strength: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> BayesSignResult:
    """Posterior probabilities that differences concentrate left of, inside,
    or right of the practical-equivalence region.

    Counts the differences per region, adds ``prior_strength`` pseudo-counts
    to the region itself, and draws Dirichlet vectors; each probability is
    the fraction of draws in which its component is the strict maximum
    (exact ties split equally).
    """
    diffs = np.asarray(differences, dtype=float)
    if diffs.size < 1:
        raise ValueError("need at least one difference")
    if not rope_low < rope_high:
        raise ValueError("rope_low must be below rope_high")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if prior_strength < 0:
        raise ValueError("prior_strength must be non-negative")
    counts = (
        int(np.count_nonzero(diffs < rope_low)),
        int(np.count_nonzero((diffs >= rope_low) & (diffs <= rope_high))),
        int(np.count_nonzero(diffs > rope_high)),
    )
    alpha = np.array([counts[0], counts[1] + prior_strength, counts[2]], dtype=float)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    draws = rng.gamma(shape=alpha, size=(samples, 3))
    top = draws.max(axis=1, keepdims=True)
    is_top = draws == top
    shares = is_top / is_top.sum(axis=1, keepdims=True)
    p = shares.mean(axis=0)
    return BayesSignResult(float(p[0]), float(p[1]), float(p[2]), counts)
