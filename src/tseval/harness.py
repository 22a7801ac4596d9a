"""Experiment orchestration: run every estimator on every problem, compare
against ground truth, and aggregate ranks and Bayes comparisons."""

from __future__ import annotations

import csv
import io
import logging
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embedding import embed, estimate_embedding_dimension
from .evaluation import (
    BASELINE,
    PRIOR_STRENGTH,
    ROPE,
    BayesSignResult,
    EstimationResult,
    RankTable,
    average_ranks,
    bayes_sign_test,
    estimate_losses,
    true_loss,
)
from .learners import LearnerSpec
from .series import TimeSeries, estimation_validation_split, load_csv, write_rows
from .splitters import METHODS
from .synthetic import DGPSpec, derive_seed, monte_carlo

__all__ = [
    "RESULTS_HEADER",
    "ExperimentConfig",
    "ExperimentOutcome",
    "MethodComparison",
    "run_experiment",
    "results_to_csv",
    "read_results_csv",
    "rank_table_csv",
    "comparisons_csv",
    "results_rank_table",
    "compare_to_baseline",
    "warnings_logged",
]

logger = logging.getLogger("tseval")

RESULTS_HEADER = "problem_id,method,estimate,true_loss,apae,pae,pct_diff"


@dataclass(frozen=True)
class ExperimentConfig:
    """One estimator-accuracy study over CSV series or a synthetic generator."""

    csv_paths: tuple = ()
    csv_column: str | int = 0
    dgp: str | None = None
    trials: int = 200
    length: int = 200
    estimation_fraction: float = 0.7
    embedding: str | int = "auto"  # "auto" (FNN) or a fixed dimension
    d_max: int = 30
    fnn_tolerance: float = 0.01
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    methods: tuple = METHODS
    K: int = 10
    nreps: int = 10
    base_seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.estimation_fraction < 1.0:
            raise ValueError("estimation_fraction must lie in (0, 1)")
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.nreps < 1:
            raise ValueError("nreps must be >= 1")
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        if not 0.0 < self.fnn_tolerance < 1.0:
            raise ValueError("fnn_tolerance must lie in (0, 1)")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; expected {METHODS}")
        repeated = [m for m, count in Counter(self.methods).items() if count > 1]
        if repeated:
            raise ValueError(f"methods must be unique; repeated: {', '.join(repeated)}")
        if not self.csv_paths and self.dgp is None:
            raise ValueError("config needs csv_paths or a dgp")
        if isinstance(self.embedding, str) and self.embedding != "auto":
            raise ValueError("embedding must be 'auto' or an integer dimension")
        if isinstance(self.embedding, int) and self.embedding < 1:
            raise ValueError("embedding dimension must be >= 1")


@dataclass(frozen=True)
class ExperimentOutcome:
    results: tuple[EstimationResult, ...]
    rank_table: RankTable | None
    failures: tuple[tuple[str, str, str], ...]  # (problem_id, method, reason)


@dataclass(frozen=True)
class MethodComparison:
    method: str
    baseline: str
    outcome: BayesSignResult


def _problems(config: ExperimentConfig) -> list[TimeSeries]:
    """Every problem of the study; names must be unique, because results,
    ranks and CV seeds are keyed by them (a CSV problem is named after its
    file stem)."""
    problems = []
    if config.dgp is not None:
        spec = DGPSpec(kind=config.dgp, length=config.length)
        problems += monte_carlo(spec, config.trials, config.base_seed)
    problems += [load_csv(path, config.csv_column) for path in config.csv_paths]
    repeated = [name for name, count in Counter(s.name for s in problems).items() if count > 1]
    if repeated:
        raise ValueError(
            "problem names must be unique; more than one input is named "
            f"{', '.join(map(repr, repeated))} (a CSV file's problem takes its file stem)"
        )
    return problems


@contextmanager
def warnings_logged(problem: str):
    """Log every UserWarning of the block, such as FNN's fallback, as ``problem
    NAME: message`` (Python would show it once per call site, not per problem),
    and show other warnings as they would have been."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        yield
    for w in caught:
        if issubclass(w.category, UserWarning):
            logger.warning("problem %s: %s", problem, w.message)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _choose_dimension(config: ExperimentConfig, series: TimeSeries) -> int:
    """The fixed dimension, or FNN's choice."""
    if config.embedding != "auto":
        return int(config.embedding)
    with warnings_logged(series.name):
        return estimate_embedding_dimension(series, config.d_max, config.fnn_tolerance)


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run every configured method on every problem.

    Each problem's estimation part is embedded once, and all its methods'
    plans run together over those rows. Problem names must be unique
    (``ValueError`` otherwise). A failure of one (problem, method) pair is
    logged and recorded without disturbing the other rows; the rank table
    covers the problems on which every method succeeded.
    """
    results: list[EstimationResult] = []
    failures: list[tuple[str, str, str]] = []
    for series in _problems(config):
        problem_id = series.name
        try:
            p = _choose_dimension(config, series)
            est, val = estimation_validation_split(series, config.estimation_fraction)
            L = true_loss(est, val, config.learner, p)
            dataset = embed(est, p)
        except Exception as exc:  # noqa: BLE001 - isolate per problem
            logger.warning("problem %s failed: %s", problem_id, exc)
            failures.extend((problem_id, m, str(exc)) for m in config.methods)
            continue
        seeds = {m: derive_seed(config.base_seed, problem_id, m) for m in config.methods}
        outcomes = estimate_losses(dataset, seeds, config.learner, K=config.K, nreps=config.nreps)
        for method, outcome in outcomes.items():
            if isinstance(outcome, Exception):
                logger.warning("%s on %s failed: %s", method, problem_id, outcome)
                failures.append((problem_id, method, str(outcome)))
            else:
                results.append(EstimationResult(problem_id, method, outcome.estimate, L))
        logger.info("finished problem %s (p=%d)", problem_id, p)
    table = results_rank_table(results, config.methods)
    return ExperimentOutcome(tuple(results), table, tuple(failures))


def _by_problem(results) -> dict[str, dict[str, EstimationResult]]:
    """Each problem's results keyed by method, in first-seen order."""
    index: dict[str, dict[str, EstimationResult]] = {}
    for r in results:
        index.setdefault(r.problem_id, {})[r.method] = r
    return index


def results_rank_table(results, methods) -> RankTable | None:
    """APAE rank table over the problems where every method has a row."""
    methods = tuple(methods)
    rows = [
        [ran[m].apae for m in methods]
        for ran in _by_problem(results).values()
        if all(m in ran for m in methods)
    ]
    if not rows:
        return None
    return average_ranks(np.asarray(rows), methods)


def compare_to_baseline(
    results,
    baseline: str = BASELINE,
    rope: float = ROPE,
    prior_strength: float = PRIOR_STRENGTH,
    normalization: str = "loss",
) -> list[MethodComparison]:
    """Bayes sign test of every method against the baseline.

    Per problem, the compared quantity is APAE_method - APAE_baseline,
    expressed as a percentage of the true loss when ``normalization`` is
    ``"loss"`` (so the ROPE reads in percent), or raw with ``"none"``.
    ``rope`` is the half-width of the practical-equivalence region
    [-rope, rope]. ``p_left`` is the probability that the method beats the
    baseline.
    """
    if normalization not in ("loss", "none"):
        raise ValueError("normalization must be 'loss' or 'none'")
    methods = list(dict.fromkeys(r.method for r in results))
    if baseline not in methods:
        raise ValueError(f"baseline {baseline!r} absent from results")
    index = _by_problem(results)
    comparisons = []
    for method in methods:
        if method == baseline:
            continue
        diffs = []
        for rows in index.values():
            if method not in rows or baseline not in rows:
                continue
            delta = rows[method].apae - rows[baseline].apae
            if normalization == "loss":
                if rows[method].true_loss <= 0:
                    continue
                delta = 100.0 * delta / rows[method].true_loss
            diffs.append(delta)
        if not diffs:
            continue
        outcome = bayes_sign_test(diffs, rope, prior_strength)
        comparisons.append(MethodComparison(method, baseline, outcome))
    return comparisons


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO()
    write_rows(buffer, header, rows)
    return buffer.getvalue()


def results_to_csv(results, path) -> None:
    rows = (
        [r.problem_id, r.method, *map(repr, (r.estimate, r.true_loss, r.apae, r.pae, r.pct_diff))]
        for r in results
    )
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        write_rows(fh, RESULTS_HEADER.split(","), rows)


def read_results_csv(path) -> list[EstimationResult]:
    """Rows of a results CSV; a (problem_id, method) pair may appear once.

    The header must be ``RESULTS_HEADER``; only ``estimate`` and ``true_loss``
    are read, since the error columns follow from them."""
    path = Path(path)
    results = []
    first_line: dict[tuple[str, str], int] = {}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        expected = RESULTS_HEADER.split(",")
        if reader.fieldnames != expected:
            raise ValueError(f"{path}: expected header {RESULTS_HEADER!r}")
        for row in reader:
            key = (row["problem_id"], row["method"])
            if key in first_line:
                raise ValueError(
                    f"{path}: line {reader.line_num} repeats problem {key[0]!r}, "
                    f"method {key[1]!r} (first on line {first_line[key]})"
                )
            first_line[key] = reader.line_num
            results.append(EstimationResult(*key, float(row["estimate"]), float(row["true_loss"])))
    return results


def rank_table_csv(table: RankTable | None) -> str:
    """The rank table as CSV text, best mean rank first; the header alone
    when there is no table."""
    return _csv_text(
        ["method", "mean_rank", "sd_rank"],
        ([method, repr(mean), repr(sd)] for method, mean, sd in
         (table.sorted_methods() if table is not None else ())),
    )


def comparisons_csv(comparisons) -> str:
    """Bayes sign-test outcomes as CSV text, one row per compared method."""
    return _csv_text(
        ["method", "baseline", "p_left", "p_rope", "p_right"],
        (
            [c.method, c.baseline, repr(c.outcome.p_left), repr(c.outcome.p_rope),
             repr(c.outcome.p_right)]
            for c in comparisons
        ),
    )
