"""Correctness checks made apart from tseval, on the outputs of every pass.

Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import workloads

REL = 1e-9  # agreement asked of the benchmark's own kNN arithmetic
KNN_K = 5
ESTIMATION_FRACTION = 0.7
HOLDOUT_FRACTION = 0.7
PREQ_BLOCKS = 10
BAYES_HEADER = "method,baseline,p_left,p_rope,p_right"


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _results(record: dict) -> dict[str, bytes]:
    return {name: data for name, data in record["files"].items() if not name.endswith("-ranks.csv")}


def completed_estimates(record: dict, problems: list[str]) -> int:
    """(problem, method) estimates a pass wrote to its results files."""
    wanted = set(problems)
    return sum(
        row["problem_id"] in wanted
        for data in _results(record).values()
        for row in _rows(data)
    )


def same_as_warm_up(records: list[dict]) -> list[str]:
    warm = records[0]
    errors = []
    for index, record in enumerate(records[1:], 1):
        for key in ("codes", "stdout", "files"):
            if record[key] != warm[key]:
                errors.append(f"pass {index}: {key} differ from the warm-up pass")
    return errors


def result_rows(record: dict, problems: list[str]) -> list[str]:
    """apae, pae and pct_diff recomputed from estimate and true_loss."""
    errors = []
    for name, data in _results(record).items():
        for row in _rows(data):
            if row["problem_id"] not in problems:
                errors.append(f"{name}: unexpected problem {row['problem_id']!r}")
            estimate, loss = float(row["estimate"]), float(row["true_loss"])
            signed = estimate - loss
            want = {"pae": signed, "apae": abs(signed),
                    "pct_diff": 100.0 * signed / loss if loss > 0 else math.nan}
            for key, value in want.items():
                got = float(row[key])
                if not (math.isclose(got, value, rel_tol=1e-12, abs_tol=1e-15)
                        or (math.isnan(got) and math.isnan(value))):
                    errors.append(f"{name}: {row['problem_id']}/{row['method']} {key} "
                                  f"{got!r} != {value!r}")
    return errors


def rank_tables(record: dict) -> list[str]:
    """Mean ranks lie in [1, 11] and sum to 1 + 2 + ... + 11 = 66."""
    errors = []
    m = workloads.METHODS
    tables = {n: d for n, d in record["files"].items() if n.endswith("-ranks.csv")}
    if not tables:
        errors.append("no rank table was written")
    for name, data in tables.items():
        means = [float(row["mean_rank"]) for row in _rows(data)]
        if len(means) != m or not all(1.0 <= r <= m for r in means):
            errors.append(f"{name}: mean ranks {means} are not {m} values in [1, {m}]")
        elif not math.isclose(sum(means), m * (m + 1) / 2, rel_tol=1e-12):
            errors.append(f"{name}: mean ranks sum to {sum(means)!r}")
    return errors


def bayes_triples(record: dict) -> list[str]:
    """Each Bayes triple lies in [0, 1] and sums to 1; one per non-baseline method."""
    errors = []
    for stdout in record["stdout"]:
        lines = stdout.splitlines()
        if BAYES_HEADER not in lines:
            errors.append("a benchmark command printed no Bayes comparisons")
            continue
        triples = lines[lines.index(BAYES_HEADER) + 1:]
        if len(triples) != workloads.METHODS - 1:
            errors.append(f"{len(triples)} Bayes triples for {workloads.METHODS - 1} methods")
        for line in triples:
            probs = [float(x) for x in line.split(",")[2:]]
            in_range = all(0.0 <= q <= 1.0 for q in probs)
            if not in_range or not math.isclose(sum(probs), 1.0, rel_tol=1e-9):
                errors.append(f"Bayes triple out of range: {line}")
    return errors


def kkt(fits: list[tuple], count: int) -> list[str]:
    """Every true-loss lasso fit meets the KKT conditions within 10 * tol.

    On standardized predictors and centred targets, an active coefficient's
    gradient has magnitude lambda and an inactive one's at most lambda.
    """
    errors = []
    if len(fits) != count:
        errors.append(f"{len(fits)} true-loss fits noted for {count} problems")
    for index, (spec, X, y, model) in enumerate(fits):
        sigma = X.std(axis=0)
        live = sigma > 0
        Xs = (X - X.mean(axis=0)) / np.where(live, sigma, 1.0)
        beta = model.std_coefficients
        grad = Xs.T @ ((y - y.mean()) - Xs @ beta) / y.size
        active = beta != 0
        worst = max(
            np.max(np.abs(np.abs(grad[active]) - model.lam), initial=0.0),
            np.max(np.abs(grad[live & ~active]) - model.lam, initial=0.0),
        )
        if worst > 10.0 * spec.tol:
            errors.append(f"true-loss fit {index}: KKT violation {worst:.3g} > {10 * spec.tol:g}")
    return errors


def _knn(train_X, train_y, test_X) -> np.ndarray:
    """Mean target of the k nearest training rows; ties go to the lowest index."""
    dist = np.zeros((test_X.shape[0], train_X.shape[0]))
    for j in range(train_X.shape[1]):
        dist += (test_X[:, None, j] - train_X[None, :, j]) ** 2
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :KNN_K]
    return train_y[nearest].mean(axis=1)


def _rmse(pred, actual) -> float:
    return float(np.sqrt(np.mean((pred - actual) ** 2)))


def _embed(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    return sliding_window_view(values, p)[: values.size - p], values[p:]


def knn_losses(values: np.ndarray, p: int) -> dict[str, float]:
    """True loss and the Holdout and Preq-Bls estimates of k-NN, brute force."""
    t = values.size
    n_est = math.floor(ESTIMATION_FRACTION * t)
    X, y = _embed(values, p)
    train = np.arange(p, t) < n_est
    losses = {"true_loss": _rmse(_knn(X[train], y[train], X[~train]), y[~train])}
    X, y = _embed(values[:n_est], p)
    n = y.size
    cut = math.floor(HOLDOUT_FRACTION * n)
    losses["Holdout"] = _rmse(_knn(X[:cut], y[:cut], X[cut:]), y[cut:])
    base, rem = divmod(n, PREQ_BLOCKS)
    bounds = np.concatenate(([0], np.cumsum([base + (i < rem) for i in range(PREQ_BLOCKS)])))
    folds = [
        _rmse(_knn(X[:lo], y[:lo], X[lo:hi]), y[lo:hi])
        for lo, hi in zip(bounds[1:-1], bounds[2:])
    ]
    losses["Preq-Bls"] = float(np.mean(folds))
    return losses


def knn_reference(record: dict, directory: Path, dims: dict[str, int]) -> list[str]:
    errors = []
    data = record["files"].get("results.csv", b"")
    rows = {(r["problem_id"], r["method"]): r for r in _rows(data)}
    for kind, _ in workloads.PANELS["long-knn"]:
        if kind not in dims:
            errors.append(f"{kind}: no embedding dimension was chosen")
            continue
        lines = (directory / f"{kind}.csv").read_text(encoding="utf-8").split()[1:]
        want = knn_losses(np.array([float(v) for v in lines]), dims[kind])
        for method in ("Holdout", "Preq-Bls"):
            row = rows.get((kind, method))
            if row is None:
                errors.append(f"{kind}: no {method} row")
                continue
            for key, value in (("estimate", want[method]), ("true_loss", want["true_loss"])):
                if not math.isclose(float(row[key]), value, rel_tol=REL):
                    errors.append(f"{kind}/{method}: {key} {row[key]} != brute-force {value!r}")
    return errors


def stationarity(record: dict) -> list[str]:
    """One verdict per input with I in {0, 1, 2} and S in {0, 1}; the walk needs I >= 1."""
    errors = []
    lines = record["stdout"][-1].splitlines()
    kinds = [kind for kind, _ in workloads.PANELS["nonstationary-lasso"]]
    if lines[:1] != ["name,I,S,rejections"] or [ln.split(",")[0] for ln in lines[1:]] != kinds:
        return [f"stationarity printed {lines[:1 + len(kinds)]} for {kinds}"]
    for line in lines[1:]:
        name, order, verdict, _ = line.split(",", 3)
        if order not in ("0", "1", "2") or verdict not in ("0", "1"):
            errors.append(f"stationarity verdict malformed: {line}")
        elif name == "walk" and order == "0":
            errors.append("stationarity found no unit root in the random walk")
    return errors


def run_all(workload: str, directory: Path, records: list[dict], dims, fits) -> list[str]:
    """Every check of the workload; all passes must match the warm-up pass."""
    warm = records[0]
    problems = workloads.problems(workload)
    errors = same_as_warm_up(records) + result_rows(warm, problems) + rank_tables(warm)
    if workload == "synthetic-study":
        errors += bayes_triples(warm) + kkt(fits, len(problems))
    elif workload == "nonstationary-lasso":
        errors += stationarity(warm)
    elif workload == "long-knn":
        errors += knn_reference(warm, directory, dims)
    return errors
