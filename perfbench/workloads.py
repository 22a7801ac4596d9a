"""The benchmark's workloads: their seeded inputs and the CLI commands of one pass.

Only numpy is imported here, so the parent process can build inputs without
paying for ``tseval``'s import.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

METHODS = 11  # every pass runs all of tseval's resampling methods

# ``synthetic-study`` runs tseval's own generator at its default seed, whatever
# the benchmark seed: the cost of a small study varies too much from one
# tseval seed to the next for runs on fresh draws to agree (see README.md).
TRIALS = 2
STUDY_SEED = 1


def walk(rng: np.random.Generator, t: int) -> np.ndarray:
    """Random walk with drift 2 and unit steps: near-collinear lags."""
    return 50.0 + np.cumsum(2.0 + rng.normal(0.0, 1.0, t))


def shift(rng: np.random.Generator, t: int) -> np.ndarray:
    """AR(1) with phi 0.6 and N(0, 1) innovations, shifted up by 5 halfway."""
    noise = rng.normal(0.0, 1.0, t)
    y = np.zeros(t)
    for i in range(1, t):
        y[i] = 0.6 * y[i - 1] + noise[i]
    return 10.0 + y + np.where(np.arange(t) >= t // 2, 5.0, 0.0)


def trend(rng: np.random.Generator, t: int) -> np.ndarray:
    """Trend 0.01 per step, a period-12 sine of amplitude 3 at a random phase, N(0, 1) noise."""
    i = np.arange(t)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return 10.0 + 0.01 * i + 3.0 * np.sin(2.0 * np.pi * i / 12.0 + phase) + rng.normal(0.0, 1.0, t)


GENERATORS = {"walk": walk, "shift": shift, "trend": trend}

# (kind, length) of each generated series; the file stem is the kind, so
# problem names are unique.
PANELS = {
    "synthetic-study": (),
    "nonstationary-lasso": (("walk", 800), ("shift", 800), ("trend", 800)),
    "long-knn": (("walk", 1600), ("trend", 1600)),
}
WORKLOADS = tuple(PANELS)


def make_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's series as one-column CSV files; return their paths."""
    paths = []
    for index, (kind, length) in enumerate(PANELS[workload]):
        values = GENERATORS[kind](np.random.default_rng([seed, index]), length)
        path = directory / f"{kind}.csv"
        path.write_text("y\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")
        paths.append(path)
    return paths


def commands(workload: str, seed: int, inputs: list[Path], out: Path) -> list[list[str]]:
    """The ``tseval`` argv lists of one pass; every output lands in ``out``."""
    if workload == "synthetic-study":
        return [
            ["benchmark", "--dgp", dgp, "--trials", str(TRIALS),
             "--seed", str(STUDY_SEED),
             "--out", str(out / f"{dgp}.csv"), "--ranks", str(out / f"{dgp}-ranks.csv")]
            for dgp in ("s1", "s2", "s3")
        ]
    csvs = [arg for path in inputs for arg in ("--csv", str(path))]
    evaluate = ["evaluate", *csvs, "--p", "auto", "--seed", str(seed),
                "--out", str(out / "results.csv"), "--ranks", str(out / "results-ranks.csv")]
    if workload == "long-knn":
        return [evaluate + ["--learner", "knn"]]
    return [evaluate, ["stationarity", *csvs]]


def problems(workload: str) -> list[str]:
    """Problem names one pass estimates, in the order tseval writes them."""
    if workload == "synthetic-study":
        return [f"{dgp}-{trial:04d}" for dgp in ("s1", "s2", "s3") for trial in range(TRIALS)]
    return [kind for kind, _ in PANELS[workload]]
