"""Long-series measurement: ``tseval evaluate --p auto`` on five 10 000-point series.

    python3 tools/longrun.py OUT_DIR [--src SRC [--src SRC]] [--pairs N]

Writes the series under OUT_DIR/inputs, then runs ``evaluate --p auto`` on
each series with each learner, and ``evaluate --p 30`` with the lasso on S1
(the largest lasso stack, without FNN), each run in a fresh process with one
BLAS thread and the ``tseval`` package from SRC (by default this checkout's
``src``). Every run records its wall time from launch to exit, FNN's p, the
exit code, the sha256 of its results file and its peak RSS: the child's own
``ru_maxrss``, read after ``main`` returns (``RUSAGE_CHILDREN`` in this
process would keep the largest child so far, not each run's).

With two ``--src`` trees, ``--pairs N`` runs N passes of every (series,
learner) on both, alternating which side runs first, so that both see the
same phases of a noisy machine. OUT_DIR/longrun.json holds every run, each
side's medians, the revisions and the machine. A pass takes about a minute
and a half on two cores per side, too long for the tests, which only check
that every command parses.

The series: walk, trend and shift from ``perfbench/workloads.py`` (read-only)
with seed [1, 0]; S1 from this checkout's ``tseval.synthetic.simulate`` with
seed 1; and "varstep", N(0, 1) noise (seed 2) whose standard deviation
triples from point 5000.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's series generators (read-only), loaded by path so that no
# perfbench module name shadows another on sys.path
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

LENGTH = 10_000
SERIES = ("walk", "trend", "shift", "s1", "varstep")
LEARNERS = ("lasso", "knn")

# the child: run the CLI in-process, then report this process's own peak RSS
CHILD = """\
import resource, sys
from tseval.cli import main
code = main(sys.argv[1:])
print(f"longrun peak_kib {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", file=sys.stderr)
sys.exit(code)
"""


def series_values(name: str) -> np.ndarray:
    if name in workloads.GENERATORS:
        return workloads.GENERATORS[name](np.random.default_rng([1, 0]), LENGTH)
    if name == "s1":  # this checkout's tseval, the same on every side
        from tseval.synthetic import DGPSpec, simulate

        return simulate(DGPSpec(kind="s1", length=LENGTH), np.random.default_rng(1)).values
    noise = np.random.default_rng(2).normal(0.0, 1.0, LENGTH)
    return noise * np.where(np.arange(LENGTH) >= LENGTH // 2, 3.0, 1.0)


def write_inputs(root: Path) -> None:
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    for name in SERIES:
        text = "y\n" + "".join(f"{float(v)!r}\n" for v in series_values(name))
        (root / "inputs" / f"{name}.csv").write_text(text, encoding="utf-8")


def commands(side: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run of one side's pass, paths relative to
    OUT_DIR; run ``name`` writes out/<side>/<name>/results.csv."""
    runs = [(f"{series}-{learner}", series, learner, "auto")
            for series in SERIES for learner in LEARNERS] + [("s1-lasso-p30", "s1", "lasso", "30")]
    return [(name, ["evaluate", "--csv", f"inputs/{series}.csv", "--p", p, "--learner", learner,
                    "--verbose", "--out", f"out/{side}/{name}/results.csv"])
            for name, series, learner, p in runs]


def run_one(root: Path, src: Path, side: str, name: str, argv: list[str]) -> dict:
    results = root / argv[-1]
    results.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    peak = re.search(r"longrun peak_kib (\d+)", done.stderr)
    p = re.search(r"\(p=(\d+)\)", done.stderr)
    return {
        "side": side, "run": name, "exit": done.returncode, "wall_s": round(wall, 3),
        "peak_rss_mb": round(int(peak.group(1)) / 1024, 1) if peak else None,
        "p": int(p.group(1)) if p else None,
        "sha256": hashlib.sha256(results.read_bytes()).hexdigest() if results.exists() else None,
    }


def _revision(src: Path) -> str:
    """The commit of the tree holding ``src``, marked -dirty when it has changes."""
    done = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def summary(runs: list[dict]) -> dict:
    """Each side's median wall time and peak RSS per run, its p, exit codes
    and digests (as sets, so a run that varies shows more than one)."""
    out: dict = {}
    for run in runs:
        entry = out.setdefault(run["side"], {}).setdefault(run["run"], {"wall_s": [], "peak": []})
        entry["wall_s"].append(run["wall_s"])
        entry["peak"].append(run["peak_rss_mb"])
        for key in ("p", "exit", "sha256"):
            entry.setdefault(key, set()).add(run[key])
    for side in out.values():
        for name, entry in side.items():
            side[name] = {
                "median_wall_s": round(median(entry["wall_s"]), 3),
                "median_peak_rss_mb": median(entry["peak"]) if None not in entry["peak"] else None,
                **{key: sorted(entry[key], key=str) for key in ("p", "exit", "sha256")},
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="new directory for the runs")
    parser.add_argument("--src", type=Path, action="append",
                        help="directory holding tseval (give two to compare; default: src)")
    parser.add_argument("--pairs", type=int, default=1, help="passes over every run per side")
    args = parser.parse_args(argv)
    sources = args.src or [ROOT / "src"]
    if len(sources) > 2 or args.pairs < 1:
        parser.error("give at most two --src and --pairs of at least 1")
    root = args.out_dir.resolve()
    root.mkdir(parents=True)
    write_inputs(root)
    sides = [f"side{i}" for i in range(len(sources))]
    runs = []
    for i in range(args.pairs):
        order = list(zip(sides, sources))
        for side, src in order if i % 2 == 0 else order[::-1]:
            for name, command in commands(side):
                runs.append(run_one(root, src.resolve(), side, name, command))
                print(json.dumps(runs[-1]), file=sys.stderr)
    report = {
        "sources": {side: {"src": str(src), "revision": _revision(src)}
                    for side, src in zip(sides, sources)},
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "pairs": args.pairs, "runs": runs, "medians": summary(runs),
    }
    (root / "longrun.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
