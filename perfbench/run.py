"""Benchmark of tseval through its command-line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tseval checkout. Builds the workload's inputs from
the seed, times fresh starts of the program (set-up), then runs a worker
process that makes an untimed warm-up pass and timed passes for about S
seconds, and checks every pass's outputs. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
FRESH_STARTS = 5
FRESH_START_TIMEOUT_S = 20
RUN_TIMEOUT_S = 170  # a run must end within 180 s

# a fresh start: launch, import the CLI, read the inputs as the CLI would
SETUP = """\
import sys, time
start = time.perf_counter()
import tseval.cli
imported = time.perf_counter()
from tseval.series import load_csv
for path in sys.argv[1:]:
    load_csv(path)
print(imported - start)
"""


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    return {"s": "s", "mb": "MB"}.get(metric.rsplit("_", 1)[-1], "count")


def environment() -> dict[str, str]:
    """The program from this checkout's ``src``; one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def fresh_starts(inputs: list[Path], env) -> tuple[float, float]:
    """Median wall time of a fresh start, and median import time of tseval.cli."""
    walls, imports = [], []
    for _ in range(FRESH_STARTS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP, *map(str, inputs)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=FRESH_START_TIMEOUT_S, check=True)
        walls.append(time.perf_counter() - start)
        imports.append(float(done.stdout))
    return median(walls), median(imports)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    directory = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        inputs = workloads.make_inputs(workload, seed, directory)
        env = environment()
        setup_s, import_s = fresh_starts(inputs, env)
        report = directory / "report.json"
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(directory),
             str(seconds), str(int(trace)), str(report)],
            env=env, cwd=ROOT, stdout=sys.stderr, check=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
        result = json.loads(report.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if trace:
        metrics = {"cli.import_s": import_s, **result["layers"]}
    else:
        metrics = {"setup_s": setup_s, "estimates_per_s": result["estimates_per_s"],
                   "peak_rss_mb": result["peak_rss_mb"]}
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "tseval" / "cli.py").is_file():
        print(f"no tseval sources under {ROOT / 'src'}; run from a tseval checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
