"""Steadiness check: run each workload several times, one seed per run, and
print each end-to-end metric's median, quartiles and spread next to its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of a tseval checkout. The spread is the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median; ``ok`` means it is below a third of the bound from
``BENCHMARK.json``. The share of failed operations is printed too, since it
must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        counts, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            walls.append(time.perf_counter() - start)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
            counts.append((result["attempted"], result["failed"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), file=sys.stderr)
        attempted = sum(a for a, _ in counts)
        failed = sum(f for _, f in counts)
        shares = sorted({f"{f / a:.6f}" for a, f in counts})
        print(f"{workload}: {args.runs} runs, wall {median(walls):.1f} s median, "
              f"{max(walls):.1f} s max; attempted {attempted}, failed {failed}, "
              f"failed share per run {shares}")
        for name, bound in bounds.items():
            q1, mid, q3 = quantiles(values[name], n=4)
            spread = (q3 - q1) / mid
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:16s} {units[name]:4s} median {mid:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound:.2f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
