"""Byte-identity gate: digest everything a fixed set of tseval commands prints and writes.

    python3 tools/identity.py OUT_DIR [--src SRC]
    python3 tools/identity.py --compare A.json B.json

The first form writes the inputs under OUT_DIR, runs every command of
:func:`commands` and of ``USAGE_ERRORS`` in order, with OUT_DIR as the working
directory, the ``tseval`` package from SRC (by default this checkout's
``src``) and one BLAS thread. It writes OUT_DIR/identity.json, mapping each
entry to a sha256: a command's exit code, stdout and stderr, and every file
it wrote. The outputs stay in OUT_DIR, so entries that differ can be read.
The second form prints each entry whose digest differs or that one side
lacks, and exits 1 when there is any.

Run it on two checkouts (say a parent commit and a change, each with its own
``--src``) and compare. A change that moves results on purpose lists the
entries that moved; every other entry must match. A run takes about half a
minute on two cores, too long for the tests, which only check that every
command parses once its ``--config`` file is spliced in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (read-only: the benchmark's seeded panels)

PANELS = ("nonstationary-lasso", "long-knn")
PANEL_SEEDS = range(1, 11)
LEARNERS = ("lasso", "knn")
# 400-point walks rounded to one decimal: equal distances, so k-NN ties break
DECIMAL_SEEDS = range(1, 9)
# walks of these lengths, by name under inputs/failing: a normal problem and
# two that fail before any estimate
FAILING = {"ok": 300, "short": 12, "forty": 40}

# commands that argparse must refuse: each exits 1 before any work
USAGE_ERRORS = [
    ("usage-unknown-flag", ["evaluate", "--bogus"]),
    ("usage-unknown-dgp", ["benchmark", "--dgp", "s9", "--out", "out/x.csv"]),
    ("usage-unknown-baseline",
     ["benchmark", "--dgp", "s1", "--baseline", "Nope", "--out", "out/x.csv"]),
]


def _panel_paths(workload: str, seed: int) -> list[str]:
    return [f"inputs/{workload}-{seed}/{kind}.csv" for kind, _ in workloads.PANELS[workload]]


# --config files, by path under the run's directory: every flag but the
# subcommand comes from the file (a comma list stands for a repeated --csv)
CONFIGS = {
    "inputs/benchmark.conf": (
        "# an S3 study with k-NN on five methods\n"
        "dgp=s3\ntrials=6\nlength=150\nseed=4\n"
        "methods=CV,CV-Bl,Holdout,Rep-Holdout,Preq-Grow\nK=5\nnreps=4\n"
        "learner=knn\nknn_k=3\nbaseline=Holdout\nrope=5\nverbose=on\n"
        "out=out/config-benchmark/results.csv\nranks=out/config-benchmark/ranks.csv\n"
    ),
    "inputs/evaluate.conf": (
        f"csv={', '.join(_panel_paths('nonstationary-lasso', 2))}\n"
        "p=auto\nd-max=8\nfnn_tolerance=0.02\nfraction=0.6\nlam=0.05\nseed=3\n"
        "out=out/config-evaluate/results.csv\nranks=out/config-evaluate/ranks.csv\n"
    ),
}


def _csvs(paths) -> list[str]:
    return [arg for path in paths for arg in ("--csv", path)]


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command that parses, in run order. Paths are
    relative to the run's directory; command ``name`` writes under out/name."""
    runs = []
    for dgp in ("s1", "s2", "s3"):
        for learner in LEARNERS:
            name = f"benchmark-{dgp}-{learner}"
            results = f"out/{name}/results.csv"
            runs += [
                (name, ["benchmark", "--dgp", dgp, "--trials", "10", "--seed", "1",
                        "--learner", learner, "--out", results, "--ranks", f"out/{name}/ranks.csv"]),
                (f"compare-{dgp}-{learner}", ["compare", "--results", results]),
                (f"compare-raw-{dgp}-{learner}", ["compare", "--results", results, "--rope", "1",
                                                  "--normalization", "none"]),
                (f"rank-{dgp}-{learner}", ["rank", "--results", results]),
                (f"rank-out-{dgp}-{learner}", ["rank", "--results", results, "--out",
                                               f"out/rank-out-{dgp}-{learner}/ranks.csv"]),
                (f"compare-out-{dgp}-{learner}", ["compare", "--results", results, "--out",
                                                  f"out/compare-out-{dgp}-{learner}/bayes.csv"]),
            ]
    for workload in PANELS:
        for seed in PANEL_SEEDS:
            for learner in LEARNERS:
                name = f"evaluate-{workload}-{seed}-{learner}"
                runs.append((name, ["evaluate", *_csvs(_panel_paths(workload, seed)), "--p", "auto",
                                    "--seed", str(seed), "--learner", learner,
                                    "--out", f"out/{name}/results.csv",
                                    "--ranks", f"out/{name}/ranks.csv"]))
    decimal = [f"inputs/decimal/walk{seed}.csv" for seed in DECIMAL_SEEDS]
    for p in (4, 5, 6):
        for learner in LEARNERS:
            name = f"evaluate-decimal-{p}-{learner}"
            runs.append((name, ["evaluate", *_csvs(decimal), "--p", str(p), "--learner", learner,
                                "--out", f"out/{name}/results.csv",
                                "--ranks", f"out/{name}/ranks.csv"]))
    for workload in PANELS:
        for seed in (1, 2, 3):
            for correction in ("bonferroni", "fdr"):
                runs.append((f"stationarity-{workload}-{seed}-{correction}",
                             ["stationarity", *_csvs(_panel_paths(workload, seed)),
                              "--correction", correction]))
        for path in _panel_paths(workload, 1):
            for p in ("auto", "3"):
                name = f"embed-{workload}-{Path(path).stem}-{p}"
                runs.append((name, ["embed", "--csv", path, "--p", p,
                                    "--out", f"out/{name}/rows.csv"]))
    for dgp in ("s1", "s2", "s3"):
        name = f"simulate-{dgp}"
        runs.append((name, ["simulate", "--dgp", dgp, "--trials", "3", "--out-dir",
                            f"out/{name}/trials", "--long-csv", f"out/{name}/long.csv"]))
    # n = 9 rows: the baseline and every K = 10 method fail on each problem
    runs.append(("benchmark-short", ["benchmark", "--dgp", "s1", "--trials", "2", "--length",
                                     "20", "--out", "out/benchmark-short/results.csv"]))
    # no problem keeps all 11 methods: --ranks receives the header alone
    runs.append(("benchmark-short-ranks",
                 ["benchmark", "--dgp", "s1", "--trials", "2", "--length", "20",
                  "--out", "out/benchmark-short-ranks/results.csv",
                  "--ranks", "out/benchmark-short-ranks/ranks.csv"]))
    # one problem fails whole beside a normal one, whose results stay
    ok, short, forty = (f"inputs/failing/{name}.csv" for name in FAILING)
    for name, flags in (
        # series length 12 too short for d_max 30
        ("evaluate-failing-fnn", [short, "--p", "auto"]),
        # estimation part must be longer than p=10
        ("evaluate-failing-p", [short, "--p", "10"]),
        # degenerate split; ok's four rows also fail 8 of its methods
        ("evaluate-failing-split", [forty, "--p", "auto", "--fraction", "0.02"]),
    ):
        runs.append((name, ["evaluate", "--csv", ok, "--csv", *flags, "--out",
                            f"out/{name}/results.csv", "--ranks", f"out/{name}/ranks.csv"]))
    # the seed flag overrides the file's
    runs += [("config-benchmark", ["benchmark", "--config", "inputs/benchmark.conf"]),
             ("config-evaluate", ["evaluate", "--config", "inputs/evaluate.conf",
                                  "--seed", "5"])]
    series = _panel_paths("nonstationary-lasso", 1)[0]
    runs += [
        ("bad-rope", ["benchmark", "--dgp", "s1", "--rope", "0", "--out", "out/bad-rope/r.csv"]),
        ("bad-no-output", ["simulate", "--dgp", "s1"]),
        ("bad-sd", ["simulate", "--dgp", "s1", "--innovation-sd", "nan",
                    "--long-csv", "out/bad-sd/long.csv"]),
        ("bad-p", ["embed", "--csv", series, "--p", "0"]),
        ("bad-csv", ["evaluate", "--csv", "inputs/missing.csv", "--p", "3",
                     "--out", "out/bad-csv/r.csv"]),
        # an output file in a missing directory: refused before any work
        ("refuse-ranks-dir", ["benchmark", "--dgp", "s1", "--trials", "2", "--out",
                              "out/refuse-ranks-dir/r.csv", "--ranks", "nodir/k.csv"]),
        ("refuse-embed-out-dir", ["embed", "--csv", series, "--p", "3",
                                  "--out", "nodir/rows.csv"]),
    ]
    return runs


def write_configs(root: Path) -> None:
    for path, text in CONFIGS.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text, encoding="utf-8")


def write_inputs(root: Path) -> None:
    write_configs(root)
    for workload in PANELS:
        for seed in PANEL_SEEDS:
            directory = root / "inputs" / f"{workload}-{seed}"
            directory.mkdir(parents=True)
            workloads.make_inputs(workload, seed, directory)
    directory = root / "inputs" / "decimal"
    directory.mkdir(parents=True)
    for seed in DECIMAL_SEEDS:
        values = np.round(workloads.walk(np.random.default_rng(seed), 400), 1)
        text = "y\n" + "".join(f"{float(v)!r}\n" for v in values)
        (directory / f"walk{seed}.csv").write_text(text, encoding="utf-8")
    directory = root / "inputs" / "failing"
    directory.mkdir(parents=True)
    for seed, (name, t) in enumerate(FAILING.items()):
        values = workloads.walk(np.random.default_rng([seed, 1]), t)
        text = "y\n" + "".join(f"{float(v)!r}\n" for v in values)
        (directory / f"{name}.csv").write_text(text, encoding="utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(root: Path, src: Path) -> dict[str, str]:
    root.mkdir(parents=True)
    write_inputs(root)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    digests = {}
    for name, argv in commands() + USAGE_ERRORS:
        (root / "out" / name).mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "tseval.cli", *argv], cwd=root, env=env,
                              capture_output=True, timeout=600)
        # warnings name the source file: keep the checkout's location out of them
        stderr = done.stderr.replace(str(src.resolve()).encode(), b"<src>")
        digests[f"{name}/exit"] = _sha(str(done.returncode).encode())
        digests[f"{name}/stdout"] = _sha(done.stdout)
        digests[f"{name}/stderr"] = _sha(stderr)
        for path in sorted((root / "out" / name).rglob("*")):
            if path.is_file():
                digests[f"{name}/{path.relative_to(root / 'out' / name)}"] = _sha(path.read_bytes())
    (root / "identity.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path, help="new directory for the run")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding tseval")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        differ = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        for key in differ:
            print(key)
        print(f"{len(differ)} of {len(a.keys() | b.keys())} entries differ", file=sys.stderr)
        return 1 if differ else 0
    if args.out_dir is None:
        parser.error("give OUT_DIR or --compare A B")
    digests = run(args.out_dir.resolve(), args.src.resolve())
    print(f"{len(digests)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
