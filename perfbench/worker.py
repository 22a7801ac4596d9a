"""One benchmark process: a warm-up pass, then timed passes of the workload's
``tseval`` commands, then the correctness checks; writes a JSON report.

Started by ``run.py`` as ``python3 perfbench/worker.py WORKLOAD SEED DIR
SECONDS TRACE REPORT``, with ``src`` on ``PYTHONPATH`` and the workload's
inputs already in ``DIR``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

import tseval.cli

import checks
import spans
import workloads

MIN_PASSES = 3  # untimed warm-up aside, whatever --seconds allows
MIN_TRACED_ROUNDS = 2  # rounds of one untraced and one traced pass


def run_pass(argvs: list[list[str]], outputs: list[Path], record: dict) -> float:
    """Run every command once; keep exit codes, stdout and output bytes."""
    for path in outputs:
        path.unlink(missing_ok=True)
    gc.collect()
    codes, stdout = [], []
    start = time.perf_counter()
    for argv in argvs:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            codes.append(tseval.cli.main(argv))
        stdout.append(buffer.getvalue())
    elapsed = time.perf_counter() - start
    record.update(codes=codes, stdout=stdout,
                  files={p.name: p.read_bytes() for p in outputs if p.exists()})
    return elapsed


@contextlib.contextmanager
def noting():
    """Note each problem's chosen p and every lasso fit made by true_loss."""
    dims: dict[str, int] = {}
    fits: list[tuple] = []
    choose = spans.original("tseval.harness.estimate_embedding_dimension")
    true_loss = spans.original("tseval.harness.true_loss")
    fit = spans.original("tseval.evaluation.fit")
    depth = []

    def noted_dimension(series, *args, **kwargs):
        dims[series.name] = p = choose(series, *args, **kwargs)
        return p

    def noted_true_loss(*args, **kwargs):
        depth.append(1)
        try:
            return true_loss(*args, **kwargs)
        finally:
            depth.pop()

    def noted_fit(spec, X, y):
        model = fit(spec, X, y)
        if depth and spec.kind == "lasso":
            fits.append((spec, X, y, model))
        return model

    undo = spans.patch({
        "tseval.harness.estimate_embedding_dimension": noted_dimension,
        "tseval.harness.true_loss": noted_true_loss,
        "tseval.evaluation.fit": noted_fit,
    })
    try:
        yield dims, fits
    finally:
        undo()


def main(workload: str, seed: int, directory: Path, seconds: float, traced: bool,
         report: Path) -> None:
    out = directory / "out"
    out.mkdir(exist_ok=True)
    inputs = [directory / f"{kind}.csv" for kind, _ in workloads.PANELS[workload]]
    argvs = workloads.commands(workload, seed, inputs, out)
    outputs = [Path(value) for argv in argvs for flag, value in zip(argv, argv[1:])
               if flag in ("--out", "--ranks")]
    tracer = spans.Tracer()
    passes: list[tuple[str, float, dict]] = []  # (kind, seconds, record)

    def one(kind: str, wrap=lambda body: body()) -> None:
        record: dict = {}
        elapsed = wrap(lambda: run_pass(argvs, outputs, record))
        passes.append((kind, elapsed, record))
        print(f"{workload} {kind} pass: {elapsed:.3f} s", file=sys.stderr)

    with noting() as (dims, fits):
        one("warm-up")
    if traced:
        one("memory", lambda body: tracer.traced(body, memory=True))
    begin = time.perf_counter()
    rounds = 0
    while True:
        one("untraced")
        if traced:
            one("traced", tracer.traced)
        rounds += 1
        elapsed = time.perf_counter() - begin
        minimum = MIN_TRACED_ROUNDS if traced else MIN_PASSES
        if rounds >= minimum and elapsed * (rounds + 1) / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workloads.problems(workload)
    expected = len(problems) * workloads.METHODS
    done = [checks.completed_estimates(record, problems) for _, _, record in passes]
    records = [record for _, _, record in passes]
    result = {
        "attempted": expected * len(passes),
        "failed": sum(expected - d for d in done),
        "errors": checks.run_all(workload, directory, records, dims, fits),
        "estimates_per_s": median(
            d / t for d, (kind, t, _) in zip(done, passes) if kind == "untraced"
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        untraced = [t for kind, t, _ in passes if kind == "untraced"]
        with_spans = [t for kind, t, _ in passes if kind == "traced"]
        result["layers"] = tracer.metrics()
        result["layers"]["trace.overhead_s"] = median(
            t - u for t, u in zip(with_spans, untraced)
        )
        tracer.write(directory.parent / f"spans-{workload}-{seed}.csv")
    report.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    name, seed_text, dir_text, seconds_text, trace_text, report_text = sys.argv[1:7]
    main(name, int(seed_text), Path(dir_text), float(seconds_text), trace_text == "1",
         Path(report_text))
