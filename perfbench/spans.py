"""Spans and counts at tseval's layer boundaries, recorded from outside.

Each layer's public function is replaced, for the length of a traced pass,
by a wrapper in every module that looks it up by name; ``src/`` is not
edited. A span records name, start, end and parent; self time is a span's
duration minus that of its direct children. Spans stay in memory and are
written when the run ends.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict
from collections.abc import Callable
from statistics import median

MIB = float(1 << 20)

# span name -> the places the program looks the function up
LAYERS = {
    "series.load_csv": ("tseval.cli.load_csv", "tseval.harness.load_csv"),
    "synthetic.simulate": ("tseval.synthetic.simulate",),
    "embedding.fnn": ("tseval.harness.estimate_embedding_dimension",
                      "tseval.cli.estimate_embedding_dimension"),
    "embedding.embed": ("tseval.evaluation.embed",),
    "splitters.build_plan": ("tseval.evaluation.build_plan",),
    "learners.fit": ("tseval.evaluation.fit",),
    "learners.predict": ("tseval.evaluation.predict",),
    "evaluation.run_plan": ("tseval.evaluation.run_plan",),
    "evaluation.true_loss": ("tseval.harness.true_loss",),
    "evaluation.ranks": ("tseval.harness.average_ranks",),
    "evaluation.bayes": ("tseval.harness.bayes_sign_test",),
    "stationarity.ndiffs": ("tseval.cli.ndiffs",),
    "stationarity.wavelet": ("tseval.cli.wavelet_stationarity_test",),
    "harness.run_experiment": ("tseval.cli.run_experiment", "tseval.harness.run_experiment"),
}

# layers whose tracemalloc peak is measured, in a pass of its own
MEMORY_LAYERS = ("embedding.fnn", "splitters.build_plan", "learners.predict")

# per-layer metric -> the span it sums over one traced pass
TIMES = {
    "synthetic.simulate_s": "synthetic.simulate",
    "embedding.fnn_s": "embedding.fnn",
    "embedding.embed_s": "embedding.embed",
    "splitters.build_plan_s": "splitters.build_plan",
    "learners.fit_s": "learners.fit",
    "learners.predict_s": "learners.predict",
    "evaluation.true_loss_s": "evaluation.true_loss",
    "evaluation.ranks_s": "evaluation.ranks",
    "evaluation.bayes_s": "evaluation.bayes",
    "stationarity.ndiffs_s": "stationarity.ndiffs",
    "stationarity.wavelet_s": "stationarity.wavelet",
    "series.load_csv_s": "series.load_csv",
}
SELF_TIMES = {
    "evaluation.run_plan_self_s": "evaluation.run_plan",
    "harness.self_s": "harness.run_experiment",
}
COUNTS = (
    "synthetic.series",
    "embedding.fnn_calls",
    "splitters.iterations",
    "splitters.indices",
    "learners.fit_calls",
    "learners.fit_rows",
    "learners.nonconverged_fits",
    "learners.predict_calls",
    "evaluation.bayes_calls",
)
PEAKS = {f"{layer}_peak_mb": layer for layer in MEMORY_LAYERS}


def _count(counts: Counter, name: str, args, result) -> None:
    """Counts made at a layer boundary, from its arguments and result."""
    if name == "synthetic.simulate":
        counts["synthetic.series"] += 1
    elif name == "embedding.fnn":
        counts["embedding.fnn_calls"] += 1
    elif name == "splitters.build_plan":
        counts["splitters.iterations"] += len(result.iterations)
        counts["splitters.indices"] += sum(
            len(it.train) + len(it.test) + len(it.gap) for it in result.iterations
        )
    elif name == "learners.fit":
        counts["learners.fit_calls"] += 1
        counts["learners.fit_rows"] += len(args[2])
    elif name == "learners.predict":
        counts["learners.predict_calls"] += 1
    elif name == "evaluation.bayes":
        counts["evaluation.bayes_calls"] += 1


def patch(spots: dict[str, object]) -> Callable[[], None]:
    """Set each dotted ``module.attribute`` to its value; return the undo."""
    saved = []
    for dotted, value in spots.items():
        module_name, _, attribute = dotted.rpartition(".")
        module = importlib.import_module(module_name)
        saved.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, value)

    def undo() -> None:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)

    return undo


def original(dotted: str):
    module_name, _, attribute = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), attribute)


class Tracer:
    """Records the spans and counts of the passes run inside ``traced()``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, pass, name, start, end)
        self.passes: list[dict[str, float]] = []
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._counts: Counter = Counter()

    def _wrap(self, name: str, fn, memory: bool):
        spans, stack, peaks = self.spans, self._stack, self.peaks

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            if memory and name in MEMORY_LAYERS:
                tracemalloc.start()
            caught = []
            start = time.perf_counter()
            try:
                if name == "learners.fit":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory and name in MEMORY_LAYERS:
                    peaks[name] = max(peaks[name], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[span_id] = (span_id, parent, len(self.passes), name, start, end)
            _count(self._counts, name, args, result)
            if caught:
                self._counts["learners.nonconverged_fits"] += 1
            return result

        return wrapper

    def traced(self, run_pass, memory: bool = False) -> float:
        """Run one pass with every layer wrapped; return its wall time.

        With ``memory`` the pass measures tracemalloc peaks of
        ``MEMORY_LAYERS`` and is left out of the per-layer times.
        """
        first = len(self.spans)
        self._counts = Counter()
        undo = patch({
            spot: self._wrap(name, original(spot), memory)
            for name, spots in LAYERS.items()
            for spot in spots
        })
        try:
            elapsed = run_pass()
        finally:
            undo()
        if memory:
            del self.spans[first:]
        else:
            self.passes.append(self._pass_metrics(self.spans[first:]))
        return elapsed

    def _pass_metrics(self, spans) -> dict[str, float]:
        total = Counter()
        child = Counter()  # time covered by direct children, per parent name
        name_of = {span[0]: span[3] for span in spans}
        for _, parent, _, name, start, end in spans:
            total[name] += end - start
            if parent in name_of:
                child[name_of[parent]] += end - start
        metrics = {metric: total[name] for metric, name in TIMES.items()}
        metrics.update({metric: total[name] - child[name] for metric, name in SELF_TIMES.items()})
        metrics.update({name: float(self._counts[name]) for name in COUNTS})
        return metrics

    def metrics(self) -> dict[str, float]:
        """Median over traced passes of each per-layer metric, plus peaks."""
        out = {name: median(p[name] for p in self.passes) for name in self.passes[0]}
        out.update({metric: self.peaks[layer] / MIB for metric, layer in PEAKS.items()})
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,pass,name,start_s,end_s\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)
