import importlib
import importlib.util
from pathlib import Path

import numpy as np

from tseval import LearnerSpec, build_plan, fit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    """The tracer wraps functions by dotted name; a renamed or moved one
    would break ``perfbench/run.py --trace 1``."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [name for places in spans.LAYERS.values() for name in places]
    assert names
    for name in names:
        module_name, _, attribute = name.rpartition(".")
        assert callable(getattr(importlib.import_module(module_name), attribute, None)), name


def test_what_the_checks_read_is_still_there():
    """``perfbench`` reads these outside the traced names; a rename would
    otherwise fail only the traced benchmark runs."""
    spec = LearnerSpec()
    assert spec.kind == "lasso" and spec.tol == 1e-6
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    model = fit(spec, X, X @ [1.0, -1.0, 0.5] + rng.normal(size=30))
    assert model.std_coefficients.shape == (3,) and model.lam > 0
    iteration = build_plan("Preq-Bls-Gap", 100, p=2).iterations[0]
    for part in (iteration.train, iteration.test, iteration.gap):
        assert part.dtype.kind == "i"
    assert iteration.gap.size > 0
