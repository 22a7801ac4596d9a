import importlib
import importlib.util
from pathlib import Path

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
