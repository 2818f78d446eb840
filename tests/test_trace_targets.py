"""The benchmark's trace targets name functions that exist in grflab."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    # a renamed or moved function would silently drop out of the trace
    spans = load_spans()
    missing = []
    for target in spans.TRACED:
        try:
            owner, attr = spans._resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if not callable(vars(owner).get(attr)):
            missing.append(target)
    assert spans.TRACED and not missing, missing
