"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
and methods by name: a module attribute, or an entry in the class's own
__dict__.  A name renamed, removed or only inherited breaks a traced
run, so every name in its target tables must resolve.  The tracer is
read, never installed."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_TARGETS, tracer.LIGHT_TARGETS, tracer.COUNT_TARGETS


def test_every_traced_name_resolves():
    missing = []
    count = 0
    for targets in _tracer_tables():
        for layer, paths in targets.items():
            module = importlib.import_module(f"udrfusion.{layer}")
            for path in paths:
                count += 1
                if "." in path:
                    cls_name, attr = path.split(".")
                    found = attr in vars(getattr(module, cls_name, object))
                else:
                    found = callable(getattr(module, path, None))
                if not found:
                    missing.append(f"{layer}.{path}")
    assert count > 100
    assert missing == []
