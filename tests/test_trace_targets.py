"""Every public name the benchmark's tracer wraps must exist in quaddyn.

perfbench/tracing.py is loaded by path and only read: a deleted or renamed
public function fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_trace_targets_resolve():
    targets = _targets()
    assert targets
    for name, module_name, attr in targets:
        obj = importlib.import_module("quaddyn." + module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: quaddyn.{module_name}.{attr} is missing"
            obj = getattr(obj, part)
        assert callable(obj), name
