"""The traced benchmark run finds every function it times."""

import importlib
import importlib.util
from pathlib import Path


def test_trace_targets_are_package_attributes():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"pentavec.{module}.{name}"
        for module, name in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"pentavec.{module}"), name, None))
    ]
    assert not missing
