"""The traced benchmark run finds every function it times."""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np

from pentavec import forking, stress_energy
from pentavec.grids import Grid


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_targets_are_package_attributes():
    tracing = load_tracing()
    missing = [
        f"pentavec.{module}.{name}"
        for module, name in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"pentavec.{module}"), name, None))
    ]
    assert not missing


def test_the_row_worker_thread_calls_no_traced_function(monkeypatch):
    # The tracer keeps one stack of open spans, so only the calling thread
    # may enter a function it times; the kernels' worker thread runs numpy.
    monkeypatch.setattr(forking, "can_fork", lambda: True)
    tracer, threads = load_tracing().Tracer(), []
    wrap = tracer._wrap

    def recording(label, original):
        traced = wrap(label, original)
        return lambda *args, **kwargs: threads.append(threading.get_ident()) or traced(*args, **kwargs)

    tracer._wrap = recording
    grid = Grid(origin=(-0.7, 0.3, -1.1, 0.2), spacing=(0.3, 0.25, 0.2, 1.0), shape=(9, 7, 6, 1))
    theta = np.random.default_rng(1).normal(size=grid.shape + (4, 4))
    tracer.install()
    try:
        m = stress_energy.assemble_moment_field(theta, np.zeros(grid.shape + (4, 4, 4)), grid)
        o = stress_energy.moment_to_orthonormal(m, 1.0)
        stress_energy.moment_to_parallel(o, 1.0)
        for field in (m, o):
            for scheme in ("central2", "central4"):
                stress_energy.conservation_report(field, 1.0, scheme)
    finally:
        tracer.uninstall()
    assert threads == [threading.get_ident()] * 7
    assert tracer.stats["stress_energy.conservation_report"][0] == 4
