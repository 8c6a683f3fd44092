"""Spans around calls into pentavec's public functions, for the traced run.

``Tracer.install`` replaces each target function at every module attribute
of the package that refers to it, so calls made through any module's
namespace are timed, and ``uninstall`` puts the originals back.  Nothing in
the package itself changes.  Spans are kept in memory as
(name, start, end, parent, run id) and written out when the run ends.  A
span's self time is its duration minus the time of the spans it contains.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# Public functions timed in the traced run, as (module, function).
TARGETS = (
    ("cli", "main"),
    ("fileio", "read_record"),
    ("fileio", "write_record"),
    ("fileio", "parse_record"),
    ("fileio", "emit_record"),
    ("algebra", "wedge"),
    ("algebra", "directional_vector"),
    ("bases", "orthonormal_basis_for"),
    ("bases", "regular_basis_for"),
    ("bases", "decompose_upm"),
    ("clifford", "apply_metric_preserving"),
    ("connection", "transport"),
    ("connection", "parallel_frame_change"),
    ("connection", "transform_connection_field"),
    ("connection", "covariant_derivative"),
    ("grids", "partial_derivative"),
    ("poincare", "transform_parallel"),
    ("poincare", "homogeneous_rep"),
    ("stress_energy", "assemble_moment_field"),
    ("stress_energy", "moment_to_orthonormal"),
    ("stress_energy", "moment_to_parallel"),
    ("stress_energy", "conservation_report"),
    ("stress_energy", "transform_moment_field"),
    ("suites", "run_suite"),
    ("suites", "random_lorentz"),
    ("suites", "random_invertible"),
)

# Records whose transform commands make up cli.transform_other_s.
OTHER_FIELDS = ("five_vector_field", "theta_field")

SUITE_NAMES = ("algebra", "bases", "clifford", "connection", "poincare", "conservation")

PER_OBJECT = (
    "algebra.wedge",
    "algebra.directional_vector",
    "bases.orthonormal_basis_for",
    "bases.regular_basis_for",
    "bases.decompose_upm",
    "connection.transport",
    "connection.parallel_frame_change",
    "poincare.transform_parallel",
    "poincare.homogeneous_rep",
    "clifford.apply_metric_preserving",
    "suites.random_lorentz",
    "suites.random_invertible",
)

GRID_KERNELS = (
    "stress_energy.assemble_moment_field",
    "stress_energy.moment_to_orthonormal",
    "stress_energy.moment_to_parallel",
    "stress_energy.conservation_report",
    "grids.partial_derivative",
    "connection.transform_connection_field",
    "connection.covariant_derivative",
)


class _CountingRng:
    """Passes calls through to a numpy Generator, counting ``normal`` draws."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def normal(self, *args, **kwargs):
        self.draws += 1
        return self._rng.normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _samples(grid) -> int:
    return int(np.prod(grid.shape))


def _grid_kernel_work(label, args, kwargs, result):
    """(samples, bytes) of one grid-kernel call.

    Bytes are computed from the sizes of the arrays the call reads and the
    arrays it returns; temporaries and cache misses are not counted.
    """
    if label == "stress_energy.assemble_moment_field":
        return _samples(args[2]), args[0].nbytes + args[1].nbytes + result.values.nbytes
    if label in ("stress_energy.moment_to_orthonormal", "stress_energy.moment_to_parallel"):
        return _samples(args[0].grid), args[0].values.nbytes + result.values.nbytes
    if label == "stress_energy.conservation_report":
        return _samples(args[0].grid), args[0].values.nbytes
    if label == "grids.partial_derivative":
        values = np.asarray(args[0])
        return _samples(args[1]), values.nbytes + result.nbytes
    if label == "connection.transform_connection_field":
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        return _samples(grid), np.asarray(args[1]).nbytes + result.nbytes
    if label == "connection.covariant_derivative":
        return _samples(args[0].grid), args[0].values.nbytes + result.values.nbytes
    raise KeyError(label)


def _work(label, args, kwargs, result):
    """(work count, bytes) recorded for a call, or None."""
    if label == "fileio.parse_record":
        return result.payload.size, 0
    if label == "fileio.emit_record":
        return args[0].payload.size, 0
    if label == "suites.random_invertible":
        return args[0].draws, 0
    if label in GRID_KERNELS:
        return _grid_kernel_work(label, args, kwargs, result)
    return None


def _span_name(label, args, kwargs) -> str:
    if label == "suites.run_suite":
        return f"suites.{args[0]}"
    if label == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        if not argv:
            return label
        if argv[0] == "transform" and len(argv) > 1:
            # The benchmark names each input record after its kind.
            return f"cli.main.transform.{Path(argv[1]).stem}"
        return f"cli.main.{argv[0]}"
    return label


class Tracer:
    """In-memory spans and per-name totals: calls, total, self, work, bytes."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list = []
        self.stats: dict[str, list] = {}
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, label, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if label == "suites.random_invertible":
                args = (_CountingRng(args[0]),) + args[1:]
            name = _span_name(label, args, kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            children = [0.0]
            stack.append((index, children))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1][0] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.run_id)
                entry = tracer.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children[0]
            work = _work(label, args, kwargs, result)
            if work is not None:
                entry[3] += int(work[0])
                entry[4] += int(work[1])
            return result

        return traced

    def install(self) -> None:
        owners = {name: importlib.import_module(f"pentavec.{name}") for name, _ in TARGETS}
        package = [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == "pentavec" or name.startswith("pentavec."))
        ]
        for module_name, func in TARGETS:
            original = getattr(owners[module_name], func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "stats": self.stats}, fh)

    def absorb(self, path) -> None:
        """Add the spans and totals another process dumped."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent, run_id in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, run_id))
        for name, values in data["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(values):
                entry[i] += v

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(tracer: Tracer, iterations: int, import_s: float, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer figures per traced iteration, as {name: (value, unit)}.

    ``.s`` is self time, except for the suites, whose ``.s`` is the whole
    time of ``run_suite`` for that suite.  ``fileio.file_io.s`` is the self
    time of ``read_record`` and ``write_record``: the file reads and writes
    around parse and emit.  ``cli.transform_other_s`` is the self time of the
    five-vector and theta field transform commands, that is their wall time
    minus import, file I/O, parse and emit.  Layers a workload bypasses read 0.
    """
    def stat(name):
        return tracer.stats.get(name, [0, 0.0, 0.0, 0, 0])

    def rate(count, seconds):
        return count / seconds / 1e6 if seconds > 0 else 0.0

    per = 1.0 / max(iterations, 1)
    out = {"import.s": (import_s, "s")}
    for name, short in (("fileio.parse_record", "parse"), ("fileio.emit_record", "emit")):
        calls, _, self_s, values, _ = stat(name)
        out[f"{name}.calls"] = (calls * per, "count")
        out[f"{name}.s"] = (self_s * per, "s")
        out[f"fileio.{short}_mvalues_per_s"] = (rate(values, self_s), "Mvalues/s")
    out["fileio.file_io.s"] = ((stat("fileio.read_record")[2] + stat("fileio.write_record")[2]) * per, "s")
    calls, _, self_s, _, _ = stat("stress_energy.transform_moment_field")
    out["stress_energy.transform_moment_field.calls"] = (calls * per, "count")
    out["stress_energy.transform_moment_field.s"] = (self_s * per, "s")
    main_calls = sum(v[0] for k, v in tracer.stats.items() if k.startswith("cli.main."))
    out["cli.main.calls"] = (main_calls * per, "count")
    other = sum(stat(f"cli.main.transform.{kind}")[2] for kind in OTHER_FIELDS)
    out["cli.transform_other_s"] = (other * per, "s")
    for suite in SUITE_NAMES:
        calls, total, _, _, _ = stat(f"suites.{suite}")
        out[f"suites.{suite}.calls"] = (calls * per, "count")
        out[f"suites.{suite}.s"] = (total * per, "s")
    for name in PER_OBJECT:
        calls, _, self_s, _, _ = stat(name)
        out[f"{name}.calls"] = (calls * per, "count")
        out[f"{name}.s"] = (self_s * per, "s")
    calls, _, _, draws, _ = stat("suites.random_invertible")
    out["suites.random_invertible.draws_per_accept"] = (draws / calls if calls else 0.0, "ratio")
    for name in GRID_KERNELS:
        calls, _, self_s, samples, nbytes = stat(name)
        out[f"{name}.calls"] = (calls * per, "count")
        out[f"{name}.s"] = (self_s * per, "s")
        out[f"{name}.msamples_per_s"] = (rate(samples, self_s), "Msamples/s")
        out[f"{name}.bytes_moved"] = (nbytes * per, "B")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_pct"] = (100.0 * overhead_s / untraced_s if untraced_s > 0 else 0.0, "%")
    return out
