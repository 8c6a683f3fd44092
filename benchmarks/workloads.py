"""The three workloads: one ``iterate`` call is one unit of timed work.

verify   the ``pentavec verify all`` command, in a subprocess
records  ``pentavec transform`` on three stored fields and ``pentavec basis``
         in both modes, each in a subprocess, on records written at set-up
grid     the moment pipeline and connection kernels called in-process on
         arrays made at set-up

Each workload checks every output it produces; a failed check or a nonzero
exit counts one failed operation.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import SUITE_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
# A command that runs longer than this counts as failed.
COMMAND_TIMEOUT_S = 150.0
KAPPA = 1.0
SCHEMES = ("central2", "central4")
# Transport constant stored in the five_vector_field header.
FIELD_KAPPA = 0.5
# One untimed grid pass in a fresh process, which then prints its peak RSS
# in kB.  Arguments: the benchmark's directory, the checkout root, the seed
# and the two grid sizes.
FRESH_GRID_PASS = (
    "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import workloads; "
    "ctx = workloads.Context(root=Path(sys.argv[2]), work=Path.cwd(), seed=int(sys.argv[3]), "
    "sizes=workloads.Sizes(int(sys.argv[4]), int(sys.argv[5])), env={}); "
    "grid = workloads.GridWorkload(ctx); grid.make_inputs(); grid.run_kernels(); "
    "print(workloads.own_peak_rss_kb())"
)


@dataclass(frozen=True)
class Sizes:
    moment_n: int = 33  # grid of the moment pipeline
    connection_n: int = 17  # grid of the connection kernels
    # Grid of the records.  One 33^3 iteration would fill the whole window
    # and leave one sample per run; at 21^3 about four fit, and fileio is
    # still the largest part.
    records_n: int = 21
    verify_suite: str = "all"


FULL = Sizes()
# Small enough that every workload runs in seconds; used by the self-test.
SMOKE = Sizes(moment_n=9, connection_n=5, records_n=9, verify_suite="clifford")


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    sizes: Sizes
    env: dict
    tracer: Tracer | None = None


@dataclass
class Iteration:
    wall: float
    parts: dict
    attempted: int
    problems: list = field(default_factory=list)


def run_pentavec(ctx: Context, args: list, run_id: str):
    """Run one pentavec command; returns (seconds, exit code, stdout, stderr)."""
    spans = ctx.work / "spans.json"
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "pentavec", *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), run_id, "--", *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ctx.work, env=ctx.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, "", f"timed out after {COMMAND_TIMEOUT_S:g} s"
    elapsed = time.perf_counter() - start
    if ctx.tracer is not None and spans.exists():
        ctx.tracer.absorb(spans)
        spans.unlink()
    return elapsed, proc.returncode, proc.stdout, proc.stderr


def import_seconds(ctx: Context) -> float:
    """Wall time of a fresh ``import pentavec`` in a subprocess."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import pentavec"], cwd=ctx.work, env=ctx.env, capture_output=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError("import pentavec failed: " + proc.stderr.decode(errors="replace").strip())
    return elapsed


def own_peak_rss_kb() -> int:
    """Peak RSS of this process's own address space, in kB.

    Not ``getrusage``: its maximum also takes in the address space the
    process had before exec, that is the RSS of the process that spawned it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _exit_problem(what: str, rc: int, stderr: str) -> str:
    tail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return f"{what} exited {rc}: {tail}"


class VerifyWorkload:
    name = "verify"
    parts = ("verify_s",)
    in_process = False

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        import_seconds(self.ctx)

    def prepare(self) -> tuple[int, list]:
        return 0, []

    def command(self) -> list:
        # Defaults otherwise (grid 17, kappa 1, central2, one job), so the
        # command stays valid if a later version drops a flag.
        return ["verify", self.ctx.sizes.verify_suite, "--seed", str(self.ctx.seed), "--format", "machine"]

    def suites(self) -> tuple:
        suite = self.ctx.sizes.verify_suite
        return SUITE_NAMES if suite == "all" else (suite,)

    def outcome(self, dt: float, rc: int, stdout: str) -> Iteration:
        problem = checks.check_verify(rc, stdout, self.suites())
        return Iteration(dt, {"verify_s": [dt]}, 1, [problem] if problem else [])

    def iterate(self, index: int) -> Iteration:
        dt, rc, stdout, _ = run_pentavec(self.ctx, self.command(), f"verify/{index}")
        return self.outcome(dt, rc, stdout)


class RecordsWorkload:
    name = "records"
    parts = ("transform_moment_s", "transform_fields_s", "basis_cmd_s")
    in_process = False
    FIELDS = ("moment_field", "five_vector_field", "theta_field")
    MODES = ("orthonormal", "regular")

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def path(self, name: str) -> Path:
        return self.ctx.work / f"{name}.pv"

    def setup(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        n = self.ctx.sizes.records_n
        coords = inputs.grid_coords(n)
        shape = coords.shape[:-1]
        theta = inputs.wave_stress(coords, inputs.null_wave_vector(rng))
        moment = inputs.moment_current(coords, theta, inputs.spin_current(rng, shape))
        lam = inputs.cayley(inputs.ETA4, rng, 0.35)
        shift = rng.normal(0.0, 1.0, 4)
        vectors = rng.normal(0.0, 1.0, shape + (5,))
        stresses = rng.normal(0.0, 1.0, shape + (4, 4))
        wedges = dict(zip(self.MODES, inputs.wedge_sets(rng)))
        texts = {
            "moment_field": inputs.record_text("moment_field", "five", moment, basis="P", n=n),
            "five_vector_field": inputs.record_text(
                "five_vector_field", "five", vectors, basis="P", kappa=FIELD_KAPPA, n=n
            ),
            "theta_field": inputs.record_text("theta_field", "four", stresses, n=n),
            "transform": inputs.record_text("poincare_transform", "four", np.concatenate([lam.ravel(), shift])),
        }
        for mode, w in wedges.items():
            texts[f"wedges_{mode}"] = inputs.record_text("four_basis_bivectors", "five", w)
        for name, text in texts.items():
            self.path(name).write_text(text, encoding="utf-8")
        import_seconds(self.ctx)
        self.data = {"moment_field": moment, "five_vector_field": vectors, "theta_field": stresses,
                     "lam": lam, "shift": shift, "wedges": wedges}

    def prepare(self) -> tuple[int, list]:
        d = self.data
        self.expected = {
            "moment_field": checks.moment_law(d["moment_field"], d["lam"], d["shift"]),
            "five_vector_field": checks.five_vector_law(d["five_vector_field"], d["lam"], d["shift"], FIELD_KAPPA),
            "theta_field": checks.theta_law(d["theta_field"], d["lam"]),
        }
        return 0, []

    def check_transform(self, kind: str, rc: int, stderr: str) -> str | None:
        if rc != 0:
            return _exit_problem(f"transform {kind}", rc, stderr)
        try:
            text = self.path(f"out_{kind}").read_text(encoding="utf-8")
        except OSError as exc:
            return f"transform {kind} wrote no readable output: {exc}"
        return checks.check_record(text, kind, self.expected[kind])

    def check_basis(self, mode: str, rc: int, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            return _exit_problem(f"basis --mode {mode}", rc, stderr)
        try:
            text = self.path(f"basis_{mode}").read_text(encoding="utf-8")
        except OSError as exc:
            return f"basis --mode {mode} wrote no readable output: {exc}"
        return checks.check_basis(stdout, text, self.data["wedges"][mode], mode)

    def iterate(self, index: int) -> Iteration:
        parts = {"transform_moment_s": [], "transform_fields_s": [0.0], "basis_cmd_s": []}
        problems = []
        for kind in self.FIELDS:
            out = self.path(f"out_{kind}")
            out.unlink(missing_ok=True)
            args = ["transform", str(self.path(kind)), str(self.path("transform")), "-o", str(out)]
            dt, rc, _, stderr = run_pentavec(self.ctx, args, f"records/{index}/transform-{kind}")
            if kind == "moment_field":
                parts["transform_moment_s"].append(dt)
            else:
                parts["transform_fields_s"][0] += dt
            problems.append(self.check_transform(kind, rc, stderr))
        for mode in self.MODES:
            out = self.path(f"basis_{mode}")
            out.unlink(missing_ok=True)
            args = ["basis", str(self.path(f"wedges_{mode}")), "-o", str(out), "--mode", mode]
            dt, rc, stdout, stderr = run_pentavec(self.ctx, args, f"records/{index}/basis-{mode}")
            parts["basis_cmd_s"].append(dt)
            problems.append(self.check_basis(mode, rc, stdout, stderr))
        wall = parts["transform_moment_s"][0] + parts["transform_fields_s"][0] + sum(parts["basis_cmd_s"])
        return Iteration(wall, parts, len(problems), [p for p in problems if p])


class GridWorkload:
    name = "grid"
    parts = ("grid_s",)
    in_process = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        src = str(ctx.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import pentavec.connection
        import pentavec.grids
        import pentavec.stress_energy

        self.cn = pentavec.connection
        self.grids = pentavec.grids
        self.se = pentavec.stress_energy

    def setup(self) -> None:
        self.make_inputs()
        import_seconds(self.ctx)

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        n, m = self.ctx.sizes.moment_n, self.ctx.sizes.connection_n
        coords = inputs.grid_coords(n)
        self.theta = inputs.wave_stress(coords, inputs.null_wave_vector(rng))
        self.sigma = inputs.spin_current(rng, coords.shape[:-1])
        self.constant_theta = inputs.constant_stress(rng)
        coords_c = inputs.grid_coords(m)
        parallel = inputs.parallel_change(coords_c, KAPPA)
        self.lam = inputs.cayley(inputs.ETA4, rng, 0.35)
        self.c = np.eye(5) + 0.2 * rng.normal(0.0, 1.0, (5, 5))
        self.change = parallel @ self.c
        self.u_parallel = rng.normal(0.0, 1.0, 5)
        self.u = parallel @ self.u_parallel
        self.coords = coords
        self.grid = self.grids.Grid(*inputs.grid_geometry(n))
        self.grid_c = self.grids.Grid(*inputs.grid_geometry(m))
        self.coeffs = self.cn.ConnectionCoeffs(inputs.flat_coefficients(KAPPA))

    def prepare(self) -> tuple[int, list]:
        """References, and the exact-zero divergence of a constant stress."""
        self.ref_m = inputs.moment_current(self.coords, self.theta, self.sigma)
        ref_o = np.zeros_like(self.ref_m)
        ref_o[..., :4, :4] = self.sigma
        ref_o[..., 4, :4] = self.theta
        ref_o[..., :4, 4] = -self.theta
        self.ref_o = ref_o
        h = 1.0 / (self.ctx.sizes.moment_n - 1)
        g = inputs.flat_coefficients(KAPPA)
        self.ref_reports = {}
        for frame, values in (("P", self.ref_m), ("O", ref_o)):
            for scheme in SCHEMES:
                width = self.grids.scheme_width(scheme)
                self.ref_reports[frame, scheme] = checks.divergence_residuals(
                    values, h, width, g if frame == "O" else None
                )
        self.ref_connection = np.broadcast_to(
            checks.connection_closed_form(self.c, self.lam, KAPPA), self.grid_c.shape + (5, 5, 4)
        )
        self.ref_covariant = np.broadcast_to(
            checks.covariant_closed_form(self.u_parallel, KAPPA), self.grid_c.shape + (5, 4)
        )

        theta = np.broadcast_to(self.constant_theta, self.grid_c.shape + (4, 4))
        current = self.se.assemble_moment_field(theta, np.zeros(self.grid_c.shape + (4, 4, 4)), self.grid_c)
        problems = []
        for field_ in (current, self.se.moment_to_orthonormal(current, KAPPA)):
            report = self.se.conservation_report(field_, KAPPA, "central2")
            if report.worst() != 0.0:
                problems.append(
                    f"constant stress in frame {field_.basis}: central2 divergence {report.worst():.3g}, expected 0"
                )
        return 2, problems

    def run_kernels(self) -> dict:
        se, cn = self.se, self.cn
        m = se.assemble_moment_field(self.theta, self.sigma, self.grid)
        o = se.moment_to_orthonormal(m, KAPPA)
        p = se.moment_to_parallel(o, KAPPA)
        reports = {(f.basis, s): se.conservation_report(f, KAPPA, s) for f in (m, o) for s in SCHEMES}
        connection = cn.transform_connection_field(self.coeffs, self.change, self.lam, self.grid_c)
        covariant = cn.covariant_derivative(self.grids.FieldOnGrid(self.grid_c, self.u, basis="O"), self.coeffs)
        return {"m": m.values, "o": o.values, "p": p.values, "reports": reports,
                "connection": connection, "covariant": covariant.values}

    def check(self, out: dict) -> tuple[int, list]:
        found = [
            ("assemble_moment_field", checks.close(out["m"], self.ref_m)),
            ("moment_to_orthonormal", checks.close(out["o"], self.ref_o)),
            ("P->O->P round trip", checks.close(out["p"], out["m"])),
        ]
        for key, report in out["reports"].items():
            got = (report.momentum_residual, report.angular_residual)
            found.append((f"conservation_report {key}", checks.close(got, self.ref_reports[key])))
        found.append(("transform_connection_field", checks.close(out["connection"], self.ref_connection)))
        found.append(("covariant_derivative", checks.close(out["covariant"], self.ref_covariant)))
        return len(found), [f"{what}: {problem}" for what, problem in found if problem]

    def fresh_pass(self) -> tuple[float, str | None]:
        """One untimed pass in a fresh process that holds only the inputs;
        returns its peak RSS in MB and a problem, if any.

        This process also holds the references and earlier set-ups' arrays,
        so the program's peak RSS is read from that child instead.
        """
        sizes = self.ctx.sizes
        cmd = [sys.executable, "-c", FRESH_GRID_PASS, str(BENCH_DIR), str(self.ctx.root), str(self.ctx.seed),
               str(sizes.moment_n), str(sizes.connection_n)]
        try:
            proc = subprocess.run(cmd, cwd=self.ctx.work, env=self.ctx.env, capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return 0.0, f"fresh grid pass timed out after {COMMAND_TIMEOUT_S:g} s"
        if proc.returncode:
            return 0.0, _exit_problem("fresh grid pass", proc.returncode, proc.stderr)
        return int(proc.stdout.split()[-1]) / 1024.0, None

    def iterate(self, index: int) -> Iteration:
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.run_id = f"grid/{index}"
            tracer.install()
        start = time.perf_counter()
        try:
            out = self.run_kernels()
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        attempted, problems = self.check(out)
        return Iteration(wall, {"grid_s": [wall]}, attempted, problems)


WORKLOADS = {w.name: w for w in (VerifyWorkload, RecordsWorkload, GridWorkload)}
