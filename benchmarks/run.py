"""pentavec benchmark: one closed-loop client running one workload.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {verify,records,grid,all} --seed N --seconds S --trace {0,1}
    python3 benchmarks/run.py --selftest

The program is run from ``src/`` of the checkout: commands as
``python -m pentavec`` subprocesses, one at a time, and the ``grid``
kernels in-process.  Inputs are made from ``--seed``.  Set-up is repeated
at least three times and its median reported as ``setup_s``.  Iterations then run
while the next is expected to end within ``--seconds`` (at least one runs),
and every output is checked.  ``peak_rss_mb`` is the largest RSS of a
child process; for ``grid`` it is that of one more, untimed pass in a fresh
process, since the benchmark's own process also holds the references.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` untraced and traced iterations
alternate, and it holds the per-layer metrics and the tracing overhead.
Lines before it give the same figures for a reader, with sample counts.
``--selftest`` runs every workload at smoke size and shows that a
corrupted output is counted as a failed operation.
"""

import os

# One BLAS thread: the load is one client and the benchmark adds no
# threads of its own.  Set before numpy is imported, here and in children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least three times and for at least this long; a short
# set-up is repeated more, so its median is not one noisy sample.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 4.0
IMPORT_REPEATS = 5
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"


def remove_work_dir() -> None:
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # absent, or another run is still using it


def tail_summary(values: list) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    text = f"median of {n}"
    if n < 11:
        return text + ", no percentile has ten samples beyond it"
    pct = math.floor(100 * (n - 10) / n)
    value = sorted(values)[math.ceil(pct * n / 100) - 1]
    return text + f", p{pct} {value:.4f}"


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def machine_line() -> str:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return (
        f"machine nproc={os.cpu_count()} arch={platform.machine()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy_version} blas_threads={BLAS_THREADS} commit={commit_id()}"
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def peak_rss_mb() -> float:
    """Largest RSS of any child process so far.

    A child's figure also takes in this process's peak RSS at the time it
    was spawned.  That floor stays below the commands' own on verify and
    records, but it would hide a command shrinking beneath it.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def measure(workload, seconds: float) -> list:
    """Iterations until the next, if it took as long as the last, would end
    after ``seconds``; at least one."""
    done = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        done.append(workload.iterate(len(done)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return done


class Alternating:
    """An untraced then a traced iteration, so that drift in the machine's
    speed affects both sides of the tracing overhead alike."""

    def __init__(self, workload, ctx, tracer):
        self.workload, self.ctx, self.tracer = workload, ctx, tracer

    def iterate(self, index: int) -> tuple:
        plain = self.workload.iterate(2 * index)
        self.ctx.tracer = self.tracer
        try:
            traced = self.workload.iterate(2 * index + 1)
        finally:
            self.ctx.tracer = None
        return plain, traced


def collect(iterations: list, parts: tuple) -> dict:
    out = {"wall_s": [it.wall for it in iterations]}
    for part in parts:
        out[part] = [v for it in iterations for v in it.parts[part]]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer, per_layer_metrics

    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(root=ROOT, work=work, seed=seed, sizes=workloads.FULL, env=child_env())
        workload = workloads.WORKLOADS[name](ctx)
        setup = []
        while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_SECONDS:
            start = time.perf_counter()
            workload.setup()
            setup.append(time.perf_counter() - start)
        attempted, problems = workload.prepare()
        if not trace:
            iterations = measure(workload, seconds)
            traced = []
        else:
            tracer = Tracer()
            pairs = measure(Alternating(workload, ctx, tracer), seconds)
            iterations = [plain for plain, _ in pairs]
            traced = [t for _, t in pairs]
        for it in iterations + traced:
            attempted += it.attempted
            problems.extend(it.problems)
        peak = peak_rss_mb()
        if workload.in_process:
            attempted += 1
            peak, problem = workload.fresh_pass()
            if problem:
                problems.append(problem)
        result = {
            "setup": setup,
            "samples": collect(iterations, workload.parts),
            "peak_rss_mb": peak,
            "attempted": attempted,
            "problems": problems,
            "parts": workload.parts,
        }
        if trace:
            plain = statistics.median(it.wall for it in iterations)
            overhead = statistics.median(t.wall - p.wall for p, t in pairs)
            import_s = statistics.median(workloads.import_seconds(ctx) for _ in range(IMPORT_REPEATS))
            result["per_layer"] = per_layer_metrics(tracer, len(traced), import_s, overhead, plain)
            result["traced"] = len(traced)
            RESULTS_DIR.mkdir(exist_ok=True)
            spans = RESULTS_DIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_spans(spans)
            result["spans_path"] = spans
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        remove_work_dir()


def report(name: str, seed: int, seconds: float, trace: bool, result: dict) -> dict:
    """Print the figures for a reader; return the JSON result object."""
    print(f"pentavec benchmark workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(machine_line())
    failed = len(result["problems"])
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    setup_s = statistics.median(result["setup"])
    samples = result["samples"]
    print(f"{'setup_s':<20} {setup_s:10.4f} s   {tail_summary(result['setup'])}")
    for part in ("wall_s",) + result["parts"]:
        values = samples[part]
        print(f"{part:<20} {statistics.median(values):10.4f} s   {tail_summary(values)}")
    print(f"{'peak_rss_mb':<20} {result['peak_rss_mb']:10.1f} MB")
    print(f"{'ops_attempted':<20} {result['attempted']:10d}")
    print(f"{'ops_failed':<20} {failed:10d}")
    if trace:
        print(f"per-layer figures per traced iteration ({result['traced']} traced); spans in {result['spans_path']}")
        print("  (bytes_moved is computed from the sizes of the arrays a call reads and returns, not measured)")
        for metric, (value, unit) in result["per_layer"].items():
            print(f"  {metric:<52} {value:14.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": result["attempted"], "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("verify", "records", "grid", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="show that corrupted outputs are counted")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pentavec" / "__init__.py").is_file():
        print(f"error: no pentavec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        try:
            return selftest.run(ROOT, WORK_DIR / f"selftest-{os.getpid()}", child_env())
        finally:
            remove_work_dir()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, args.seconds, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
