"""Negative self-test of the harness, at smoke size.

One iteration of each workload must pass.  Then one output of each kind
is corrupted and must be counted as a failed operation: a single value
perturbed in an output record, a verify line flipped to ``fail``, and a
single value perturbed in a grid kernel's result.  A check that let any
of these through would be tautological.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

import workloads


def perturb_record(path: Path) -> None:
    """Move the middle payload value by 1e-6 of the record's largest value."""
    head, sep, body = path.read_text(encoding="utf-8").partition("\ndata\n")
    tokens = body.split()
    scale = max(1.0, float(np.max(np.abs(np.array(tokens, dtype=float)))))
    i = len(tokens) // 2
    tokens[i] = repr(float(tokens[i]) + 1e-6 * scale)
    rows = (" ".join(tokens[j : j + 8]) for j in range(0, len(tokens), 8))
    path.write_text(head + sep + "\n".join(rows) + "\n", encoding="utf-8")


def flip_first_line(stdout: str) -> str:
    lines = stdout.splitlines()
    fields = lines[0].split()
    lines[0] = " ".join(fields[:-1] + ["fail"])
    return "\n".join(lines) + "\n"


def run(root: Path, work: Path, env: dict) -> int:
    work.mkdir(parents=True, exist_ok=True)
    results = []

    def expect(label: str, problems: list, corrupted: bool) -> None:
        ok = bool(problems) == corrupted
        detail = problems[0] if problems else "no failure counted"
        results.append(ok)
        print(f"{'ok  ' if ok else 'BAD '} {label}: {detail}")

    try:
        ctx = workloads.Context(root=root, work=work, seed=7, sizes=workloads.SMOKE, env=env)

        verify = workloads.VerifyWorkload(ctx)
        verify.setup()
        dt, rc, stdout, _ = workloads.run_pentavec(ctx, verify.command(), "selftest/verify")
        expect("verify as run", verify.outcome(dt, rc, stdout).problems, False)
        expect("verify with one line flipped to fail", verify.outcome(dt, rc, flip_first_line(stdout)).problems, True)

        records = workloads.RecordsWorkload(ctx)
        records.setup()
        records.prepare()
        expect("records iteration as run", records.iterate(0).problems, False)
        for kind in records.FIELDS:
            perturb_record(records.path(f"out_{kind}"))
            problem = records.check_transform(kind, 0, "")
            expect(f"{kind} output with one value perturbed", [problem] if problem else [], True)
        mode = records.MODES[0]
        perturb_record(records.path(f"basis_{mode}"))
        problem = records.check_basis(mode, 0, "gram residual: 0\nwedge residual: 0\n", "")
        expect(f"basis --mode {mode} output with one value perturbed", [problem] if problem else [], True)

        grid = workloads.GridWorkload(ctx)
        grid.setup()
        attempted, problems = grid.prepare()
        expect("grid constant-stress divergence", problems, False)
        out = grid.run_kernels()
        expect("grid pass as run", grid.check(out)[1], False)
        _, problem = grid.fresh_pass()
        expect("grid pass in a fresh process", [problem] if problem else [], False)
        for key in ("p", "connection", "covariant"):
            bad = dict(out)
            bad[key] = np.array(out[key])
            flat = bad[key].reshape(-1)
            flat[flat.size // 2] += 1e-6 * max(1.0, float(np.max(np.abs(flat))))
            expect(f"grid output {key!r} with one value perturbed", grid.check(bad)[1], True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passed = all(results)
    print(f"selftest: {'passed' if passed else 'FAILED'} ({sum(results)} of {len(results)} controls as expected)")
    return 0 if passed else 1
