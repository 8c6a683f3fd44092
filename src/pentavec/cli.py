"""Command line entry points.

Three subcommands:

``verify``    run the seeded self-check suites and report residuals
``transform`` apply a stored global transformation to a stored object
``basis``     build an orthonormal or regular basis from four stored wedges

Exit status: 0 on success, 1 when a verify check fails, 2 for usage
problems including unreadable or malformed input files.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .algebra import antisymmetric, bivector_from_four
from .bases import classify_basis, frame_residuals, orthonormal_basis_for, regular_basis_for
from .errors import KindMismatch, NotFinite, PentavecError
from .fileio import Record, read_record, transform_from_payload, write_record
from .grids import FieldOnGrid, SCHEMES
from .poincare import (
    conjugate,
    transform_generator_tensor,
    transform_param_tensor,
    transform_parallel,
    transform_parallel_form,
)
from .stress_energy import transform_moment_field

# The names of suites.SUITE_NAMES, in its order: the suites module (and
# clifford with it) is imported only when verify runs.
SUITE_NAMES = ("algebra", "bases", "clifford", "connection", "poincare", "conservation")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pentavec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run self-check suites")
    verify.add_argument("suite", nargs="?", default="all", choices=("all",) + SUITE_NAMES)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--kappa", type=float, default=1.0)
    verify.add_argument("--grid", type=int, default=17, metavar="N", help="base grid resolution")
    verify.add_argument("--scheme", choices=tuple(SCHEMES), default="central2")
    verify.add_argument("--format", choices=("human", "machine"), default="human")

    transform = sub.add_parser("transform", help="apply a stored transformation to a stored object")
    transform.add_argument("input")
    transform.add_argument("transform")
    transform.add_argument("-o", "--output", required=True)
    transform.add_argument("--basis", choices=("O", "P"), default=None, help="frame override for vectors and forms")
    transform.add_argument("--kappa", type=float, default=None)

    basis = sub.add_parser("basis", help="build a basis from four stored wedge bivectors")
    basis.add_argument("input")
    basis.add_argument("-o", "--output", required=True)
    basis.add_argument("--mode", choices=("orthonormal", "regular"), required=True)
    basis.add_argument("--negate-direction", action="store_true")
    return parser


# ----------------------------------------------------------------- verify

def _format_gate(check) -> str:
    op = ">=" if check.mode == "at-least" else "<="
    return f"{op} {check.gate:g}"


def _cmd_verify(args) -> int:
    from .suites import SuiteOptions, run_suites

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    options = SuiteOptions(seed=args.seed, kappa=args.kappa, grid_n=args.grid, scheme=args.scheme)
    reports = run_suites(names, options)
    failed = False
    for report in reports:
        if args.format == "machine":
            for check in report.checks:
                status = "pass" if check.passed else "fail"
                print(f"{report.name}.{check.name} {check.value:.6g} {check.gate:.6g} {status}")
        else:
            verdict = "PASS" if report.passed else "FAIL"
            print(f"suite {report.name}: {verdict} ({len(report.checks)} checks)")
            for check in report.checks:
                status = "pass" if check.passed else "FAIL"
                print(f"  {check.name:<40} {check.value:>12.4g}  {_format_gate(check):>12}  {status}")
        failed = failed or not report.passed
    if args.format == "human":
        print("overall:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


# -------------------------------------------------------------- transform

def _frame_for(record: Record, override: str | None) -> tuple[str, str]:
    """The frame of a vector or form record, and where it came from."""
    if override is not None:
        return override, "flag"
    if record.basis in ("O", "P"):
        return record.basis, "header"
    raise KindMismatch(
        f"kind {record.kind!r} needs a frame: set a basis header or pass --basis"
    )


def _kappa_for(record: Record, override: float | None) -> tuple[float, str]:
    """The transport constant, and where it came from: the flag, the header or the default 1.0."""
    if override is not None:
        return override, "flag"
    if record.kappa is not None:
        return record.kappa, "header"
    return 1.0, "default"


def _transform_record(record: Record, t, basis_override, kappa_override) -> tuple[Record, list]:
    """The moved record, and a line for the frame and for the kappa the law used,
    each with where it came from."""
    if record.kind in ("five_vector", "five_form", "five_vector_field"):
        frame, source = _frame_for(record, basis_override)
        used = [f"frame: {frame} ({source})"]
        kappa = 0.0  # the orthonormal-frame law is the parallel one at kappa = 0
        if frame == "P":
            kappa, source = _kappa_for(record, kappa_override)
            used.append(f"kappa: {kappa!r} ({source})")
        law = transform_parallel_form if record.kind == "five_form" else transform_parallel
        moved = law(record.payload, t, kappa)
        return Record(record.kind, moved, basis=frame, kappa=record.kappa, grid=record.grid), used
    if record.kind == "param_tensor":
        return Record(record.kind, transform_param_tensor(record.payload, t), kappa=record.kappa), []
    if record.kind == "generator_tensor":
        return Record(record.kind, transform_generator_tensor(record.payload, t), kappa=record.kappa), []
    if record.kind == "theta_field":
        moved = conjugate(record.payload, t)
        return Record(record.kind, moved, basis=record.basis, kappa=record.kappa, grid=record.grid), []
    if record.kind == "moment_field":
        if record.basis != "P":
            raise KindMismatch(
                "moment_field transforms in the parallel frame; convert to basis P first"
            )
        kappa, source = _kappa_for(record, kappa_override)
        field = FieldOnGrid(grid=record.grid, values=record.payload, basis="P")
        moved = transform_moment_field(field, t, kappa)
        out = Record(record.kind, moved.values, basis="P", kappa=record.kappa, grid=record.grid)
        return out, ["frame: P (header)", f"kappa: {kappa!r} ({source})"]
    raise KindMismatch(f"kind {record.kind!r} has no transformation law")


def _cmd_transform(args) -> int:
    if args.kappa is not None and not np.isfinite(args.kappa):
        raise NotFinite(f"--kappa must be finite, got {args.kappa}")
    record = read_record(args.input)
    t_record = read_record(args.transform)
    if t_record.kind != "poincare_transform":
        raise KindMismatch(
            f"transform file must hold a poincare_transform, got {t_record.kind!r}"
        )
    t = transform_from_payload(t_record.payload)
    with np.errstate(all="ignore"):  # an overflow is reported once, as NotFinite
        out, used = _transform_record(record, t, args.basis, args.kappa)
    write_record(args.output, out)
    for line in used:
        print(line)
    print(f"wrote {args.output}")
    return 0


# ------------------------------------------------------------------ basis

def _wedges_from_record(record: Record) -> np.ndarray:
    if record.kind == "four_basis_bivectors":
        return antisymmetric(record.payload, "wedge bivector")
    if record.kind == "four_basis_components":
        return bivector_from_four(record.payload)
    raise KindMismatch(
        "basis construction needs four_basis_bivectors or four_basis_components, "
        f"got {record.kind!r}"
    )


def _cmd_basis(args) -> int:
    record = read_record(args.input)
    wedges = _wedges_from_record(record)
    build = orthonormal_basis_for if args.mode == "orthonormal" else regular_basis_for
    cols = build(wedges, negate_direction=args.negate_direction)

    flags = classify_basis(cols)
    resid = frame_residuals(cols, wedges)
    gram_resid = resid.orthonormal if args.mode == "orthonormal" else resid.regular

    flag = "O" if args.mode == "orthonormal" else "regular"
    write_record(args.output, Record("basis", cols, basis=flag))
    print(f"mode: {args.mode}")
    print(
        "flags: standard={} regular={} orthonormal={}".format(
            *("yes" if f else "no" for f in (flags.standard, flags.regular, flags.orthonormal))
        )
    )
    print(f"gram residual: {gram_resid:.3g}")
    print(f"wedge residual: {resid.wedge:.3g}")
    print(f"wrote {args.output}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "transform": _cmd_transform, "basis": _cmd_basis}
    try:
        return handlers[args.command](args)
    except PentavecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
