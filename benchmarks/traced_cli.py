"""Run one pentavec command with the benchmark's tracer installed.

Usage: python3 traced_cli.py SPANS_OUT RUN_ID -- ARGS...

Imports pentavec, wraps the traced functions, runs ``pentavec ARGS``,
writes the spans and per-name totals to SPANS_OUT as JSON, and exits
with the command's status.
"""

import sys

import pentavec.cli

from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return pentavec.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
