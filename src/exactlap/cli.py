"""Command-line front end: exact solves as JSON reports on standard output.

Exit codes separate theorem-consistent outcomes from bugs:

  0   success, including the expected singular/unsolvable cases on finite
      graphs once a ball has swallowed the whole graph
  2   anomaly: an outcome the theory rules out on infinite graphs
      (singular truncation, broken chain nesting, failed lift or certificate)
  3   the graph, target, or weight description failed validation (the
      target is parsed in every mode but fixtures), --out cannot be written,
      or two fixtures --graph entries would write the same file name
  4   coherent mode could not certify stabilization within the depth budget
  5   the graph oracle would discover more vertices than its budget
      (`exactlap.oracle.VERTEX_BUDGET`) while serving the request
  64  bad flags or flag combinations (schema help goes to standard error),
      including an integer flag that is not ASCII decimal

The flag grammar lives in `exactlap.flags`, the report builders of the
solving modes in `exactlap.reports`, and fixtures mode in
`exactlap.fixtures`, which only a fixtures request imports.

Standard output carries exactly one JSON report; logs and error text go to
standard error.  Identical flags (and seed) produce byte-identical output.
Every report, the "singular" and "no_universal_element" ones included, goes
through one tail: --out is written first, then standard output, so an --out
that cannot be written leaves standard output empty.
"""

from __future__ import annotations

import sys

from .errors import (
    BadFamilyParameter,
    EmptyUniversalSet,
    ExactLapError,
    GraphSpecError,
    OracleInconsistent,
    SingularSystem,
    SpecFormatError,
    VertexBudgetExceeded,
)
from .direct import solve_on_ball  # kept for the benchmark's self-test
from .flags import (  # all six exit codes stay importable from here
    EXIT_ANOMALY,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_OVER_BUDGET,
    EXIT_USAGE,
    EXIT_WINDOW_EXCEEDED,
    parse_flags,
    usage_error,
)
from .graphs import validate_oracle
from .reports import _REPORTS
from .serialize import lambda_from_text, target_from_text
from .specs import graph_from_text
from .wire import describe_lambda, dump_report


def run_cli(argv: list[str] | None = None) -> int:
    """Parse flags, run the requested mode, print one JSON report."""
    if argv is None:
        argv = sys.argv[1:]
    degenerate = None  # a singular ball or empty stabilized image, reported like any outcome
    try:
        args = parse_flags(argv)
        if args.mode == "fixtures":
            from .fixtures import fixtures_report  # only fixtures requests compile it

            report, code = fixtures_report(args)
        else:
            oracle = graph_from_text("z" if args.graph is None else args.graph)
            probe = args.radius if args.radius is not None else 2
            validate_oracle(oracle, min(2, max(0, probe)))
            lam = lambda_from_text(args.lam)
            if args.window < 1:
                usage_error("--window must be at least 1")
            if args.radius is None:
                usage_error(f"--mode {args.mode} requires --radius")
            if args.radius < 0:
                usage_error("--radius must be nonnegative")
            target = target_from_text(args.target)
            try:
                fields, code = _REPORTS[args.mode](args, oracle, target, lam, args.radius)
                report = {"mode": args.mode, "graph": oracle.name, "target": args.target,
                          "lambda": describe_lambda(lam), **fields}
            except SingularSystem as e:
                degenerate, report = e, {
                    "mode": args.mode,
                    "radius": e.radius,
                    "status": "singular",
                    "singular_expected_finite": bool(e.boundary_saturated),
                    "boundary_saturated": bool(e.boundary_saturated),
                }
            except EmptyUniversalSet as e:
                degenerate, report = e, {
                    "mode": args.mode,
                    "level": e.level,
                    "status": "no_universal_element",
                    "unsolvable_expected_finite": bool(e.boundary_saturated),
                }
        text = dump_report(report)
        if args.out is not None and args.mode != "fixtures":
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else EXIT_USAGE
    except (SpecFormatError, GraphSpecError, BadFamilyParameter, OracleInconsistent) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    except VertexBudgetExceeded as e:
        print(f"over budget: {e}", file=sys.stderr)
        return EXIT_OVER_BUDGET
    except ExactLapError as e:
        print(f"anomaly: {e}", file=sys.stderr)
        return EXIT_ANOMALY
    except OSError as e:  # spec reads map their own OSError, so this is a report write
        print(f"invalid input: --out {args.out!r} cannot be written: {e.strerror}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(text)
    if degenerate is None:
        return code
    # expected once a ball has swallowed a finite graph, an anomaly otherwise
    if degenerate.boundary_saturated:
        return EXIT_OK
    print(f"anomaly: {degenerate}", file=sys.stderr)
    return EXIT_ANOMALY


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
