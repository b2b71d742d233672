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

The flag grammar lives in `exactlap.flags`, and fixtures mode in
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
    NotStabilized,
    OracleInconsistent,
    SingularSystem,
    SpecFormatError,
    VertexBudgetExceeded,
)
from .flags import EXIT_OK, EXIT_USAGE, parse_flags, usage_error
from .graphs import validate_oracle
from .serialize import (
    describe_lambda,
    dump_report,
    format_fraction,
    graph_from_text,
    lambda_from_text,
    solution_to_json,
    target_from_text,
)
from .solver import (
    coherent_solution,
    max_principle_certificate,
    prodiscrete_distance,
    run_chain,
    solve_on_ball,
    universal_element,
)

EXIT_ANOMALY = 2
EXIT_INVALID = 3
EXIT_WINDOW_EXCEEDED = 4
EXIT_OVER_BUDGET = 5


def _depth_budget(args, n: int) -> int:
    """``--max-m`` in chain and coherent mode: at least ``--radius``."""
    max_m = args.max_m if args.max_m is not None else max(n, 8)
    if max_m < n:
        usage_error(f"--max-m {max_m} must be at least --radius {n}")
    return max_m


def _ball_report(args, oracle, target, lam, n: int) -> tuple[dict, int]:
    rep = solve_on_ball(oracle, target, n, lam)
    report = {
        "radius": n,
        "status": "ok",
        "construction": rep.construction,
        "ball_size": rep.solution.ball.size,
        "solution": solution_to_json(rep.solution),
        "residual_zero": rep.residual_ok,
        "metric_bound": format_fraction(rep.metric_bound),
    }
    return report, EXIT_OK if rep.residual_ok else EXIT_ANOMALY


def _certify_report(args, oracle, target, lam, n: int) -> tuple[dict, int]:
    cert = max_principle_certificate(oracle, n, lam)
    report = {
        "radius": n,
        "strict_inclusion": cert.strict_inclusion,
        "determinant": format_fraction(cert.determinant),
        "passes": cert.passes,
        "status": "ok" if cert.passes else "anomaly",
    }
    return report, EXIT_OK if cert.passes else EXIT_ANOMALY


def _chain_report(args, oracle, target, lam, n: int) -> tuple[dict, int]:
    max_m = _depth_budget(args, n)
    state = run_chain(oracle, target, n, max_m, args.window, lam)
    report = {
        "level": n,
        "max_m": max_m,
        "window": args.window,
        "status": state.status,
        "stabilized_at": state.stabilized_at,
        "images": [{"m": m, "dim": d} for m, d in state.dims()],
    }
    if state.stabilized_at is not None:
        try:
            report["universal_element"] = solution_to_json(universal_element(state))
        except EmptyUniversalSet:
            report["universal_set_empty"] = True
    return report, EXIT_OK


def _coherent_report(args, oracle, target, lam, n: int) -> tuple[dict, int]:
    max_m = _depth_budget(args, n)
    base = {"levels": n, "max_m": max_m, "window": args.window}
    try:
        result = coherent_solution(oracle, target, n, max_m, args.window, lam)
    except NotStabilized as e:
        report = {**base, "status": "window_exceeded", "detail": str(e)}
        return report, EXIT_WINDOW_EXCEEDED
    rep = result.report
    report = {
        **base,
        "status": "ok",
        "construction": rep.construction,
        "radius": rep.radius,
        "solution": solution_to_json(rep.solution),
        "residual_zero": rep.residual_ok,
        "metric_bound": format_fraction(rep.metric_bound),
        "family": [
            {"level": i, "ball_radius": fn.ball.radius, "solution": solution_to_json(fn)}
            for i, fn in enumerate(result.levels)
        ],
    }
    return report, EXIT_OK if rep.residual_ok else EXIT_ANOMALY


def _metric_report(args, oracle, target, lam, r1: int) -> tuple[dict, int]:
    r2 = args.max_m if args.max_m is not None else r1
    if r2 < 0:
        usage_error("--max-m must be nonnegative in metric mode")
    depth = min(r1, r2)
    # each distinct radius is solved once, r1 first, so a singular r1 still raises first
    sols = {r: solve_on_ball(oracle, target, r, lam).solution for r in dict.fromkeys((r1, r2))}
    lower, upper = prodiscrete_distance(sols[r1], sols[r2], depth)
    report = {
        "radius_a": r1,
        "radius_b": r2,
        "depth": depth,
        "bounds": [format_fraction(lower), format_fraction(upper)],
        "status": "ok",
    }
    return report, EXIT_OK


# Report builders by mode, in the order --mode lists them.  Each returns its
# own fields and exit code, and run_cli puts the common prefix in front.  The
# dict holds builders, not solver functions: builders look the solvers up as
# module globals at call time, so a patched or traced solver is the one called.
_REPORTS = {
    "ball": _ball_report,
    "certify": _certify_report,
    "chain": _chain_report,
    "coherent": _coherent_report,
    "metric": _metric_report,
}


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
