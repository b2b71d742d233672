"""The report builders of the command line, one per solving mode.

Each builder takes the parsed flags, the validated graph, the target, the
weight and ``--radius``, runs its mode's solver and returns the mode's own
report fields with an exit code; `exactlap.cli.run_cli` puts the common
prefix in front and writes the report.  A builder looks its solver up as a
global of this module at call time, so a patched or traced solver is the
one called.
"""

from __future__ import annotations

from .chain import run_chain
from .direct import max_principle_certificate, prodiscrete_distance, solve_on_ball
from .errors import EmptyUniversalSet, NotStabilized
from .flags import EXIT_ANOMALY, EXIT_OK, EXIT_WINDOW_EXCEEDED, usage_error
from .solver import coherent_solution, universal_element
from .wire import format_fraction, solution_to_json, verified_fields


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
        **verified_fields(rep),
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
        **verified_fields(rep),
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
