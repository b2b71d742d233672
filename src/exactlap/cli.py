"""Command-line front end: exact solves as JSON reports on standard output.

Exit codes separate theorem-consistent outcomes from bugs:

  0   success, including the expected singular/unsolvable cases on finite
      graphs once a ball has swallowed the whole graph
  2   anomaly: an outcome the theory rules out on infinite graphs
      (singular truncation, broken chain nesting, failed lift or certificate)
  3   the graph, target, or weight description failed validation (the
      target is parsed in every mode but fixtures), or --out cannot be written
  4   coherent mode could not certify stabilization within the depth budget
  64  bad flags or flag combinations (schema help goes to standard error)

Standard output carries exactly one JSON report; logs and error text go to
standard error.  Identical flags (and seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from .errors import (
    BadFamilyParameter,
    EmptyUniversalSet,
    ExactLapError,
    GraphSpecError,
    NotStabilized,
    OracleInconsistent,
    SingularSystem,
    SpecFormatError,
)
from .graphs import enumerate_ball, validate_oracle
from .operators import LambdaField
from .serialize import (
    describe_lambda,
    dump_report,
    format_fraction,
    graph_from_text,
    graph_spec_from_text,
    lambda_from_text,
    solution_to_json,
    target_from_json,
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

EXIT_OK = 0
EXIT_ANOMALY = 2
EXIT_INVALID = 3
EXIT_WINDOW_EXCEEDED = 4
EXIT_USAGE = 64

DEFAULT_FIXTURE_FAMILIES = "z,z2,tree3,ladder2,c5"

SCHEMA_HELP = """\
input schemas
  --graph    shorthand: z | z2 | z3 | treeD | ladder | ladderW | freeR | cK | pK
             or JSON (inline or file):
               {"family":"line"} | {"family":"grid","dims":2|3}
               {"family":"tree","degree":D} | {"family":"ladder","width":W}
               {"family":"free_group","rank":R} | {"family":"cycle","size":K}
               {"family":"path","size":K}
               {"family":"custom","vertices":N,"edges":[[i,j],...],"root":0}
  --target   shorthand: delta | zero | geometric | radial:c0,c1,...
             or JSON: {"kind":"delta"} | {"kind":"zero"} | {"kind":"geometric"}
               {"kind":"radial","coeffs":["1","1/2",...]}
               {"kind":"sparse","entries":{"<vertex id>":"p/q",...}}
  --lambda   shorthand: zero | distance | a nonnegative rational like 1 or 3/2
             or JSON: {"kind":"zero"} | {"kind":"constant","value":"p/q"}
               {"kind":"distance"} | {"kind":"map","entries":{"<id>":"p/q",...}}
  rationals  always exact strings "p/q" or "p"; floats are rejected

modes
  ball      --radius N            unique preimage supported in the radius-N ball
  certify   --radius N            exact determinant + strict-inclusion certificate
  chain     --radius N [--max-m M --window W]   projected solution-set chain at level N
  coherent  --radius N [--max-m M --window W]   compatible family x_0..x_N
  metric    --radius A [--max-m B]   distance bounds between ball solves at radii A, B
  fixtures  --out DIR [--seed S --radius R --graph fam1,fam2,...]   regression baselines
"""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 64 with schema help."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        print(SCHEMA_HELP, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactlap",
        description="Exact rational preimages of the combinatorial Laplacian on balls.",
        epilog=SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--graph", default=None, help="graph family shorthand, inline JSON, or JSON file (default: z)")
    parser.add_argument("--target", default="delta", help="target function shorthand, inline JSON, or JSON file")
    parser.add_argument(
        "--mode",
        required=True,
        choices=[*_REPORTS, "fixtures"],
        help="what to compute",
    )
    parser.add_argument("--radius", type=int, default=None, help="ball radius (ball/certify/metric) or level count (chain/coherent)")
    parser.add_argument("--max-m", type=int, default=None, dest="max_m", help="depth budget for chains; second radius in metric mode")
    parser.add_argument("--window", type=int, default=3, help="consecutive equal images required to declare stabilization")
    parser.add_argument("--lambda", default="zero", dest="lam", help="diagonal weight: zero, distance, a rational, or JSON")
    parser.add_argument("--out", default=None, help="also write the report to this file (fixtures: output directory)")
    parser.add_argument("--seed", type=int, default=0, help="seed for fixture target generation")
    return parser


def _depth_budget(parser, args, n: int) -> int:
    """``--max-m`` in chain and coherent mode: at least ``--radius``."""
    max_m = args.max_m if args.max_m is not None else max(n, 8)
    if max_m < n:
        parser.error(f"--max-m {max_m} must be at least --radius {n}")
    return max_m


def _ball_report(parser, args, oracle, target, lam, n: int) -> tuple[dict, int]:
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


def _certify_report(parser, args, oracle, target, lam, n: int) -> tuple[dict, int]:
    cert = max_principle_certificate(oracle, n, lam)
    report = {
        "radius": n,
        "strict_inclusion": cert.strict_inclusion,
        "determinant": format_fraction(cert.determinant),
        "passes": cert.passes,
        "status": "ok" if cert.passes else "anomaly",
    }
    return report, EXIT_OK if cert.passes else EXIT_ANOMALY


def _chain_report(parser, args, oracle, target, lam, n: int) -> tuple[dict, int]:
    max_m = _depth_budget(parser, args, n)
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


def _coherent_report(parser, args, oracle, target, lam, n: int) -> tuple[dict, int]:
    max_m = _depth_budget(parser, args, n)
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


def _metric_report(parser, args, oracle, target, lam, r1: int) -> tuple[dict, int]:
    r2 = args.max_m if args.max_m is not None else r1
    if r2 < 0:
        raise SpecFormatError("--max-m must be nonnegative in metric mode")
    depth = min(r1, r2)
    f = solve_on_ball(oracle, target, r1, lam).solution
    h = solve_on_ball(oracle, target, r2, lam).solution
    lower, upper = prodiscrete_distance(f, h, depth)
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


def _random_sparse_target(rng: random.Random, ball_size: int) -> dict:
    """Seeded sparse rational target spec over ids of an enumerated ball."""
    count = min(3, ball_size)
    ids = sorted(rng.sample(range(ball_size), count))
    entries = {}
    for v in ids:
        num = rng.choice([k for k in range(-9, 10) if k])
        den = rng.randint(1, 9)
        entries[str(v)] = format_fraction(Fraction(num, den))
    return {"kind": "sparse", "entries": entries}


def emit_fixtures(seed: int, families: list[str], max_radius: int, out_dir: str) -> list[str]:
    """Write per-family regression baselines with seeded sparse targets.

    Outputs are byte-identical for identical arguments.  Solved values are
    whatever this build computes, recorded for change detection, not as
    independently verified ground truth; residual checks are the part that
    is unconditionally trustworthy.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for shorthand in families:
        spec = graph_spec_from_text(shorthand)
        oracle = graph_from_text(shorthand)
        rng = random.Random(f"{seed}:{shorthand}")
        ball = enumerate_ball(oracle, max_radius)
        target_spec = _random_sparse_target(rng, ball.size)
        target = target_from_json(target_spec)
        results = []
        for n in range(max_radius + 1):
            try:
                rep = solve_on_ball(oracle, target, n, LambdaField.zero())
            except SingularSystem as e:
                results.append(
                    {
                        "radius": n,
                        "status": "singular",
                        "singular": True,
                        "singular_expected_finite": bool(e.boundary_saturated),
                    }
                )
                continue
            results.append(
                {
                    "radius": n,
                    "status": "ok",
                    "solution": solution_to_json(rep.solution),
                    "residual_zero": rep.residual_ok,
                    "metric_bound": format_fraction(rep.metric_bound),
                }
            )
        fixture = {
            "role": "regression baseline, computed by this build, not ground truth",
            "seed": seed,
            "graph": spec,
            "lambda": {"kind": "zero"},
            "target": target_spec,
            "results": results,
        }
        name = f"{shorthand}.json"
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dump_report(fixture))
        written.append(name)
    return written


def _fixtures_report(parser, args) -> tuple[dict, int]:
    if args.out is None:
        parser.error("--mode fixtures requires --out DIRECTORY")
    families = [s for s in (args.graph or DEFAULT_FIXTURE_FAMILIES).split(",") if s]
    max_radius = args.radius if args.radius is not None else 3
    if max_radius < 0:
        parser.error("--radius must be nonnegative")
    files = emit_fixtures(args.seed, families, max_radius, args.out)
    report = {
        "mode": "fixtures",
        "seed": args.seed,
        "out": args.out,
        "files": files,
        "status": "ok",
    }
    return report, EXIT_OK


def run_cli(argv: list[str] | None = None) -> int:
    """Parse flags, run the requested mode, print one JSON report."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.mode == "fixtures":
            report, code = _fixtures_report(parser, args)
        else:
            oracle = graph_from_text(args.graph or "z")
            probe = args.radius if args.radius is not None else 2
            validate_oracle(oracle, min(2, max(0, probe)))
            lam = lambda_from_text(args.lam)
            if args.window < 1:
                parser.error("--window must be at least 1")
            if args.radius is None:
                parser.error(f"--mode {args.mode} requires --radius")
            if args.radius < 0:
                parser.error("--radius must be nonnegative")
            target = target_from_text(args.target)
            fields, code = _REPORTS[args.mode](parser, args, oracle, target, lam, args.radius)
            report = {"mode": args.mode, "graph": oracle.name, "target": args.target,
                      "lambda": describe_lambda(lam), **fields}
        text = dump_report(report)
        if args.out is not None and args.mode != "fixtures":
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else EXIT_USAGE
    except SingularSystem as e:
        expected = bool(e.boundary_saturated)
        report = {
            "mode": args.mode,
            "radius": e.radius,
            "status": "singular",
            "singular_expected_finite": expected,
            "boundary_saturated": expected,
        }
        sys.stdout.write(dump_report(report))
        if not expected:
            print(f"anomaly: {e}", file=sys.stderr)
            return EXIT_ANOMALY
        return EXIT_OK
    except EmptyUniversalSet as e:
        expected = bool(e.boundary_saturated)
        report = {
            "mode": args.mode,
            "level": e.level,
            "status": "no_universal_element",
            "unsolvable_expected_finite": expected,
        }
        sys.stdout.write(dump_report(report))
        if not expected:
            print(f"anomaly: {e}", file=sys.stderr)
            return EXIT_ANOMALY
        return EXIT_OK
    except (SpecFormatError, GraphSpecError, BadFamilyParameter, OracleInconsistent) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ExactLapError as e:
        print(f"anomaly: {e}", file=sys.stderr)
        return EXIT_ANOMALY
    except OSError as e:  # spec reads map their own OSError, so this is a report write
        print(f"invalid input: --out {args.out!r} cannot be written: {e.strerror}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(text)
    return code


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
