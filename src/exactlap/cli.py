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
  64  bad flags or flag combinations (schema help goes to standard error),
      including an integer flag that is not ASCII decimal

Flags come from one table and are read with argparse's grammar, without
importing argparse: long flags only, ``--flag value`` or ``--flag=value``, a
unique prefix for any flag, the last of repeated flags wins.  The usage and
help texts are fixed strings, as argparse printed them at 80 columns.

Standard output carries exactly one JSON report; logs and error text go to
standard error.  Identical flags (and seed) produce byte-identical output.
Every report, the "singular" and "no_universal_element" ones included, goes
through one tail: --out is written first, then standard output, so an --out
that cannot be written leaves standard output empty.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

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
from .graphs import enumerate_ball, family_oracle, validate_oracle
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


def _depth_budget(args, n: int) -> int:
    """``--max-m`` in chain and coherent mode: at least ``--radius``."""
    max_m = args.max_m if args.max_m is not None else max(n, 8)
    if max_m < n:
        _usage_error(f"--max-m {max_m} must be at least --radius {n}")
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
        _usage_error("--max-m must be nonnegative in metric mode")
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


def _random_sparse_target(rng, ball_size: int) -> dict:
    """Sparse rational target spec over ids of an enumerated ball, drawn from ``rng``."""
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

    Each entry's file is named after the entry's last path component plus
    ``.json``, inside ``out_dir`` whatever the entry.  Every fixture is
    built before ``out_dir`` is made, so two entries that give the same name,
    or an entry that fails, leave nothing written.  Outputs are
    byte-identical for identical arguments.  Solved values are whatever this
    build computes, recorded for change detection, not as independently
    verified ground truth; residual checks are the part that is
    unconditionally trustworthy.
    """
    import random  # imported here to keep CLI start-up lean

    names = [f"{os.path.basename(shorthand)}.json" for shorthand in families]
    clash = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if clash is not None:
        raise SpecFormatError(f"two --graph entries would both write fixture {clash!r}")
    texts = []
    for shorthand in families:
        spec = graph_spec_from_text(shorthand)
        oracle = family_oracle(spec)
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
        texts.append(dump_report(fixture))
    os.makedirs(out_dir, exist_ok=True)
    for name, text in zip(names, texts):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return names


def _fixtures_report(args) -> tuple[dict, int]:
    if args.out is None:
        _usage_error("--mode fixtures requires --out DIRECTORY")
    families = (DEFAULT_FIXTURE_FAMILIES if args.graph is None else args.graph).split(",")
    max_radius = args.radius if args.radius is not None else 3
    if max_radius < 0:
        _usage_error("--radius must be nonnegative")
    files = emit_fixtures(args.seed, families, max_radius, args.out)
    report = {
        "mode": "fixtures",
        "seed": args.seed,
        "out": args.out,
        "files": files,
        "status": "ok",
    }
    return report, EXIT_OK


# --- flags ------------------------------------------------------------------

MODES = (*_REPORTS, "fixtures")
_CHOICES = "{" + ",".join(MODES) + "}"

# The texts argparse printed for these flags at its default width of 80
# columns; they do not re-wrap with COLUMNS.
USAGE = f"""\
usage: exactlap [-h] [--graph GRAPH] [--target TARGET] --mode
                {_CHOICES}
                [--radius RADIUS] [--max-m MAX_M] [--window WINDOW]
                [--lambda LAM] [--out OUT] [--seed SEED]
"""

HELP = f"""\
{USAGE}
Exact rational preimages of the combinatorial Laplacian on balls.

options:
  -h, --help            show this help message and exit
  --graph GRAPH         graph family shorthand, inline JSON, or JSON file
                        (default: z)
  --target TARGET       target function shorthand, inline JSON, or JSON file
  --mode {_CHOICES}
                        what to compute
  --radius RADIUS       ball radius (ball/certify/metric) or level count
                        (chain/coherent)
  --max-m MAX_M         depth budget for chains; second radius in metric mode
  --window WINDOW       consecutive equal images required to declare
                        stabilization
  --lambda LAM          diagonal weight: zero, distance, a rational, or JSON
  --out OUT             also write the report to this file (fixtures: output
                        directory)
  --seed SEED           seed for fixture target generation

{SCHEMA_HELP}"""


def _usage_error(message: str):
    """Exit 64 with the usage, the error and the schema help on standard error."""
    sys.stderr.write(f"{USAGE}error: {message}\n{SCHEMA_HELP}\n")
    raise SystemExit(EXIT_USAGE)


def _int_value(text: str) -> int:
    """An integer flag: an optional ``-`` and ASCII decimal digits."""
    digits = text[1:] if text.startswith("-") else text
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # over CPython's digit limit
        pass
    raise ValueError(f"invalid int value: {text!r}")


def _mode_value(text: str) -> str:
    if text not in MODES:
        choices = ", ".join(map(repr, MODES))
        raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
    return text


# flag -> (attribute, type, default); --mode is required
_FLAGS = {
    "--graph": ("graph", str, None),
    "--target": ("target", str, "delta"),
    "--mode": ("mode", _mode_value, None),
    "--radius": ("radius", _int_value, None),
    "--max-m": ("max_m", _int_value, None),
    "--window": ("window", _int_value, 3),
    "--lambda": ("lam", str, "zero"),
    "--out": ("out", str, None),
    "--seed": ("seed", _int_value, 0),
}
_OPTIONS = ("-h", "--help", *_FLAGS)


def _negative_number(token: str) -> bool:
    """``-7``, ``-7.5`` or ``-.5``: a token that starts with ``-`` but is a value."""
    whole, dot, frac = token[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return (whole == "" or whole.isdecimal()) and frac.isdecimal()


def _classify(token: str) -> tuple[str | None, str | None] | None:
    """None for a value, else (flag, text after ``=`` or None); flag None if unknown."""
    if not token.startswith("-") or token == "-":
        return None
    if token in _OPTIONS:
        return token, None
    name, eq, explicit = token.partition("=")
    explicit = explicit if eq else None
    if name in _OPTIONS:
        return name, explicit
    if token.startswith("--"):
        matches = [o for o in _OPTIONS if o.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif token.startswith("-h"):  # -hh reads as -h -h
        return "-h", token[2:]
    if _negative_number(token) or " " in token:
        return None
    return None, None


def parse_flags(argv: list[str]) -> SimpleNamespace:
    """The flag values by attribute, parsed as argparse would with these flags.

    Flags are long, given as ``--flag value`` or ``--flag=value``, and a
    unique prefix names its flag; the last of repeated flags wins.  A value
    may start with ``-`` only if it is a negative number (or holds a space).
    ``--`` and whatever follows it are never flags.  Tokens are read left to
    right: ``-h`` prints the help and exits 0, and a bad value exits 64 at
    once; an ambiguous prefix anywhere before ``--`` exits 64 before
    anything else, and a missing ``--mode``, then tokens that no flag takes,
    exit 64 at the end.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(token) for token in argv[:end]]
    values = {attr: default for attr, _, default in _FLAGS.values()}
    extras = []
    i = 0
    while i < end:
        flag, explicit = kinds[i] or (None, None)
        i += 1
        if flag is None:
            extras.append(argv[i - 1])
        elif flag in ("-h", "--help"):
            if explicit is not None:
                rest = explicit.lstrip("h") if flag == "-h" else explicit
                if rest or not explicit:
                    _usage_error(f"argument -h/--help: ignored explicit argument {rest!r}")
            sys.stdout.write(HELP)
            raise SystemExit(EXIT_OK)
        else:
            attr, kind, _ = _FLAGS[flag]
            if explicit is None:
                if i == end or kinds[i] is not None:
                    _usage_error(f"argument {flag}: expected one argument")
                explicit = argv[i]
                i += 1
            try:
                values[attr] = kind(explicit)
            except ValueError as e:
                _usage_error(f"argument {flag}: {e}")
    if values["mode"] is None:
        _usage_error("the following arguments are required: --mode")
    extras += argv[end:]
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def run_cli(argv: list[str] | None = None) -> int:
    """Parse flags, run the requested mode, print one JSON report."""
    if argv is None:
        argv = sys.argv[1:]
    degenerate = None  # a singular ball or empty stabilized image, reported like any outcome
    try:
        args = parse_flags(argv)
        if args.mode == "fixtures":
            report, code = _fixtures_report(args)
        else:
            oracle = graph_from_text("z" if args.graph is None else args.graph)
            probe = args.radius if args.radius is not None else 2
            validate_oracle(oracle, min(2, max(0, probe)))
            lam = lambda_from_text(args.lam)
            if args.window < 1:
                _usage_error("--window must be at least 1")
            if args.radius is None:
                _usage_error(f"--mode {args.mode} requires --radius")
            if args.radius < 0:
                _usage_error("--radius must be nonnegative")
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
