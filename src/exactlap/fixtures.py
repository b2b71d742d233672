"""Fixtures mode: seeded regression baselines, one JSON file per graph.

The command line imports this module in fixtures mode alone, so no other
request compiles it or loads `random`.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from .errors import SingularSystem, SpecFormatError
from .flags import EXIT_OK, usage_error
from .graphs import enumerate_ball, family_oracle
from .operators import LambdaField
from .serialize import (
    dump_report,
    format_fraction,
    graph_spec_from_text,
    solution_to_json,
    target_from_json,
)
from .solver import solve_on_ball

DEFAULT_FIXTURE_FAMILIES = "z,z2,tree3,ladder2,c5"


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


def fixtures_report(args) -> tuple[dict, int]:
    if args.out is None:
        usage_error("--mode fixtures requires --out DIRECTORY")
    families = (DEFAULT_FIXTURE_FAMILIES if args.graph is None else args.graph).split(",")
    max_radius = args.radius if args.radius is not None else 3
    if max_radius < 0:
        usage_error("--radius must be nonnegative")
    files = emit_fixtures(args.seed, families, max_radius, args.out)
    report = {
        "mode": "fixtures",
        "seed": args.seed,
        "out": args.out,
        "files": files,
        "status": "ok",
    }
    return report, EXIT_OK
