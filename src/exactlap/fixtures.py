"""Fixtures mode: seeded regression baselines, one JSON file per graph.

The command line imports this module in fixtures mode alone, so no other
request compiles it or loads `random`.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from .errors import SingularSystem, SpecFormatError
from .flags import EXIT_ANOMALY, EXIT_OK, usage_error
from .direct import solve_on_ball
from .graphs import family_oracle
from .operators import LambdaField
from .oracle import enumerate_ball
from .serialize import target_from_json
from .specs import graph_spec_from_text
from .wire import dump_report, verified_fields

DEFAULT_FIXTURE_FAMILIES = "z,z2,tree3,ladder2,c5"


def _random_sparse_target(rng, ball_size: int) -> dict:
    """Sparse rational target spec over ids of an enumerated ball, drawn from ``rng``."""
    count = min(3, ball_size)
    ids = sorted(rng.sample(range(ball_size), count))
    entries = {}
    for v in ids:
        num = rng.choice([k for k in range(-9, 10) if k])
        den = rng.randint(1, 9)
        entries[str(v)] = str(Fraction(num, den))
    return {"kind": "sparse", "entries": entries}


def emit_fixtures(seed: int, families: list[str], max_radius: int, out_dir: str) -> tuple[list[str], bool]:
    """Write per-family regression baselines with seeded sparse targets.

    Returns the file names and whether every solve passed its re-check and
    every singular ball had saturated its finite graph.

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
    texts, sound = [], True
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
                sound = sound and e.boundary_saturated
                results.append(
                    {
                        "radius": n,
                        "status": "singular",
                        "singular": True,
                        "singular_expected_finite": e.boundary_saturated,
                    }
                )
                continue
            sound = sound and rep.residual_ok
            results.append({"radius": n, "status": "ok", **verified_fields(rep)})
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
    return names, sound


def fixtures_report(args) -> tuple[dict, int]:
    if args.out is None:
        usage_error("--mode fixtures requires --out DIRECTORY")
    families = (DEFAULT_FIXTURE_FAMILIES if args.graph is None else args.graph).split(",")
    max_radius = args.radius if args.radius is not None else 3
    if max_radius < 0:
        usage_error("--radius must be nonnegative")
    files, sound = emit_fixtures(args.seed, families, max_radius, args.out)
    report = {
        "seed": args.seed,
        "out": args.out,
        "files": files,
        "status": "ok",
    }
    return report, EXIT_OK if sound else EXIT_ANOMALY
