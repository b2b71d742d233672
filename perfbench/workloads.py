"""Seeded request lists for the four benchmark workloads.

A workload is one list of CLI requests, each with the outcome its input
implies.  The seed chooses targets and weights; the mode, graph and radius of
every slot are fixed, so each seed asks for the same amount of elimination
work and the run-to-run spread measures the machine, not the draw.

Expected outcomes follow from the input alone:

* an infinite graph gives status "ok" (or "stabilized" for a chain) and
  exit 0;
* a ball that has swallowed a finite graph with zero weight gives a zero
  determinant in certify mode and "singular" with
  ``singular_expected_finite`` in ball mode, still exit 0;
* malformed input gives exit 3 and usage errors exit 64, with empty stdout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0
WORK_DIR = ".perfbench_work"
FIXTURE_DIR = f"{WORK_DIR}/fixtures"

EXIT_OK = 0
EXIT_INVALID = 3
EXIT_USAGE = 64

# the request that does no work: what every CLI call pays before it computes
NO_WORK = ("--mode", "ball", "--graph", "z", "--radius", "0")


@dataclass(frozen=True)
class Request:
    """One CLI call and the outcome its input implies.

    ``status`` is the report's expected "status" field, or None when the call
    must fail before printing anything.  ``saturated`` marks a ball that
    covers a whole finite graph.
    """

    argv: tuple[str, ...]
    code: int = EXIT_OK
    status: str | None = "ok"
    saturated: bool = False

    def flags(self) -> dict[str, str]:
        return dict(zip(self.argv[::2], self.argv[1::2]))


def ball_size(graph: str, r: int) -> int:
    """Vertices within distance r of the root, for the shorthand families used here."""
    if graph == "z":
        return 2 * r + 1
    if graph == "z2":
        return 2 * r * r + 2 * r + 1
    if graph == "z3":
        return (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3
    if graph == "ladder2":
        return 4 * r if r else 1
    if graph.startswith("tree") or graph.startswith("free"):
        d = int(graph[4:]) * (1 if graph.startswith("tree") else 2)
        return 1 + sum(d * (d - 1) ** (k - 1) for k in range(1, r + 1))
    if graph.startswith("c"):
        return min(int(graph[1:]), 2 * r + 1)
    if graph.startswith("p"):
        return min(int(graph[1:]), r + 1)
    raise ValueError(f"no ball-size formula for {graph!r}")


def saturated(graph: str, r: int) -> bool:
    """Whether the radius-r ball already holds the whole (finite) graph."""
    if graph.startswith("c") and graph[1:].isdigit():
        return r >= int(graph[1:]) // 2
    if graph.startswith("p") and graph[1:].isdigit():
        return r >= int(graph[1:]) - 1
    return False


def _rational(rng: random.Random) -> str:
    x = Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _weight(rng: random.Random) -> str:
    x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _compact(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _target(rng: random.Random, kind: str, graph: str, r: int) -> str:
    """A target argument: radial shorthands, or a seeded sparse map over the ball."""
    if kind in ("delta", "geometric", "zero"):
        return kind
    if kind == "radial":
        return "radial:" + ",".join(_rational(rng) for _ in range(min(r + 1, 4)))
    if kind == "sparse":
        size = ball_size(graph, r)
        ids = sorted(rng.sample(range(size), min(3, size)))
        return _compact({"kind": "sparse", "entries": {str(v): _rational(rng) for v in ids}})
    raise ValueError(kind)


def _lam(rng: random.Random, kind: str, graph: str, r: int) -> str:
    """A weight argument: zero, distance, a seeded constant, or a seeded sparse map."""
    if kind in ("zero", "distance"):
        return kind
    if kind == "constant":
        return _weight(rng)
    if kind == "map":
        size = ball_size(graph, r)
        ids = sorted(rng.sample(range(size), min(2, size)))
        return _compact({"kind": "map", "entries": {str(v): _weight(rng) for v in ids}})
    raise ValueError(kind)


def _solve(rng, mode, graph, r, target, lam, *extra) -> Request:
    """A ball/metric/chain/coherent request; its status follows from the input."""
    argv = ("--mode", mode, "--graph", graph, "--radius", str(r),
            "--target", _target(rng, target, graph, r),
            "--lambda", _lam(rng, lam, graph, r), *extra)
    sat = saturated(graph, r) and lam == "zero"
    if sat:
        return Request(argv, status="singular", saturated=True)
    return Request(argv, status="stabilized" if mode == "chain" else "ok")


def _certify(rng, graph, r, lam) -> Request:
    argv = ("--mode", "certify", "--graph", graph, "--radius", str(r),
            "--lambda", _lam(rng, lam, graph, r))
    return Request(argv, saturated=saturated(graph, r))


def certify(rng: random.Random) -> list[Request]:
    """Determinants only: forward elimination, tiny reports.

    The last five infinite-graph slots are the heavy class, about a sixth
    of the list, so that the 90th percentile falls inside it rather than on
    the edge between classes.
    """
    slots = [
        ("z", 40, "zero"), ("z", 60, "distance"), ("z", 60, "constant"), ("z", 30, "constant"),
        ("z2", 4, "zero"), ("z2", 5, "distance"), ("z2", 6, "constant"), ("z2", 3, "constant"),
        ("z3", 2, "zero"), ("z3", 3, "distance"), ("z3", 2, "constant"),
        ("ladder2", 20, "zero"), ("ladder2", 30, "distance"), ("ladder2", 25, "constant"),
        ("tree3", 4, "zero"), ("tree3", 5, "distance"), ("tree3", 3, "constant"),
        ("free2", 2, "zero"), ("free2", 3, "distance"), ("free2", 3, "constant"),
        ("z", 90, "zero"), ("z2", 8, "zero"), ("z3", 4, "zero"), ("free2", 4, "zero"),
        ("ladder2", 40, "zero"),
        ("c7", 3, "zero"), ("c8", 4, "zero"), ("p6", 5, "zero"), ("p9", 8, "zero"),
        ("c9", 2, "distance"), ("p7", 3, "constant"),
    ]
    return [_certify(rng, g, r, lam) for g, r, lam in slots]


def ball(rng: random.Random) -> list[Request]:
    """Square solves and metric bounds; about half radial targets, half sparse.

    The heavy class (z r=70/80, z2 r=7/8, tree3 r=5, ladder2 r=30) is about
    a fifth of the list, for the same reason as in ``certify``.
    """
    slots = [
        ("ball", "z", 80, "delta", "zero"), ("ball", "z", 70, "sparse", "zero"),
        ("ball", "z", 20, "geometric", "constant"), ("ball", "z", 25, "radial", "distance"),
        ("ball", "z", 30, "sparse", "zero"), ("ball", "z", 20, "sparse", "distance"),
        ("ball", "z2", 7, "geometric", "zero"), ("ball", "z2", 8, "sparse", "zero"),
        ("ball", "z2", 4, "radial", "constant"), ("ball", "z2", 3, "sparse", "map"),
        ("ball", "z2", 5, "geometric", "distance"),
        ("ball", "z3", 3, "delta", "zero"), ("ball", "z3", 2, "sparse", "distance"),
        ("ball", "tree3", 5, "sparse", "zero"), ("ball", "tree3", 3, "radial", "zero"),
        ("ball", "tree3", 3, "geometric", "distance"), ("ball", "tree3", 4, "sparse", "constant"),
        ("ball", "free2", 3, "sparse", "constant"), ("ball", "free2", 2, "delta", "zero"),
        ("ball", "ladder2", 30, "radial", "zero"), ("ball", "ladder2", 12, "sparse", "map"),
        ("ball", "c6", 3, "sparse", "zero"), ("ball", "p5", 4, "delta", "zero"),
        ("ball", "c9", 2, "radial", "constant"),
    ]
    out = [_solve(rng, *s) for s in slots]
    metric = [
        ("z", 30, "delta", "zero", 40), ("z2", 2, "sparse", "constant", 3),
        ("tree3", 2, "radial", "zero", 3), ("ladder2", 5, "geometric", "distance", 7),
    ]
    out += [_solve(rng, "metric", g, r, t, lam, "--max-m", str(m)) for g, r, t, lam, m in metric]
    return out


def chain(rng: random.Random) -> list[Request]:
    """Rectangular solution sets, projections and stabilization on infinite graphs."""
    slots = [
        ("chain", "z", 1, "sparse", "zero"), ("chain", "z", 2, "radial", "constant"),
        ("chain", "z", 3, "delta", "distance"),
        ("chain", "ladder2", 1, "sparse", "zero"), ("chain", "ladder2", 2, "radial", "distance"),
        ("chain", "tree3", 0, "radial", "constant"), ("chain", "tree3", 1, "sparse", "zero"),
        ("chain", "z2", 0, "sparse", "distance"), ("chain", "z2", 1, "radial", "zero"),
        ("coherent", "z", 1, "radial", "zero"), ("coherent", "z", 2, "sparse", "constant"),
        ("coherent", "ladder2", 1, "sparse", "distance"),
        ("coherent", "tree3", 0, "sparse", "zero"), ("coherent", "tree3", 1, "radial", "constant"),
        ("coherent", "z2", 0, "radial", "distance"), ("coherent", "z2", 1, "sparse", "zero"),
    ]
    return [_solve(rng, *s) for s in slots]


def small(rng: random.Random) -> list[Request]:
    """Radius 0-3 requests in every mode, finite graphs, bad input and fixtures."""
    custom = _compact({"family": "custom", "vertices": 5, "root": 0,
                       "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]})
    looped = _compact({"family": "custom", "vertices": 3, "root": 0,
                       "edges": [[0, 1], [1, 1], [1, 2]]})
    solves = [
        ("ball", "z", 0, "delta", "zero"), ("ball", "z", 1, "sparse", "constant"),
        ("ball", "z", 2, "radial", "distance"), ("ball", "z2", 1, "sparse", "zero"),
        ("ball", "tree3", 2, "sparse", "map"), ("ball", "ladder2", 2, "geometric", "zero"),
        ("ball", "c5", 2, "sparse", "zero"), ("ball", "p3", 2, "delta", "zero"),
        ("ball", "c7", 1, "radial", "constant"),
        ("metric", "z", 1, "sparse", "zero", "--max-m", "2"),
        ("chain", "z", 0, "sparse", "zero"), ("coherent", "z", 0, "radial", "constant"),
    ]
    out = [_solve(rng, *s) for s in solves]
    out += [_certify(rng, g, r, lam) for g, r, lam in
            [("z", 2, "constant"), ("z2", 1, "zero"), ("free2", 1, "distance"), ("c4", 2, "zero")]]
    out.append(Request(("--mode", "ball", "--graph", custom, "--radius", "2",
                        "--target", _target(rng, "sparse", "c5", 2)), status="singular",
                       saturated=True))
    invalid = [
        ("--mode", "ball", "--graph", "z", "--radius", "1", "--target", "radial:1.5"),
        ("--mode", "ball", "--graph", "z", "--radius", "1", "--lambda",
         _compact({"kind": "constant", "value": f"-{_weight(rng)}"})),
        ("--mode", "certify", "--graph", looped, "--radius", "1"),
        ("--mode", "certify", "--graph", "tree1", "--radius", "1"),
        ("--mode", "ball", "--graph", "z2", "--radius", "1", "--target",
         _compact({"kind": "sparse", "entries": {"x": _rational(rng)}})),
    ]
    out += [Request(a, code=EXIT_INVALID, status=None) for a in invalid]
    usage = [
        ("--mode", "ball", "--graph", "z"),
        ("--mode", "solve", "--graph", "z", "--radius", "1"),
        ("--mode", "chain", "--graph", "z", "--radius", "1", "--window", "0"),
        ("--mode", "chain", "--graph", "z", "--radius", "3", "--max-m", "2"),
        ("--mode", "fixtures", "--radius", "1"),
    ]
    out += [Request(a, code=EXIT_USAGE, status=None) for a in usage]
    out.append(Request(("--mode", "fixtures", "--out", FIXTURE_DIR,
                        "--seed", str(rng.randint(0, 10**6)), "--radius", "2",
                        "--graph", "z,c5,tree3")))
    return out


WORKLOADS = {"certify": certify, "ball": ball, "chain": chain, "small": small}


def build(workload: str, seed: int) -> list[Request]:
    """The workload's request list for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
