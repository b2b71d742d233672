"""Oracle validation, and the built-in graph families built from a spec.

The families are defined in `exactlap.families` (infinite) and
`exactlap.finite` (finite), `GraphOracle` and `enumerate_ball` in
`exactlap.oracle`; `family_oracle` builds any of them from its spec, which
names only the fields its family reads.  The benchmark's tracer finds
`GraphOracle` and `enumerate_ball` here, and the acceptance tests import
the family constructors from here.
"""

from __future__ import annotations

from .errors import GraphSpecError, OracleInconsistent
from .families import free_group_oracle, grid_oracle, ladder_oracle, line_oracle, tree_oracle
from .finite import custom_oracle, cycle_oracle, path_oracle
from .oracle import GraphOracle, enumerate_ball


def validate_oracle(oracle: GraphOracle, probe_radius: int) -> None:
    """Check the standing hypotheses on all vertices within the probe radius.

    Raises OracleInconsistent if re-querying the underlying neighbor
    function disagrees with what was cached, and GraphSpecError listing
    every loop, duplicate neighbor, asymmetric adjacency and isolated vertex.
    """
    if probe_radius < 0:
        raise ValueError("probe radius must be nonnegative")
    details: list[str] = []
    for v in enumerate_ball(oracle, probe_radius).vertices:
        nbs = oracle.neighbors(v)
        recheck = tuple(oracle._raw(oracle.key_of(v)))
        if recheck != tuple(oracle.key_of(w) for w in nbs):
            raise OracleInconsistent(v, "neighbor list changed between calls")
        if len(nbs) == 0:
            details.append(f"vertex {v} has no neighbors")
        seen: set[int] = set()
        for w in nbs:
            if w == v:
                details.append(f"vertex {v} lists itself")
            if w in seen:
                details.append(f"vertex {v} lists {w} more than once")
            seen.add(w)
            if w != v and v not in oracle.neighbors(w):
                details.append(f"{w} in neighbors({v}) but {v} not in neighbors({w})")
    if details:
        raise GraphSpecError("graph failed validation: " + "; ".join(details))


# the fields each family reads besides "family"; any other key is an error
_FIELDS = {
    "line": (), "grid": ("dims",), "tree": ("degree",), "ladder": ("width",), "free_group": ("rank",),
    "cycle": ("size",), "path": ("size",), "custom": ("vertices", "edges", "root"),
}


def family_oracle(spec: dict) -> GraphOracle:
    """Build an oracle from a JSON-style family description.

    Accepted forms:
      {"family": "line"}
      {"family": "grid", "dims": 2 | 3}
      {"family": "tree", "degree": d}
      {"family": "ladder", "width": k}
      {"family": "free_group", "rank": r}
      {"family": "cycle", "size": k}
      {"family": "path", "size": k}
      {"family": "custom", "vertices": N, "edges": [[i, j], ...], "root": i}

    ``width`` and ``root`` are optional (2 and 0); any other key fails.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise GraphSpecError(f"graph spec must be an object with a 'family' key: {spec!r}")
    family = spec["family"]
    fields = _FIELDS.get(family) if isinstance(family, str) else None
    if fields is None:
        raise GraphSpecError(f"unknown graph family {family!r}")
    unread = [k for k in spec if k != "family" and k not in fields]
    if unread:
        raise GraphSpecError(f"family {family!r} does not read field {unread[0]!r}")

    def want_int(field, default=None):
        if field not in spec:
            if default is not None:
                return default
            raise GraphSpecError(f"family {family!r} requires field {field!r}")
        value = spec[field]
        if not isinstance(value, int) or isinstance(value, bool):
            raise GraphSpecError(f"field {field!r} must be an integer, got {value!r}")
        return value

    if family == "line":
        return line_oracle()
    if family == "grid":
        return grid_oracle(want_int("dims"))
    if family == "tree":
        return tree_oracle(want_int("degree"))
    if family == "ladder":
        return ladder_oracle(want_int("width", 2))
    if family == "free_group":
        return free_group_oracle(want_int("rank"))
    if family == "cycle":
        return cycle_oracle(want_int("size"))
    if family == "path":
        return path_oracle(want_int("size"))
    edges = spec.get("edges")  # custom, the one family left
    if not isinstance(edges, list):
        raise GraphSpecError("custom graph requires an 'edges' list")
    return custom_oracle(want_int("vertices"), edges, root=want_int("root", 0))
