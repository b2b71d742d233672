"""Oracle validation and the built-in graph families.

`GraphOracle`, `Ball` and `enumerate_ball` live in `exactlap.oracle`, and
`Record` in `exactlap.record`; all four are re-exported here.  Each family
documents its canonical neighbor order, which together with BFS discovery
fixes all vertex ids.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import oracle as oracle_module
from .errors import BadFamilyParameter, GraphSpecError, OracleInconsistent, VertexBudgetExceeded
from .oracle import Ball, GraphOracle, enumerate_ball
from .record import Record


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


# ---------------------------------------------------------------------------
# Built-in families.  Each documents its canonical neighbor order, which
# together with BFS discovery fixes all vertex ids.
# ---------------------------------------------------------------------------


def line_oracle() -> GraphOracle:
    """Integer line; neighbors of k are (k-1, k+1)."""
    return GraphOracle(0, lambda k: (k - 1, k + 1), name="line")


def grid_oracle(dims: int) -> GraphOracle:
    """Integer lattice in 2 or 3 dimensions.

    Neighbors are listed per axis in order, minus direction first.
    """
    if dims not in (2, 3):
        raise BadFamilyParameter(f"grid dims must be 2 or 3, got {dims}")

    def raw(key):
        out = []
        for axis in range(dims):
            for step in (-1, 1):
                out.append(key[:axis] + (key[axis] + step,) + key[axis + 1 :])
        return out

    def label(key):
        return "(" + ",".join(str(c) for c in key) + ")"

    return GraphOracle((0,) * dims, raw, label=label, name=f"grid{dims}")


def tree_oracle(degree: int) -> GraphOracle:
    """Infinite tree in which every vertex has the given degree.

    Keys are branch-index tuples: the root () has children (0,)..(degree-1,);
    any other vertex lists its parent first, then children in branch order.
    """
    if degree < 2:
        raise BadFamilyParameter(f"regular tree degree must be >= 2, got {degree}")

    def raw(key):  # lazy, so an expansion over the vertex budget stops early
        if key:
            yield key[:-1]
        yield from (key + (i,) for i in range(degree - 1 if key else degree))

    def label(key):
        return "e" if not key else "-".join(str(c) for c in key)

    return GraphOracle((), raw, label=label, name=f"tree{degree}")


def ladder_oracle(width: int = 2) -> GraphOracle:
    """Product of the integer line with a finite path of the given width.

    Keys are (position, rail); neighbors are listed position-1, position+1,
    rail-1, rail+1, skipping rails outside the path.
    """
    if width < 1:
        raise BadFamilyParameter(f"ladder width must be >= 1, got {width}")

    def raw(key):
        x, r = key
        out = [(x - 1, r), (x + 1, r)]
        if r > 0:
            out.append((x, r - 1))
        if r < width - 1:
            out.append((x, r + 1))
        return out

    def label(key):
        return f"({key[0]},{key[1]})"

    return GraphOracle((0, 0), raw, label=label, name=f"ladder{width}")


_GENERATOR_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def free_group_oracle(rank: int) -> GraphOracle:
    """Cayley graph of the free group on ``rank`` generators.

    Keys are reduced words as tuples of signed generator indices; neighbors
    multiply on the right by a1, a1^-1, a2, a2^-1, ... in that order.
    Labels write inverses as capital letters, the identity as "e".
    """
    if not 1 <= rank <= len(_GENERATOR_LETTERS):
        raise BadFamilyParameter(f"free group rank must be in 1..26, got {rank}")
    gens = [s * g for g in range(1, rank + 1) for s in (1, -1)]

    def raw(key):
        out = []
        for g in gens:
            if key and key[-1] == -g:
                out.append(key[:-1])
            else:
                out.append(key + (g,))
        return out

    def label(key):
        if not key:
            return "e"
        letters = (
            _GENERATOR_LETTERS[c - 1] if c > 0 else _GENERATOR_LETTERS[-c - 1].upper()
            for c in key
        )
        return "".join(letters)

    return GraphOracle((), raw, label=label, name=f"free{rank}")


def cycle_oracle(size: int) -> GraphOracle:
    """Finite cycle; neighbors of i are ((i-1) mod size, (i+1) mod size)."""
    if size < 3:
        raise BadFamilyParameter(f"cycle size must be >= 3, got {size}")
    return GraphOracle(0, lambda i: ((i - 1) % size, (i + 1) % size), name=f"cycle{size}", finite=True)


def path_oracle(size: int) -> GraphOracle:
    """Finite path on vertices 0..size-1 rooted at the endpoint 0."""
    if size < 2:
        raise BadFamilyParameter(f"path size must be >= 2, got {size}")

    def raw(i):
        return [j for j in (i - 1, i + 1) if 0 <= j < size]

    return GraphOracle(0, raw, name=f"path{size}", finite=True)


def custom_oracle(vertices: int, edges: Sequence[Sequence[int]], root: int = 0) -> GraphOracle:
    """Finite graph from an explicit undirected edge list.

    Rejects loops, repeated edges, out-of-range endpoints and disconnected
    graphs up front, and more vertices than the oracle's vertex budget
    before anything is allocated; neighbor lists are sorted ascending.
    """
    if not isinstance(vertices, int) or vertices < 2:
        raise GraphSpecError(f"custom graph needs at least 2 vertices, got {vertices!r}")
    if vertices > oracle_module.VERTEX_BUDGET:  # before the adjacency sets are allocated
        raise VertexBudgetExceeded(oracle_module.VERTEX_BUDGET, "custom")
    if not 0 <= root < vertices:
        raise GraphSpecError(f"root {root} outside 0..{vertices - 1}")
    adj: list[set[int]] = [set() for _ in range(vertices)]
    seen_edges: set[tuple[int, int]] = set()
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise GraphSpecError(f"edge {e!r} is not a pair")
        i, j = e
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in e):
            raise GraphSpecError(f"edge {e!r} has non-integer endpoints")
        if not (0 <= i < vertices and 0 <= j < vertices):
            raise GraphSpecError(f"edge {e!r} outside 0..{vertices - 1}")
        if i == j:
            raise GraphSpecError(f"loop at vertex {i} is not allowed")
        canon = (min(i, j), max(i, j))
        if canon in seen_edges:
            raise GraphSpecError(f"edge {list(canon)} given more than once")
        seen_edges.add(canon)
        adj[i].add(j)
        adj[j].add(i)
    lists = [tuple(sorted(s)) for s in adj]
    oracle = GraphOracle(root, lambda i: lists[i], name="custom", finite=True)
    # connectivity from the root; also rules out isolated vertices
    reached = {oracle.key_of(v) for v in enumerate_ball(oracle, vertices).vertices}
    if len(reached) != vertices:
        missing = [v for v in range(vertices) if v not in reached]
        if len(missing) > 10:  # name a few, so the message stays short
            raise GraphSpecError(
                f"graph is not connected; {len(missing)} unreachable vertices, the first 10 are {missing[:10]}"
            )
        raise GraphSpecError(f"graph is not connected; unreachable vertices {missing}")
    return oracle


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
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise GraphSpecError(f"graph spec must be an object with a 'family' key: {spec!r}")
    family = spec["family"]

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
    if family == "custom":
        edges = spec.get("edges")
        if not isinstance(edges, list):
            raise GraphSpecError("custom graph requires an 'edges' list")
        return custom_oracle(want_int("vertices"), edges, root=want_int("root", 0))
    raise GraphSpecError(f"unknown graph family {family!r}")
