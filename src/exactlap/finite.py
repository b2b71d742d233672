"""The finite built-in graph families: cycles, paths and custom edge lists.

Their oracles say that the graph is finite, so a chain on them stabilizes
only at a depth whose ball is saturated.  Neighbor lists are in a
documented order, which together with BFS discovery fixes all vertex ids.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import oracle as oracle_module
from .errors import BadFamilyParameter, GraphSpecError, VertexBudgetExceeded
from .oracle import GraphOracle, enumerate_ball

__all__ = ("custom_oracle", "cycle_oracle", "path_oracle")


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
        if j in adj[i]:
            raise GraphSpecError(f"edge {[min(i, j), max(i, j)]} given more than once")
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
