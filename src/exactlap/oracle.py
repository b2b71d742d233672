"""Lazy graph oracles and their BFS balls.

A graph is described by a neighbor function over arbitrary hashable keys
plus a root key.  The oracle assigns dense integer ids in BFS discovery
order: id 0 is the root, and vertices are expanded strictly in id order, so
ids sort by (distance to root, discovery order) no matter how callers
interleave queries.  Two consequences the rest of the package leans on:

* the closed ball of radius n is exactly the id prefix ``0..|B_n|-1``;
* matrices indexed by ball order are reproducible across runs.

Neighbor lists keep the order the family documents, which fixes the id
assignment completely.  One oracle discovers at most `VERTEX_BUDGET`
vertices: validation, enumeration and assembly all discover vertices
through `GraphOracle._expand_next`, so this one bound covers them all.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterable

from .errors import VertexBudgetExceeded
from .record import Record

# about 69 times the 1,457 vertices (free2, B_6) that the test suite
# discovers at most, so free2 at radius 8 (39,365 with B_9) still fits
VERTEX_BUDGET = 100_000


class GraphOracle:
    """Lazy adjacency oracle over dense BFS-ordered vertex ids.

    ``raw_neighbors`` must be deterministic and is only ever called on keys
    the oracle has already discovered.  Expansion is protected by a lock so
    read-only sharing across threads is safe.  ``finite`` records that the
    graph is finite, a fact of the family that image chains rely on; an
    oracle is taken to be infinite unless its constructor says otherwise.
    """

    def __init__(
        self,
        root_key: Hashable,
        raw_neighbors: Callable[[Hashable], Iterable[Hashable]],
        label: Callable[[Hashable], str] = str,
        name: str = "custom",
        finite: bool = False,
    ) -> None:
        self._raw = raw_neighbors
        self._label_fn = label
        self.name = name
        self.finite = finite
        self._keys: list[Hashable] = [root_key]
        self._ids: dict[Hashable, int] = {root_key: 0}
        self._adj: list[tuple[int, ...]] = []
        self._dist: list[int] = [0]
        self._lock = threading.RLock()

    @property
    def root(self) -> int:
        return 0

    def _expand_next(self) -> None:
        """Expand the first unexpanded vertex, within `VERTEX_BUDGET`.

        Its new neighbors are numbered first and recorded only once all of
        them fit.  The numbering stops at the first neighbor over budget, so
        an expansion over budget reads no further into the neighbor list,
        raises, and leaves the oracle as it was.
        """
        i = len(self._adj)
        found = len(self._keys)
        new: dict[Hashable, int] = {}
        ids = []
        for nb_key in self._raw(self._keys[i]):
            nb = self._ids.get(nb_key)
            if nb is None:
                nb = new.setdefault(nb_key, found + len(new))
                if nb >= VERTEX_BUDGET:
                    raise VertexBudgetExceeded(VERTEX_BUDGET, self.name)
            ids.append(nb)
        self._ids.update(new)
        self._keys += new
        self._dist += [self._dist[i] + 1] * len(new)
        self._adj.append(tuple(ids))

    def _expand_through_distance(self, limit: int) -> None:
        while len(self._adj) < len(self._keys) and self._dist[len(self._adj)] <= limit:
            self._expand_next()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbor ids of a discovered vertex, in the family's documented order."""
        with self._lock:
            if not 0 <= v < len(self._keys):
                raise ValueError(f"vertex id {v} has not been discovered")
            while len(self._adj) <= v:
                self._expand_next()
            return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def distance(self, v: int) -> int:
        """Graph distance from the root, known for every discovered vertex."""
        with self._lock:
            if not 0 <= v < len(self._keys):
                raise ValueError(f"vertex id {v} has not been discovered")
            return self._dist[v]

    def label(self, v: int) -> str:
        with self._lock:
            if not 0 <= v < len(self._keys):
                raise ValueError(f"vertex id {v} has not been discovered")
            return self._label_fn(self._keys[v])

    def key_of(self, v: int) -> Hashable:
        with self._lock:
            if not 0 <= v < len(self._keys):
                raise ValueError(f"vertex id {v} has not been discovered")
            return self._keys[v]

    def __repr__(self) -> str:
        return f"GraphOracle({self.name!r}, discovered={len(self._keys)})"


class Ball(Record):
    """Closed ball around the root: an id prefix with per-vertex distances."""

    oracle: GraphOracle
    radius: int
    vertices: tuple[int, ...]
    distances: tuple[int, ...]
    boundary_saturated: bool

    @property
    def size(self) -> int:
        return len(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < len(self.vertices)


def enumerate_ball(oracle: GraphOracle, n: int) -> Ball:
    """Enumerate the closed ball of radius n, probing n+1 for saturation."""
    if n < 0:
        raise ValueError("ball radius must be nonnegative")
    with oracle._lock:
        oracle._expand_through_distance(n)
        # every vertex of distance <= n+1 is now discovered; distances are
        # non-decreasing in id, so the ball is an id prefix
        dist = oracle._dist
        size = sum(1 for d in dist if d <= n)
        saturated = len(dist) == size
        return Ball(
            oracle=oracle,
            radius=n,
            vertices=tuple(range(size)),
            distances=tuple(dist[:size]),
            boundary_saturated=saturated,
        )
