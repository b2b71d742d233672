"""The infinite built-in graph families, as lazy neighbor oracles.

Each family documents its canonical neighbor order, which together with
BFS discovery fixes all vertex ids.  The finite families are in
`exactlap.finite`; `exactlap.graphs` builds either kind from a spec.
"""

from __future__ import annotations

from .errors import BadFamilyParameter
from .oracle import GraphOracle


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
