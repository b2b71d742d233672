"""The back pass: reading a canonical affine set off an `_eliminate` result.

`_combine` clears one column of a row by a multiple of another, and
`_read_off` uses it to clear each pivot row of the pivot columns taken
after it.  `exactlap.subspace.solution_image` wraps what it reads off in
an `AffineSubspace`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .matrix import Vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _combine(r: dict[int, int], q: dict[int, int], c: int) -> dict[int, int]:
    """Row ``r`` with column ``c`` cleared by a multiple of ``q``, as a primitive integer row."""
    g = math.gcd(q[c], r[c])
    s, t = q[c] // g, r[c] // g
    out = {j: s * x for j, x in r.items() if j != c}
    for j, x in q.items():
        if j != c:
            y = out.get(j, 0) - t * x
            if y:
                out[j] = y
            else:
                out.pop(j, None)
    g = math.gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _read_off(
    rows: list[dict[int, int]], pivots: list[tuple[int, int]], n: int, k: int
) -> tuple[Vector, tuple[Vector, ...], tuple[int, ...]] | None:
    """The set an `_eliminate` result cuts out on its first ``k`` coordinates.

    It is returned as the canonical ``(particular, basis, pivot_cols)`` of
    an `AffineSubspace`, or None when the set is empty.  ``n`` is the
    right-hand side key.  A row left without a pivot that keeps a
    right-hand side makes the set empty.  Each pivot row below ``k`` is
    cleared of the pivot columns taken after it, latest first, which leaves
    it with its pivot, columns that never pivot, and its right-hand side.
    The kernel takes every column from the right, so the unknowns from
    ``k`` on were pivoted first and the columns below ``k`` that never
    pivot are the reduced-echelon pivot columns of the direction space: the
    null vector of such a column f involves only f and pivot columns to
    its right, so it vanishes left of f.  The canonical basis and
    particular point are then read off.  With ``k`` equal to ``n``, a
    unique point is the particular point with an empty basis.
    """
    pivoted = {p for p, _ in pivots}
    if any(r for i, r in enumerate(rows) if i not in pivoted):
        return None  # 0 = nonzero right-hand side
    pivot_rows: dict[int, dict[int, int]] = {}  # pivot column -> reduced row
    for p, c in reversed(pivots):
        if c < k:
            r = rows[p]
            for q in [j for j in r if j in pivot_rows]:
                r = _combine(r, pivot_rows[q], q)
            pivot_rows[c] = r
    free = [j for j in range(k) if j not in pivot_rows]
    particular = [_ZERO] * k
    basis = {f: [_ZERO] * k for f in free}
    for f in free:
        basis[f][f] = _ONE
    for c, r in pivot_rows.items():
        for j, x in r.items():
            if j == n:
                particular[c] = Fraction(x, r[c])
            elif j != c:
                basis[j][c] = Fraction(-x, r[c])
    return tuple(particular), tuple(tuple(basis[f]) for f in free), tuple(free)
