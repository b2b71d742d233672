"""The back pass: reading a canonical affine set off an `_eliminate` result.

`_read_off` is the one code that back-reduces; `exactlap.kernel` tells how
it uses the kernel's row operation and why it consumes the rows it reads.
`exactlap.subspace.solution_image` wraps what it reads off in an
`AffineSubspace`.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import _clear
from .matrix import _ONE, _ZERO, Vector


def _read_off(
    rows: list[dict[int, int]], pivots: list[tuple[int, int]], n: int, k: int
) -> tuple[Vector, tuple[Vector, ...], tuple[int, ...]] | None:
    """The set an `_eliminate` result cuts out on its first ``k`` coordinates.

    It is returned as the canonical ``(particular, basis, pivot_cols)`` of
    an `AffineSubspace`, or None when the set is empty.  ``n`` is the
    right-hand side key.  A row left without a pivot that keeps a
    right-hand side makes the set empty.  Each pivot row below ``k`` is
    cleared of the pivot columns taken after it by `_clear`, in place,
    which leaves it with its pivot, columns that never pivot, and its
    right-hand side.  A cleared row lends `_clear` its entries without its
    pivot entry.  The rows are consumed: they no longer hold what
    `_eliminate` returned, and no other reader may use them.
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
    pivot_rows: dict[int, tuple[int, dict[int, int]]] = {}  # pivot column -> pivot entry, rest of row
    for p, c in reversed(pivots):
        if c < k:
            r = rows[p]
            for j in [j for j in r if j in pivot_rows]:
                _clear(r, j, pivot_rows[j][0], pivot_rows[j][1].items())
            pivot_rows[c] = r.pop(c), r
    free = [j for j in range(k) if j not in pivot_rows]
    particular = [_ZERO] * k
    basis = {f: [_ZERO] * k for f in free}
    for f in free:
        basis[f][f] = _ONE
    for c, (qc, r) in pivot_rows.items():
        for j, x in r.items():
            if j == n:
                particular[c] = Fraction(x, qc)
            else:
                basis[j][c] = Fraction(-x, qc)
    return tuple(particular), tuple(tuple(basis[f]) for f in free), tuple(free)
