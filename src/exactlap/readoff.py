"""The back pass: reading a canonical affine set off an `_eliminate` result.

`_read_off` is the one code that back-reduces; `exactlap.kernel` tells how
it uses the kernel's row operation and why it consumes the rows it reads.
The cleared integer rows it returns are the set itself:
`exactlap.subspace.solution_image` wraps them in an `AffineSubspace`, which
compares and hashes them and derives its point and basis from them.  The
rows of a set are written only here: by `_read_off`, and for a single
point by `_point_rows`.
"""

from __future__ import annotations

from .kernel import _clear
from .matrix import Vector

Rows = tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]


def _point_rows(point: Vector) -> Rows:
    """The rows of one point: ``d x_c = m`` for each coordinate ``p_c = m / d``, in lowest terms."""
    return tuple((c, x.denominator, x.numerator, ()) for c, x in enumerate(point))


def _read_off(
    rows: list[dict[int, int]], pivots: list[tuple[int, int]], n: int, k: int
) -> Rows | None:
    """The set an `_eliminate` result cuts out on its first ``k`` coordinates.

    It is returned as one row ``(c, q, rhs, ((f, e), ...))`` per pivot
    column c below ``k``, in increasing order of c, which says
    ``q x_c + sum of e x_f = rhs``; or None when the set is empty.  ``n``
    is the right-hand side key.  A row left without a pivot that keeps a
    right-hand side makes the set empty.  Each pivot row below ``k`` is
    cleared of the pivot columns taken after it by `_clear`, in place,
    which leaves it with its pivot, columns that never pivot, and its
    right-hand side.  A cleared row lends `_clear` its entries without its
    pivot entry, the right-hand side still under ``n``: the same key in
    every row while they are cleared.  The rows are consumed: they no
    longer hold what `_eliminate` returned, and no other reader may use them.
    The kernel takes every column from the right, so the unknowns from
    ``k`` on were pivoted first and the columns below ``k`` that never
    pivot are the free columns of the set, each smaller than the pivot
    columns whose rows hold it.  A cleared row writes x_c as an affine
    function of the free coordinates, which parametrise the set, so it is
    unique up to a scale: `_clear` leaves it primitive, and a row whose
    pivot entry is negative is negated, so equal sets give equal rows.  No
    `Fraction` is built here.
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
    cleared = []
    for c, (q, r) in pivot_rows.items():
        rhs = r.pop(n, 0)
        if q < 0:
            q, rhs, r = -q, -rhs, {j: -x for j, x in r.items()}
        cleared.append((c, q, rhs, tuple(sorted(r.items()))))
    return tuple(cleared)
