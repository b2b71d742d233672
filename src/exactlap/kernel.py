"""The sparse elimination kernel over the rationals; no floating point anywhere.

A `RationalMatrix` stores each row as a map from column to nonzero
`Fraction`.  One elimination kernel, `_eliminate`, serves the determinant,
the square ball solve, the rectangular solution sets and their images on a
prefix of the coordinates (see `exactlap.linalg`):

* rows are scaled to integers once and kept primitive (the gcd of each
  updated row is divided out, its scale kept for the determinant), so an
  update is an integer cross-multiplication of just the rows that meet
  the pivot column;
* the columns are taken in one order, from the right, which is BFS order
  reversed: a tree or free group loses its leaves first with no fill-in
  at all, the line its endpoints, and a lattice is swept from its outer
  shell inward; the pivot is the row with the fewest unknowns in the
  column (the right-hand side does not count, so a target cannot fill a
  tree), ties to the lowest index;
* zeros from cancellation are dropped at once, so the stored pattern is
  the exact nonzero pattern and a chosen pivot is never zero; a column
  whose nonzeros run out is a rank loss (zero determinant, free unknown);
* each column lists the rows that gained a nonzero there, and nothing is
  removed when an entry cancels or a row pivots: when the column comes
  up, its live rows are read off the list and the list is freed;
* for every ``k`` at once, the columns from ``k`` on are taken before the
  first ``k``: the rows left without a pivot by then constrain the first
  ``k`` unknowns alone and cut out the image of the solution set there,
  and each later pivot sits at its row's rightmost column.

`_combine` clears one column of a row by a multiple of another, the step
of the back pass in `exactlap.linalg`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DimensionMismatch

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


class RationalMatrix:
    """Immutable sparse matrix: ``sparse_rows[i]`` maps column -> nonzero Fraction."""

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, entries: Iterable[Iterable]) -> None:
        entries = [tuple(r) for r in entries]
        cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise DimensionMismatch("ragged rows in matrix")
        self.rows, self.cols = len(entries), cols
        self.sparse_rows = tuple({j: x for j, x in enumerate(map(Fraction, r)) if x} for r in entries)

    @classmethod
    def from_rows(cls, rows: Iterable[dict[int, Fraction]], cols: int) -> "RationalMatrix":
        """Matrix from row maps whose values are nonzero Fractions (kept, not copied)."""
        m = cls.__new__(cls)
        m.sparse_rows = tuple(rows)
        m.rows, m.cols = len(m.sparse_rows), cols
        return m

    @property
    def entries(self) -> tuple[Vector, ...]:
        """Dense row tuples, built on demand."""
        return tuple(self.row(i) for i in range(self.rows))

    def entry(self, i: int, j: int) -> Fraction:
        return self.sparse_rows[i].get(j, _ZERO)

    def row(self, i: int) -> Vector:
        dense = [_ZERO] * self.cols
        for j, x in self.sparse_rows[i].items():
            dense[j] = x
        return tuple(dense)

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(
                f"matrix is {self.rows}x{self.cols}, vector has length {len(v)}"
            )
        return tuple(sum((x * v[j] for j, x in r.items()), _ZERO) for r in self.sparse_rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and (self.cols, self.sparse_rows) == (other.cols, other.sparse_rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _eliminate(
    a: RationalMatrix, rhs: Sequence[Fraction] | None = None
) -> tuple[list[dict[int, int]], list[tuple[int, int]], list[int], list[int]]:
    """Sparse fraction-free elimination of ``a``, augmented by ``rhs``.

    The columns are taken from the right, ``a.cols - 1, ..., 0``.  When one
    comes up, every row without a pivot holds only columns up to it, so its
    pivot is its row's rightmost unknown.  The column's active rows come
    from its candidate list, which names a row each time it gains a nonzero
    there (in the input or by fill): rows that have pivoted or whose entry
    has cancelled since are skipped, and the list is dropped.  The pivot is
    the active row with the fewest unknowns, ties to the lowest index.
    Returns ``(rows, pivots, num, den)``: integer rows with the right-hand
    side under key ``a.cols``, where row i now stands for
    ``rows[i] * num[i] / den[i]``; and the ``(row, column)`` pivots in
    elimination order.  A pivot row keeps only columns pivoted later or
    never; a row that never pivots keeps its right-hand side at most.
    """
    ncols, gcd = a.cols, math.gcd
    rows, num, den = [], [], []
    # column -> rows that gained a nonzero there; stale entries are skipped when it comes up
    col_rows: list[list[int]] = [[] for _ in range(ncols)]
    for i, r in enumerate(a.sparse_rows):
        for j in r:
            col_rows[j].append(i)
        if rhs is not None and rhs[i]:
            r = {**r, ncols: Fraction(rhs[i])}
        scale = math.lcm(*(x.denominator for x in r.values()))
        ints = {j: x.numerator * (scale // x.denominator) for j, x in r.items()}
        g = gcd(*ints.values()) or 1
        rows.append({j: x // g for j, x in ints.items()})
        num.append(g)
        den.append(scale)
    done = bytearray(len(rows))  # rows that have pivoted
    pivots = []
    for c in range(ncols - 1, -1, -1):
        active = {i for i in col_rows.pop() if not done[i] and c in rows[i]}
        if not active:
            continue  # rank loss: no row left with a nonzero here
        p = min(active, key=lambda i: (len(rows[i]) - (ncols in rows[i]), i))
        done[p] = 1
        piv = rows[p][c]
        rest = [(j, x) for j, x in rows[p].items() if j != c]
        active.discard(p)
        for i in active:
            r = rows[i]
            g = gcd(piv, r[c])
            s, t = piv // g, r.pop(c) // g
            if s != 1:
                for j in r:
                    r[j] *= s
                den[i] *= s
            for j, x in rest:
                y = r.get(j, 0) - t * x
                if y:
                    if j not in r and j < ncols:  # fill; the right-hand side has no list
                        col_rows[j].append(i)
                    r[j] = y
                elif j in r:
                    del r[j]
            g = gcd(*r.values())
            if g > 1:
                for j in r:
                    r[j] //= g
                num[i] *= g
        pivots.append((p, c))
    return rows, pivots, num, den


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
