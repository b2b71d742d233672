"""Exact sparse linear algebra over the rationals; no floating point anywhere.

A `RationalMatrix` stores each row as a map from column to nonzero
`Fraction`.  One elimination kernel, `_eliminate`, serves the determinant,
the square ball solve and the rectangular solution sets:

* rows are scaled to integers once and kept primitive (the gcd of each
  updated row is divided out, its scale kept for the determinant), so an
  update is an integer cross-multiplication of just the rows that meet
  the pivot column;
* the pivot is the shortest row in the active column with the fewest
  nonzeros (minimum degree), ties to the lowest index: trees lose leaves
  first with no fill-in at all, lattices keep their fill small;
* zeros from cancellation are dropped at once, so the stored pattern is
  the exact nonzero pattern and a chosen pivot is never zero; a column
  whose nonzeros run out is a rank loss (zero determinant, free unknown).

Affine subspaces are kept in a canonical form (reduced-echelon direction
basis, particular point zeroed on the basis pivot columns) so that two
subspaces are equal as point sets exactly when their stored fields are
identical.  Set equality therefore reduces to tuple comparison, which is
what stabilization detection in the solver relies on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

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

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows(({i: Fraction(1)} for i in range(n)), n)

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

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for r in self.sparse_rows:
            acc: dict[int, Fraction] = {}
            for k, x in r.items():
                for j, y in other.sparse_rows[k].items():
                    acc[j] = acc.get(j, _ZERO) + x * y
            out.append({j: x for j, x in acc.items() if x})
        return RationalMatrix.from_rows(out, other.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and (self.cols, self.sparse_rows) == (other.cols, other.sparse_rows)

    def __hash__(self) -> int:
        return hash((self.cols, tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _eliminate(
    a: RationalMatrix, rhs: Sequence[Fraction] | None = None
) -> tuple[list[dict[int, int]], list[tuple[int, int]], list[int], list[int]]:
    """Sparse fraction-free forward elimination of ``a``, augmented by ``rhs``.

    Returns ``(rows, pivots, num, den)``: integer rows with the right-hand
    side under key ``a.cols``, where row i now stands for ``rows[i] * num[i]
    / den[i]``; and the ``(row, column)`` pivots in elimination order.  A
    pivot row keeps only columns pivoted later or never; a row that never
    pivots ends with at most its right-hand side.
    """
    from heapq import heapify, heappop, heappush  # imported here to keep CLI start-up lean

    ncols, gcd = a.cols, math.gcd
    rows, num, den = [], [], []
    col_rows: list = [set() for _ in range(ncols + 1)]  # the last is the right-hand side
    for i, r in enumerate(a.sparse_rows):
        if rhs is not None and rhs[i]:
            r = {**r, ncols: Fraction(rhs[i])}
        scale = math.lcm(*(x.denominator for x in r.values()))
        ints = {j: x.numerator * (scale // x.denominator) for j, x in r.items()}
        g = gcd(*ints.values()) or 1
        rows.append({j: x // g for j, x in ints.items()})
        num.append(g)
        den.append(scale)
        for j in r:
            col_rows[j].add(i)
    heap = [(len(col_rows[j]), j) for j in range(ncols)]
    heapify(heap)
    pivots = []
    while heap:
        count, c = heappop(heap)
        active = col_rows[c]
        if active is None or count != len(active):
            continue  # finished column, or a stale count
        col_rows[c] = None
        if not count:
            continue  # rank loss: no row left with a nonzero here
        p = min(active, key=lambda i: (len(rows[i]), i))
        piv = rows[p][c]
        rest = [(j, x) for j, x in rows[p].items() if j != c]
        for j, _ in rest:
            col_rows[j].discard(p)
        for i in active - {p}:
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
                    if j not in r:
                        col_rows[j].add(i)
                    r[j] = y
                elif j in r:
                    del r[j]
                    col_rows[j].discard(i)
            g = gcd(*r.values())
            if g > 1:
                for j in r:
                    r[j] //= g
                num[i] *= g
        for j, _ in rest:
            if j < ncols:
                heappush(heap, (len(col_rows[j]), j))
        pivots.append((p, c))
    return rows, pivots, num, den


def determinant(a: RationalMatrix) -> Fraction:
    """Exact determinant: the signed product of the sparse kernel's pivots."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"determinant of non-square {a.rows}x{a.cols} matrix")
    rows, pivots, num, den = _eliminate(a)
    if len(pivots) < a.rows:
        return Fraction(0)
    top, bottom, perm = 1, 1, dict(pivots)
    while perm:  # sign of the row -> column permutation of the pivots
        start, k = perm.popitem()
        while k != start:
            k = perm.pop(k)
            top = -top
    for p, c in pivots:
        top *= rows[p][c] * num[p]
        bottom *= den[p]
    return Fraction(top, bottom)


def _rref_rows(vectors: Iterable[Sequence[Fraction]], ambient: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a list of vectors; returns (rows, pivot columns)."""
    rows = [list(v) for v in vectors if any(v)]
    pivots: list[int] = []
    r = 0
    for c in range(ambient):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                rows[i] = [a - coef * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


class AffineSubspace:
    """An affine subset of Q^ambient in canonical form.

    The direction space is stored as the reduced row echelon basis of
    whatever spanning set was supplied, and the particular point is the
    unique member of the set whose coordinates vanish on the basis pivot
    columns.  Both are derived from the point set alone, so equal sets
    always produce field-identical objects.  The empty set is representable.
    """

    __slots__ = ("ambient_dim", "particular", "basis", "pivot_cols", "is_empty")

    def __init__(
        self,
        ambient_dim: int,
        particular: Sequence[Fraction] | None = None,
        span: Iterable[Sequence[Fraction]] = (),
        *,
        empty: bool = False,
    ) -> None:
        self.ambient_dim = ambient_dim
        if empty:
            self.particular: Vector = ()
            self.basis: tuple[Vector, ...] = ()
            self.pivot_cols: tuple[int, ...] = ()
            self.is_empty = True
            return
        if particular is None:
            particular = (Fraction(0),) * ambient_dim
        point = tuple(map(Fraction, particular))
        if len(point) != ambient_dim:
            raise DimensionMismatch("particular point has wrong length")
        span = [tuple(map(Fraction, v)) for v in span]
        for v in span:
            if len(v) != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong length")
        rows, pivots = _rref_rows(span, ambient_dim)
        reduced = list(point)
        for row, c in zip(rows, pivots):
            coef = reduced[c]
            if coef:
                reduced = [a - coef * b for a, b in zip(reduced, row)]
        self.particular = tuple(reduced)
        self.basis = tuple(tuple(r) for r in rows)
        self.pivot_cols = tuple(pivots)
        self.is_empty = False

    @classmethod
    def empty(cls, ambient_dim: int) -> "AffineSubspace":
        return cls(ambient_dim, empty=True)

    @classmethod
    def from_point(cls, point: Sequence[Fraction]) -> "AffineSubspace":
        return cls(len(point), point)

    @classmethod
    def full(cls, ambient_dim: int) -> "AffineSubspace":
        return cls(ambient_dim, span=RationalMatrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int | None:
        """Affine dimension, or None for the empty set."""
        return None if self.is_empty else len(self.basis)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("membership test with wrong vector length")
        if self.is_empty:
            return False
        v = [Fraction(x) - p for x, p in zip(point, self.particular)]
        return self._direction_residual_zero(v)

    def contains_direction(self, vector: Sequence[Fraction]) -> bool:
        """Whether a vector lies in the direction space of this subspace."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("direction test with wrong vector length")
        if self.is_empty:
            return False
        return self._direction_residual_zero([Fraction(x) for x in vector])

    def _direction_residual_zero(self, v: list[Fraction]) -> bool:
        for row, c in zip(self.basis, self.pivot_cols):
            coef = v[c]
            if coef:
                v = [a - coef * b for a, b in zip(v, row)]
        return not any(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.is_empty == other.is_empty
            and self.particular == other.particular
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.is_empty, self.particular, self.basis))

    def __repr__(self) -> str:
        if self.is_empty:
            return f"AffineSubspace(empty in Q^{self.ambient_dim})"
        return f"AffineSubspace(dim {len(self.basis)} in Q^{self.ambient_dim})"


def solve_exact(a: RationalMatrix, b: Sequence[Fraction]) -> AffineSubspace:
    """Full solution set of ``a x = b`` as a canonical affine subspace.

    Sparse forward elimination of the augmented system, then
    back-substitution writing every unknown as an affine function of the
    free ones.  The result may be a point, a positive-dimensional set, or empty.
    """
    if a.rows != len(b):
        raise DimensionMismatch(
            f"matrix has {a.rows} rows but right-hand side has length {len(b)}"
        )
    n = a.cols
    rows, pivots, _, _ = _eliminate(a, b)
    if any(rows[i] for i in set(range(a.rows)) - {p for p, _ in pivots}):
        return AffineSubspace.empty(n)
    pivot_cols = {c for _, c in pivots}
    free = [j for j in range(n) if j not in pivot_cols]
    # unknown -> {free column, or n for the constant term: coefficient}
    expr = {j: {j: Fraction(1)} for j in free}
    expr[n] = {n: Fraction(-1)}
    for p, c in reversed(pivots):
        acc: dict[int, Fraction] = {}
        for j, x in rows[p].items():
            if j != c:
                for k, y in expr[j].items():
                    acc[k] = acc.get(k, _ZERO) - x * y
        expr[c] = {k: y / rows[p][c] for k, y in acc.items() if y}
    particular = [_ZERO] * n
    span = {j: [_ZERO] * n for j in free}
    for c in range(n):
        for k, y in expr[c].items():
            (particular if k == n else span[k])[c] = y
    return AffineSubspace(n, particular, span.values())


def image_under_map(s: AffineSubspace, m: RationalMatrix) -> AffineSubspace:
    """Image of an affine subspace under a linear map, re-canonicalized."""
    if m.cols != s.ambient_dim:
        raise DimensionMismatch(
            f"map expects dimension {m.cols}, subspace lives in {s.ambient_dim}"
        )
    if s.is_empty:
        return AffineSubspace.empty(m.rows)
    return AffineSubspace(
        m.rows,
        m.mul_vec(s.particular),
        [m.mul_vec(v) for v in s.basis],
    )


def subspace_equal(s1: AffineSubspace, s2: AffineSubspace) -> bool:
    """Point-set equality, decided by comparing canonical forms."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"comparing subspaces of Q^{s1.ambient_dim} and Q^{s2.ambient_dim}"
        )
    return s1 == s2


def subspace_dim(s: AffineSubspace) -> int | None:
    """Affine dimension; None for the empty set."""
    return s.dim


def affine_subset(inner: AffineSubspace, outer: AffineSubspace) -> bool:
    """Whether ``inner`` is contained in ``outer``, checked on generators."""
    if inner.ambient_dim != outer.ambient_dim:
        raise DimensionMismatch(
            f"comparing subspaces of Q^{inner.ambient_dim} and Q^{outer.ambient_dim}"
        )
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    if not outer.contains(inner.particular):
        return False
    return all(outer.contains_direction(v) for v in inner.basis)
