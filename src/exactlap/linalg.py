"""Exact sparse linear algebra over the rationals; no floating point anywhere.

A `RationalMatrix` stores each row as a map from column to nonzero
`Fraction`.  One elimination kernel, `_eliminate`, serves the determinant,
the square ball solve, the rectangular solution sets and their images on a
prefix of the coordinates:

* rows are scaled to integers once and kept primitive (the gcd of each
  updated row is divided out, its scale kept for the determinant), so an
  update is an integer cross-multiplication of just the rows that meet
  the pivot column;
* the pivot is the shortest row in the active column with the fewest
  nonzeros (minimum degree), ties to the lowest index: trees lose leaves
  first with no fill-in at all, lattices keep their fill small;
* zeros from cancellation are dropped at once, so the stored pattern is
  the exact nonzero pattern and a chosen pivot is never zero; a column
  whose nonzeros run out is a rank loss (zero determinant, free unknown);
* the columns from some ``k`` on may be taken first, and the first ``k``
  then from the right: the rows left without a pivot after the first
  phase constrain the first ``k`` unknowns alone and cut out the image of
  the solution set there (`solution_image`), and each later pivot sits at
  its row's rightmost column.

Affine subspaces are kept in a canonical form (reduced-echelon direction
basis, particular point zeroed on the basis pivot columns) so that two
subspaces are equal as point sets exactly when their stored fields are
identical.  Set equality therefore reduces to tuple comparison, which is
what stabilization detection in the solver relies on.  One back pass,
`_read_off`, clears each pivot row of the pivot columns taken after it and
reads the set off the cleared rows: the unique point of `solve_exact`, and
the canonical form of `solution_image`, whose columns left without a pivot
are exactly the reduced-echelon pivot columns.  `solve_exact` hands every
positive-dimensional set to `solution_image` (a system with fewer
equations than unknowns without a rank pass first), and `AffineSubspace` a
point plus a spanning set, so `_eliminate` is the only code here that
chooses pivots and `_read_off` the only one that back-reduces.  Likewise
`AffineSubspace.member` is the only code that reads the canonical form as
a parametrisation of the set: membership tests and the solver's lift go
through it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DimensionMismatch

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    a: RationalMatrix, rhs: Sequence[Fraction] | None = None, first: int = 0
) -> tuple[list[dict[int, int]], list[tuple[int, int]], list[int], list[int]]:
    """Sparse fraction-free elimination of ``a``, augmented by ``rhs``.

    The columns ``first`` and beyond are taken in minimum-degree order,
    then the columns ``first - 1, ..., 0`` from the right.  When one of
    those comes up, every row without a pivot holds only columns up to it,
    so its pivot is its row's rightmost column.  Returns ``(rows, pivots,
    num, den)``: integer rows with the right-hand side under key
    ``a.cols``, where row i now stands for ``rows[i] * num[i] / den[i]``;
    and the ``(row, column)`` pivots in elimination order.  A pivot row
    keeps only columns pivoted later or never; a row that never pivots
    keeps its right-hand side at most.
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
    heap = [(len(col_rows[j]), j) for j in range(first, ncols)]
    heapify(heap)
    pivots, low = [], first
    while heap or low:
        if heap:
            count, c = heappop(heap)
            active = col_rows[c]
            if active is None or count != len(active):
                continue  # finished column, or a stale count
        else:
            low -= 1
            c, active = low, col_rows[low]
        col_rows[c] = None
        if not active:
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
            if first <= j < ncols:
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


class AffineSubspace:
    """An affine subset of Q^ambient in canonical form.

    The direction space is stored as its reduced row echelon basis, and
    the particular point is the unique member of the set whose coordinates
    vanish on the basis pivot columns.  Both are derived from the point set
    alone, so equal sets always produce field-identical objects.  A point
    p and spanning set V are put in this form by `solution_image`, as the
    image on x of the solutions (x, t) of x - V^T t = p.  The empty set is
    representable.
    """

    __slots__ = ("ambient_dim", "particular", "basis", "pivot_cols", "is_empty")

    def __init__(
        self,
        ambient_dim: int,
        particular: Sequence[Fraction] | None = None,
        span: Iterable[Sequence[Fraction]] = (),
    ) -> None:
        self.ambient_dim = ambient_dim
        if particular is None:
            particular = (Fraction(0),) * ambient_dim
        point = tuple(map(Fraction, particular))
        if len(point) != ambient_dim:
            raise DimensionMismatch("particular point has wrong length")
        span = [tuple(map(Fraction, v)) for v in span]
        for v in span:
            if len(v) != ambient_dim:
                raise DimensionMismatch("spanning vector has wrong length")
        self.particular, self.basis, self.pivot_cols, self.is_empty = point, (), (), False
        if span:
            # p + span(V) is the image on x of {(x, t) : x - V^T t = p}
            system = RationalMatrix.from_rows(
                (
                    {i: _ONE, **{ambient_dim + j: -v[i] for j, v in enumerate(span) if v[i]}}
                    for i in range(ambient_dim)
                ),
                ambient_dim + len(span),
            )
            image = solution_image(system, point, ambient_dim)
            self.particular, self.basis, self.pivot_cols = image.particular, image.basis, image.pivot_cols

    @classmethod
    def _canonical(
        cls, ambient_dim: int, particular: Vector, basis: tuple[Vector, ...], pivot_cols: tuple[int, ...]
    ) -> "AffineSubspace":
        """Wrap fields that are already in canonical form, without reducing them again."""
        s = cls.__new__(cls)
        s.ambient_dim, s.particular, s.basis, s.pivot_cols = ambient_dim, particular, basis, pivot_cols
        s.is_empty = False
        return s

    @classmethod
    def empty(cls, ambient_dim: int) -> "AffineSubspace":
        s = cls._canonical(ambient_dim, (), (), ())
        s.is_empty = True
        return s

    @classmethod
    def from_point(cls, point: Sequence[Fraction]) -> "AffineSubspace":
        return cls(len(point), point)

    @classmethod
    def full(cls, ambient_dim: int) -> "AffineSubspace":
        basis = tuple(tuple(_ONE if j == i else _ZERO for j in range(ambient_dim)) for i in range(ambient_dim))
        return cls._canonical(ambient_dim, (_ZERO,) * ambient_dim, basis, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int | None:
        """Affine dimension, or None for the empty set."""
        return None if self.is_empty else len(self.basis)

    def member(self, coords: Sequence[Fraction]) -> Vector:
        """The member equal to ``coords`` on the basis pivot columns inside it, 0 on the others.

        It is the canonical point plus ``coords[c]`` times basis vector c for
        each such pivot column c: the point vanishes on every pivot column,
        and basis vector c is 1 at c and 0 at the other pivot columns.  This
        is the one place that reads the canonical form as a parametrisation.
        """
        y = self.particular
        for row, c in zip(self.basis, self.pivot_cols):
            if c < len(coords) and coords[c]:
                y = tuple(a + coords[c] * b for a, b in zip(y, row))
        return y

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("membership test with wrong vector length")
        point = tuple(point)
        return not self.is_empty and self.member(point) == point

    def contains_direction(self, vector: Sequence[Fraction]) -> bool:
        """Whether a vector lies in the direction space of this subspace."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("direction test with wrong vector length")
        return not self.is_empty and self.contains([p + x for p, x in zip(self.particular, vector)])

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

    A system with fewer equations than unknowns always has free columns,
    so it goes straight to `solution_image` over all of its coordinates.
    Otherwise minimum-degree elimination of the augmented system decides
    the rank: a positive-dimensional set goes to `solution_image` too, and
    `_read_off` gives the unique point or the empty set.
    """
    if a.rows != len(b):
        raise DimensionMismatch(
            f"matrix has {a.rows} rows but right-hand side has length {len(b)}"
        )
    n = a.cols
    if a.rows < n:  # never full rank
        return solution_image(a, b, n)
    rows, pivots, _, _ = _eliminate(a, b)
    if len(pivots) < n:
        return solution_image(a, b, n)
    s = _read_off(rows, pivots, n, n)
    # already canonical; perfbench's tracer counts a point built by the constructor
    return s if s.is_empty else AffineSubspace.from_point(s.particular)


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


def _read_off(rows: list[dict[int, int]], pivots: list[tuple[int, int]], n: int, k: int) -> AffineSubspace:
    """The set an `_eliminate` result cuts out on its first ``k`` coordinates.

    ``n`` is the right-hand side key.  A row left without a pivot that keeps
    a right-hand side makes the set empty.  Each pivot row below ``k`` is
    cleared of the pivot columns taken after it, latest first, which leaves
    it with its pivot, columns that never pivot, and its right-hand side.
    When every unknown from ``k`` on was pivoted first and the rest from the
    right, the columns below ``k`` that never pivot are the reduced-echelon
    pivot columns of the direction space: the null vector of such a column
    f involves only f and pivot columns to its right, so it vanishes left
    of f.  The canonical basis and particular point are then read off.
    """
    pivoted = {p for p, _ in pivots}
    if any(r for i, r in enumerate(rows) if i not in pivoted):
        return AffineSubspace.empty(k)  # 0 = nonzero right-hand side
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
    return AffineSubspace._canonical(k, tuple(particular), tuple(tuple(basis[f]) for f in free), tuple(free))


def solution_image(a: RationalMatrix, b: Sequence[Fraction], k: int) -> AffineSubspace:
    """Canonical image of the solution set of ``a x = b`` on its first ``k`` coordinates.

    `_eliminate` takes the unknowns from column ``k`` on first, in
    minimum-degree order.  Each of them is then pivoted (solvable from the
    others) or free, so the rows left without a pivot, which involve only
    the first ``k`` unknowns, cut out the image exactly.  It then takes
    the first ``k`` columns from the right, and `_read_off` writes the
    canonical form down.
    """
    if a.rows != len(b):
        raise DimensionMismatch(
            f"matrix has {a.rows} rows but right-hand side has length {len(b)}"
        )
    if not 0 <= k <= a.cols:
        raise DimensionMismatch(f"cannot take {k} of {a.cols} coordinates")
    return _read_off(*_eliminate(a, b, k)[:2], a.cols, k)


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
