"""Exact sparse linear algebra over the rationals; no floating point anywhere.

Determinants, solves and canonical solution sets go through the one
sparse elimination kernel of `exactlap.kernel`, on its sparse
`RationalMatrix`.  The kernel takes the columns from the right, so
for every ``k`` the columns from ``k`` on come first: the rows they leave
without a pivot cut out the image of the solution set on the first ``k``
coordinates, and one elimination serves any prefix.

Affine subspaces are kept in a canonical form (reduced-echelon direction
basis, particular point zeroed on the basis pivot columns) so that two
subspaces are equal as point sets exactly when their stored fields are
identical.  Set equality therefore reduces to tuple comparison, which is
what stabilization detection in the solver relies on.  One back pass,
`_read_off`, clears each pivot row of the pivot columns taken after it and
reads the set off the cleared rows: the canonical form of
`solution_image`, whose columns left without a pivot are exactly the
reduced-echelon pivot columns.  `solve_exact` is `solution_image` on all
of the coordinates, one elimination for every shape and rank, and
`AffineSubspace` hands it a point plus a spanning set, so `_eliminate` is
the only code that chooses pivots and `_read_off` the only one that
back-reduces.  Likewise `AffineSubspace.member` is the only code that
reads the canonical form as a parametrisation of the set: membership
tests, the subset test and the solver's lift go through it.
`image_under_map` and the `AffineSubspace.from_point` wrap in
`solve_exact` are kept for the benchmark's tracer only; nothing in the
package calls the former.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DimensionMismatch
from .kernel import RationalMatrix, Vector, _combine, _eliminate

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    It is the image on all of the coordinates, read off one elimination
    whatever the shape and rank of ``a``: the unique point, the empty set
    or a positive-dimensional set.
    """
    s = solution_image(a, b, a.cols)
    # already canonical; perfbench's tracer counts a point built by the constructor
    return s if s.is_empty or s.basis else AffineSubspace.from_point(s.particular)


def _read_off(rows: list[dict[int, int]], pivots: list[tuple[int, int]], n: int, k: int) -> AffineSubspace:
    """The set an `_eliminate` result cuts out on its first ``k`` coordinates.

    ``n`` is the right-hand side key.  A row left without a pivot that keeps
    a right-hand side makes the set empty.  Each pivot row below ``k`` is
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

    `_eliminate` takes the columns from the right, so the unknowns from
    column ``k`` on come first.  Each of them is then pivoted (solvable
    from the others) or free, so the rows left without a pivot, which
    involve only the first ``k`` unknowns, cut out the image exactly.
    The first ``k`` columns follow, still from the right, and `_read_off`
    writes the canonical form down.
    """
    if a.rows != len(b):
        raise DimensionMismatch(
            f"matrix has {a.rows} rows but right-hand side has length {len(b)}"
        )
    if not 0 <= k <= a.cols:
        raise DimensionMismatch(f"cannot take {k} of {a.cols} coordinates")
    return _read_off(*_eliminate(a, b)[:2], a.cols, k)


def image_under_map(s: AffineSubspace, m: RationalMatrix) -> AffineSubspace:
    """Image of an affine subspace under a linear map, re-canonicalized.

    Kept for the benchmark's tracer, which binds this name; the package's
    images come from `solution_image`.
    """
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
    # with the point inside, v is a direction of outer exactly when point + v is a member
    return all(outer.contains([p + x for p, x in zip(inner.particular, v)]) for v in inner.basis)
