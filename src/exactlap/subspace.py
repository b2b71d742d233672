"""Affine subsets of Q^n in a canonical form; no floating point anywhere.

The direction space is kept as its reduced row echelon basis, and the
particular point is zeroed on the basis pivot columns, so that two
subspaces are equal as point sets exactly when their stored fields are
identical.  Set equality therefore reduces to tuple comparison, which is
what stabilization detection in the solver relies on.

`solution_image` is the one code that reads a set off an elimination: it
runs the one elimination kernel (`exactlap.kernel`) and the one back pass
(`exactlap.readoff`) and wraps what they cut out.  A point plus a
spanning set is put in canonical form as such an image.
`AffineSubspace.member` is the only code that reads the canonical form as
a parametrisation of the set: membership tests, the subset test and the
solver's lift go through it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DimensionMismatch
from .kernel import _eliminate
from .matrix import RationalMatrix, Vector
from .readoff import _read_off

_ONE = Fraction(1)


class AffineSubspace:
    """An affine subset of Q^ambient in canonical form.

    The direction space is stored as its reduced row echelon basis, and
    the particular point is the unique member of the set whose coordinates
    vanish on the basis pivot columns.  Both are derived from the point set
    alone, so equal sets always produce field-identical objects.  A point
    p and spanning set V are put in this form as the image on x of the
    solutions (x, t) of x - V^T t = p, by `solution_image`.  The empty set
    is representable.
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
            # every row has its own pivot x_i, so the image is never empty
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
    fields = _read_off(*_eliminate(a, b)[:2], a.cols, k)
    return AffineSubspace.empty(k) if fields is None else AffineSubspace._canonical(k, *fields)
