"""Affine subsets of Q^n as their cleared integer rows; no floating point anywhere.

A set is stored as the rows that `exactlap.readoff._read_off` leaves: one
primitive integer row per solved column, with a positive pivot entry, so
equal sets have equal rows and the solver detects stabilization by
comparing them.  `solution_image` reads a set off one elimination (see
`exactlap.kernel`), `AffineSubspace.member` solves the rows for a member,
and the canonical point, basis and pivot columns are views derived from
the rows.
"""

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch
from .kernel import _eliminate
from .matrix import _ONE, _ZERO, RationalMatrix, Vector
from .readoff import _point_rows, _read_off

__all__ = ("AffineSubspace", "solution_image")


class AffineSubspace:
    """An affine subset of Q^ambient, stored as the rows that cut it out.

    ``rows`` holds ``(c, q, rhs, ((f, e), ...))`` for each solved column c,
    in increasing order, saying ``q x_c + sum of e x_f = rhs`` with q > 0
    and the row primitive; the free columns f are the others.  The rows
    are derived from the point set alone, so equal sets have equal rows,
    and equality and the hash read them.  The empty set has no rows
    (None).  A point p is written as its rows directly, by
    `exactlap.readoff._point_rows`; a point p and a spanning set V are the
    image on x of the solutions (x, t) of x - V^T t = p, by
    `solution_image`, never empty since each row has its own pivot x_i.
    """

    def __init__(
        self,
        ambient_dim: int,
        particular: Sequence[Fraction],
        span: Iterable[Sequence[Fraction]] = (),
    ) -> None:
        self.ambient_dim = ambient_dim
        point = tuple(map(Fraction, particular))
        if len(point) != ambient_dim:
            raise DimensionMismatch("particular point has wrong length")
        span = [tuple(map(Fraction, v)) for v in span]
        if any(len(v) != ambient_dim for v in span):
            raise DimensionMismatch("spanning vector has wrong length")
        if not span:
            self.rows = _point_rows(point)
            self.particular = point
            return
        system = RationalMatrix.from_rows(
            (
                {i: _ONE, **{ambient_dim + j: -v[i] for j, v in enumerate(span) if v[i]}}
                for i in range(ambient_dim)
            ),
            ambient_dim + len(span),
        )
        self.rows = solution_image(system, point, ambient_dim).rows

    @classmethod
    def empty(cls, ambient_dim: int) -> "AffineSubspace":
        s = cls.__new__(cls)
        s.ambient_dim, s.rows = ambient_dim, None
        return s

    @property
    def is_empty(self) -> bool:
        return self.rows is None

    @property
    def dim(self) -> int | None:
        """Affine dimension, or None for the empty set."""
        return None if self.rows is None else self.ambient_dim - len(self.rows)

    @cached_property
    def particular(self) -> Vector:
        """The member that vanishes on the free columns, () for the empty set; solved once, when first read."""
        return () if self.rows is None else self.member(())

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        """The free columns, in increasing order: the reduced-echelon pivot columns of the directions."""
        solved = {row[0] for row in self.rows or ()}
        return () if self.rows is None else tuple(j for j in range(self.ambient_dim) if j not in solved)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The reduced row echelon basis of the directions: vector f is 1 at free column f, 0 at the others."""
        vectors = {f: [_ONE if j == f else _ZERO for j in range(self.ambient_dim)] for f in self.pivot_cols}
        for c, q, _, rest in self.rows or ():
            for f, e in rest:
                vectors[f][c] = Fraction(-e, q)
        return tuple(map(tuple, vectors.values()))

    def member(self, coords: Sequence[Fraction]) -> Vector:
        """The member equal to ``coords`` on the free columns inside it, 0 on the others.

        Each solved column c is then x_c = (rhs - sum of e x_f) / q, from its
        row, whose free columns f are all below c.  With no coordinates it
        is the canonical point.
        """
        x = list(coords) + [_ZERO] * (self.ambient_dim - len(coords))
        for c, q, rhs, rest in self.rows:
            x[c] = Fraction(rhs - sum(e * x[f] for f, e in rest if x[f]), q)
        return tuple(x)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("membership test with wrong vector length")
        return not self.is_empty and self.member(point) == tuple(point)

    def _key(self) -> tuple:
        return self.ambient_dim, self.rows

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AffineSubspace) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        size = "empty" if self.is_empty else f"dim {self.dim}"
        return f"AffineSubspace({size} in Q^{self.ambient_dim})"


def solution_image(a: RationalMatrix, b: Sequence[Fraction], k: int) -> AffineSubspace:
    """Canonical image of the solution set of ``a x = b`` on its first ``k`` coordinates.

    One `_eliminate` of ``a`` and ``b``, read off at ``k`` by `_read_off`,
    which consumes the rows of this call's own elimination; `exactlap.kernel`
    tells why the rows left without a pivot cut out the image.
    """
    if a.rows != len(b):
        raise DimensionMismatch(
            f"matrix has {a.rows} rows but right-hand side has length {len(b)}"
        )
    if not 0 <= k <= a.cols:
        raise DimensionMismatch(f"cannot take {k} of {a.cols} coordinates")
    image = AffineSubspace.empty(k)
    image.rows = _read_off(*_eliminate(a, b)[:2], a.cols, k)
    return image
