"""Exact sparse linear algebra over the rationals; no floating point anywhere.

Determinants, solves and canonical solution sets go through the one
sparse elimination kernel of `exactlap.kernel`, on the sparse
`RationalMatrix` of `exactlap.matrix`.  The kernel takes the columns from
the right, so for every ``k`` the columns from ``k`` on come first: the
rows they leave without a pivot cut out the image of the solution set on
the first ``k`` coordinates, and one elimination serves any prefix.

Sets are returned as an `AffineSubspace`, whose canonical form makes set
equality a tuple comparison; `solution_image` (both in
`exactlap.subspace`) reads one off an elimination through the one back
pass, `_read_off` (`exactlap.readoff`), whose columns left without a
pivot are exactly the reduced-echelon pivot columns.  `solve_exact` is
`solution_image` on all of the coordinates, one elimination for every
shape and rank, and `AffineSubspace` reads a point plus a spanning set
off `solution_image` too, so `_eliminate` is the only code that chooses
pivots and `_read_off` the only one that back-reduces.  Both combine rows
through the kernel's one integer row operation, `_clear`, in place:
`_read_off` consumes the rows of the elimination it reads, and
`solution_image` hands it a fresh one each time.  `image_under_map`
and the `AffineSubspace.from_point` wrap in `solve_exact` are kept for the
benchmark's tracer only; nothing in the package calls the former.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import DimensionMismatch
from .kernel import _eliminate
from .matrix import RationalMatrix
from .subspace import AffineSubspace, solution_image

__all__ = ("affine_subset", "determinant", "solve_exact", "subspace_equal")


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


def solve_exact(a: RationalMatrix, b: Sequence[Fraction]) -> AffineSubspace:
    """Full solution set of ``a x = b`` as a canonical affine subspace.

    It is the image on all of the coordinates, read off one elimination
    whatever the shape and rank of ``a``: the unique point, the empty set
    or a positive-dimensional set.
    """
    s = solution_image(a, b, a.cols)
    # already canonical; perfbench's tracer counts a point built by the constructor
    return s if s.is_empty or s.basis else AffineSubspace.from_point(s.particular)


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


def _same_space(s1: AffineSubspace, s2: AffineSubspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(f"comparing subspaces of Q^{s1.ambient_dim} and Q^{s2.ambient_dim}")


def subspace_equal(s1: AffineSubspace, s2: AffineSubspace) -> bool:
    """Point-set equality, decided by comparing canonical forms."""
    _same_space(s1, s2)
    return s1 == s2


def affine_subset(inner: AffineSubspace, outer: AffineSubspace) -> bool:
    """Whether ``inner`` is contained in ``outer``, checked on generators."""
    _same_space(inner, outer)
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    if not outer.contains(inner.particular):
        return False
    # with the point inside, v is a direction of outer exactly when point + v is a member
    return all(outer.contains([p + x for p, x in zip(inner.particular, v)]) for v in inner.basis)
