"""The combinatorial Laplacian and its finite truncations on balls.

The operator acts on real-valued vertex functions by

    (L f)(v) = (1 + lam(v)) f(v) - (1/deg v) * sum of f over neighbors of v,

with ``lam`` a nonnegative vertex weight (identically zero gives the plain
Laplacian).  Two finite matrices represent it here, both indexed in ball
order:

* the square truncation on functions supported in B_n, which ignores
  neighbors outside the ball (they carry value zero);
* the rectangular restriction taking a function on B_{n+1} to the operator
  values on B_n, where every neighbor is inside the domain ball.

Keeping the two separate matters: the square one is invertible on infinite
graphs, while the rectangular one has a solution set of positive dimension
that the chain machinery in the solver tracks across radii.  The
functions the operator acts on and the targets it is matched against are
in `exactlap.functions`.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .errors import BadRadii, DimensionMismatch, InsufficientDomain
from .functions import BallFunction, TargetFunction, VertexField
from .matrix import RationalMatrix
from .oracle import Ball, GraphOracle, enumerate_ball

__all__ = (
    "LambdaField", "apply_laplacian", "restricted_operator_matrix", "truncated_operator_matrix",
)


class LambdaField(VertexField):
    """Nonnegative vertex weight added to the diagonal of the operator."""

    @classmethod
    def zero(cls) -> "LambdaField":
        return cls("zero", entries={})

    @classmethod
    def constant(cls, c) -> "LambdaField":
        c = Fraction(c)
        if c < 0:
            raise ValueError(f"weight must be nonnegative, got {c}")
        return cls("constant", c, profile=lambda d: c)

    @classmethod
    def distance(cls) -> "LambdaField":
        """Weight equal to the graph distance from the root."""
        return cls("distance", profile=Fraction)

    @classmethod
    def from_map(cls, entries: Mapping[int, Fraction]) -> "LambdaField":
        """Explicit per-vertex weights keyed by id; unlisted vertices get zero."""
        clean = {}
        for v, x in entries.items():
            x = Fraction(x)
            if x < 0:
                raise ValueError(f"weight must be nonnegative, got {x} at vertex {v}")
            if x:
                clean[int(v)] = x
        return cls("map", clean, entries=clean)

    def __repr__(self) -> str:
        return f"LambdaField({self.kind}{'' if self.data is None else ', ' + repr(self.data)})"


def apply_laplacian(oracle: GraphOracle, f: BallFunction, lam: LambdaField) -> BallFunction:
    """Apply the operator to a function on B_{n+1}, yielding values on B_n.

    This is a direct evaluation of the defining formula over the adjacency
    oracle, independent of any matrix assembly; `solves` relies on that
    independence.
    """
    if f.ball.oracle is not oracle:
        raise DimensionMismatch("function lives on a different graph")
    m = f.ball.radius
    if m < 1:
        raise InsufficientDomain("need values on a ball of radius >= 1")
    inner = enumerate_ball(oracle, m - 1)
    out = []
    for v in inner.vertices:
        nbs = oracle.neighbors(v)
        s = sum((f.values[w] for w in nbs), Fraction(0))
        out.append((1 + lam.value(oracle, v)) * f.values[v] - s / len(nbs))
    return BallFunction(inner, tuple(out))


def solves(oracle: GraphOracle, f: BallFunction, target: TargetFunction, lam: LambdaField) -> bool:
    """Whether ``f``, given on B_{n+1}, meets the target exactly on B_n.

    The one re-check of every answer the package reports: the ball solve,
    the canonical point of a stabilized chain image and the top level of a
    coherent family all pass through here, and only here is
    `apply_laplacian` called.
    """
    applied = apply_laplacian(oracle, f, lam)
    return applied.values == target.on_ball(applied.ball).values


def _operator_matrix(oracle: GraphOracle, n: int, lam: LambdaField, width: int) -> RationalMatrix:
    """Rows of the operator on B_n over the first ``width`` ball ids, assembled sparsely."""
    rows = []
    for v in enumerate_ball(oracle, n).vertices:
        nbs = oracle.neighbors(v)
        coef = Fraction(-1, len(nbs))
        row = {v: 1 + lam.value(oracle, v)}
        row.update((w, coef) for w in nbs if w < width)
        rows.append(row)
    return RationalMatrix.from_rows(rows, width)


def truncated_operator_matrix(oracle: GraphOracle, n: int, lam: LambdaField) -> RationalMatrix:
    """Square matrix of the operator on functions supported in B_n.

    Row v: diagonal 1 + lam(v); entry -1/deg(v) at each neighbor inside the
    ball.  Neighbors outside B_n contribute nothing because the function
    vanishes there.
    """
    return _operator_matrix(oracle, n, lam, enumerate_ball(oracle, n).size)


def restricted_operator_matrix(oracle: GraphOracle, n: int, lam: LambdaField) -> RationalMatrix:
    """Rectangular matrix taking values on B_{n+1} to operator values on B_n."""
    return _operator_matrix(oracle, n, lam, enumerate_ball(oracle, n + 1).size)


def restriction_matrix(small: Ball, large: Ball) -> RationalMatrix:
    """0/1 projection selecting the smaller ball's prefix of the larger ball.

    Kept for the benchmark's tracer, which binds this name; the solver cuts
    prefixes off its images directly.
    """
    if small.radius > large.radius:
        raise BadRadii(f"restriction needs radius {small.radius} <= {large.radius}")
    if small.oracle is not large.oracle:
        raise DimensionMismatch("balls come from different oracles")
    return RationalMatrix.from_rows(({i: Fraction(1)} for i in range(small.size)), large.size)
