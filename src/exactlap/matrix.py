"""Sparse rational matrices; no floating point anywhere.

A `RationalMatrix` stores each row as a map from column to nonzero
`Fraction`; `from_rows` is its one constructor, and no dense path is left
(the dense `entries` view is kept for the benchmark's tracer).  The
elimination kernel that reduces them is in `exactlap.kernel`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DimensionMismatch

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


class RationalMatrix:
    """Immutable sparse matrix: ``sparse_rows[i]`` maps column -> nonzero Fraction."""

    __slots__ = ("rows", "cols", "sparse_rows")

    @classmethod
    def from_rows(cls, rows: Iterable[dict[int, Fraction]], cols: int) -> "RationalMatrix":
        """Matrix from row maps whose values are nonzero Fractions (kept, not copied)."""
        m = cls.__new__(cls)
        m.sparse_rows = tuple(rows)
        m.rows, m.cols = len(m.sparse_rows), cols
        return m

    @property
    def entries(self) -> tuple[Vector, ...]:
        """Dense row tuples, built on demand; only the benchmark's tracer reads them."""
        return tuple(self.row(i) for i in range(self.rows))

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
