"""Dense reference algorithms for the sparse kernel, independent of it.

This is the package's former dense path, kept only as a differential test
oracle.  `bareiss_forward` works on plain lists of rows, scales each row
to integers once, eliminates column by column in natural order with exact
one-step divisions, and `dense_solve` back-substitutes in fractions.
`rref` is the former dense reduced row echelon pass; `canonical` uses it
to put a point and a spanning set in the package's canonical
`AffineSubspace` form, so the two paths can be compared by equality, and
`dense_contains` to decide membership in a point plus a spanning set.
Nothing here builds an `AffineSubspace` from a spanning set or calls the
package's images: the canonical fields are computed here and only wrapped.

`dense_images` is the former chain route on top of it: the whole solution
set, canonicalized, then cut to a prefix of its coordinates.
`pinned_lift` is the former coherent lift: it solves for the basis
coordinates that make a member of a canonical image agree with a given
prefix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from exactlap.linalg import AffineSubspace


def rref(vectors: Sequence[Sequence[Fraction]], ambient: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a list of vectors; returns (rows, pivot columns)."""
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
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


def canonical(ambient: int, point: Sequence[Fraction], span: Sequence[Sequence[Fraction]]) -> AffineSubspace:
    """``point + span`` in canonical form: rref basis, point zeroed on its pivot columns."""
    rows, pivots = rref(span, ambient)
    reduced = [Fraction(x) for x in point]
    for row, c in zip(rows, pivots):
        coef = reduced[c]
        if coef:
            reduced = [a - coef * b for a, b in zip(reduced, row)]
    return AffineSubspace._canonical(ambient, tuple(reduced), tuple(map(tuple, rows)), tuple(pivots))


def dense_contains(point: Sequence[Fraction], span: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> bool:
    """Whether ``x`` lies in ``point + span``: its offset from the point adds no rank to the span."""
    gap = [Fraction(a) - b for a, b in zip(x, point)]
    return len(rref([*span, gap], len(point))[1]) == len(rref(span, len(point))[1])


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale a rational row by the lcm of its denominators; return (row, scale)."""
    row = [Fraction(x) for x in row]
    scale = 1
    for x in row:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    return [x.numerator * (scale // x.denominator) for x in row], scale


def bareiss_forward(m: list[list[int]], pivot_cols_limit: int) -> tuple[list[int], int]:
    """Fraction-free forward elimination, in place.

    Pivots are searched in columns ``0..pivot_cols_limit-1`` only; trailing
    columns (right-hand sides) are updated but never pivoted on.  Returns the
    pivot column list and the sign accumulated from row swaps.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(pivot_cols_limit):
        p = next((i for i in range(r, nrows) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        piv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            mic = row_i[c]
            if mic:
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
                row_i[c] = 0
            elif prev != piv:
                for j in range(c + 1, ncols):
                    row_i[j] = piv * row_i[j] // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, sign


def dense_determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m: list[list[int]] = []
    denom = 1
    for row in rows:
        ints, scale = integer_row(row)
        m.append(ints)
        denom *= scale
    pivots, sign = bareiss_forward(m, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], denom)


def dense_solve(rows: Sequence[Sequence[Fraction]], ncols: int, b: Sequence[Fraction]) -> AffineSubspace:
    aug = [integer_row(list(row) + [Fraction(x)])[0] for row, x in zip(rows, b)]
    pivots, _ = bareiss_forward(aug, ncols)
    rank = len(pivots)
    if any(aug[i][ncols] for i in range(rank, len(aug))):
        return AffineSubspace.empty(ncols)
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    wanted = free_cols + [ncols]
    reduced: list[dict[int, Fraction]] = [dict() for _ in range(rank)]
    for i in reversed(range(rank)):
        piv = aug[i][pivots[i]]
        row = aug[i]
        for j in wanted:
            if j < pivots[i]:
                continue
            s = Fraction(row[j])
            for k in range(i + 1, rank):
                coef = row[pivots[k]]
                if coef:
                    s -= coef * reduced[k].get(j, Fraction(0))
            reduced[i][j] = s / piv
    zero = Fraction(0)
    particular = [zero] * ncols
    for i, c in enumerate(pivots):
        particular[c] = reduced[i].get(ncols, zero)
    span = []
    for f in free_cols:
        v = [zero] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            coef = reduced[i].get(f, zero)
            if coef:
                v[c] = -coef
        span.append(v)
    return canonical(ncols, particular, span)


def dense_images(
    rows: Sequence[Sequence[Fraction]], ncols: int, b: Sequence[Fraction], prefixes: Sequence[int]
) -> tuple[AffineSubspace, list[AffineSubspace]]:
    """The dense solution set of ``rows x = b`` and its image on each prefix of the coordinates."""
    deep = dense_solve(rows, ncols, b)
    if deep.is_empty:
        return deep, [AffineSubspace.empty(k) for k in prefixes]
    return deep, [canonical(k, deep.particular[:k], [v[:k] for v in deep.basis]) for k in prefixes]


def pinned_lift(image: AffineSubspace, prefix: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """The member ``particular + basis^T t`` of a canonical image with the canonical
    solution t of the system pinning its first coordinates to ``prefix``; None when
    that system has no solution."""
    k = len(image.basis)
    pinned = [[image.basis[j][i] for j in range(k)] for i in range(len(prefix))]
    gap = [x - p for x, p in zip(prefix, image.particular)]
    t_set = dense_solve(pinned, k, gap)
    if t_set.is_empty:
        return None
    y = list(image.particular)
    for coef, row in zip(t_set.particular, image.basis):
        if coef:
            y = [a + coef * b for a, b in zip(y, row)]
    return tuple(y)
