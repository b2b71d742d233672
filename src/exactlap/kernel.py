"""The sparse elimination kernel over the rationals; no floating point anywhere.

This is the one account of the package's elimination; `exactlap.readoff`,
`exactlap.subspace` and `exactlap.linalg` build on it.  One kernel,
`_eliminate`, reduces the sparse `RationalMatrix` of `exactlap.matrix`.
It serves the determinant, the square ball solve, the rectangular
solution sets and their images on a prefix of the coordinates:

* rows are scaled to integers once and kept primitive (the gcd of each
  updated row is divided out, its scale kept for the determinant), so an
  update is an integer cross-multiplication of just the rows that meet
  the pivot column; that update is the one row operation of the package,
  `_clear`, which works in place and which the back pass uses too;
* the columns are taken in one order, from the right, which is BFS order
  reversed: a tree or free group loses its leaves first with no fill-in
  at all, the line its endpoints, and a lattice is swept from its outer
  shell inward; the pivot is the row with the fewest unknowns in the
  column (the right-hand side does not count, so a target cannot fill a
  tree), ties to the lowest index;
* zeros from cancellation are dropped at once, so the stored pattern is
  the exact nonzero pattern and a chosen pivot is never zero; a column
  whose nonzeros run out is a rank loss (zero determinant, free unknown);
* each column lists the rows that gained a nonzero there, and nothing is
  removed when an entry cancels or a row pivots: when the column comes
  up, its live rows are read off the list and the list is freed;
* for every ``k`` at once, the columns from ``k`` on are taken before the
  first ``k``: each of those unknowns is then pivoted (solvable from the
  others) or free, so the rows left without a pivot constrain the first
  ``k`` unknowns alone and cut out the image of the solution set there
  exactly, and each later pivot sits at its row's rightmost column; one
  elimination therefore serves any prefix;
* one back pass, `exactlap.readoff._read_off`, reads the canonical set
  off a result at a prefix, whose columns that never pivot are its free
  columns (its docstring says why); it clears each pivot row of the
  pivot columns taken after it with `_clear`, in place, so it consumes
  the rows it reads, and `exactlap.subspace.solution_image` hands it a
  fresh elimination on every call; neither pass writes the caller's
  matrix or right-hand side;
* the cleared rows are the set: each is primitive, and once its pivot
  entry is made positive it is unique, so `AffineSubspace` stores them as
  they are, compares and hashes them, solves them for a member and
  derives its canonical point and basis from them; no `Fraction` is
  built until a member is asked for;
* `_eliminate` is the only code that chooses pivots and `_read_off` the
  only code that back-reduces: `exactlap.linalg.solve_exact` is the image
  on all of the coordinates, whatever the shape and rank, and a point
  plus a spanning set is put in canonical form as such an image too.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .matrix import RationalMatrix


def _clear(r: dict[int, int], c: int, qc: int, rest: Iterable[tuple[int, int]]) -> tuple[int, int, list[int]]:
    """Clear column ``c`` of the primitive integer row ``r``, in place, by a multiple of a pivot row.

    The pivot row ``q`` is given as its entry ``qc`` at ``c`` and the
    ``(column, entry)`` pairs ``rest`` of its other columns, so the loop
    over ``rest`` never meets ``c``; the caller builds ``rest`` once per
    pivot row, however many rows that row clears.  With ``t = r[c] * s / qc``, ``r`` becomes ``(s * r - t * q) / g``:
    ``s`` is the least factor that makes ``t`` an integer, and ``g`` is
    the content of ``s * r - t * q`` (1 if it is zero), so ``r`` stays
    primitive or becomes empty.  Zeros are dropped.  Returns
    ``(s, g, gained)``, ``gained`` the columns ``r`` did not hold before.
    """
    g = math.gcd(qc, r[c])
    s, t = qc // g, r.pop(c) // g
    if s != 1:
        for j in r:
            r[j] *= s
    gained = []
    for j, x in rest:
        y = r.get(j, 0) - t * x
        if y:
            if j not in r:
                gained.append(j)
            r[j] = y
        elif j in r:
            del r[j]
    g = math.gcd(*r.values()) or 1
    if g > 1:
        for j in r:
            r[j] //= g
    return s, g, gained


def _eliminate(
    a: RationalMatrix, rhs: Sequence[Fraction] | None = None
) -> tuple[list[dict[int, int]], list[tuple[int, int]], list[int], list[int]]:
    """Sparse fraction-free elimination of ``a``, augmented by ``rhs``.

    The columns are taken from the right, ``a.cols - 1, ..., 0``.  When one
    comes up, every row without a pivot holds only columns up to it, so its
    pivot is its row's rightmost unknown.  The column's active rows come
    from its candidate list, which names a row each time it gains a nonzero
    there (in the input or by fill): rows that have pivoted or whose entry
    has cancelled since are skipped, and the list is dropped.  The pivot is
    the active row with the fewest unknowns, ties to the lowest index.
    Returns ``(rows, pivots, num, den)``: integer rows with the right-hand
    side under key ``a.cols``, where row i now stands for
    ``rows[i] * num[i] / den[i]``; and the ``(row, column)`` pivots in
    elimination order.  A pivot row keeps only columns pivoted later or
    never; a row that never pivots keeps its right-hand side at most.
    Every row is a new dict, so the caller's matrix is never written, and
    every update is one `_clear`, whose factors go into ``den`` and
    ``num`` and whose gained columns into the candidate lists.
    """
    ncols = a.cols
    rows, num, den = [], [], []
    # column -> rows that gained a nonzero there; stale entries are skipped when it comes up
    col_rows: list[list[int]] = [[] for _ in range(ncols)]
    for i, r in enumerate(a.sparse_rows):
        for j in r:
            col_rows[j].append(i)
        if rhs is not None and rhs[i]:
            r = {**r, ncols: Fraction(rhs[i])}
        scale = math.lcm(*(x.denominator for x in r.values()))
        ints = {j: x.numerator * (scale // x.denominator) for j, x in r.items()}
        g = math.gcd(*ints.values()) or 1
        rows.append({j: x // g for j, x in ints.items()})
        num.append(g)
        den.append(scale)
    done = bytearray(len(rows))  # rows that have pivoted
    pivots = []
    for c in range(ncols - 1, -1, -1):
        active = {i for i in col_rows.pop() if not done[i] and c in rows[i]}
        if not active:
            continue  # rank loss: no row left with a nonzero here
        p = min(active, key=lambda i: (len(rows[i]) - (ncols in rows[i]), i))
        done[p] = 1
        active.discard(p)
        qc = rows[p][c]
        rest = [(j, x) for j, x in rows[p].items() if j != c]
        for i in active:
            s, g, gained = _clear(rows[i], c, qc, rest)
            den[i] *= s
            num[i] *= g
            for j in gained:
                if j < ncols:  # fill; the right-hand side has no list
                    col_rows[j].append(i)
        pivots.append((p, c))
    return rows, pivots, num, den
