"""Exact linear algebra: elimination against naive oracles, canonical forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlap.errors import DimensionMismatch
from exactlap.linalg import (
    AffineSubspace,
    RationalMatrix,
    affine_subset,
    determinant,
    image_under_map,
    solve_exact,
    subspace_equal,
)

# --- independent oracles, deliberately naive -------------------------------


def cofactor_det(rows):
    """Laplace expansion along the first row; exponential but unarguable."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        a = rows[0][j]
        if a:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * a * cofactor_det(minor)
    return total


def gauss_rank(rows):
    """Textbook fraction Gaussian elimination, counting pivots."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        piv = m[rank][c]
        m[rank] = [x / piv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                coef = m[i][c]
                m[i] = [a - coef * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_fraction(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_rows(rng, nrows, ncols):
    return [[random_fraction(rng) for _ in range(ncols)] for _ in range(nrows)]


# --- determinants ----------------------------------------------------------


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(20240811)
    for size in range(1, 6):
        for _ in range(25):
            rows = random_rows(rng, size, size)
            assert determinant(RationalMatrix(rows)) == cofactor_det(rows)


def test_determinant_known_values():
    assert determinant(RationalMatrix([[Fraction(3, 7)]])) == Fraction(3, 7)
    assert determinant(RationalMatrix([[int(i == j) for j in range(4)] for i in range(4)])) == 1
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert determinant(RationalMatrix(m)) == -2
    # repeated row forces zero without any pivoting luck
    m = [[1, 2, 3], [1, 2, 3], [0, 1, 1]]
    assert determinant(RationalMatrix(m)) == 0
    tri = [[Fraction(1, 2), 5, 7], [0, Fraction(-2, 3), 1], [0, 0, Fraction(3)]]
    assert determinant(RationalMatrix(tri)) == Fraction(1, 2) * Fraction(-2, 3) * 3


def test_determinant_zero_by_zero_is_one():
    assert determinant(RationalMatrix([])) == 1


def test_determinant_rejects_rectangles():
    with pytest.raises(DimensionMismatch):
        determinant(RationalMatrix([[1, 2, 3], [4, 5, 6]]))


small_entries = st.integers(min_value=-5, max_value=5)


def _square(n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


@settings(max_examples=60, deadline=None)
@given(_square(3), _square(3))
def test_determinant_is_multiplicative(a_rows, b_rows):
    a = RationalMatrix(a_rows)
    b = RationalMatrix(b_rows)
    product = [[sum(x * b_rows[k][j] for k, x in enumerate(row)) for j in range(3)] for row in a_rows]
    assert determinant(RationalMatrix(product)) == determinant(a) * determinant(b)


@settings(max_examples=60, deadline=None)
@given(_square(4))
def test_determinant_of_transpose(rows):
    m = RationalMatrix(rows)
    t = RationalMatrix(list(zip(*rows)))
    assert determinant(m) == determinant(t)


# --- linear system solving -------------------------------------------------


def test_solve_unique_solution_verified_by_multiplication():
    rng = random.Random(7)
    produced = 0
    while produced < 20:
        rows = random_rows(rng, 5, 5)
        if cofactor_det(rows) == 0:
            continue
        produced += 1
        b = [random_fraction(rng) for _ in range(5)]
        sol = solve_exact(RationalMatrix(rows), b)
        assert sol.dim == 0
        assert list(RationalMatrix(rows).mul_vec(sol.particular)) == b


def test_solve_underdetermined_full_solution_set():
    a = RationalMatrix([[1, 1, 0, 2], [0, 1, 1, Fraction(1, 3)]])
    b = [Fraction(5), Fraction(-1)]
    sol = solve_exact(a, b)
    assert sol.dim == 4 - gauss_rank(a.entries)
    assert list(a.mul_vec(sol.particular)) == b
    zero = [Fraction(0)] * 2
    for v in sol.basis:
        assert list(a.mul_vec(v)) == zero


def test_solve_inconsistent_is_empty():
    a = RationalMatrix([[1, 1], [2, 2]])
    sol = solve_exact(a, [Fraction(1), Fraction(3)])
    assert sol.is_empty
    assert sol.dim is None


def test_solve_rank_deficient_but_consistent():
    a = RationalMatrix([[1, 1], [2, 2]])
    sol = solve_exact(a, [Fraction(1), Fraction(2)])
    assert sol.dim == 1
    assert list(a.mul_vec(sol.particular)) == [1, 2]


def test_solve_with_zero_columns():
    # zero unknowns: consistent iff the right-hand side vanishes
    a = RationalMatrix([[], [], []])
    assert a.cols == 0
    ok = solve_exact(a, [Fraction(0)] * 3)
    assert ok.dim == 0 and ok.particular == ()
    bad = solve_exact(a, [Fraction(0), Fraction(1), Fraction(0)])
    assert bad.is_empty


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_exact(RationalMatrix([[1, 2]]), [Fraction(1), Fraction(2)])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=2, max_size=5),
    st.lists(small_entries, min_size=5, max_size=5),
)
def test_solve_output_satisfies_the_system(rows, b_pool):
    a = RationalMatrix(rows)
    b = [Fraction(x) for x in b_pool[: a.rows]]
    sol = solve_exact(a, b)
    if sol.is_empty:
        return
    assert list(a.mul_vec(sol.particular)) == b
    zero = [Fraction(0)] * a.rows
    for v in sol.basis:
        assert list(a.mul_vec(v)) == zero


# --- canonical affine subspaces --------------------------------------------


def test_canonical_form_survives_reparameterization():
    rng = random.Random(99)
    base_particular = [Fraction(1), Fraction(0), Fraction(2, 3), Fraction(-1), Fraction(0)]
    base_span = [
        [Fraction(1), Fraction(2), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(-1)],
    ]
    reference = AffineSubspace(5, base_particular, base_span)
    for _ in range(200):
        span = [list(v) for v in base_span]
        rng.shuffle(span)
        # invertible integer row operations keep the row space
        for _ in range(3):
            i, j = rng.sample(range(len(span)), 2)
            c = rng.randint(-3, 3)
            span[i] = [a + c * b for a, b in zip(span[i], span[j])]
        scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        span[0] = [scale * x for x in span[0]]
        # translate the particular point inside the same affine set
        point = list(base_particular)
        for v in base_span:
            c = random_fraction(rng)
            point = [a + c * b for a, b in zip(point, v)]
        rebuilt = AffineSubspace(5, point, span)
        assert rebuilt == reference
        assert subspace_equal(rebuilt, reference)
        assert hash(rebuilt) == hash(reference)


def test_canonical_particular_vanishes_on_pivot_columns():
    s = AffineSubspace(
        4,
        [Fraction(3), Fraction(1), Fraction(1), Fraction(2)],
        [[1, 0, 1, 0], [0, 1, 0, 2]],
    )
    for c in s.pivot_cols:
        assert s.particular[c] == 0
    assert s.contains(s.particular)


def test_membership_checks():
    s = AffineSubspace(3, [Fraction(1), Fraction(0), Fraction(0)], [[0, 1, 1]])
    assert s.contains([Fraction(1), Fraction(5), Fraction(5)])
    assert not s.contains([Fraction(1), Fraction(5), Fraction(4)])
    assert s.contains_direction([Fraction(0), Fraction(2), Fraction(2)])
    assert not s.contains_direction([Fraction(1), Fraction(0), Fraction(0)])
    empty = AffineSubspace.empty(3)
    assert not empty.contains([Fraction(0)] * 3)
    with pytest.raises(DimensionMismatch):
        s.contains([Fraction(0)] * 4)


def test_point_and_full_constructors():
    p = AffineSubspace.from_point([Fraction(2), Fraction(3)])
    assert p.dim == 0 and p.particular == (2, 3)
    f = AffineSubspace.full(3)
    assert f.dim == 3
    assert f.contains([Fraction(9), Fraction(-4), Fraction(1, 7)])


def test_affine_subset_relations():
    point = AffineSubspace.from_point([Fraction(1), Fraction(2), Fraction(2)])
    line = AffineSubspace(3, [Fraction(1), Fraction(0), Fraction(0)], [[0, 1, 1]])
    plane = AffineSubspace(3, [Fraction(1), Fraction(0), Fraction(0)], [[0, 1, 1], [0, 0, 1]])
    empty = AffineSubspace.empty(3)
    assert affine_subset(point, line) and affine_subset(line, plane)
    assert not affine_subset(plane, line)
    assert not affine_subset(line, point)
    assert affine_subset(empty, point) and not affine_subset(point, empty)
    assert affine_subset(empty, empty)
    shifted = AffineSubspace(3, [Fraction(0), Fraction(0), Fraction(1)], [[0, 1, 1]])
    assert not affine_subset(shifted, line)
    with pytest.raises(DimensionMismatch):
        affine_subset(point, AffineSubspace.full(2))


def test_image_under_map():
    line = AffineSubspace(3, [Fraction(1), Fraction(1), Fraction(0)], [[1, 2, 3]])
    proj = RationalMatrix([[1, 0, 0], [0, 1, 0]])
    img = image_under_map(line, proj)
    assert img.ambient_dim == 2 and img.dim == 1
    assert img.contains([Fraction(1), Fraction(1)])
    assert img.contains([Fraction(2), Fraction(3)])
    collapse = RationalMatrix([[0, 0, 0]])
    flat = image_under_map(line, collapse)
    assert flat.dim == 0 and flat.particular == (0,)
    assert image_under_map(AffineSubspace.empty(3), proj).is_empty
    with pytest.raises(DimensionMismatch):
        image_under_map(line, RationalMatrix([[1, 0]]))


def test_subspace_equal_requires_same_ambient():
    with pytest.raises(DimensionMismatch):
        subspace_equal(AffineSubspace.full(2), AffineSubspace.full(3))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=1, max_size=3),
    st.permutations(range(3)),
)
def test_span_order_never_changes_the_subspace(span, perm):
    usable = [v for v in span if any(v)]
    a = AffineSubspace(4, span=usable)
    reordered = [usable[i % len(usable)] for i in perm] if usable else []
    b = AffineSubspace(4, span=usable + reordered)
    assert a == b


def test_matrix_basics():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 0) == 3
    assert m.row(0) == (1, 2)
    assert m.mul_vec([Fraction(1), Fraction(1)]) == (3, 7)
    zeros = RationalMatrix([[0, 0, 0], [0, 0, 0]])
    assert zeros.entries == ((0, 0, 0), (0, 0, 0))
    assert zeros.sparse_rows == ({}, {})
    assert (zeros.rows, zeros.cols) == (2, 3)
    with pytest.raises(DimensionMismatch):
        m.mul_vec([Fraction(1)])
    with pytest.raises(DimensionMismatch):
        RationalMatrix([[1, 2], [3]])
