"""The sparse elimination kernel against the dense Bareiss oracle.

Determinants must agree exactly, and solution sets and their images on a
prefix of the coordinates must be equal as canonical affine subspaces (by
`==` and by pivot columns), on random rational matrices of every shape and
on the operator matrices of every built-in graph family.  The images are
compared with the former chain route: the whole dense solution set, then
cut to a prefix.  Subspaces built from a point and a spanning set, and
their images under a map, are compared with the oracle's own reduced row
echelon form, and the levels of `coherent_solution` with the former pinned
lift.  Structural checks, with no oracle, assert the canonical form of
every image itself, the order in which the kernel takes its pivots, the
absence of fill on trees and the kernel's traced peak memory.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    canonical,
    dense_contains,
    dense_determinant,
    dense_images,
    dense_matrix,
    dense_solve,
    pinned_lift,
)
from exactlap.chain import ChainState
from exactlap.errors import DimensionMismatch
from exactlap.functions import TargetFunction
from exactlap.graphs import (
    custom_oracle,
    cycle_oracle,
    enumerate_ball,
    free_group_oracle,
    grid_oracle,
    ladder_oracle,
    line_oracle,
    path_oracle,
    tree_oracle,
)
from exactlap.kernel import _eliminate
from exactlap.linalg import (
    AffineSubspace,
    affine_subset,
    determinant,
    image_under_map,
    solution_image,
    solve_exact,
)
from exactlap.operators import (
    LambdaField,
    restricted_operator_matrix,
    restriction_matrix,
    truncated_operator_matrix,
)
from exactlap.solver import coherent_solution

import exactlap.solver as solver_module

# --- random matrices ---------------------------------------------------------

nonzero = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.integers(1, 4),
)
# about half the entries zero, so pivot order and fill-in matter
entry = st.one_of(st.just(Fraction(0)), nonzero)


def rows_of(nrows, ncols):
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def system(draw, nrows, ncols):
    rows = draw(rows_of(nrows, ncols))
    b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return rows, b


@st.composite
def dependent_system(draw, nrows, ncols, consistent):
    """Last row (and right-hand side) is a combination of the others, plus an offset if inconsistent."""
    rows, b = draw(system(nrows - 1, ncols))
    coefs = draw(st.lists(entry, min_size=nrows - 1, max_size=nrows - 1))
    rows.append([sum((c * r[j] for c, r in zip(coefs, rows)), Fraction(0)) for j in range(ncols)])
    offset = Fraction(0) if consistent else draw(nonzero)
    b.append(sum((c * x for c, x in zip(coefs, b)), Fraction(0)) + offset)
    order = draw(st.permutations(range(nrows)))
    return [rows[i] for i in order], [b[i] for i in order]


def assert_kernel_matches(rows, ncols, b):
    assert solve_exact(dense_matrix(rows), b) == dense_solve(rows, ncols, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: rows_of(n, n)))
def test_square_determinant_matches_oracle(rows):
    assert determinant(dense_matrix(rows)) == dense_determinant(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: dependent_system(n, n, True)))
def test_singular_determinant_is_zero_like_the_oracle(sys_):
    rows, _ = sys_
    assert determinant(dense_matrix(rows)) == dense_determinant(rows) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: system(n, n)))
def test_square_solve_matches_oracle(sys_):
    rows, b = sys_
    assert_kernel_matches(rows, len(rows), b)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(0, 7)).flatmap(lambda shape: system(*shape)),
)
def test_rectangular_solve_matches_oracle(sys_):
    rows, b = sys_
    assert_kernel_matches(rows, len(rows[0]), b)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(2, 6), st.integers(1, 6)).flatmap(
        lambda shape: dependent_system(*shape, consistent=False)
    ),
)
def test_inconsistent_systems_are_empty_like_the_oracle(sys_):
    rows, b = sys_
    sol = solve_exact(dense_matrix(rows), b)
    assert sol.is_empty
    assert sol == dense_solve(rows, len(rows[0]), b)


@st.composite
def wide_consistent_system(draw, nrows, ncols):
    """More unknowns than equations, one equation dependent, right-hand side A x for a drawn x."""
    rows, _ = draw(dependent_system(nrows, ncols, consistent=True))
    x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    b = [sum((a * y for a, y in zip(r, x)), Fraction(0)) for r in rows]
    return rows, x, b


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(2, 4)).flatmap(
        lambda shape: wide_consistent_system(shape[0] + 1, shape[0] + shape[1])
    ),
)
def test_positive_dimensional_sets_match_the_oracle(sys_):
    rows, x, b = sys_
    ncols = len(rows[0])
    sol = solve_exact(dense_matrix(rows), b)
    assert sol.contains(x)
    # rank is at most nrows - 1, so at least ncols - nrows + 1 free unknowns
    assert sol.dim >= ncols - len(rows) + 1
    assert sol == dense_solve(rows, ncols, b)


def assert_same_subspace(got, want):
    assert got == want
    assert got.pivot_cols == want.pivot_cols


def assert_canonical(s):
    """Reduced-echelon basis with leading ones; particular point zero on the pivot columns."""
    if s.is_empty:
        assert (s.particular, s.basis, s.pivot_cols) == ((), (), ())
        return
    assert len(s.particular) == s.ambient_dim
    assert list(s.pivot_cols) == sorted(set(s.pivot_cols))
    assert len(s.basis) == len(s.pivot_cols)
    for row, c in zip(s.basis, s.pivot_cols):
        assert len(row) == s.ambient_dim
        assert row[c] == 1
        assert not any(row[:c])
        assert all(row[d] == 0 for d in s.pivot_cols if d != c)
    assert all(s.particular[c] == 0 for c in s.pivot_cols)


@st.composite
def image_case(draw):
    """Any, inconsistent or positive-dimensional system, and a prefix length 0..cols."""
    kind = draw(st.sampled_from(["any", "inconsistent", "wide"]))
    if kind == "any":
        rows, b = draw(st.tuples(st.integers(1, 6), st.integers(0, 7)).flatmap(lambda shape: system(*shape)))
    elif kind == "inconsistent":
        rows, b = draw(st.tuples(st.integers(2, 6), st.integers(1, 6)).flatmap(
            lambda shape: dependent_system(*shape, consistent=False)))
    else:
        rows, _, b = draw(st.tuples(st.integers(1, 4), st.integers(2, 4)).flatmap(
            lambda shape: wide_consistent_system(shape[0] + 1, shape[0] + shape[1])))
    ncols = len(rows[0])
    return rows, b, draw(st.integers(0, ncols))


@settings(max_examples=300, deadline=None)
@given(image_case())
def test_images_match_the_old_route(case):
    rows, b, k = case
    ncols = len(rows[0])
    deep, (want,) = dense_images(rows, ncols, b, [k])
    got = solution_image(dense_matrix(rows), b, k)
    assert_same_subspace(got, want)
    assert got.is_empty == deep.is_empty


@settings(max_examples=300, deadline=None)
@given(image_case())
def test_images_are_in_canonical_form(case):
    rows, b, k = case
    assert_canonical(solution_image(dense_matrix(rows), b, k))
    assert_canonical(solve_exact(dense_matrix(rows), b))


@settings(max_examples=200, deadline=None)
@given(image_case())
def test_kernel_pivots_the_prefix_last_from_the_right(case):
    """One elimination takes every column from the right: pivot columns
    strictly decrease over the whole list, so for every k the columns below
    k come last, and each pivot sits at its row's rightmost unknown; a row
    left without a pivot keeps its right-hand side at most."""
    rows, b, _ = case
    a = dense_matrix(rows)
    reduced, pivots, _, _ = _eliminate(a, b)
    assert all(c1 > c2 for (_, c1), (_, c2) in zip(pivots, pivots[1:]))
    for p, c in pivots:
        assert max(j for j in reduced[p] if j < a.cols) == c
    pivoted = {p for p, _ in pivots}
    assert all(set(r) <= {a.cols} for i, r in enumerate(reduced) if i not in pivoted)


@st.composite
def span_case(draw):
    """A point, a spanning set that may be empty or hold zero, repeated or
    dependent vectors, and a map to apply to the subspace they span."""
    n = draw(st.integers(0, 6))
    vector = st.lists(entry, min_size=n, max_size=n)
    point = draw(vector)
    span = draw(st.lists(vector, max_size=4))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combination"]), max_size=3)):
        if kind == "zero" or not span:
            span.append([Fraction(0)] * n)
        elif kind == "repeat":
            span.append(list(draw(st.sampled_from(span))))
        else:
            coefs = draw(st.lists(entry, min_size=len(span), max_size=len(span)))
            span.append([sum((c * v[j] for c, v in zip(coefs, span)), Fraction(0)) for j in range(n)])
    span = draw(st.permutations(span))
    m = draw(st.integers(1, 5).flatmap(lambda rows: rows_of(rows, n)))
    return n, point, span, m


def _dot(r, v):
    return sum((x * y for x, y in zip(r, v)), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(span_case())
def test_spans_and_their_images_match_the_oracle(case):
    n, point, span, m = case
    s = AffineSubspace(n, point, span)
    assert_same_subspace(s, canonical(n, point, span))
    assert_canonical(s)
    # the image of p + span(V) under M is M p + span(M V)
    want = canonical(len(m), [_dot(r, point) for r in m], [[_dot(r, v) for r in m] for v in span])
    assert_same_subspace(image_under_map(s, dense_matrix(m)), want)


@st.composite
def member_case(draw):
    """A span case, coordinates as long as any prefix, a point of the set and a drawn vector."""
    n, point, span, _ = draw(span_case())
    coords = draw(st.lists(entry, max_size=n))
    t = draw(st.lists(entry, min_size=len(span), max_size=len(span)))
    inside = [p + sum((c * v[j] for c, v in zip(t, span)), Fraction(0)) for j, p in enumerate(point)]
    return n, point, span, coords, inside, draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(member_case())
def test_member_parametrises_the_canonical_form(case):
    """``member`` lies in the set and takes the given coordinates on the pivot
    columns inside them, 0 on the rest; membership agrees with a dense rank test."""
    n, point, span, coords, inside, drawn = case
    s = AffineSubspace(n, point, span)
    y = s.member(coords)
    assert dense_contains(point, span, y)
    for c in s.pivot_cols:
        assert y[c] == (coords[c] if c < len(coords) else 0)
    assert s.contains(inside) and dense_contains(point, span, inside)
    assert s.contains(drawn) == dense_contains(point, span, drawn)
    # the point lies in s, so the line through it along ``drawn`` does exactly
    # when ``drawn`` is a direction of s
    line = AffineSubspace(n, point, [drawn])
    assert affine_subset(line, s) == dense_contains([Fraction(0)] * n, span, drawn)


def test_image_prefix_bounds():
    a = dense_matrix([[1, 2, 3]])
    for k in (-1, 4):
        with pytest.raises(DimensionMismatch):
            solution_image(a, [Fraction(1)], k)
    with pytest.raises(DimensionMismatch):
        solution_image(a, [Fraction(1), Fraction(2)], 1)


def test_zero_row_and_zero_column_edge_cases():
    assert_kernel_matches([[Fraction(0)] * 3] * 2, 3, [Fraction(0), Fraction(0)])
    assert_kernel_matches([[Fraction(0)] * 3] * 2, 3, [Fraction(0), Fraction(1)])
    assert_kernel_matches([[], []], 0, [Fraction(0), Fraction(2)])
    assert determinant(dense_matrix([[0, 1], [0, 5]])) == dense_determinant([[0, 1], [0, 5]]) == 0


# --- operator matrices of the built-in families -------------------------------

FAMILIES = {
    "line": line_oracle,
    "grid2": lambda: grid_oracle(2),
    "grid3": lambda: grid_oracle(3),
    "tree3": lambda: tree_oracle(3),
    "ladder2": lambda: ladder_oracle(2),
    "free2": lambda: free_group_oracle(2),
    "c5": lambda: cycle_oracle(5),
    "p4": lambda: path_oracle(4),
    "custom": lambda: custom_oracle(5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]),
}

LAMBDAS = {
    "zero": LambdaField.zero,
    "constant": lambda: LambdaField.constant(Fraction(3, 2)),
    "distance": LambdaField.distance,
    "map": lambda: LambdaField.from_map({1: Fraction(2), 3: Fraction(1, 3)}),
}

FINITE = {"c5", "p4", "custom"}


def _target(rng, size):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0)
            for _ in range(size)]


@pytest.mark.parametrize("lam_name", sorted(LAMBDAS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_operator_matrices_match_oracle(family, lam_name):
    oracle = FAMILIES[family]()
    lam = LAMBDAS[lam_name]()
    rng = random.Random(f"{family}:{lam_name}")
    for n in range(4):
        square = truncated_operator_matrix(oracle, n, lam)
        rows = square.entries
        det = determinant(square)
        assert det == dense_determinant(rows)
        b = _target(rng, square.rows)
        sol = solve_exact(square, b)
        assert sol == dense_solve(rows, square.cols, b)
        saturated = enumerate_ball(oracle, n).boundary_saturated
        if family in FINITE and saturated and lam_name == "zero":
            # constants lie in the kernel of the whole finite graph's operator
            assert det == 0
            assert sol.is_empty or sol.dim > 0
        elif family not in FINITE:
            assert det != 0 and sol.dim == 0
        rect = restricted_operator_matrix(oracle, n, lam)
        b = _target(rng, rect.rows)
        outer = enumerate_ball(oracle, n + 1)
        levels = [enumerate_ball(oracle, level + 1) for level in range(n + 1)]
        deep, images = dense_images(rect.entries, rect.cols, b, [ball.size for ball in levels])
        sol = solve_exact(rect, b)
        assert_same_subspace(sol, deep)
        for ball, want in zip(levels, images):
            assert_same_subspace(solution_image(rect, b, ball.size), want)
            assert_same_subspace(image_under_map(sol, restriction_matrix(ball, outer)), want)


@pytest.mark.parametrize("lam_name", sorted(LAMBDAS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chain_images_are_in_canonical_form(family, lam_name):
    """Deeper than the oracle reaches: every image of the delta-target chain at levels 0..2."""
    oracle = FAMILIES[family]()
    lam = LAMBDAS[lam_name]()
    delta = TargetFunction.delta()
    for m in range(5):
        rect = restricted_operator_matrix(oracle, m, lam)
        b = delta.on_ball(enumerate_ball(oracle, m)).values
        for level in range(min(m, 2) + 1):
            img = solution_image(rect, b, enumerate_ball(oracle, level + 1).size)
            assert_canonical(img)


def _sparse_target(n):
    rng = random.Random(0)
    return [Fraction(rng.randint(1, 9)) if rng.random() < 0.4 else Fraction(0) for _ in range(n)]


@pytest.mark.parametrize("rhs", ["none", "delta", "constant", "sparse"])
@pytest.mark.parametrize("shape", ["square", "rectangular"])
@pytest.mark.parametrize("family, radius", [("line", 60), ("tree3", 6), ("free2", 4)])
def test_trees_eliminate_without_fill(family, radius, shape, rhs):
    """Taking the columns from the right strips a tree's leaves first, so no
    row of the operator ever gains an unknown (lattices do fill in).  A pivot
    row's length counts its unknowns only, so a sparse target cannot break
    the length ties toward an inner row."""
    oracle = FAMILIES[family]()
    build = truncated_operator_matrix if shape == "square" else restricted_operator_matrix
    a = build(oracle, radius, LambdaField.distance())
    b = {
        "none": None,
        "delta": [Fraction(1)] + [Fraction(0)] * (a.rows - 1),
        "constant": [Fraction(1)] * a.rows,
        "sparse": _sparse_target(a.rows),
    }[rhs]
    reduced, pivots, _, _ = _eliminate(a, b)
    assert len(pivots) == a.rows
    for before, after in zip(a.sparse_rows, reduced):
        assert set(after) - {a.cols} <= set(before)


@pytest.mark.parametrize(
    "family, radius, shape, lam_name",
    [("grid2", 15, "square", "distance"), ("grid3", 5, "square", "zero"), ("grid2", 12, "rectangular", "zero")],
)
def test_elimination_peak_stays_near_its_result(family, radius, shape, lam_name):
    """The kernel's column index lists each row once per nonzero it gains and
    frees a column's list when the column comes up, so its traced peak stays
    within 1.5 times what the returned rows and scales hold."""
    build = truncated_operator_matrix if shape == "square" else restricted_operator_matrix
    a = build(FAMILIES[family](), radius, LAMBDAS[lam_name]())
    b = [Fraction(1)] + [Fraction(0)] * (a.rows - 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()  # in case tracing was already on
        base = tracemalloc.get_traced_memory()[0]
        result = _eliminate(a, b)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[1]) == a.rows
    assert peak - base <= 1.5 * (held - base)


def _widened(run_chain):
    """``run_chain`` with the root indicator and one fixed random direction (its
    prefixes agree across levels) added to every stabilized image from level 1 on.
    The true images make every lift the canonical point itself; a widened image
    still holds an extension of the level below, but its canonical point moves,
    so the lift has to combine basis vectors."""

    def run(oracle, target, n, max_m, window, lam):
        state = run_chain(oracle, target, n, max_m, window, lam)
        if n == 0:
            return state
        m, img = state.images[-1]
        k = img.ambient_dim
        extra = [[Fraction(int(j == 0)) for j in range(k)], _target(random.Random(0), k)]
        wide = AffineSubspace(k, img.particular, list(img.basis) + extra)
        return ChainState(
            level=state.level,
            max_m=state.max_m,
            window=state.window,
            ball=state.ball,
            images=state.images[:-1] + ((m, wide),),
            stabilized_at=state.stabilized_at,
        )

    return run


@pytest.mark.parametrize("widen", [False, True], ids=["true", "widened"])
@pytest.mark.parametrize("lam_name", sorted(LAMBDAS))
@pytest.mark.parametrize("family", ["line", "grid2", "tree3", "ladder2", "free2"])
def test_coherent_levels_match_the_pinned_lift(family, lam_name, widen, monkeypatch):
    """The coherent lift reads basis coefficients off the pivot columns; the
    former lift solved a pinned system for them.  Both must give the same levels."""
    if widen:
        monkeypatch.setattr(solver_module, "run_chain", _widened(solver_module.run_chain))
    oracle = FAMILIES[family]()
    lam = LAMBDAS[lam_name]()
    rng = random.Random(f"lift:{family}:{lam_name}")
    delta = TargetFunction.delta()
    sparse = TargetFunction.sparse({v: x for v, x in enumerate(_target(rng, 5)) if x})
    for target in (delta, sparse):
        result = coherent_solution(oracle, target, 2, 6, 3, lam)
        images = [solver_module.run_chain(oracle, target, n, 6, 3, lam).stabilized_image for n in range(3)]
        want = [images[0].particular]
        for img in images[1:]:
            want.append(pinned_lift(img, want[-1]))
        assert [x.values for x in result.levels] == want
        moved = [x.values != img.particular for x, img in zip(result.levels, images)]
        if not widen:
            assert not any(moved)  # canonical points of true images already extend
        elif target is delta:
            assert moved == [False, True, True]
