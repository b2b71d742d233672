"""Operator assembly: truncations against the defining formula, fixtures."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_matrix
from exactlap.errors import BadRadii, DimensionMismatch, InsufficientDomain
from exactlap.functions import TargetFunction
from exactlap.graphs import (
    cycle_oracle,
    enumerate_ball,
    grid_oracle,
    ladder_oracle,
    line_oracle,
    tree_oracle,
)
from exactlap.operators import (
    BallFunction,
    LambdaField,
    apply_laplacian,
    restricted_operator_matrix,
    restriction_matrix,
    truncated_operator_matrix,
)

H = Fraction(1, 2)

FAMILIES = {
    "line": line_oracle,
    "grid2": lambda: grid_oracle(2),
    "tree3": lambda: tree_oracle(3),
    "ladder2": lambda: ladder_oracle(2),
}

LAMBDAS = {
    "zero": LambdaField.zero,
    "one": lambda: LambdaField.constant(1),
    "distance": LambdaField.distance,
}


def random_function(rng, ball):
    values = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in ball.vertices)
    return BallFunction(ball, values)


# --- frozen matrix fixtures -------------------------------------------------


def test_square_truncation_on_the_line_radius_one():
    m = truncated_operator_matrix(line_oracle(), 1, LambdaField.zero())
    expected = dense_matrix([[1, -H, -H], [-H, 1, 0], [-H, 0, 1]])
    assert m == expected


def test_rectangular_truncation_on_the_line_radius_one():
    m = restricted_operator_matrix(line_oracle(), 1, LambdaField.zero())
    expected = dense_matrix(
        [
            [1, -H, -H, 0, 0],
            [-H, 1, 0, -H, 0],
            [-H, 0, 1, 0, -H],
        ]
    )
    assert m == expected


def test_diagonal_carries_the_weight():
    oracle = tree_oracle(3)
    for name, make in LAMBDAS.items():
        lam = make()
        m = truncated_operator_matrix(oracle, 2, lam)
        for v in range(m.rows):
            assert m.row(v)[v] == 1 + lam.value(oracle, v), (name, v)


def test_off_diagonal_is_minus_inverse_degree():
    oracle = grid_oracle(2)
    m = truncated_operator_matrix(oracle, 2, LambdaField.zero())
    ball = enumerate_ball(oracle, 2)
    for v in ball.vertices:
        inside = [w for w in oracle.neighbors(v) if w < ball.size]
        row = m.row(v)
        for w in inside:
            assert row[w] == Fraction(-1, 4)
        row_support = {j for j in range(m.cols) if row[j] != 0 and j != v}
        assert row_support == set(inside)


# --- operator identities ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_constants_are_annihilated(name):
    oracle = FAMILIES[name]()
    for n in range(3):
        ball = enumerate_ball(oracle, n + 1)
        const = BallFunction(ball, (Fraction(5, 3),) * ball.size)
        image = apply_laplacian(oracle, const, LambdaField.zero())
        assert all(x == 0 for x in image.values)


def test_constants_on_saturated_finite_graph_are_annihilated():
    oracle = cycle_oracle(5)
    ball = enumerate_ball(oracle, 4)
    const = BallFunction(ball, (Fraction(-7),) * ball.size)
    image = apply_laplacian(oracle, const, LambdaField.zero())
    assert all(x == 0 for x in image.values)


def test_weight_shifts_constants_to_weighted_values():
    oracle = line_oracle()
    ball = enumerate_ball(oracle, 2)
    const = BallFunction(ball, (Fraction(3),) * ball.size)
    image = apply_laplacian(oracle, const, LambdaField.distance())
    inner = enumerate_ball(oracle, 1)
    assert image.values == tuple(3 * inner.distances[v] for v in inner.vertices)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("lam_name", sorted(LAMBDAS))
def test_square_matrix_agrees_with_formula_on_zero_extensions(name, lam_name):
    oracle = FAMILIES[name]()
    lam = LAMBDAS[lam_name]()
    rng = random.Random(f"{name}:{lam_name}")
    for n in range(3):
        ball = enumerate_ball(oracle, n)
        outer = enumerate_ball(oracle, n + 1)
        matrix = truncated_operator_matrix(oracle, n, lam)
        for _ in range(5):
            f = random_function(rng, ball)
            via_matrix = matrix.mul_vec(f.values)
            via_formula = apply_laplacian(oracle, f.extend_zero(outer), lam)
            assert via_matrix == via_formula.values


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_rectangular_matrix_agrees_with_formula(name):
    oracle = FAMILIES[name]()
    lam = LambdaField.constant(Fraction(1, 3))
    rng = random.Random(name)
    for n in range(3):
        outer = enumerate_ball(oracle, n + 1)
        matrix = restricted_operator_matrix(oracle, n, lam)
        for _ in range(5):
            f = random_function(rng, outer)
            assert matrix.mul_vec(f.values) == apply_laplacian(oracle, f, lam).values


@pytest.mark.parametrize("name", ["line", "grid2", "tree3"])
def test_degree_weighted_truncation_is_symmetric(name):
    # deg(v) times the operator matrix is symmetric whenever both endpoints
    # of every edge lie in the ball, for any diagonal weight
    oracle = FAMILIES[name]()
    for lam in (LambdaField.zero(), LambdaField.distance()):
        for n in range(4):
            m = truncated_operator_matrix(oracle, n, lam)
            weighted = [
                [len(oracle.neighbors(v)) * x for x in m.row(v)]
                for v in range(m.rows)
            ]
            for i in range(m.rows):
                for j in range(i):
                    assert weighted[i][j] == weighted[j][i]


def test_apply_needs_radius_at_least_one():
    oracle = line_oracle()
    ball = enumerate_ball(oracle, 0)
    f = BallFunction(ball, (Fraction(1),))
    with pytest.raises(InsufficientDomain):
        apply_laplacian(oracle, f, LambdaField.zero())


# --- restrictions -----------------------------------------------------------


def test_restriction_matrix_is_prefix_projection():
    oracle = line_oracle()
    small = enumerate_ball(oracle, 1)
    large = enumerate_ball(oracle, 3)
    r = restriction_matrix(small, large)
    assert (r.rows, r.cols) == (small.size, large.size)
    values = tuple(Fraction(k) for k in range(large.size))
    assert r.mul_vec(values) == values[: small.size]


def test_restriction_matrices_compose():
    oracle = grid_oracle(2)
    b1, b2, b3 = (enumerate_ball(oracle, n) for n in (1, 2, 3))
    direct, r12, r23 = restriction_matrix(b1, b3), restriction_matrix(b1, b2), restriction_matrix(b2, b3)
    assert (r12.cols, r23.rows) == (b2.size, b2.size)
    assert (direct.rows, direct.cols) == (r12.rows, r23.cols)
    for j in range(b3.size):  # column by column: r12 r23 == direct
        unit = tuple(Fraction(int(i == j)) for i in range(b3.size))
        assert r12.mul_vec(r23.mul_vec(unit)) == direct.mul_vec(unit)
    same = restriction_matrix(b2, b2)
    assert (same.rows, same.cols) == (b2.size, b2.size)
    assert same.sparse_rows == tuple({i: 1} for i in range(b2.size))


def test_restriction_matrix_rejects_bad_pairs():
    oracle = line_oracle()
    small = enumerate_ball(oracle, 1)
    large = enumerate_ball(oracle, 2)
    with pytest.raises(BadRadii):
        restriction_matrix(large, small)
    with pytest.raises(DimensionMismatch):
        restriction_matrix(small, enumerate_ball(line_oracle(), 2))


# --- ball functions ---------------------------------------------------------


def test_ball_function_restrict_extend_roundtrip():
    oracle = tree_oracle(3)
    small = enumerate_ball(oracle, 1)
    large = enumerate_ball(oracle, 2)
    f = BallFunction(small, tuple(Fraction(k, 7) for k in range(small.size)))
    extended = f.extend_zero(large)
    assert extended.values[: small.size] == f.values
    assert all(x == 0 for x in extended.values[small.size :])
    assert extended.restrict(small) == f


def test_ball_function_shape_errors():
    oracle = line_oracle()
    small = enumerate_ball(oracle, 1)
    large = enumerate_ball(oracle, 2)
    with pytest.raises(DimensionMismatch):
        BallFunction(small, (Fraction(1),))
    f = BallFunction(small, (Fraction(0),) * small.size)
    with pytest.raises(BadRadii):
        f.restrict(large)
    with pytest.raises(BadRadii):
        f.extend_zero(enumerate_ball(oracle, 0))


def test_label_items_pair_labels_with_values():
    oracle = line_oracle()
    ball = enumerate_ball(oracle, 1)
    f = BallFunction(ball, (Fraction(2), Fraction(1), Fraction(1)))
    assert f.label_items() == [("0", Fraction(2)), ("-1", Fraction(1)), ("1", Fraction(1))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=5, max_size=5), st.integers(1, 3))
def test_extend_then_restrict_is_identity(nums, extra):
    oracle = line_oracle()
    small = enumerate_ball(oracle, 2)
    large = enumerate_ball(oracle, 2 + extra)
    f = BallFunction(small, tuple(Fraction(x, 3) for x in nums))
    assert f.extend_zero(large).restrict(small) == f


# --- targets and weights ----------------------------------------------------


def test_delta_target():
    oracle = line_oracle()
    ball = enumerate_ball(oracle, 2)
    values = TargetFunction.delta().on_ball(ball).values
    assert values == (1, 0, 0, 0, 0)


def test_radial_target_uses_distance_profile():
    oracle = grid_oracle(2)
    ball = enumerate_ball(oracle, 2)
    tgt = TargetFunction.radial([Fraction(1), Fraction(1, 2)])
    values = tgt.on_ball(ball).values
    for v in ball.vertices:
        d = ball.distances[v]
        assert values[v] == (Fraction(1, 2) ** d if d <= 1 else 0)


def test_radial_fn_target():
    oracle = line_oracle()
    ball = enumerate_ball(oracle, 3)
    tgt = TargetFunction.radial_fn(lambda d: Fraction(1, 2**d))
    values = tgt.on_ball(ball).values
    assert values[0] == 1 and values[5] == Fraction(1, 8)


def test_sparse_target_keyed_by_vertex_id():
    oracle = line_oracle()
    ball = enumerate_ball(oracle, 1)
    tgt = TargetFunction.sparse({1: Fraction(5), 40: Fraction(7), 2: Fraction(0)})
    assert tgt.on_ball(ball).values == (0, 5, 0)


def test_weights():
    oracle = line_oracle()
    enumerate_ball(oracle, 2)
    assert LambdaField.zero().value(oracle, 3) == 0
    assert LambdaField.constant(Fraction(2, 5)).value(oracle, 1) == Fraction(2, 5)
    assert LambdaField.distance().value(oracle, 3) == 2
    field = LambdaField.from_map({1: Fraction(1, 2), 2: Fraction(0)})
    assert field.value(oracle, 1) == Fraction(1, 2)
    assert field.value(oracle, 2) == 0
    with pytest.raises(ValueError, match=r"^weight must be nonnegative, got -1$"):
        LambdaField.constant(-1)
    with pytest.raises(ValueError, match=r"^weight must be nonnegative, got -1 at vertex 0$"):
        LambdaField.from_map({0: -1})
    with pytest.raises(ValueError):
        LambdaField.from_map({0: Fraction(-1, 2)})
