"""Both solution constructions, checked against the shared naive test oracles."""

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import cofactor_det, full_space
from exactlap.chain import run_chain
from exactlap.direct import (
    affine_solution_set,
    max_principle_certificate,
    prodiscrete_distance,
    solve_on_ball,
)
from exactlap.errors import (
    BadRadii,
    ChainViolation,
    DimensionMismatch,
    EmptyUniversalSet,
    InsufficientDomain,
    NotStabilized,
    SingularSystem,
)
from exactlap.functions import TargetFunction
from exactlap.graphs import (
    GraphOracle,
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
from exactlap.linalg import AffineSubspace, solution_image
from exactlap.matrix import RationalMatrix
from exactlap.operators import (
    BallFunction,
    LambdaField,
    apply_laplacian,
    restricted_operator_matrix,
    truncated_operator_matrix,
)
from exactlap.serialize import lambda_from_text, target_from_text
from exactlap.solver import coherent_solution, universal_element
from test_acceptance import CORE_FAMILIES as FAMILIES, naive_gauss_solve, naive_rank

import exactlap
import exactlap.chain as chain_module
import exactlap.direct as direct_module
import exactlap.kernel as kernel_module
import exactlap.linalg as linalg_module
import exactlap.operators as operators_module
import exactlap.solver as solver_module

LAM0 = LambdaField.zero()
DELTA = TargetFunction.delta()

# --- direct ball solves -----------------------------------------------------


def test_line_delta_radius_one_known_values():
    # independent 3x3 solve of the same system, then the library
    h = Fraction(1, 2)
    rows = [[1, -h, -h], [-h, 1, 0], [-h, 0, 1]]
    assert naive_gauss_solve(rows, [1, 0, 0]) == [2, 1, 1]
    rep = solve_on_ball(line_oracle(), DELTA, 1, LAM0)
    assert rep.solution.values == (2, 1, 1)
    assert rep.residual_ok
    assert rep.metric_bound == Fraction(1, 4)


def test_line_weighted_radius_zero_known_value():
    # single equation (1 + 1) f(0) = 1
    rep = solve_on_ball(line_oracle(), DELTA, 0, LambdaField.constant(1))
    assert rep.solution.values == (Fraction(1, 2),)
    assert rep.residual_ok


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_zero_target_gives_zero_solution(name):
    oracle = FAMILIES[name]()
    zero = TargetFunction.radial(())
    for n in range(3):
        rep = solve_on_ball(oracle, zero, n, LAM0)
        assert all(x == 0 for x in rep.solution.values)
        assert rep.residual_ok


def test_solutions_match_naive_elimination_on_small_balls():
    rng = random.Random(4242)
    for name, make in FAMILIES.items():
        oracle = make()
        for n in range(3):
            ball = enumerate_ball(oracle, n)
            matrix = truncated_operator_matrix(oracle, n, LAM0)
            entries = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in ball.vertices}
            target = TargetFunction.sparse(entries)
            rep = solve_on_ball(oracle, target, n, LAM0)
            rows = [list(matrix.row(i)) for i in range(matrix.rows)]
            b = [entries.get(v, Fraction(0)) for v in ball.vertices]
            assert list(rep.solution.values) == naive_gauss_solve(rows, b), (name, n)


def test_saturated_cycle_is_singular_with_context():
    with pytest.raises(SingularSystem) as exc:
        solve_on_ball(cycle_oracle(4), DELTA, 2, LAM0)
    assert exc.value.radius == 2
    assert exc.value.boundary_saturated is True


def test_saturated_path_is_singular():
    with pytest.raises(SingularSystem):
        solve_on_ball(path_oracle(6), DELTA, 5, LAM0)


def test_unsaturated_finite_ball_still_solvable():
    # strictly growing balls keep the truncation invertible, finite or not
    rep = solve_on_ball(cycle_oracle(8), DELTA, 2, LAM0)
    assert rep.residual_ok


def test_positive_weight_rescues_the_saturated_cycle():
    rep = solve_on_ball(cycle_oracle(4), DELTA, 2, LambdaField.constant(1))
    assert rep.residual_ok
    # cross-check against naive elimination on the full 4x4 system
    matrix = truncated_operator_matrix(cycle_oracle(4), 2, LambdaField.constant(1))
    rows = [list(matrix.row(i)) for i in range(4)]
    assert list(rep.solution.values) == naive_gauss_solve(rows, [1, 0, 0, 0])


def test_negative_radius_rejected():
    with pytest.raises(BadRadii):
        solve_on_ball(line_oracle(), DELTA, -1, LAM0)


def test_negative_radius_rejected_by_the_solution_set():
    with pytest.raises(BadRadii, match="^radius must be nonnegative$"):
        affine_solution_set(line_oracle(), DELTA, -1, LAM0)


def test_random_nonzero_functions_have_nonzero_image():
    # injectivity of the truncation, probed at random
    rng = random.Random(11)
    for name, make in FAMILIES.items():
        oracle = make()
        for n in range(3):
            matrix = truncated_operator_matrix(oracle, n, LAM0)
            for _ in range(25):
                values = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(matrix.cols)]
                if all(x == 0 for x in values):
                    values[0] = Fraction(1)
                assert any(x != 0 for x in matrix.mul_vec(values)), (name, n)


# --- certificates -----------------------------------------------------------


def test_certificate_on_the_line_radius_two():
    cert = max_principle_certificate(line_oracle(), 2, LAM0)
    assert cert.strict_inclusion and cert.passes
    matrix = truncated_operator_matrix(line_oracle(), 2, LAM0)
    rows = [list(matrix.row(i)) for i in range(matrix.rows)]
    assert cert.determinant == cofactor_det(rows)
    assert cert.determinant != 0


def test_certificate_on_saturated_cycle_passes_vacuously():
    cert = max_principle_certificate(cycle_oracle(4), 2, LAM0)
    assert not cert.strict_inclusion
    assert cert.determinant == 0
    assert cert.passes


def test_certificate_on_tree():
    cert = max_principle_certificate(tree_oracle(3), 1, LAM0)
    assert cert.strict_inclusion and cert.passes and cert.determinant != 0


@pytest.mark.parametrize(
    "make",
    [
        line_oracle,
        lambda: grid_oracle(2),
        lambda: tree_oracle(3),
        lambda: free_group_oracle(2),
        lambda: cycle_oracle(5),
        lambda: path_oracle(4),
        lambda: custom_oracle(6, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [1, 5]], root=2),
    ],
    ids=["z", "z2", "tree3", "free2", "c5", "p4", "custom"],
)
def test_strict_inclusion_means_the_next_ball_is_larger(make):
    for n in range(5):
        oracle = make()
        larger = enumerate_ball(oracle, n + 1).size > enumerate_ball(oracle, n).size
        assert max_principle_certificate(make(), n, LAM0).strict_inclusion == larger, n


# --- affine solution sets ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_solution_set_dimension_is_shell_size(name):
    oracle = FAMILIES[name]()
    for n in range(4):
        inner = enumerate_ball(oracle, n)
        outer = enumerate_ball(oracle, n + 1)
        sol = affine_solution_set(oracle, DELTA, n, LAM0)
        assert sol.dim == outer.size - inner.size
        matrix = restricted_operator_matrix(oracle, n, LAM0)
        rows = [list(matrix.row(i)) for i in range(matrix.rows)]
        assert sol.dim == outer.size - naive_rank(rows)


def test_grid_solution_set_dimension_known_value():
    sol = affine_solution_set(grid_oracle(2), DELTA, 1, LAM0)
    assert sol.dim == 13 - 5 == 8


def test_zero_target_solution_set_is_linear():
    sol = affine_solution_set(line_oracle(), TargetFunction.radial(()), 2, LAM0)
    assert sol.contains([Fraction(0)] * sol.ambient_dim)
    assert sol.particular == (0,) * sol.ambient_dim


def test_ball_solution_is_member_of_the_solution_set():
    for name, make in FAMILIES.items():
        oracle = make()
        for n in range(3):
            rep = solve_on_ball(oracle, DELTA, n, LAM0)
            outer = enumerate_ball(oracle, n + 1)
            extended = rep.solution.extend_zero(outer)
            sol = affine_solution_set(oracle, DELTA, n, LAM0)
            assert sol.contains(extended.values), (name, n)


# --- image chains -----------------------------------------------------------


def test_line_chain_stabilizes_at_its_own_level():
    state = run_chain(line_oracle(), DELTA, 1, 6, 3, LAM0)
    assert state.status == "stabilized"
    assert state.stabilized_at == 1
    x1 = affine_solution_set(line_oracle(), DELTA, 1, LAM0)
    for _, image in state.images:
        assert image == x1


def test_tree_chain_stabilizes_with_recorded_level():
    state = run_chain(tree_oracle(3), DELTA, 1, 5, 3, LAM0)
    assert state.status == "stabilized"
    assert state.stabilized_at == 1
    assert [d for _, d in state.dims()] == [6, 6, 6]


def test_chain_dims_never_increase():
    for make in (line_oracle, lambda: tree_oracle(3), lambda: grid_oracle(2)):
        for lam in (LAM0, LambdaField.distance()):
            state = run_chain(make(), DELTA, 0, 4, 10, lam)
            dims = [d for _, d in state.dims()]
            assert dims == sorted(dims, reverse=True)


# the delta target on the 4-cycle: the images are empty from depth 2 on
EMPTY_AT_LEVEL_0 = (
    "stabilized image at level 0 is empty; no function solves the target through depth 4"
)


def test_chain_on_saturating_cycle_reaches_empty_images():
    state = run_chain(cycle_oracle(4), DELTA, 0, 5, 3, LAM0)
    assert state.status == "stabilized"
    dims = [d for _, d in state.dims()]
    assert dims[-1] is None
    with pytest.raises(EmptyUniversalSet) as exc:
        universal_element(state)
    assert exc.value.boundary_saturated is True
    assert exc.value.level == 0
    assert str(exc.value) == EMPTY_AT_LEVEL_0


def test_chain_short_budget_is_window_exceeded_not_a_guess():
    state = run_chain(line_oracle(), DELTA, 0, 1, 3, LAM0)
    assert state.status == "window_exceeded"
    assert state.stabilized_at is None
    with pytest.raises(NotStabilized):
        universal_element(state)


def test_chain_level_must_not_exceed_budget():
    with pytest.raises(BadRadii):
        run_chain(line_oracle(), DELTA, 3, 2, 3, LAM0)
    with pytest.raises(ValueError):
        run_chain(line_oracle(), DELTA, 0, 3, 0, LAM0)


def test_chains_and_solves_never_build_deep_sets(monkeypatch):
    """Chain images come straight from elimination: no deep canonical set, no
    projection matrix, no dense reduction of a spanning set, and the coherent
    lift reads its coefficients off the canonical form without solving."""

    def forbidden(*args, **kwargs):
        raise AssertionError("deep-set route called")

    assert not hasattr(linalg_module, "_rref_rows")
    assert "__init__" not in vars(RationalMatrix)  # no dense constructor: from_rows builds every matrix
    monkeypatch.setattr(linalg_module, "image_under_map", forbidden)
    monkeypatch.setattr(operators_module, "restriction_matrix", forbidden)
    for module in (chain_module, solver_module):  # the chain and the coherent lift
        for name in ("image_under_map", "restriction_matrix", "solve_exact"):
            assert not hasattr(module, name), (module.__name__, name)
    with monkeypatch.context() as m:
        m.setattr(direct_module, "solve_exact", forbidden)
        run_chain(grid_oracle(2), DELTA, 1, 6, 3, LambdaField.distance())
        coherent_solution(tree_oracle(3), DELTA, 2, 8, 3, LAM0)
    assert affine_solution_set(grid_oracle(2), DELTA, 2, LAM0).dim == 25 - 13
    assert solve_on_ball(tree_oracle(3), DELTA, 2, LAM0).residual_ok


def _counted_eliminations(monkeypatch):
    """The argument tuples of every `_eliminate` call from here on.

    Every binding of the kernel's `_eliminate` in the package, under any
    name, gets the counting wrapper, so a call from any module is counted.
    """
    calls = []
    real = kernel_module._eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    callers = set()
    for info in pkgutil.iter_modules(exactlap.__path__):
        module = importlib.import_module(f"exactlap.{info.name}")
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
                callers.add(info.name)
    # the determinant, and every solution image, a spanning set's included
    assert {"linalg", "subspace"} <= callers
    return calls


def test_a_spanning_set_is_put_in_canonical_form_by_one_elimination(monkeypatch):
    calls = _counted_eliminations(monkeypatch)
    point = [Fraction(1), Fraction(0), Fraction(0)]
    assert AffineSubspace(3, point).dim == 0
    assert len(calls) == 0  # a point alone is already canonical
    assert AffineSubspace(3, point, [[0, 1, 1], [0, 2, 2]]).dim == 1
    assert len(calls) == 1


def test_wide_solution_sets_eliminate_once(monkeypatch):
    """A system with fewer equations than unknowns goes straight to its image."""
    calls = _counted_eliminations(monkeypatch)
    oracle = grid_oracle(3)
    sol = affine_solution_set(oracle, DELTA, 4, LAM0)
    assert sol.dim == enumerate_ball(oracle, 5).size - enumerate_ball(oracle, 4).size
    assert len(calls) == 1


def test_square_solution_sets_eliminate_once(monkeypatch):
    """A square system is read off one elimination whether it is singular
    (c5 saturated at radius 2) or of full rank."""
    calls = _counted_eliminations(monkeypatch)
    with pytest.raises(SingularSystem):
        solve_on_ball(cycle_oracle(5), DELTA, 2, LAM0)
    assert len(calls) == 1
    assert solve_on_ball(tree_oracle(3), DELTA, 2, LAM0).residual_ok
    assert len(calls) == 2


def _traced_chain(monkeypatch, oracle, target, n, max_m, lam):
    """``run_chain`` with the depth of every image that reaches the nesting test."""
    depths, tested = [], []
    real_image = chain_module.solution_image
    real_subset = chain_module.affine_subset

    def image(a, b, k):
        depths.append(n + len(depths))
        return real_image(a, b, k)

    def subset(inner, outer):
        tested.append(depths[-1])
        return real_subset(inner, outer)

    monkeypatch.setattr(chain_module, "solution_image", image)
    monkeypatch.setattr(chain_module, "affine_subset", subset)
    return run_chain(oracle, target, n, max_m, 3, lam), tested


@pytest.mark.parametrize("make", [line_oracle, lambda: tree_oracle(3)], ids=["z", "tree3"])
def test_equal_chain_images_skip_the_nesting_test(make, monkeypatch):
    for lam in (LAM0, LambdaField.distance()):
        for n in range(3):
            state, tested = _traced_chain(monkeypatch, make(), DELTA, n, 8, lam)
            assert state.stabilized_at == n
            assert tested == []


def test_only_a_changed_chain_image_is_tested_for_nesting(monkeypatch):
    state, tested = _traced_chain(monkeypatch, cycle_oracle(7), DELTA, 0, 8, LAM0)
    assert state.dims() == [(0, 2), (1, 2), (2, 2), (3, None), (4, None), (5, None)]
    assert tested == [3]


@pytest.mark.parametrize("change", ["shifted", "full"])
def test_a_changed_image_that_does_not_shrink_is_a_violation(change, monkeypatch):
    """Even when the nesting test passes, a changed image must lose dimension."""
    real = chain_module.solution_image
    seen = []

    def changed(a, b, k):
        img = real(a, b, k)
        seen.append(img)
        if len(seen) < 2:
            return img
        if change == "full":
            return full_space(k)
        return AffineSubspace(k, (img.particular[0] + 1,) + img.particular[1:], img.basis)

    monkeypatch.setattr(chain_module, "solution_image", changed)
    monkeypatch.setattr(chain_module, "affine_subset", lambda inner, outer: True)
    with pytest.raises(ChainViolation):
        run_chain(line_oracle(), DELTA, 1, 6, 3, LAM0)


def test_a_changed_image_outside_the_previous_one_is_a_violation(monkeypatch):
    """A changed image of lower dimension must still lie in the previous image."""
    real = chain_module.solution_image
    seen = []

    def outside(a, b, k):
        img = real(a, b, k)
        seen.append(img)
        if len(seen) < 2:
            return img
        # the first image fixes coordinate 2 by coordinates 0 and 1, so this point misses it
        return AffineSubspace(k, img.particular[:2] + (img.particular[2] + 1,) + img.particular[3:], ())

    monkeypatch.setattr(chain_module, "solution_image", outside)
    with pytest.raises(ChainViolation, match="^projection from depth 2 is not contained in the previous image$"):
        run_chain(line_oracle(), DELTA, 1, 6, 3, LAM0)
    assert seen[0].dim == 2


def test_oracles_know_whether_their_graph_is_finite():
    finite = [cycle_oracle(5), path_oracle(4), custom_oracle(3, [[0, 1], [1, 2]])]
    infinite = [line_oracle(), grid_oracle(2), tree_oracle(3), ladder_oracle(2), free_group_oracle(2)]
    assert all(o.finite for o in finite)
    assert not any(o.finite for o in infinite)
    assert not GraphOracle(0, lambda k: (k - 1, k + 1)).finite


FINITE_TARGETS = ["delta", "geometric", "radial:1,1/2", "radial:0,1", "radial:1,-1,2"]
FINITE_WEIGHTS = ["zero", "distance", "1", "1/3"]


def test_finite_chains_report_the_image_at_the_saturated_depth():
    """cK and pK for K = 3..11, five targets, four weights, levels 0-2, default
    budget and window: a stabilized chain reports the image of the whole graph's
    system, which the first saturated depth already has; a chain whose budget
    ends before its run of equal images reaches that depth reports nothing."""
    outcomes = {"stabilized": 0, "window_exceeded": 0}
    for make in (cycle_oracle, path_oracle):
        for size in range(3, 12):
            oracle = make(size)
            saturated = next(m for m in range(size) if enumerate_ball(oracle, m).boundary_saturated)
            for target in map(target_from_text, FINITE_TARGETS):
                for lam in map(lambda_from_text, FINITE_WEIGHTS):
                    for n in range(3):
                        state = run_chain(oracle, target, n, 8, 3, lam)
                        outcomes[state.status] += 1
                        if state.stabilized_at is None:
                            assert saturated > 6, (oracle.name, n)
                            continue
                        m = max(n, saturated)
                        exact = solution_image(
                            restricted_operator_matrix(oracle, m, lam),
                            target.on_ball(enumerate_ball(oracle, m)).values,
                            state.ball.size,
                        )
                        assert state.stabilized_image == exact, (oracle.name, n)
                        assert state.images[-1][0] >= saturated
                        start = state.stabilized_at - n
                        assert all(img == exact for _, img in state.images[start:]), (oracle.name, n)
                        assert start == 0 or state.images[start - 1][1] != exact, (oracle.name, n)
    assert outcomes == {"stabilized": 840, "window_exceeded": 240}


def test_universal_element_solves_through_its_level():
    for make in (line_oracle, lambda: tree_oracle(3)):
        oracle = make()
        for n in range(3):
            state = run_chain(oracle, DELTA, n, 8, 3, LAM0)
            x = universal_element(state)
            matrix = restricted_operator_matrix(oracle, n, LAM0)
            inner = enumerate_ball(oracle, n)
            assert matrix.mul_vec(x.values) == DELTA.on_ball(inner).values


def test_universal_element_for_zero_target_is_zero():
    state = run_chain(line_oracle(), TargetFunction.radial(()), 1, 6, 3, LAM0)
    x = universal_element(state)
    assert all(v == 0 for v in x.values)


# --- coherent families ------------------------------------------------------


@pytest.mark.parametrize("make", [line_oracle, lambda: tree_oracle(3)], ids=["line", "tree3"])
def test_coherent_family_has_exact_prefix_coherence(make):
    oracle = make()
    result = coherent_solution(oracle, DELTA, 3, 8, 3, LAM0)
    assert len(result.levels) == 4
    for a, b in zip(result.levels, result.levels[1:]):
        assert b.values[: len(a.values)] == a.values
    top = result.levels[-1]
    inner = enumerate_ball(oracle, 3)
    applied = apply_laplacian(oracle, top, LAM0)
    assert applied.values == DELTA.on_ball(inner).values
    assert result.report.residual_ok
    assert result.report.metric_bound == Fraction(1, 16)


def test_coherent_levels_live_in_their_solution_sets():
    oracle = line_oracle()
    result = coherent_solution(oracle, DELTA, 2, 8, 3, LAM0)
    for n, fn in enumerate(result.levels):
        sol = affine_solution_set(oracle, DELTA, n, LAM0)
        assert sol.contains(fn.values)


def test_coherent_respects_weights():
    oracle = tree_oracle(3)
    result = coherent_solution(oracle, DELTA, 2, 6, 3, LambdaField.distance())
    assert result.report.residual_ok
    for a, b in zip(result.levels, result.levels[1:]):
        assert b.values[: len(a.values)] == a.values


def test_coherent_without_stabilization_raises():
    with pytest.raises(NotStabilized):
        coherent_solution(line_oracle(), DELTA, 0, 0, 3, LAM0)


def test_coherent_on_unsolvable_finite_graph_raises():
    with pytest.raises(EmptyUniversalSet) as exc:
        coherent_solution(cycle_oracle(4), DELTA, 1, 6, 3, LAM0)
    assert exc.value.boundary_saturated is True
    assert exc.value.level == 0
    assert str(exc.value) == EMPTY_AT_LEVEL_0


def test_coherent_negative_levels_rejected():
    with pytest.raises(BadRadii):
        coherent_solution(line_oracle(), DELTA, -1, 5, 3, LAM0)


# --- the one re-check -------------------------------------------------------


def off_by_one_at_the_root(solve):
    """``solve_exact`` whose unique point is off by one at the root."""

    def corrupted(matrix, rhs):
        point = solve(matrix, rhs).particular
        return AffineSubspace(len(point), (point[0] + 1,) + point[1:])

    return corrupted


def _counted_residuals(monkeypatch):
    """The argument tuples of every `apply_laplacian` call from here on.

    Every package module that binds it gets the counting wrapper, and
    `operators`, where `solves` calls it, must be the only one.
    """
    calls = []
    real = operators_module.apply_laplacian

    def counted(*args):
        calls.append(args)
        return real(*args)

    binders = set()
    for info in pkgutil.iter_modules(exactlap.__path__):
        module = importlib.import_module(f"exactlap.{info.name}")
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
                binders.add(info.name)
    assert binders == {"operators"}
    return calls


def test_a_corrupted_ball_solve_fails_the_re_check(monkeypatch):
    monkeypatch.setattr(direct_module, "solve_exact", off_by_one_at_the_root(direct_module.solve_exact))
    for make in (line_oracle, lambda: tree_oracle(3)):
        rep = solve_on_ball(make(), DELTA, 2, LAM0)
        assert rep.residual_ok is False
        assert rep.metric_bound == Fraction(1, 8)


def test_every_answer_is_re_checked_once(monkeypatch):
    calls = _counted_residuals(monkeypatch)
    assert solve_on_ball(tree_oracle(3), DELTA, 2, LAM0).residual_ok
    assert len(calls) == 1
    # one re-check per stabilized chain with a point, none for a window exceeded or an empty image
    assert run_chain(line_oracle(), DELTA, 1, 6, 3, LAM0).stabilized_at == 1
    assert len(calls) == 2
    assert run_chain(line_oracle(), DELTA, 1, 1, 3, LAM0).stabilized_at is None
    assert run_chain(cycle_oracle(4), DELTA, 0, 6, 3, LAM0).stabilized_image.is_empty
    assert len(calls) == 2
    # a coherent family of three levels: one per level's chain, and one for the top level
    assert coherent_solution(tree_oracle(3), DELTA, 2, 8, 3, LAM0).report.residual_ok
    assert len(calls) == 2 + 3 + 1
    top = calls[-1][1]
    assert top.ball.radius == 3


# --- metric ----------------------------------------------------------------


def _fn(oracle, radius, values):
    return BallFunction(enumerate_ball(oracle, radius), tuple(Fraction(v) for v in values))


def test_metric_identical_functions():
    f = solve_on_ball(line_oracle(), DELTA, 2, LAM0).solution
    lower, upper = prodiscrete_distance(f, f, 2)
    assert lower == 0
    assert upper == Fraction(1, 8)


def test_metric_disagreement_at_the_root():
    oracle = line_oracle()
    f = _fn(oracle, 2, [0, 0, 0, 0, 0])
    h = _fn(oracle, 2, [1, 0, 0, 0, 0])
    lower, upper = prodiscrete_distance(f, h, 2)
    # disagree on every ball: computed part is 1/2 + 1/4 + 1/8
    assert lower == Fraction(7, 8)
    assert upper == 1


def test_metric_first_disagreement_at_distance_two():
    oracle = line_oracle()
    f = _fn(oracle, 3, [0] * 7)
    h = _fn(oracle, 3, [0, 0, 0, 2, 0, 0, 0])  # id 3 sits at distance 2
    for depth in (2, 3):
        lower, upper = prodiscrete_distance(f, h, depth)
        assert lower == Fraction(1, 4) - Fraction(1, 2 ** (depth + 1))
        assert upper == lower + Fraction(1, 2 ** (depth + 1))


def test_metric_agreement_within_depth_bounds_tail():
    oracle = line_oracle()
    f = _fn(oracle, 2, [1, 2, 3, 4, 5])
    h = _fn(oracle, 3, [1, 2, 3, 4, 5, 9, 9])
    lower, upper = prodiscrete_distance(f, h, 2)
    assert lower == 0 and upper == Fraction(1, 8)


def test_metric_requires_enough_domain():
    oracle = line_oracle()
    f = _fn(oracle, 1, [1, 2, 3])
    with pytest.raises(InsufficientDomain):
        prodiscrete_distance(f, f, 2)
    with pytest.raises(BadRadii):
        prodiscrete_distance(f, f, -1)


def test_metric_rejects_functions_on_different_graphs():
    f = _fn(line_oracle(), 1, [0, 0, 0])
    h = _fn(line_oracle(), 1, [0, 0, 0])
    with pytest.raises(DimensionMismatch):
        prodiscrete_distance(f, h, 1)


values5 = st.lists(st.integers(-3, 3), min_size=5, max_size=5)


@settings(max_examples=80, deadline=None)
@given(values5, values5, values5)
def test_metric_partial_sums_satisfy_the_metric_axioms(a, b, c):
    oracle = line_oracle()
    f, g, h = (_fn(oracle, 2, v) for v in (a, b, c))
    depth = 2
    fg = prodiscrete_distance(f, g, depth)
    gf = prodiscrete_distance(g, f, depth)
    fh = prodiscrete_distance(f, h, depth)
    gh = prodiscrete_distance(g, h, depth)
    assert fg == gf
    assert prodiscrete_distance(f, f, depth)[0] == 0
    # lower bounds are the exact truncated sums, so the triangle law is exact
    assert fh[0] <= fg[0] + gh[0]
    assert fg[1] == fg[0] + Fraction(1, 2 ** (depth + 1))
