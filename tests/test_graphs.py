"""Graph oracles: ball enumeration against closed forms and independent BFS,
and the read-only Record base of the package's value types."""

import itertools
import re
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactlap.oracle as oracle_module
from exactlap.errors import (
    BadFamilyParameter,
    DimensionMismatch,
    GraphSpecError,
    OracleInconsistent,
    VertexBudgetExceeded,
)
from exactlap.graphs import (
    GraphOracle,
    custom_oracle,
    cycle_oracle,
    enumerate_ball,
    family_oracle,
    free_group_oracle,
    grid_oracle,
    ladder_oracle,
    line_oracle,
    path_oracle,
    tree_oracle,
    validate_oracle,
)
from exactlap.operators import BallFunction
from exactlap.record import Record

# --- independent oracles ---------------------------------------------------


def bfs_distances(neighbors, root, limit):
    """Plain queue BFS over an adjacency function, up to a distance cap."""
    dist = {root: 0}
    q = deque([root])
    while q:
        v = q.popleft()
        if dist[v] >= limit:
            continue
        for w in neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def closed_form_sizes(name, n):
    """Ball sizes derived by counting arguments, not by any traversal."""
    if name == "line":
        return 2 * n + 1
    if name == "grid2":
        return 2 * n * n + 2 * n + 1
    if name == "grid3":
        return (4 * n**3 + 6 * n**2 + 8 * n + 3) // 3
    if name == "tree3":
        return 1 + 3 * (2**n - 1)
    if name == "ladder2":
        return 1 if n == 0 else 4 * n
    if name == "free2":
        return 1 + 2 * (3**n - 1)
    raise KeyError(name)


FAMILIES = {
    "line": line_oracle,
    "grid2": lambda: grid_oracle(2),
    "grid3": lambda: grid_oracle(3),
    "tree3": lambda: tree_oracle(3),
    "ladder2": lambda: ladder_oracle(2),
    "free2": lambda: free_group_oracle(2),
}


# --- ball enumeration ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_ball_sizes_match_closed_forms(name):
    oracle = FAMILIES[name]()
    top = 5 if name == "free2" else 6
    for n in range(top + 1):
        assert enumerate_ball(oracle, n).size == closed_form_sizes(name, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_distances_match_independent_bfs(name):
    oracle = FAMILIES[name]()
    ball = enumerate_ball(oracle, 4)
    dist = bfs_distances(oracle.neighbors, 0, 4)
    for v in ball.vertices:
        assert oracle.distance(v) == dist[v]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_balls_are_id_prefixes(name):
    oracle = FAMILIES[name]()
    previous = range(0)
    for n in range(5):
        ball = enumerate_ball(oracle, n)
        assert ball.vertices == range(ball.size)
        assert ball.vertices[: len(previous)] == previous
        distances = [oracle.distance(v) for v in ball.vertices]
        assert distances == sorted(distances)
        assert not ball.boundary_saturated
        previous = ball.vertices


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        enumerate_ball(line_oracle(), -1)


def test_cycle_saturates_at_half_size():
    for k in (3, 4, 5, 7, 8):
        oracle = cycle_oracle(k)
        for n in range(6):
            ball = enumerate_ball(oracle, n)
            assert ball.size == min(2 * n + 1, k)
            assert ball.boundary_saturated == (n >= k // 2)


def test_path_rooted_at_endpoint_saturates_at_full_length():
    oracle = path_oracle(6)
    for n in range(8):
        ball = enumerate_ball(oracle, n)
        assert ball.size == min(n + 1, 6)
        assert ball.boundary_saturated == (n >= 5)


# --- canonical ids, orders, labels -----------------------------------------


def test_line_id_assignment_is_documented_order():
    oracle = line_oracle()
    assert oracle.neighbors(0) == (1, 2)
    assert oracle.key_of(1) == -1 and oracle.key_of(2) == 1
    # -1 was discovered first, so its expansion runs first and finds -2
    oracle.neighbors(2)
    assert oracle.key_of(3) == -2 and oracle.key_of(4) == 2
    assert oracle.label(3) == "-2"
    with pytest.raises(ValueError):
        oracle.key_of(99)


def test_grid_neighbor_order_and_labels():
    oracle = grid_oracle(2)
    assert oracle.label(0) == "(0,0)"
    keys = [oracle.key_of(v) for v in oracle.neighbors(0)]
    assert keys == [(-1, 0), (1, 0), (0, -1), (0, 1)]
    assert all(len(oracle.neighbors(v)) == 4 for v in enumerate_ball(oracle, 2).vertices)


def test_tree_parent_comes_first():
    oracle = tree_oracle(3)
    assert oracle.label(0) == "e"
    child = oracle.neighbors(0)[0]
    nbs = oracle.neighbors(child)
    assert nbs[0] == 0  # parent leads the list
    ball = enumerate_ball(oracle, 3)
    assert all(len(oracle.neighbors(v)) == 3 for v in ball.vertices)


def test_ladder_degrees():
    oracle = ladder_oracle(2)
    ball = enumerate_ball(oracle, 3)
    assert all(len(oracle.neighbors(v)) == 3 for v in ball.vertices)
    wide = ladder_oracle(3)
    degrees = {len(wide.neighbors(v)) for v in enumerate_ball(wide, 2).vertices}
    assert degrees == {3, 4}


def test_free_group_reduced_words_and_labels():
    oracle = free_group_oracle(2)
    assert oracle.label(0) == "e"
    labels = [oracle.label(v) for v in oracle.neighbors(0)]
    assert labels == ["a", "A", "b", "B"]
    a = oracle.neighbors(0)[0]
    # right-multiplying a by a^-1 cancels back to the identity
    assert oracle.neighbors(a)[1] == 0
    assert all(len(oracle.neighbors(v)) == 4 for v in enumerate_ball(oracle, 2).vertices)
    two = [oracle.label(v) for v in enumerate_ball(oracle, 2).vertices[5:]]
    assert "aa" in two and "ab" in two and "aA" not in two


def test_repeated_queries_are_stable():
    oracle = tree_oracle(4)
    enumerate_ball(oracle, 1)
    first = oracle.neighbors(2)
    assert oracle.neighbors(2) == first


def test_undiscovered_vertex_rejected():
    """Every vertex read rejects an id outside the discovered prefix alike."""
    oracle = line_oracle()
    enumerate_ball(oracle, 1)  # discovers 0, -1, 1, -2, 2
    reads = (oracle.neighbors, oracle.distance, oracle.label, oracle.key_of)
    for read, v in itertools.product(reads, (-1, 5)):
        with pytest.raises(ValueError, match=f"^vertex id {v} has not been discovered$"):
            read(v)
    assert repr(oracle) == "GraphOracle('line', discovered=5)"
    assert [read(4) for read in reads] == [(2, 6), 2, "2", 2]


def test_vertex_budget_leaves_the_oracle_usable(monkeypatch):
    """An expansion over the budget raises before it records anything."""
    oracle = line_oracle()
    with monkeypatch.context() as m:
        m.setattr(oracle_module, "VERTEX_BUDGET", 5)
        ball = enumerate_ball(oracle, 1)  # discovers 0, -1, 1, -2, 2
        with pytest.raises(VertexBudgetExceeded) as exc:
            enumerate_ball(oracle, 2)
        assert (exc.value.budget, exc.value.graph) == (5, "line")
        assert repr(oracle) == "GraphOracle('line', discovered=5)"
        assert enumerate_ball(oracle, 1) == ball
        with pytest.raises(VertexBudgetExceeded):
            validate_oracle(oracle, 1)  # the symmetry check expands vertex 3
    fresh = line_oracle()
    assert [oracle.distance(v) for v in enumerate_ball(oracle, 3).vertices] == [
        fresh.distance(v) for v in enumerate_ball(fresh, 3).vertices
    ]
    assert [oracle.neighbors(v) for v in range(7)] == [fresh.neighbors(v) for v in range(7)]
    assert [oracle.label(v) for v in range(9)] == ["0", "-1", "1", "-2", "2", "-3", "3", "-4", "4"]


def test_one_expansion_over_budget_records_none_of_its_vertices(monkeypatch):
    oracle = tree_oracle(20)
    monkeypatch.setattr(oracle_module, "VERTEX_BUDGET", 20)
    with pytest.raises(VertexBudgetExceeded):
        oracle.neighbors(0)  # the root's 20 children make 21 vertices
    assert repr(oracle) == "GraphOracle('tree20', discovered=1)"
    monkeypatch.setattr(oracle_module, "VERTEX_BUDGET", 21)
    assert oracle.neighbors(0) == tuple(range(1, 21))


def test_an_expansion_stops_reading_neighbors_at_the_budget(monkeypatch):
    """A vertex with endlessly many neighbors meets the budget, not the end of its list."""
    budget = 5
    monkeypatch.setattr(oracle_module, "VERTEX_BUDGET", budget)
    read = []

    def raw(key):
        if key:
            yield 0
            return
        for k in itertools.count(1):
            assert len(read) <= budget, "neighbor list read past the budget"
            read.append(k)
            yield k

    oracle = GraphOracle(0, raw)
    with pytest.raises(VertexBudgetExceeded):
        oracle.neighbors(0)
    assert len(read) == budget  # the root and ids 1..4 fit, the fifth neighbor is id 5
    assert repr(oracle) == "GraphOracle('custom', discovered=1)"


def test_custom_vertex_count_is_checked_before_allocation(monkeypatch):
    edges = [[i, i + 1] for i in range(5)]
    monkeypatch.setattr(oracle_module, "VERTEX_BUDGET", 6)
    assert enumerate_ball(custom_oracle(6, edges), 5).size == 6
    monkeypatch.setattr(oracle_module, "VERTEX_BUDGET", 5)
    for over in (edges, []):  # connected or not, the count alone is over budget
        with pytest.raises(VertexBudgetExceeded) as exc:
            custom_oracle(6, over)
        assert (exc.value.budget, exc.value.graph) == (5, "custom")


# --- validation ------------------------------------------------------------


def test_validate_clean_family_passes():
    assert validate_oracle(line_oracle(), 3) is None
    assert validate_oracle(free_group_oracle(1), 2) is None


def test_validate_checks_exactly_the_probe_ball():
    # the line with a loop at the integer 3, at distance 3 from the root (id 6)
    oracle = GraphOracle(0, lambda k: (k - 1, k + 1) + ((k,) if k == 3 else ()))
    validate_oracle(oracle, 2)
    with pytest.raises(GraphSpecError, match=r"^graph failed validation: vertex 6 lists itself$"):
        validate_oracle(oracle, 3)


def test_validate_detects_loop():
    oracle = GraphOracle(0, lambda k: [0, 1] if k == 0 else [0])
    with pytest.raises(GraphSpecError, match="vertex 0 lists itself"):
        validate_oracle(oracle, 1)


def test_validate_detects_duplicate():
    oracle = GraphOracle(0, lambda k: [1, 1] if k == 0 else [0])
    with pytest.raises(GraphSpecError, match="vertex 0 lists 1 more than once"):
        validate_oracle(oracle, 1)


def test_validate_detects_asymmetry():
    def raw(k):
        if k == 0:
            return [1]
        return [2] if k == 1 else [1]

    with pytest.raises(GraphSpecError, match=r"0 not in neighbors\(1\)"):
        validate_oracle(GraphOracle(0, raw), 2)


def test_validate_detects_isolated_root():
    with pytest.raises(GraphSpecError, match="vertex 0 has no neighbors"):
        validate_oracle(GraphOracle(0, lambda k: []), 0)


def test_validate_rejects_a_negative_probe_radius():
    with pytest.raises(ValueError, match="^probe radius must be nonnegative$"):
        validate_oracle(line_oracle(), -1)


def test_validate_flags_unstable_neighbor_function():
    calls = {"n": 0}

    def raw(k):
        calls["n"] += 1
        if k == 0:
            return [1] if calls["n"] > 2 else [1, 2]
        return [0]

    oracle = GraphOracle(0, raw)
    oracle.neighbors(0)
    with pytest.raises(
        OracleInconsistent, match="^oracle inconsistent at vertex 0: neighbor list changed between calls$"
    ):
        validate_oracle(oracle, 1)


# --- custom finite graphs --------------------------------------------------


def test_custom_triangle():
    oracle = custom_oracle(3, [[0, 1], [1, 2], [2, 0]])
    ball = enumerate_ball(oracle, 1)
    assert ball.size == 3 and ball.boundary_saturated
    assert validate_oracle(oracle, 1) is None


def test_custom_respects_root_choice():
    oracle = custom_oracle(4, [[0, 1], [1, 2], [2, 3]], root=2)
    assert oracle.key_of(0) == 2
    assert enumerate_ball(oracle, 1).size == 3


@pytest.mark.parametrize(
    "vertices,edges",
    [
        (1, []),
        (3, [[0, 0], [1, 2]]),
        (3, [[0, 1], [1, 0], [1, 2]]),
        (3, [[0, 1], [1, 5]]),
        (4, [[0, 1], [2, 3]]),
        (3, [[0, 1, 2]]),
        (3, [[0, "1"], [1, 2]]),
        (3, [1, 2]),
        (3, [[0, 1], [1, 2], 2]),
        (3, [[0, True], [1, 2]]),
    ],
)
def test_custom_rejects_malformed_graphs(vertices, edges):
    with pytest.raises(GraphSpecError):
        custom_oracle(vertices, edges)


@pytest.mark.parametrize("edges", [[[0, 1], [1, 2], [1, 0]], [[1, 0], [1, 2], [0, 1]]])
def test_custom_names_a_repeated_edge(edges):
    with pytest.raises(GraphSpecError, match=r"^edge \[0, 1\] given more than once$"):
        custom_oracle(3, edges)


@pytest.mark.parametrize(
    "vertices, edges, root, missing",
    [(4, [[0, 1], [2, 3]], 0, [2, 3]), (5, [[0, 1], [2, 3], [3, 4]], 3, [0, 1])],
)
def test_custom_names_the_unreachable_vertices(vertices, edges, root, missing):
    with pytest.raises(GraphSpecError) as exc:
        custom_oracle(vertices, edges, root=root)
    assert str(exc.value) == f"graph is not connected; unreachable vertices {missing}"


def test_custom_names_ten_unreachable_vertices_and_the_count():
    path = [[v, v + 1] for v in range(9)]  # 0..9 reachable from 0, 10..21 isolated or in a pair
    with pytest.raises(GraphSpecError) as exc:
        custom_oracle(22, path + [[20, 21]])
    assert str(exc.value) == (
        "graph is not connected; 12 unreachable vertices, the first 10 are [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]"
    )
    with pytest.raises(GraphSpecError) as exc:  # ten are still listed in full
        custom_oracle(20, path)
    assert str(exc.value) == f"graph is not connected; unreachable vertices {list(range(10, 20))}"


# --- family dispatch -------------------------------------------------------


def test_family_oracle_dispatch():
    assert enumerate_ball(family_oracle({"family": "line"}), 1).size == 3
    assert enumerate_ball(family_oracle({"family": "grid", "dims": 3}), 1).size == 7
    assert enumerate_ball(family_oracle({"family": "tree", "degree": 4}), 1).size == 5
    assert enumerate_ball(family_oracle({"family": "ladder", "width": 2}), 1).size == 4
    assert enumerate_ball(family_oracle({"family": "free_group", "rank": 1}), 2).size == 5
    assert enumerate_ball(family_oracle({"family": "cycle", "size": 5}), 2).size == 5
    assert enumerate_ball(family_oracle({"family": "path", "size": 4}), 2).size == 3
    custom = family_oracle(
        {"family": "custom", "vertices": 3, "edges": [[0, 1], [1, 2]], "root": 1}
    )
    assert enumerate_ball(custom, 1).size == 3


def test_family_oracle_leaves_optional_fields_to_their_constructors():
    ladder, ladder2 = family_oracle({"family": "ladder"}), ladder_oracle(2)
    ball = enumerate_ball(ladder, 3)
    assert ball.size == enumerate_ball(ladder2, 3).size
    assert [ladder.key_of(v) for v in ball.vertices] == [ladder2.key_of(v) for v in ball.vertices]
    custom = family_oracle({"family": "custom", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    assert custom.key_of(0) == 0
    assert enumerate_ball(custom, 1).size == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        # the family key, then an unread field, then each field in the order the family reads them
        ({"family": ["grid"]}, "unknown graph family"),
        ({"family": "custom"}, "custom graph requires an 'edges' list"),
        ({"family": "custom", "vertices": 3, "edges": "x"}, "custom graph requires an 'edges' list"),
        ({"family": "custom", "edges": [[0, 1]]}, "family 'custom' requires field 'vertices'"),
        ({"family": "custom", "edges": [[0, 1]], "root": True}, "family 'custom' requires field 'vertices'"),
        ({"family": "custom", "vertices": 2, "edges": [[0, 1]], "root": True}, "field 'root' must be an integer"),
        ({"family": "custom", "vertices": 2.0, "edges": [[0, 1]], "rot": 1}, "does not read field 'rot'"),
        ({"family": "grid", "dims": 2.0}, "field 'dims' must be an integer"),
        ({"family": "ladder", "width": True}, "field 'width' must be an integer"),
    ],
)
def test_family_oracle_reports_the_first_fault(spec, message):
    with pytest.raises(GraphSpecError, match=re.escape(message)):
        family_oracle(spec)


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "nope"},
        {"family": "grid"},
        {"family": "grid", "dims": "2"},
        {"family": "grid", "dims": True},
        {"family": "custom", "vertices": 3},
        "line",
        {},
        {"family": ["line"]},
    ],
)
def test_family_oracle_rejects_bad_specs(spec):
    with pytest.raises(GraphSpecError):
        family_oracle(spec)


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"family": "ladder", "widht": 3}, "widht"),
        ({"family": "custom", "vertices": 3, "edges": [[0, 1], [1, 2]], "roots": 2}, "roots"),
        ({"family": "line", "dims": 2}, "dims"),
        ({"family": "cycle", "size": 5, "degree": 2}, "degree"),
    ],
)
def test_family_oracle_rejects_fields_its_family_does_not_read(spec, key):
    # a misspelled optional field must not fall back to its default
    with pytest.raises(GraphSpecError, match=repr(key)):
        family_oracle(spec)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: grid_oracle(4),
        lambda: tree_oracle(1),
        lambda: ladder_oracle(0),
        lambda: free_group_oracle(0),
        lambda: free_group_oracle(27),
        lambda: cycle_oracle(2),
        lambda: path_oracle(1),
    ],
)
def test_family_parameter_ranges(factory):
    with pytest.raises(BadFamilyParameter):
        factory()


# --- Record: the read-only value type behind Ball and the solver reports ----


class Pair(Record):
    """Two annotated fields, in order."""

    left: int
    right: str


def test_record_constructs_by_position_or_keyword():
    assert Pair._fields == ("left", "right")
    by_position, by_keyword = Pair(1, "a"), Pair(right="a", left=1)
    assert (by_position.left, by_position.right) == (1, "a")
    assert by_position == by_keyword == Pair(1, right="a")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1,), {}, "missing field 'right'"),
        ((1, "a"), {"middle": 0}, "unknown field 'middle'"),
        ((1, "a"), {"left": 2}, "repeated field 'left'"),
        ((1, "a", 2), {}, "takes 2 fields, 3 given"),
    ],
    ids=["missing", "unknown", "repeated", "too-many"],
)
def test_record_rejects_bad_fields(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_record_equality_hash_and_repr():
    a, b = Pair(1, "a"), Pair(1, "a")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Pair(2, "a") and a != Pair(1, "b")
    assert a.__eq__((1, "a")) is NotImplemented
    assert a != (1, "a")
    assert repr(a) == "Pair(left=1, right='a')"
    ball = enumerate_ball(line_oracle(), 1)
    assert repr(ball) == (
        "Ball(oracle=GraphOracle('line', discovered=5), radius=1, size=3, boundary_saturated=False)"
    )
    assert ball == enumerate_ball(ball.oracle, 1) != enumerate_ball(line_oracle(), 1)


def test_record_is_read_only():
    a = Pair(1, "a")
    with pytest.raises(AttributeError):
        a.left = 2
    with pytest.raises(AttributeError):
        a.extra = 0
    with pytest.raises(AttributeError):
        del a.right
    assert (a.left, a.right) == (1, "a")
    with pytest.raises(AttributeError):
        enumerate_ball(line_oracle(), 0).radius = 1


def test_ball_function_keeps_its_length_check():
    ball = enumerate_ball(line_oracle(), 1)
    assert BallFunction(ball, (Fraction(1),) * 3).values == (1, 1, 1)
    with pytest.raises(DimensionMismatch, match="2 values for a ball of 3 vertices"):
        BallFunction(ball, (Fraction(1),) * 2)
    with pytest.raises(DimensionMismatch):
        BallFunction(ball=ball, values=())


# --- property: arbitrary finite trees --------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12))
def test_random_tree_balls_match_independent_bfs(raw_parents):
    size = len(raw_parents) + 1
    edges = [[i + 1, raw_parents[i] % (i + 1)] for i in range(len(raw_parents))]
    oracle = custom_oracle(size, edges)
    adj = {v: set() for v in range(size)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = bfs_distances(lambda v: sorted(adj[v]), 0, size)
    for n in range(size + 1):
        ball = enumerate_ball(oracle, n)
        expected = sum(1 for d in dist.values() if d <= n)
        assert ball.size == expected
        assert ball.boundary_saturated == (expected == size)
