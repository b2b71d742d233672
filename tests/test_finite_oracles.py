"""Closed forms on random connected finite graphs, with no linear algebra in the reference.

Two classical facts about the operator

    (L f)(v) = (1 + lam(v)) f(v) - (1/deg v) * sum of f over the neighbors of v

give every expected answer here, so this file imports neither the
elimination kernel, nor the back pass, nor the dense oracle; it runs the
command line as a user would.

* With lam = 0, deg(v) (L f)(v) is the combinatorial Laplacian: every
  value of L has sum of deg(v) (L f)(v) = 0 over the graph, and the kernel
  of L is the constants.  A chain run past saturation therefore ends on an
  empty image when the target has sum of deg(v) g(v) != 0, and on an image
  of dimension 1 when that sum is 0; with lam >= 0 and not identically 0,
  L is invertible and the image is a point.  Coherent mode finds a family
  in the last two cases and no element in the first.
* The matrix-tree theorem (Kirchhoff; the all-minors form): with lam = 0,
  the truncation of L to B_n has determinant tau(G_n) / (product of deg(v)
  over B_n).  G_n is B_{n+1} with the sphere S_{n+1} merged into one
  vertex: an edge from B_n to the sphere goes to the merged vertex,
  parallel edges are kept and an edge inside the sphere is dropped.  tau
  counts spanning trees, here by trying every edge subset; a saturated
  ball has no sphere and tau = 0.  On the line it gives
  (2n + 2) / 2^(2n + 1).

The graphs are seeded: a random spanning tree of 2 to 12 vertices plus a few
extra edges, relabelled at random, with a random root.
"""

import json
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

from exactlap.cli import run_cli
from exactlap.flags import EXIT_OK

WEIGHTS = ("zero", "1/2", "distance")


def random_graph(rng, max_vertices, max_edges):
    """``(vertices, edges, root)`` of a connected graph with at most ``max_edges`` edges."""
    n = rng.randint(2, max_vertices)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
    for _ in range(rng.randint(0, max_edges - (n - 1))):
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((i, j))
    label = list(range(n))
    rng.shuffle(label)
    return n, sorted(sorted((label[i], label[j])) for i, j in edges), rng.randrange(n)


def distances(n, edges, root):
    adjacent = [[] for _ in range(n)]
    for i, j in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adjacent[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return [dist[v] for v in range(n)], [len(a) for a in adjacent]


def root_of(parent, v):
    while parent[v] != v:
        v = parent[v]
    return v


def spanning_trees(vertices, edges):
    """Spanning trees of a multigraph: the edge subsets of size vertices - 1 that close no cycle."""
    count = 0
    for subset in combinations(edges, vertices - 1):
        parent = list(range(vertices))
        for i, j in subset:
            ri, rj = root_of(parent, i), root_of(parent, j)
            if ri == rj:
                break
            parent[ri] = rj
        else:
            count += 1
    return count


def report(capsys, argv):
    code = run_cli(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_OK, "")
    return json.loads(out)


def graph_flag(n, edges, root):
    return json.dumps({"family": "custom", "vertices": n, "edges": edges, "root": root})


def chain_case(rng):
    """A graph, its flags for a chain run past saturation, and the expected image dimension."""
    n, edges, root = random_graph(rng, 12, 16)
    dist, deg = distances(n, edges, root)
    depth = max(dist)  # B_depth is the whole graph
    # radial coefficients, and the weighted sum of the target over each sphere
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(depth + 1)]
    shell = [sum(deg[v] for v in range(n) if dist[v] == d) for d in range(depth + 1)]
    if rng.random() < 0.5:  # balance the target
        coeffs[0] = -sum(c * s for c, s in zip(coeffs[1:], shell[1:])) / shell[0]
    weight = rng.choice(WEIGHTS)
    if weight != "zero":
        dim = 0
    else:
        dim = 1 if sum(c * s for c, s in zip(coeffs, shell)) == 0 else None
    level = rng.randint(0, depth)
    flags = ["--graph", graph_flag(n, edges, root), "--radius", str(level), "--max-m", str(depth + 3),
             "--target", "radial:" + ",".join(map(str, coeffs)), "--lambda", weight]
    return flags, dim


def test_saturated_chains_end_on_the_range_of_the_laplacian(capsys):
    rng = random.Random("chain")
    for _ in range(60):
        flags, dim = chain_case(rng)
        got = report(capsys, ["--mode", "chain", *flags])
        assert got["status"] == "stabilized", flags
        assert got["images"][-1]["dim"] == dim, flags
        assert got.get("universal_set_empty", False) == (dim is None), flags


def test_coherent_mode_finds_a_family_exactly_when_the_target_is_in_the_range(capsys):
    rng = random.Random("coherent")
    for _ in range(60):
        flags, dim = chain_case(rng)
        got = report(capsys, ["--mode", "coherent", *flags])
        if dim is None:
            assert got["status"] == "no_universal_element", flags
            assert got["unsolvable_expected_finite"] is True, flags
        else:
            assert (got["status"], got["residual_zero"]) == ("ok", True), flags


def certified_determinant(capsys, graph, radius):
    got = report(capsys, ["--mode", "certify", "--graph", graph, "--radius", str(radius), "--lambda", "zero"])
    return Fraction(got["determinant"])


def test_certify_counts_spanning_trees_of_the_merged_ball(capsys):
    rng = random.Random("matrix-tree")
    for _ in range(150):
        n, edges, root = random_graph(rng, 9, 12)
        dist, deg = distances(n, edges, root)
        radius = rng.randint(0, 3)
        inside = sorted(v for v in range(n) if dist[v] <= radius)
        merged = len(inside)  # the id of the merged sphere
        index = {v: i for i, v in enumerate(inside)}
        ball_edges = [(index.get(i, merged), index.get(j, merged)) for i, j in edges
                      if dist[i] <= radius or dist[j] <= radius]
        saturated = max(dist) <= radius
        tau = 0 if saturated else spanning_trees(merged + 1, ball_edges)
        denominator = 1
        for v in inside:
            denominator *= deg[v]
        want = Fraction(tau, denominator)
        assert certified_determinant(capsys, graph_flag(n, edges, root), radius) == want, (n, edges, root, radius)


@pytest.mark.parametrize("radius", range(6))
def test_certify_on_the_line_is_2n_plus_2_over_2_to_the_2n_plus_1(capsys, radius):
    assert certified_determinant(capsys, "z", radius) == Fraction(2 * radius + 2, 2 ** (2 * radius + 1))
