"""Ball solves on regular trees against a closed-form radial oracle.

On a D-regular tree (the line is D = 2, ``treeD`` is D and ``freeR`` is the
2R-regular tree), a radial target g and a radial weight lambda have a
radial ball solution, because the root's stabilizer is transitive on each
sphere.  Its values a_d at distance d satisfy

    (1 + lambda_0) a_0 - a_1 = g_0,
    (1 + lambda_d) a_d - (a_{d-1} + (D - 1) a_{d+1}) / D = g_d   (0 < d <= n),

with a_{n+1} = 0.  `radial_ball_solution` solves that tridiagonal system
exactly with the Thomas recurrence over `Fraction`s, sharing no code with
the package's elimination kernel, so it checks `solve_on_ball` at radii the
dense oracle cannot reach.
"""

from fractions import Fraction

import pytest

from exactlap.direct import solve_on_ball
from exactlap.functions import TargetFunction
from exactlap.graphs import free_group_oracle, line_oracle, tree_oracle
from exactlap.operators import LambdaField


def radial_ball_solution(degree, n, g, lam):
    """Values a_0..a_n of the radial solution on B_n; ``g`` and ``lam`` map distance -> Fraction."""
    down = Fraction(-1, degree)  # the coefficient of a_{d-1}
    upper, rhs = [], []  # after the forward sweep, a_d = rhs[d] - upper[d] * a_{d+1}
    for d in range(n + 1):
        up = Fraction(-1) if d == 0 else Fraction(1 - degree, degree)
        diag, value = 1 + lam(d), g(d)
        if d:
            diag -= down * upper[-1]
            value -= down * rhs[-1]
        upper.append(up / diag)
        rhs.append(value / diag)
    a = [Fraction(0)]  # a_{n+1}, then a_n down to a_0
    for d in range(n, -1, -1):
        a.append(rhs[d] - upper[d] * a[-1])
    return a[:0:-1]


def test_closed_form_on_the_line_by_hand():
    # n = 1, zero weight, delta target: a0 - a1 = 1 and a1 - a0/2 = 0
    assert radial_ball_solution(2, 1, lambda d: Fraction(d == 0), lambda d: Fraction(0)) == [2, 1]


FAMILIES = {
    # name: (oracle, degree, radii)
    "z": (line_oracle, 2, [0, 1, 2, 7, 60, 300]),
    "tree3": (lambda: tree_oracle(3), 3, range(9)),
    "free2": (lambda: free_group_oracle(2), 4, range(6)),
}

WEIGHTS = {
    "zero": (LambdaField.zero, lambda d: Fraction(0)),
    "constant": (lambda: LambdaField.constant(Fraction(3, 2)), lambda d: Fraction(3, 2)),
    "distance": (LambdaField.distance, Fraction),
}

COEFFS = (Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3))


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ball_solution_matches_the_radial_closed_form(family, weight):
    make, degree, radii = FAMILIES[family]
    lam_field, lam = WEIGHTS[weight]
    oracle = make()
    target = TargetFunction.radial(COEFFS)
    for n in radii:
        report = solve_on_ball(oracle, target, n, lam_field())
        want = radial_ball_solution(degree, n, lambda d: COEFFS[d] if d < len(COEFFS) else Fraction(0), lam)
        assert report.residual_ok
        assert report.solution.values == tuple(want[oracle.distance(v)] for v in report.solution.ball.vertices)
