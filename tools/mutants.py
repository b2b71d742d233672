"""Mutation check: each listed defect, put into a copy of the package, must fail its tests.

Each entry names a module of ``src/exactlap``, an exact text in it, the
text that replaces it, and the test node ids that must then fail.  For each
entry the tool copies ``src/`` to a temporary directory and makes the
replacement there; an entry whose module is missing, or whose old text
does not occur exactly once, does not apply.  It then runs only the named tests, with ``PYTHONPATH``
naming the copy, for at most `TIMEOUT_S` seconds.  The mutant is killed
when pytest reports a failed test (exit code 1); a pass, a usage error (a
test id that is gone), a collection error or a run that overruns the limit
counts against it, since a defect that the tests notice only by hanging
has not been noticed.  Nothing under ``src/`` is written.

    python tools/mutants.py

Runs `WORKERS` mutants at a time, and prints one line per mutant, in list
order as the results arrive, then the kill count; exits 1 when a mutant
survives or does not apply.  A surviving mutant marks a test still to
write, not an entry to drop.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

KERNEL_TESTS = "tests/test_kernel_oracle.py::"
OPERATOR_TESTS = "tests/test_operators.py::"

# wall-clock limit of one mutant's pytest run; the slowest kill takes a few seconds
TIMEOUT_S = 300
# pytest children at a time, one per core of a 2-core box
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/exactlap
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "row operation keeps the content", "kernel.py",
        "    g = math.gcd(*r.values()) or 1\n    if g > 1:\n        for j in r:\n            r[j] //= g\n",
        "    g = math.gcd(*r.values()) or 1\n",
        (KERNEL_TESTS + "test_the_row_operation_clears_its_column_and_keeps_the_row_primitive",),
    ),
    Mutant(
        "row operation leaves a gained column unreported", "kernel.py",
        "            if j not in r:\n                gained.append(j)\n",
        "",
        (KERNEL_TESTS + "test_the_row_operation_clears_its_column_and_keeps_the_row_primitive",),
    ),
    Mutant(
        "kernel writes the right-hand side into the caller's row", "kernel.py",
        "            r = {**r, ncols: Fraction(rhs[i])}\n",
        "            r[ncols] = Fraction(rhs[i])\n",
        (KERNEL_TESTS + "test_solution_image_leaves_its_inputs_as_they_were",),
    ),
    Mutant(
        "apply_laplacian takes a function on another graph", "operators.py",
        "    if f.ball.oracle is not oracle:\n",
        "    if False:\n",
        (OPERATOR_TESTS + "test_apply_laplacian_rejects_a_function_on_another_graph",),
    ),
    Mutant(
        "restrict takes a ball of another graph", "functions.py",
        "        if smaller.oracle is not self.ball.oracle:\n",
        "        if False:\n",
        (OPERATOR_TESTS + "test_restrict_rejects_a_ball_of_another_graph",),
    ),
    Mutant(
        "extend_zero takes a ball of another graph", "functions.py",
        "        if larger.oracle is not self.ball.oracle:\n",
        "        if False:\n",
        (OPERATOR_TESTS + "test_extend_zero_rejects_a_ball_of_another_graph",),
    ),
    Mutant(
        "custom graph takes a root outside it", "finite.py",
        "    if not 0 <= root < vertices:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_a_custom_root_outside_the_graph_exits_3",),
    ),
    Mutant(
        "custom graph takes a repeated edge", "finite.py",
        "        if j in adj[i]:\n",
        "        if False:\n",
        ("tests/test_graphs.py::test_custom_names_a_repeated_edge",),
    ),
    Mutant(
        "chain misses an image that changed without losing dimension", "chain.py",
        "            if not img.is_empty and (prev.is_empty or img.dim >= prev.dim):\n",
        "            if False:\n",
        ("tests/test_cli.py::test_chain_reports_an_image_that_changed_without_losing_dimension",),
    ),
    Mutant(
        "subspace takes a point of the wrong length", "subspace.py",
        "        if len(point) != ambient_dim:\n",
        "        if False:\n",
        ("tests/test_linalg.py::test_subspace_rejects_a_point_or_spanning_vector_of_the_wrong_length",),
    ),
    Mutant(
        "subspace takes a spanning vector of the wrong length", "subspace.py",
        "        if any(len(v) != ambient_dim for v in span):\n",
        "        if False:\n",
        ("tests/test_linalg.py::test_subspace_rejects_a_point_or_spanning_vector_of_the_wrong_length",),
    ),
    Mutant(
        "chain misses an image outside the previous one", "chain.py",
        "            if not affine_subset(img, prev):\n",
        "            if False:\n",
        ("tests/test_solver.py::test_a_changed_image_outside_the_previous_one_is_a_violation",),
    ),
    Mutant(
        "finite chain stabilizes before its ball saturates", "chain.py",
        "        if run_length >= window - 1 and (ball.boundary_saturated or not oracle.finite):\n",
        "        if run_length >= window - 1:\n",
        (
            "tests/test_solver.py::test_finite_chains_report_the_image_at_the_saturated_depth",
            "tests/test_cli.py::test_finite_chain_stabilizes_only_once_the_graph_is_saturated",
        ),
    ),
    Mutant(
        "solver imports the command line", "solver.py",
        "    return CoherentResult(levels=tuple(levels), report=report)\n",
        # at the end, where the cycle back through exactlap.reports finds every name
        "    return CoherentResult(levels=tuple(levels), report=report)\n\n\nimport exactlap.cli  # noqa\n",
        ("tests/test_cli.py::test_module_entry_point_runs_in_a_subprocess",),
    ),
    Mutant(
        "the tracer's image_under_map is renamed", "linalg.py",
        "def image_under_map(",
        "def image_of_map(",
        ("tests/test_bench_bindings.py::test_every_name_the_tracer_binds_resolves_and_is_restored",),
    ),
    Mutant(
        "image_under_map takes a map of another dimension", "linalg.py",
        "    if m.cols != s.ambient_dim:\n",
        "    if False:\n",
        ("tests/test_linalg.py::test_image_under_map",),
    ),
    Mutant(
        "vertex budget is checked after the neighbor list is built", "oracle.py",
        "        for nb_key in self._raw(self._keys[i]):\n",
        "        for nb_key in list(self._raw(self._keys[i])):\n",
        ("tests/test_graphs.py::test_an_expansion_stops_reading_neighbors_at_the_budget",),
    ),
    Mutant(
        "vertex budget is never enforced", "oracle.py",
        "                    raise VertexBudgetExceeded(VERTEX_BUDGET, self.name)\n",
        "                    pass\n",
        (
            "tests/test_graphs.py::test_vertex_budget_leaves_the_oracle_usable",
            "tests/test_graphs.py::test_one_expansion_over_budget_records_none_of_its_vertices",
        ),
    ),
    Mutant(
        "pivot length counts the right-hand side", "kernel.py",
        "key=lambda i: (len(rows[i]) - (ncols in rows[i]), i)",
        "key=lambda i: (len(rows[i]), i)",
        (KERNEL_TESTS + "test_trees_eliminate_without_fill",),
    ),
    Mutant(
        "_tail is off by one", "direct.py",
        "    return Fraction(1, 2 ** (n + 1))\n",
        "    return Fraction(1, 2 ** n)\n",
        ("tests/test_solver.py::test_metric_agreement_within_depth_bounds_tail",),
    ),
    Mutant(
        "the hand-written negative-number rule is back", "flags.py",
        '    if re.match(r"^-\\d+$|^-\\d*\\.\\d+$", token) or " " in token:\n',
        '    whole, dot, frac = token[1:].partition(".")\n'
        '    number = (whole == "" or whole.isdecimal()) and frac.isdecimal() if dot else whole.isdecimal()\n'
        '    if number or " " in token:\n',
        ("tests/test_cli.py::test_a_negative_number_ending_in_a_newline_is_a_value_as_in_argparse",),
    ),
    Mutant(
        "a reported solve skips its re-check", "direct.py",
        "        residual_ok=solves(oracle, solution.extend_zero(outer), target, lam),\n",
        "        residual_ok=True,\n",
        (
            "tests/test_solver.py::test_a_corrupted_ball_solve_fails_the_re_check",
            "tests/test_cli.py::test_ball_solve_that_fails_the_re_check_is_an_anomaly",
        ),
    ),
    Mutant(
        "a shorthand's digits may be any Unicode digit", "specs.py",
        '    prefix = s.rstrip("0123456789")\n',
        '    prefix = s.rstrip("".join(c for c in s if c.isdigit()))\n',
        ("tests/test_cli.py::test_graph_shorthand_edges",),
    ),
    Mutant(
        "bare ladder takes another width", "specs.py",
        '    "ladder": {"family": "ladder", "width": 2},\n',
        '    "ladder": {"family": "ladder", "width": 3},\n',
        ("tests/test_cli.py::test_graph_shorthands",),
    ),
    Mutant(
        "a repeated JSON key keeps its last value", "specs.py",
        "            if key in seen:\n",
        "            if False:\n",
        ("tests/test_cli.py::test_a_json_object_that_repeats_a_key_exits_3",),
    ),
    Mutant(
        "solution values write whole numbers as p/1", "wire.py",
        "    return {label: str(x) for label, x in fn.label_items()}\n",
        '    return {label: f"{x.numerator}/{x.denominator}" for label, x in fn.label_items()}\n',
        ("tests/test_cli.py::test_solution_json_writes_the_compact_integer_form",),
    ),
    Mutant(
        "a report's mode key comes last", "cli.py",
        '        text = dump_report({"mode": args.mode, **report})\n',
        '        text = dump_report({**report, "mode": args.mode})\n',
        ("tests/test_cli.py::test_metric_solves_each_distinct_radius_once",),
    ),
    Mutant(
        "spec JSON is parsed without the repeated-key hook", "specs.py",
        "        obj = json.loads(text, object_pairs_hook=unique_keys)\n",
        "        obj = json.loads(text)\n",
        ("tests/test_cli.py::test_a_json_object_that_repeats_a_key_exits_3",),
    ),
    Mutant(
        "enumerate_ball stops one distance short", "oracle.py",
        "    while len(oracle._adj) < len(oracle._keys) and oracle._dist[len(oracle._adj)] <= n:\n",
        "    while len(oracle._adj) < len(oracle._keys) and oracle._dist[len(oracle._adj)] < n:\n",
        ("tests/test_cli.py::test_finite_chain_stabilizes_only_once_the_graph_is_saturated",),
    ),
    Mutant(
        "image equality ignores the right-hand side", "subspace.py",
        "        return self.ambient_dim, self.rows\n",
        "        return self.ambient_dim, self.rows and tuple(row[:2] + row[3:] for row in self.rows)\n",
        (KERNEL_TESTS + "test_sets_that_differ_only_in_their_right_hand_sides_are_unequal",),
    ),
    Mutant(
        "read-off keeps a negative pivot row", "readoff.py",
        "        if q < 0:\n",
        "        if False:\n",
        (
            KERNEL_TESTS + "test_a_negative_pivot_is_stored_as_the_positive_row",
            KERNEL_TESTS + "test_the_back_pass_leaves_primitive_rows_with_positive_pivots",
        ),
    ),
    Mutant(
        "determinant drops the permutation sign", "linalg.py",
        "            top = -top\n",
        "            pass\n",
        ("tests/test_finite_oracles.py::test_certify_counts_spanning_trees_of_the_merged_ball",),
    ),
)


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``not applied``, ``timed out``, or ``pytest exit N`` otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "exactlap" / mutant.module
        text = path.read_text(encoding="utf-8") if path.is_file() else ""
        if text.count(mutant.old) != 1:
            return "not applied"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # the copy comes first, so it shadows any other exactlap on the path
        path_var = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path_var, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timed out"
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")


def main() -> int:
    killed = 0
    # the children run WORKERS at a time; map hands their outcomes back in list order
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for mutant, outcome in zip(MUTANTS, pool.map(run, MUTANTS)):
            killed += outcome == "killed"
            print(f"{outcome:12s} {mutant.module:13s} {mutant.name}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
