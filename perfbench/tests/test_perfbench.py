"""Self-tests of the benchmark: inputs, the correctness gate, tracing, spawning.

Run with ``python -m pytest -q perfbench/tests`` from the repository root.
"""

import contextlib
import io
import json

import pytest

import exactlap.cli
import exactlap.linalg
import exactlap.solver
import layers
import run
import verify
import workloads
from exactlap.graphs import enumerate_ball
from exactlap.serialize import dump_report, graph_from_text, parse_fraction


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = exactlap.cli.run_cli(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)


@pytest.mark.parametrize("name", ["ball", "chain", "small"])
def test_other_seed_changes_targets(name):
    def targets(seed):
        return [r.flags().get("--target") for r in workloads.build(name, seed)]

    a, b = targets(1), targets(2)
    assert len(a) == len(b) and a != b


def test_other_seed_changes_certify_weights():
    def weights(seed):
        return [r.flags()["--lambda"] for r in workloads.build("certify", seed)]

    assert weights(1) != weights(2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ball_size_and_saturation_formulas(name):
    for req in workloads.build(name, 0):
        flags = req.flags()
        graph, radius = flags.get("--graph"), flags.get("--radius")
        if graph is None or radius is None or graph.startswith("{") or graph == "tree1":
            continue
        try:
            expected = workloads.ball_size(graph, int(radius))
        except ValueError:
            continue
        ball = enumerate_ball(graph_from_text(graph), int(radius))
        assert ball.size == expected, graph
        assert ball.boundary_saturated == workloads.saturated(graph, int(radius)), graph


def test_digest_table_matches_request_lists():
    table = json.loads(run.DIGESTS.read_text())
    for name in workloads.WORKLOADS:
        requests = workloads.build(name, workloads.DEFAULT_SEED)
        assert table[name]["requests_sha256"] == run.requests_sha256(requests)
        assert len(table[name]["stdout_sha256"]) == len(requests)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# --- the correctness gate ---------------------------------------------------

BALL = workloads.Request(("--mode", "ball", "--graph", "z2", "--radius", "2", "--target",
                          '{"kind":"sparse","entries":{"3":"2/3","7":"-5"}}', "--lambda", "1/2"))


def _bump_first(values: dict) -> None:
    """Add one to the first value of a label -> rational map, in place."""
    label = next(iter(values))
    values[label] = str(parse_fraction(values[label]) + 1)


def test_gate_accepts_the_real_ball_report():
    code, out = cli(BALL.argv)
    assert verify.check(BALL, code, out) is None
    assert verify.check(BALL, code, out, verify.sha256(out)) is None


def test_gate_rejects_a_flipped_solution_value():
    code, out = cli(BALL.argv)
    report = json.loads(out)
    _bump_first(report["solution"])
    reason = verify.check(BALL, code, dump_report(report).encode())
    assert reason is not None and "misses the target" in reason


def test_gate_rejects_a_wrong_exit_code():
    code, out = cli(BALL.argv)
    assert verify.check(BALL, 2, out) is not None
    bad = workloads.Request(("--mode", "ball", "--graph", "z"), code=workloads.EXIT_USAGE, status=None)
    assert verify.check(bad, *cli(bad.argv)) is None
    assert verify.check(bad, workloads.EXIT_INVALID, b"") is not None


def test_gate_rejects_a_digest_mismatch_and_a_false_residual_flag():
    code, out = cli(BALL.argv)
    assert verify.check(BALL, code, out, verify.sha256(b"other")) is not None
    report = json.loads(out)
    report["residual_zero"] = False
    assert verify.check(BALL, code, json.dumps(report).encode()) is not None


def test_gate_rejects_a_flipped_coherent_level():
    req = workloads.Request(("--mode", "coherent", "--graph", "z", "--radius", "1",
                             "--target", "radial:1,-2", "--lambda", "zero"))
    code, out = cli(req.argv)
    assert verify.check(req, code, out) is None
    report = json.loads(out)
    _bump_first(report["family"][0]["solution"])
    assert verify.check(req, code, json.dumps(report).encode()) is not None


def test_gate_rejects_a_nonzero_determinant_on_a_saturated_graph():
    req = workloads.Request(("--mode", "certify", "--graph", "c5", "--radius", "2",
                             "--lambda", "zero"), saturated=True)
    code, out = cli(req.argv)
    assert verify.check(req, code, out) is None
    report = json.loads(out)
    report["determinant"] = "1"
    assert verify.check(req, code, json.dumps(report).encode()) is not None


# --- tracing ------------------------------------------------------------------

def test_self_times_are_exact_on_a_nested_tree():
    S = layers.Span
    spans = [
        S("cli.run", 0, 100, None, 1),
        S("solver.ball", 10, 80, 0, 1),
        S("linalg.solve", 20, 50, 1, 1),
        S("linalg.canonicalize", 30, 45, 2, 1),
        S("operators.residual", 60, 70, 1, 1),
        S("serialize.emit", 85, 95, 0, 1),
    ]
    assert layers.self_times(spans) == [20, 30, 15, 15, 10, 10]
    assert layers.accounting_error(spans, 100) is None
    assert layers.accounting_error(spans, 99) is not None


def test_tracer_patches_every_binding_and_restores_them():
    originals = (exactlap.linalg.determinant, exactlap.solver.determinant,
                 exactlap.linalg.AffineSubspace.__init__)
    assert originals[0] is originals[1]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert exactlap.solver.determinant.__wrapped__ is originals[0]
        assert exactlap.linalg.determinant is exactlap.solver.determinant
        assert exactlap.cli.solve_on_ball is exactlap.solver.solve_on_ball
        tracer.request = 1
        assert cli(BALL.argv)[0] == 0
        assert cli(("--mode", "certify", "--graph", "z", "--radius", "3"))[0] == 0
    finally:
        tracer.restore()
    assert (exactlap.linalg.determinant, exactlap.solver.determinant,
            exactlap.linalg.AffineSubspace.__init__) == originals
    assert not hasattr(exactlap.cli.solve_on_ball, "__wrapped__")
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "solver.ball", "linalg.solve", "linalg.canonicalize", "linalg.determinant",
            "operators.assemble", "operators.residual", "graphs.enumerate_ball", "graphs.expand",
            "serialize.parse", "serialize.emit"} <= names
    wall = max(s.end for s in tracer.spans) - min(s.start for s in tracer.spans)
    assert layers.accounting_error(tracer.spans, wall) is None
    metrics = layers.layer_metrics(tracer.spans, tracer.counters, 1, wall, wall)
    assert metrics["linalg.determinant.calls"] == 1
    assert metrics["operators.assemble.cells"] == 13 * 13 + 7 * 7
    assert sum(metrics[f"{k}.share"] for k in layers.LAYERS) + metrics["trace.unattributed_share"] \
        == pytest.approx(1)


# --- spawning -----------------------------------------------------------------

def test_spawner_reports_each_child_and_kills_on_timeout():
    with run.Spawner(run.child_env()) as sp:
        c = sp.run(run.cli_argv(workloads.NO_WORK))
        assert c.code == 0 and not c.timed_out and c.wall > 0 and c.maxrss_kb > 0
        assert verify.check(workloads.Request(workloads.NO_WORK), c.code, c.stdout) is None
        c = sp.run(["-c", "import time; time.sleep(30)"], timeout=0.5)
        assert c.timed_out and c.code < 0 and c.wall < 10
        assert sp.run(["-c", "import sys; sys.exit(5)"]).code == 5
    assert sp.proc.returncode == 0
