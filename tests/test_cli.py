"""Command-line interface: reports, exit codes, determinism, wire formats."""

import contextlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dense_oracle import full_space
from exactlap.chain import ChainState
from exactlap.cli import run_cli
from exactlap.direct import Certificate, solve_on_ball
from exactlap.errors import SingularSystem, SpecFormatError
from exactlap.flags import (
    EXIT_ANOMALY,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_OVER_BUDGET,
    EXIT_USAGE,
    EXIT_WINDOW_EXCEEDED,
    MODES,
    SCHEMA_HELP,
)
from exactlap.functions import BallFunction, TargetFunction
from exactlap.graphs import _FAMILIES, enumerate_ball, grid_oracle
from exactlap.linalg import AffineSubspace
from exactlap.operators import LambdaField
from exactlap.serialize import _TARGETS, _WEIGHTS, lambda_from_json, target_from_json
from exactlap.specs import graph_spec_from_text
from exactlap.wire import ball_function_from_json, parse_fraction, solution_to_json

import exactlap.chain as chain_module
import exactlap.cli as cli_module
import exactlap.direct as direct_module
import exactlap.fixtures as fixtures_module
import exactlap.reports as reports_module
import exactlap.solver as solver_module


def invoke(capsys, argv):
    code = run_cli(argv)
    out, err = capsys.readouterr()
    return code, out, err


# --- rational wire format ---------------------------------------------------


def test_parse_fraction_accepts_exact_forms():
    assert parse_fraction("3") == 3
    assert parse_fraction("-4/6") == Fraction(-2, 3)
    assert parse_fraction(" 3/4 ") == Fraction(3, 4)
    assert parse_fraction(7) == 7
    assert parse_fraction("-0") == 0


@pytest.mark.parametrize("bad", ["2/0", "1.5", "a/b", "", "1/2/3", 1.5, True, None, [1], "\uff11", "1/\u0663"])
def test_parse_fraction_rejects_inexact_or_malformed(bad):
    with pytest.raises(SpecFormatError):
        parse_fraction(bad)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_fraction_round_trip_is_exact(num, den):
    x = Fraction(num, den)
    assert parse_fraction(str(x)) == x


def test_solution_json_writes_the_compact_integer_form():
    ball = enumerate_ball(grid_oracle(2), 1)
    fn = BallFunction(ball, (Fraction(4, 2), Fraction(-1, 3)) + (Fraction(0),) * 3)
    assert list(solution_to_json(fn).items()) == [
        ("(0,0)", "2"), ("(-1,0)", "-1/3"), ("(1,0)", "0"), ("(0,-1)", "0"), ("(0,1)", "0"),
    ]


# --- graph shorthand parsing ------------------------------------------------


def test_graph_shorthands():
    assert graph_spec_from_text("z") == {"family": "line"}
    assert graph_spec_from_text("z2") == {"family": "grid", "dims": 2}
    assert graph_spec_from_text("z3") == {"family": "grid", "dims": 3}
    assert graph_spec_from_text("tree4") == {"family": "tree", "degree": 4}
    assert graph_spec_from_text("ladder") == {"family": "ladder", "width": 2}
    assert graph_spec_from_text("ladder3") == {"family": "ladder", "width": 3}
    assert graph_spec_from_text("free2") == {"family": "free_group", "rank": 2}
    assert graph_spec_from_text("c7") == {"family": "cycle", "size": 7}
    assert graph_spec_from_text("p4") == {"family": "path", "size": 4}


def test_graph_shorthand_edges(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no file here can shadow a spec
    assert graph_spec_from_text("tree03") == {"family": "tree", "degree": 3}
    assert graph_spec_from_text("c05") == {"family": "cycle", "size": 5}
    assert graph_spec_from_text("ladder0") == {"family": "ladder", "width": 0}
    assert graph_spec_from_text(" p4\n") == {"family": "path", "size": 4}
    for text in ("z4", "z0", "tree", "c", "C5", "c5x", "c-5", "c+5", "c\u0665", "tree\uff13", "ladder 3"):
        message = f"unrecognized graph spec {text!r}: not a shorthand, inline JSON, or existing file"
        with pytest.raises(SpecFormatError) as info:
            graph_spec_from_text(text)
        assert str(info.value) == message
    with pytest.raises(SpecFormatError, match="^integer literal of 5000 characters is too long$"):
        graph_spec_from_text("c" + "9" * 5000)


def test_graph_inline_json_and_file(tmp_path):
    inline = graph_spec_from_text('{"family": "cycle", "size": 5}')
    assert inline == {"family": "cycle", "size": 5}
    path = tmp_path / "g.json"
    path.write_text('{"family": "path", "size": 3}')
    assert graph_spec_from_text(str(path)) == {"family": "path", "size": 3}
    with pytest.raises(SpecFormatError):
        graph_spec_from_text("definitely_not_a_graph")
    with pytest.raises(SpecFormatError):
        graph_spec_from_text("{not json")


def test_solution_reconstruction_from_labels():
    oracle = grid_oracle(2)
    ball = enumerate_ball(oracle, 1)
    rep = solve_on_ball(oracle, TargetFunction.delta(), 1, LambdaField.zero())
    payload = {label: str(x) for label, x in rep.solution.label_items()}
    rebuilt = ball_function_from_json(ball, payload)
    assert rebuilt.values == rep.solution.values
    with pytest.raises(SpecFormatError):
        ball_function_from_json(ball, dict(list(payload.items())[:-1]))
    with pytest.raises(SpecFormatError):
        ball_function_from_json(ball, {**payload, "(9,9)": "1"})


# --- ball mode --------------------------------------------------------------


def test_ball_mode_known_report(capsys):
    code, out, err = invoke(
        capsys, ["--graph", "z", "--target", "delta", "--mode", "ball", "--radius", "1"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["solution"] == {"0": "2", "-1": "1", "1": "1"}
    assert report["residual_zero"] is True
    assert report["construction"] == "ball"
    assert report["metric_bound"] == "1/4"


def test_ball_report_round_trips_to_exact_values(capsys):
    argv = [
        "--graph", "z2", "--target", "radial:1,1/2", "--mode", "ball", "--radius", "2",
        "--lambda", "distance",
    ]
    code, out, _ = invoke(capsys, argv)
    assert code == EXIT_OK
    report = json.loads(out)
    oracle = grid_oracle(2)
    rep = solve_on_ball(
        oracle, TargetFunction.radial([1, Fraction(1, 2)]), 2, LambdaField.distance()
    )
    expected = {label: str(x) for label, x in rep.solution.label_items()}
    assert report["solution"] == expected
    parsed = {k: parse_fraction(v) for k, v in report["solution"].items()}
    assert parsed == dict(rep.solution.label_items())


def test_saturated_finite_graph_reports_expected_singular(capsys):
    code, out, _ = invoke(
        capsys, ["--graph", "c4", "--target", "delta", "--mode", "ball", "--radius", "3"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "singular"
    assert report["singular_expected_finite"] is True


def test_unexpected_singular_is_an_anomaly(capsys, monkeypatch, tmp_path):
    def explode(*args, **kwargs):
        raise SingularSystem("forced", radius=1, boundary_saturated=False)

    monkeypatch.setattr(reports_module, "solve_on_ball", explode)
    out_file = tmp_path / "report.json"
    code, out, err = invoke(
        capsys,
        ["--graph", "z", "--target", "delta", "--mode", "ball", "--radius", "1", "--out", str(out_file)],
    )
    assert code == EXIT_ANOMALY
    assert json.loads(out)["singular_expected_finite"] is False
    assert "anomaly" in err
    assert err == "anomaly: forced\n"
    assert out_file.read_text(encoding="utf-8") == out


# --- certify mode -----------------------------------------------------------


def test_certify_mode_reports_exact_determinant(capsys):
    code, out, _ = invoke(capsys, ["--graph", "z", "--mode", "certify", "--radius", "1"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["strict_inclusion"] is True
    assert parse_fraction(report["determinant"]) == Fraction(1, 2)
    assert report["passes"] is True


def test_certify_failure_is_an_anomaly(capsys, monkeypatch):
    bad = Certificate(strict_inclusion=True, determinant=Fraction(0), passes=False)
    monkeypatch.setattr(reports_module, "max_principle_certificate", lambda *a, **k: bad)
    code, out, _ = invoke(capsys, ["--graph", "z", "--mode", "certify", "--radius", "1"])
    assert code == EXIT_ANOMALY
    assert json.loads(out)["status"] == "anomaly"


# --- chain and coherent modes ----------------------------------------------


def test_chain_mode_reports_stabilization(capsys):
    code, out, _ = invoke(
        capsys,
        ["--graph", "z", "--mode", "chain", "--radius", "1", "--max-m", "6"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "stabilized"
    assert report["stabilized_at"] == 1
    assert [img["dim"] for img in report["images"]] == [2, 2, 2]
    assert "universal_element" in report


def test_chain_residual_recheck_rejects_a_corrupted_image(capsys, monkeypatch):
    """Every image shifted by the root's indicator still nests and stabilizes,
    but no point of it solves the target at the root, so the re-check fails."""
    real = chain_module.solution_image

    def shifted(a, b, k):
        img = real(a, b, k)
        point = (img.particular[0] + 1,) + img.particular[1:]
        return AffineSubspace(k, point, img.basis)

    monkeypatch.setattr(chain_module, "solution_image", shifted)
    code, out, err = invoke(
        capsys,
        ["--graph", "z", "--mode", "chain", "--radius", "1", "--max-m", "6"],
    )
    assert code == EXIT_ANOMALY
    assert out == ""
    assert "misses the target" in err


def corrupt_ball_solves(monkeypatch, size=None):
    """Each square solve (of ``size`` unknowns only, if given) off by one at the root."""
    real = direct_module.solve_exact

    def corrupted(matrix, rhs):
        point = real(matrix, rhs).particular
        if size is None or len(point) == size:
            point = (point[0] + 1,) + point[1:]
        return AffineSubspace(len(point), point)

    monkeypatch.setattr(direct_module, "solve_exact", corrupted)


def test_ball_solve_that_fails_the_re_check_is_an_anomaly(capsys, monkeypatch):
    corrupt_ball_solves(monkeypatch)
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "ball", "--radius", "2"])
    assert code == EXIT_ANOMALY
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["residual_zero"] is False
    assert report["solution"]["0"] == "4"  # the root's value 3, off by one
    assert err == ""


def test_coherent_top_level_that_fails_the_re_check_is_an_anomaly(capsys, monkeypatch):
    """The top level is changed at the root after its lift, past every chain's own re-check."""
    real = solver_module._lift

    def corrupted(chain, prefix):
        lifted = real(chain, prefix)
        if chain.level < 2:
            return lifted
        return BallFunction(lifted.ball, (lifted.values[0] + 1,) + lifted.values[1:])

    monkeypatch.setattr(solver_module, "_lift", corrupted)
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "coherent", "--radius", "2"])
    assert code == EXIT_ANOMALY
    report = json.loads(out)
    assert report["residual_zero"] is False
    assert report["solution"] == report["family"][-1]["solution"]
    assert err == ""


def test_coherent_lift_failure_is_an_anomaly(capsys, monkeypatch):
    """A stabilized image from level 1 on replaced by a single point off by one
    at the root: no member extends the level below, so the lift must refuse."""
    real = solver_module.run_chain

    def shifted(oracle, target, n, max_m, window, lam):
        state = real(oracle, target, n, max_m, window, lam)
        if n < 1:
            return state
        m, img = state.images[-1]
        point = AffineSubspace(len(img.particular), (img.particular[0] + 1,) + img.particular[1:])
        return ChainState(
            level=state.level,
            max_m=state.max_m,
            window=state.window,
            ball=state.ball,
            images=state.images[:-1] + ((m, point),),
            stabilized_at=state.stabilized_at,
        )

    monkeypatch.setattr(solver_module, "run_chain", shifted)
    code, out, err = invoke(capsys, ["--mode", "coherent", "--graph", "z", "--radius", "1"])
    assert code == EXIT_ANOMALY
    assert out == ""
    assert err.strip() == "anomaly: no element of the stabilized image at level 1 extends level 0"


def test_chain_window_exceeded_is_a_valid_observation(capsys):
    code, out, _ = invoke(
        capsys,
        ["--graph", "z", "--mode", "chain", "--radius", "0", "--max-m", "1"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "window_exceeded"
    assert report["stabilized_at"] is None


def test_chain_on_unsolvable_finite_graph_flags_empty_set(capsys):
    code, out, _ = invoke(
        capsys,
        ["--graph", "c4", "--mode", "chain", "--radius", "0", "--max-m", "5"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["universal_set_empty"] is True
    assert report["images"][-1]["dim"] is None


def test_chain_reports_an_empty_image_on_an_infinite_graph_as_coherent_mode_does(capsys, monkeypatch):
    """Every chain image on z is nonempty, so an empty one is an anomaly in
    both modes; before, chain mode exited 0 with "universal_set_empty"."""
    monkeypatch.setattr(chain_module, "solution_image", lambda a, b, k: AffineSubspace.empty(k))
    argv = ["--graph", "z", "--radius", "0", "--max-m", "5"]
    chain = invoke(capsys, ["--mode", "chain", *argv])
    coherent = invoke(capsys, ["--mode", "coherent", *argv])
    for mode, (code, out, err) in (("chain", chain), ("coherent", coherent)):
        assert code == EXIT_ANOMALY
        assert json.loads(out) == {"mode": mode, "level": 0, "status": "no_universal_element",
                                   "unsolvable_expected_finite": False}
        assert err.startswith("anomaly: stabilized image at level 0 is empty; ")
    assert chain[2] == coherent[2]
    monkeypatch.undo()
    code, out, err = invoke(capsys, ["--graph", "c4", "--mode", "chain", "--radius", "0", "--max-m", "5"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["universal_set_empty"] is True


def test_chain_reports_an_image_that_changed_without_losing_dimension(capsys, monkeypatch):
    """A whole-space image after the first depth has changed but not shrunk;
    the nesting check behind would catch it under another message."""
    real = chain_module.solution_image
    calls = []

    def whole_space_after_the_first(a, b, k):
        calls.append(k)
        return real(a, b, k) if len(calls) == 1 else full_space(k)

    monkeypatch.setattr(chain_module, "solution_image", whole_space_after_the_first)
    code, out, err = invoke(capsys, ["--mode", "chain", "--graph", "z", "--radius", "1"])
    assert (code, out) == (EXIT_ANOMALY, "")
    assert err == "anomaly: image dimension did not drop where it changed at depth 2\n"


def test_coherent_mode_emits_coherent_family(capsys):
    code, out, _ = invoke(
        capsys,
        ["--graph", "z", "--mode", "coherent", "--radius", "2", "--max-m", "8"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["construction"] == "ml"
    assert report["residual_zero"] is True
    family = report["family"]
    assert [lv["ball_radius"] for lv in family] == [1, 2, 3]
    for small, large in zip(family, family[1:]):
        for label, value in small["solution"].items():
            assert large["solution"][label] == value
    assert report["solution"] == family[-1]["solution"]


def test_coherent_window_exceeded_exits_4(capsys):
    code, out, _ = invoke(
        capsys,
        ["--graph", "z", "--mode", "coherent", "--radius", "0", "--max-m", "0"],
    )
    assert code == EXIT_WINDOW_EXCEEDED
    assert json.loads(out)["status"] == "window_exceeded"


def test_coherent_on_unsolvable_finite_graph(capsys):
    code, out, _ = invoke(
        capsys,
        ["--graph", "c4", "--mode", "coherent", "--radius", "1", "--max-m", "6"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "no_universal_element"
    assert report["unsolvable_expected_finite"] is True


C7_DELTA = ["--graph", "c7", "--radius", "0", "--max-m", "8", "--target", "delta"]


def test_finite_chain_stabilizes_only_once_the_graph_is_saturated(capsys):
    """c7 saturates at depth 3, where delta (nonzero sum, no weight) leaves the range."""
    code, out, _ = invoke(capsys, ["--mode", "chain", *C7_DELTA])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "stabilized"
    assert report["stabilized_at"] == 3
    assert [img["dim"] for img in report["images"]] == [2, 2, 2, None, None, None]
    assert report["universal_set_empty"] is True


def test_finite_coherent_finds_no_element_past_the_saturated_depth(capsys):
    code, out, err = invoke(capsys, ["--mode", "coherent", *C7_DELTA])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "no_universal_element"
    assert report["unsolvable_expected_finite"] is True
    assert err == ""


def test_finite_coherent_lifts_the_saturated_images(capsys):
    code, out, err = invoke(capsys, ["--mode", "coherent", "--graph", "p4", "--radius", "1",
                                     "--max-m", "5", "--target", "radial:1,1/2", "--lambda", "distance"])
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["residual_zero"] is True
    assert report["solution"] == {"0": "111/65", "1": "46/65", "2": "8/65"}


# --- metric mode ------------------------------------------------------------


def test_metric_identical_inputs(capsys):
    code, out, _ = invoke(capsys, ["--graph", "z", "--mode", "metric", "--radius", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["bounds"] == ["0", "1/8"]
    assert report["depth"] == 2


def test_metric_between_two_radii(capsys):
    code, out, _ = invoke(
        capsys,
        ["--graph", "z", "--mode", "metric", "--radius", "2", "--max-m", "4"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    lower, upper = (parse_fraction(b) for b in report["bounds"])
    assert 0 <= lower <= upper <= 1


TREE_METRIC = ["--graph", "tree3", "--mode", "metric", "--target", "radial:1,1/2", "--lambda", "distance"]


def _metric_report_text(radius_b, bounds):
    return (
        '{\n  "mode": "metric",\n  "graph": "tree3",\n  "target": "radial:1,1/2",\n'
        '  "lambda": "distance",\n  "radius_a": 2,\n  "radius_b": %d,\n  "depth": 2,\n'
        '  "bounds": [\n    "%s",\n    "%s"\n  ],\n  "status": "ok"\n}\n' % (radius_b, *bounds)
    )


@pytest.mark.parametrize(
    "extra, radii, expected",
    [
        ([], [2], _metric_report_text(2, ("0", "1/8"))),
        (["--max-m", "2"], [2], _metric_report_text(2, ("0", "1/8"))),
        (["--max-m", "3"], [2, 3], _metric_report_text(3, ("7/8", "1"))),
    ],
)
def test_metric_solves_each_distinct_radius_once(capsys, monkeypatch, extra, radii, expected):
    """One solve when both radii agree, one per radius otherwise; the report
    bytes are the ones two solves gave."""
    real, seen = reports_module.solve_on_ball, []

    def counting(oracle, target, n, lam):
        seen.append(n)
        return real(oracle, target, n, lam)

    monkeypatch.setattr(reports_module, "solve_on_ball", counting)
    code, out, _ = invoke(capsys, TREE_METRIC + ["--radius", "2"] + extra)
    assert (code, seen) == (EXIT_OK, radii)
    assert out == expected


@pytest.mark.parametrize("size, max_m", [(None, "2"), (7, "3")], ids=["both", "second"])
def test_metric_solve_that_fails_the_re_check_is_an_anomaly(capsys, monkeypatch, size, max_m):
    """Either solve failing its re-check (here all, or only z's ball of
    radius 3) makes the report an anomaly; the report itself is printed."""
    argv = ["--graph", "z", "--mode", "metric", "--radius", "2", "--max-m", max_m]
    _, expected, _ = invoke(capsys, argv)
    corrupt_ball_solves(monkeypatch, size=size)
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (EXIT_ANOMALY, "")
    assert json.loads(out).keys() == json.loads(expected).keys()
    if size is None:
        assert out == expected  # equal radii: the bounds do not read the values


@pytest.mark.parametrize("radius, max_m", [(3, 2), (2, 3)])
def test_metric_reports_the_first_radius_that_is_singular(capsys, radius, max_m):
    # on c4 both balls saturate the graph; --radius is solved first
    code, out, _ = invoke(
        capsys, ["--graph", "c4", "--mode", "metric", "--radius", str(radius), "--max-m", str(max_m)]
    )
    assert code == EXIT_OK
    assert out == (
        '{\n  "mode": "metric",\n  "radius": %d,\n  "status": "singular",\n'
        '  "singular_expected_finite": true,\n  "boundary_saturated": true\n}\n' % radius
    )


# --- input failures ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "ball"],
        ["--mode", "ball", "--radius", "-1"],
        ["--mode", "nonsense"],
        ["--mode", "chain", "--radius", "3", "--max-m", "1"],
        ["--mode", "ball", "--radius", "1", "--window", "0"],
        ["--mode", "fixtures"],
        ["--mode", "metric", "--radius", "1", "--max-m", "-1"],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "input schemas" in err


CUSTOM_ROOT_5 = '{"family":"custom","vertices":3,"edges":[[0,1],[1,2]],"root":5}'


@pytest.mark.parametrize(
    "argv",
    [
        ["--graph", '{"family":"custom","vertices":3,"edges":[[0,1],[1,0],[1,2]]}',
         "--mode", "ball", "--radius", "1"],
        ["--graph", "tree1", "--mode", "ball", "--radius", "1"],
        ["--graph", "z", "--target", '{"kind":"radial","coeffs":[0.5]}',
         "--mode", "ball", "--radius", "1"],
        ["--graph", "z", "--mode", "ball", "--radius", "1", "--lambda", "-1"],
        ["--graph", "z", "--target", '{"kind":"wat"}', "--mode", "ball", "--radius", "1"],
        ["--graph", "missing_file.json", "--mode", "ball", "--radius", "1"],
        # non-ASCII digits are not numbers of the input formats
        ["--graph", "z", "--mode", "ball", "--radius", "1", "--lambda", "\uff11"],
        ["--graph", "z", "--target", "radial:\uff11/\uff12,\u0663", "--mode", "ball", "--radius", "1"],
        ["--graph", "tree\uff13", "--mode", "ball", "--radius", "1"],
        # spec files that cannot be read as text: a directory, bytes that are not UTF-8
        ["--graph", "{tmp}", "--mode", "ball", "--radius", "1"],
        ["--graph", "z", "--target", "{tmp}/latin1.json", "--mode", "ball", "--radius", "1"],
        # an edge that is not a pair
        ["--graph", '{"family":"custom","vertices":3,"edges":[1,2]}',
         "--mode", "ball", "--radius", "1"],
        # certify mode parses its target too
        ["--mode", "certify", "--graph", "z", "--radius", "1", "--target", "garbage"],
        ["--mode", "certify", "--graph", "z", "--radius", "1",
         "--target", '{"kind":"sparse","entries":{"x":"1"}}'],
        # an --out that cannot be written: a directory, a missing parent, a file as fixture directory
        ["--graph", "z", "--mode", "ball", "--radius", "1", "--out", "{tmp}"],
        ["--graph", "z", "--mode", "ball", "--radius", "1", "--out", "{tmp}/missing/dir/r.json"],
        ["--mode", "fixtures", "--out", "{tmp}/latin1.json"],
        # a degenerate report takes the same --out path
        ["--graph", "c4", "--mode", "ball", "--radius", "3", "--out", "{tmp}"],
        # an empty --graph is a spec like any other, not the default
        ["--graph", "", "--mode", "ball", "--radius", "1"],
        ["--graph", "", "--mode", "fixtures", "--out", "{tmp}/fixtures"],
        # an empty radial coefficient is malformed, not skipped
        ["--graph", "z", "--target", "radial:1,,2", "--mode", "ball", "--radius", "1"],
        ["--graph", "z", "--target", "radial:,1", "--mode", "ball", "--radius", "1"],
        ["--graph", "z", "--target", "radial:1,", "--mode", "ball", "--radius", "1"],
        # a root that is not a vertex
        ["--graph", CUSTOM_ROOT_5, "--mode", "ball", "--radius", "1"],
    ],
)
def test_invalid_inputs_exit_3(capsys, tmp_path, argv):
    (tmp_path / "latin1.json").write_bytes(b'{"kind":"\xe9"}')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = invoke(capsys, argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert "invalid input" in err
    assert [p.name for p in tmp_path.iterdir()] == ["latin1.json"]  # nothing written


@pytest.mark.parametrize(
    "flag, content, message",
    [("--graph", None, "graph spec file {path!r} cannot be read: Is a directory"),
     ("--target", b'{"kind":"\xe9"}', "target spec file {path!r} is not UTF-8 text"),
     ("--lambda", b'{"kind": ', "weight spec file {path!r} is not valid JSON: Expecting value: line 1 column 10 (char 9)"),
     ("--target", b"[1, 2]", "target spec must be a JSON object, got list")],
    ids=["directory", "not-utf8", "not-json", "not-an-object"],
)
def test_a_spec_file_that_cannot_be_read_names_why(capsys, tmp_path, flag, content, message):
    path = tmp_path / "spec.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = invoke(capsys, ["--mode", "ball", "--radius", "1", flag, str(path)])
    assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: {message.format(path=str(path))}\n")


def test_a_custom_root_outside_the_graph_exits_3(capsys):
    # without the range check the request ends in an IndexError traceback
    code, out, err = invoke(capsys, ["--graph", CUSTOM_ROOT_5, "--mode", "ball", "--radius", "1"])
    assert (code, out, err) == (EXIT_INVALID, "", "invalid input: root 5 outside 0..2\n")


@pytest.mark.parametrize(
    "lam, message",
    [
        ("-1/2", "weight must be nonnegative, got -1/2"),
        ('{"kind":"constant","value":"-2"}', "weight must be nonnegative, got -2"),
        ('{"kind":"map","entries":{"0":"1","2":"-3"}}', "weight must be nonnegative, got -3 at vertex 2"),
    ],
)
def test_negative_weights_exit_3(capsys, lam, message):
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "ball", "--radius", "1", f"--lambda={lam}"])
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"invalid input: {message}\n"


@pytest.mark.parametrize(
    "spec, key",
    [('{"family":"ladder","widht":3}', "widht"),
     ('{"family":"custom","vertices":3,"edges":[[0,1],[1,2]],"roots":2}', "roots")],
)
def test_graph_spec_field_the_family_does_not_read_exits_3(capsys, spec, key):
    # before, the misspelled field silently took its default: ladder2, root 0
    code, out, err = invoke(capsys, ["--graph", spec, "--mode", "certify", "--radius", "1"])
    assert (code, out) == (EXIT_INVALID, "")
    assert f"does not read field {key!r}" in err


@pytest.mark.parametrize(
    "flag, spec, message",
    [("--target", '{"kind":"geometric","ratio":"1/3"}', "target kind 'geometric' does not read field 'ratio'"),
     ("--lambda", '{"kind":"constant","value":"2","valeu":"3"}', "weight kind 'constant' does not read field 'valeu'")],
    ids=["target", "weight"],
)
def test_target_and_weight_fields_their_kind_does_not_read_exit_3(capsys, flag, spec, message):
    # before, the extra field was silently ignored
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "ball", "--radius", "1", flag, spec])
    assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: {message}\n")


ENTRIES = "requires an 'entries' object keyed by vertex id"


@pytest.mark.parametrize(
    "flag, spec, message",
    [("--target", '{"kind":"radial"}', "radial target requires a 'coeffs' list"),
     ("--target", '{"kind":"radial","coeffs":"12"}', "radial target requires a 'coeffs' list"),
     ("--lambda", '{"kind":"constant"}', "constant weight requires a 'value'"),
     ("--lambda", '{"kind":"constant","value":null}', "not a rational literal: None"),
     ("--target", '{"kind":"sparse"}', f"sparse target {ENTRIES}"),
     ("--target", '{"kind":"sparse","entries":[]}', f"sparse target {ENTRIES}"),
     ("--lambda", '{"kind":"map"}', f"map weight {ENTRIES}"),
     ("--lambda", '{"kind":"map","entries":[]}', f"map weight {ENTRIES}")],
)
def test_a_missing_or_wrong_typed_field_exits_3_naming_its_kind(capsys, flag, spec, message):
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "ball", "--radius", "1", flag, spec])
    assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("parse, what", [(target_from_json, "target"), (lambda_from_json, "weight")])
def test_an_unknown_kind_is_reported_before_an_unread_field(parse, what):
    for kind in (["zero"], None, 0):
        with pytest.raises(SpecFormatError, match=f"^unknown {what} kind {re.escape(repr(kind))}$"):
            parse({"kind": kind, "extra": 1})


# far deeper than any interpreter's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "flag, what, spec",
    [("--target", "target", '{"kind":"sparse","entries":' + DEEP + "}"),
     ("--lambda", "weight", '{"kind":"map","entries":' + DEEP + "}"),
     ("--graph", "graph", '{"family":"custom","vertices":2,"edges":' + DEEP + "}")],
    ids=["target", "weight", "graph"],
)
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_deeply_nested_specs_exit_3(capsys, tmp_path, flag, what, spec, inline):
    path = tmp_path / "deep.json"
    path.write_text(spec)
    source = f"inline {what} spec" if inline else f"{what} spec file {str(path)!r}"
    code, out, err = invoke(capsys, ["--mode", "ball", "--radius", "1", flag, spec if inline else str(path)])
    assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: {source} is nested too deeply\n")


@pytest.mark.parametrize(
    "flag, what, spec, key",
    [("--graph", "graph", '{"family":"ladder","width":2,"width":3}', "width"),
     ("--target", "target", '{"kind":"delta","kind":"zero"}', "kind"),
     ("--target", "target", '{"kind":"sparse","entries":{"1":"1","1":"2"}}', "1"),
     ("--lambda", "weight", '{"kind":"constant","value":"1","value":"2"}', "value")],
    ids=["graph", "target-kind", "entries", "weight"],
)
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_a_json_object_that_repeats_a_key_exits_3(capsys, tmp_path, flag, what, spec, key, inline):
    path = tmp_path / "twice.json"
    path.write_text(spec)
    source = f"inline {what} spec" if inline else f"{what} spec file {str(path)!r}"
    code, out, err = invoke(capsys, ["--mode", "ball", "--radius", "1", flag, spec if inline else str(path)])
    assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: {source} names key {key!r} twice\n")


def test_deeply_nested_fixtures_entry_exits_3(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"family":"custom","vertices":2,"edges":' + DEEP + "}")
    code, out, err = invoke(capsys, ["--mode", "fixtures", "--out", str(tmp_path / "fx"), "--graph", f"z,{path}"])
    assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: graph spec file {str(path)!r} is nested too deeply\n")
    assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]  # nothing written


@pytest.mark.parametrize(
    "mode, out",
    [("ball", "."), ("ball", "missing/dir/r.json"), ("fixtures", "file.json")],
)
def test_unwritable_out_names_the_path(capsys, tmp_path, mode, out):
    (tmp_path / "file.json").write_text("{}")
    path = str(tmp_path / out)
    code, stdout, err = invoke(capsys, ["--mode", mode, "--radius", "1", "--out", path])
    assert code == EXIT_INVALID
    assert stdout == ""
    assert err.startswith(f"invalid input: --out {path!r} cannot be written: ")


BAD_VERTEX_KEYS = ["\u00b2", "\u0663", "\uff11", "-1", "+1", " 1", "1.0", ""]


@pytest.mark.parametrize("key", BAD_VERTEX_KEYS)
@pytest.mark.parametrize(
    "parse, kind",
    [(target_from_json, "sparse"), (lambda_from_json, "map")],
    ids=["target", "lambda"],
)
def test_vertex_id_keys_must_be_ascii_decimal(parse, kind, key):
    with pytest.raises(SpecFormatError, match="is not a vertex id"):
        parse({"kind": kind, "entries": {key: "1"}})
    assert parse({"kind": kind, "entries": {"007": "1"}}).data == {7: 1}


@pytest.mark.parametrize(
    "parse, kind",
    [(target_from_json, "sparse"), (lambda_from_json, "map")],
    ids=["target", "lambda"],
)
def test_vertex_keys_naming_one_vertex_twice_are_rejected(parse, kind):
    with pytest.raises(SpecFormatError, match="names vertex 1 twice"):
        parse({"kind": kind, "entries": {"1": "1", "01": "5"}})


@pytest.mark.parametrize("flag, kind", [("--target", "sparse"), ("--lambda", "map")])
def test_vertex_keys_naming_one_vertex_twice_exit_3(capsys, flag, kind):
    spec = json.dumps({"kind": kind, "entries": {"1": "1", "01": "5"}})
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "ball", "--radius", "1", flag, spec])
    assert code == EXIT_INVALID
    assert out == ""
    assert "names vertex 1 twice" in err


HUGE = "1" * 5000


# Without CPython's limit on integer-string conversion the tree shorthand
# below would build a root with 10**5000 neighbors, so nothing here runs.
@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts integer literals of any length",
)
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--lambda", HUGE),
        ("--target", "radial:1," + HUGE),
        ("--target", '{"kind":"radial","coeffs":[' + HUGE + "]}"),
        ("--target", '{"kind":"sparse","entries":{"' + HUGE + '":"1"}}'),
        ("--lambda", '{"kind":"map","entries":{"' + HUGE + '":"1"}}'),
        ("--graph", "tree" + HUGE),
    ],
    ids=["lambda", "radial", "json-number", "sparse-key", "map-key", "tree"],
)
def test_integer_literals_over_the_digit_limit_exit_3(capsys, flag, value):
    code, out, err = invoke(capsys, ["--mode", "ball", "--radius", "1", flag, value])
    assert code == EXIT_INVALID
    assert out == ""
    assert "too long" in err


@pytest.mark.parametrize("key", ["\u00b2", "-1"])
@pytest.mark.parametrize("flag, kind", [("--target", "sparse"), ("--lambda", "map")])
def test_bad_vertex_keys_exit_3(capsys, flag, kind, key):
    spec = json.dumps({"kind": kind, "entries": {key: "1"}})
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "ball", "--radius", "1", flag, spec])
    assert code == EXIT_INVALID
    assert out == ""
    assert "is not a vertex id" in err


def test_asymmetric_graph_fails_validation(capsys, monkeypatch):
    from exactlap.graphs import GraphOracle

    def fake_graph_from_text(text):
        def raw(k):
            if k == 0:
                return [1]
            return [2] if k == 1 else [1]

        return GraphOracle(0, raw, name="broken")

    monkeypatch.setattr(cli_module, "graph_from_text", fake_graph_from_text)
    code, out, err = invoke(capsys, ["--graph", "z", "--mode", "ball", "--radius", "1"])
    assert code == EXIT_INVALID
    assert "asymmetry" in err or "failed validation" in err


# --- determinism and output plumbing ---------------------------------------


def test_identical_flags_give_byte_identical_output(capsys):
    argv = ["--graph", "tree3", "--mode", "ball", "--radius", "2", "--lambda", "1"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["--graph", "z", "--mode", "ball", "--radius", "1"],
        # degenerate outcomes on finite graphs are reports like any other
        ["--graph", "c5", "--mode", "ball", "--radius", "2"],
        ["--graph", "c4", "--mode", "coherent", "--radius", "1", "--max-m", "6"],
        ["--graph", "c5", "--mode", "metric", "--radius", "2", "--max-m", "3"],
    ],
)
def test_out_file_matches_stdout(capsys, tmp_path, argv):
    out_file = tmp_path / "report.json"
    code, out, _ = invoke(capsys, argv + ["--out", str(out_file)])
    assert code == EXIT_OK
    assert out_file.read_text(encoding="utf-8") == out


def test_fixture_runs_are_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        code, out, _ = invoke(capsys, ["--mode", "fixtures", "--out", str(d), "--seed", "0"])
        assert code == EXIT_OK
        assert json.loads(out)["files"] == ["z.json", "z2.json", "tree3.json", "ladder2.json", "c5.json"]
    for name in ("z.json", "z2.json", "tree3.json", "ladder2.json", "c5.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_fixtures_mark_finite_saturation_and_zero_residuals(tmp_path, capsys):
    code, _, _ = invoke(capsys, ["--mode", "fixtures", "--out", str(tmp_path), "--seed", "3"])
    assert code == EXIT_OK
    c5 = json.loads((tmp_path / "c5.json").read_text())
    by_radius = {r["radius"]: r for r in c5["results"]}
    assert by_radius[2]["singular"] is True
    assert by_radius[2]["singular_expected_finite"] is True
    assert by_radius[1]["residual_zero"] is True
    z = json.loads((tmp_path / "z.json").read_text())
    assert all(r["residual_zero"] for r in z["results"])
    assert z["role"].startswith("regression baseline")


def test_fixtures_record_a_solve_that_fails_the_re_check(tmp_path, capsys, monkeypatch):
    corrupt_ball_solves(monkeypatch, size=5)  # z's ball of radius 2 only
    code, out, err = invoke(capsys, ["--mode", "fixtures", "--out", str(tmp_path), "--graph", "z"])
    assert (code, err) == (EXIT_ANOMALY, "")
    assert json.loads(out)["status"] == "ok"
    results = json.loads((tmp_path / "z.json").read_text())["results"]
    assert [r["residual_zero"] for r in results] == [True, True, False, True]


def test_fixtures_record_an_unexpected_singular_ball(tmp_path, capsys, monkeypatch):
    """A singular ball on an infinite graph is recorded, and the run is an anomaly."""
    real = fixtures_module.solve_on_ball

    def singular_at_two(oracle, target, n, lam):
        if n == 2:
            raise SingularSystem("forced", radius=n, boundary_saturated=False)
        return real(oracle, target, n, lam)

    monkeypatch.setattr(fixtures_module, "solve_on_ball", singular_at_two)
    code, _, err = invoke(capsys, ["--mode", "fixtures", "--out", str(tmp_path), "--graph", "z"])
    assert (code, err) == (EXIT_ANOMALY, "")
    results = json.loads((tmp_path / "z.json").read_text())["results"]
    assert [r.get("singular_expected_finite") for r in results] == [None, None, False, None]


VERIFIED_FIELDS = ["solution", "residual_zero", "metric_bound"]


def test_verified_solves_render_the_same_three_fields(tmp_path, capsys):
    """The ball report, the coherent report and a fixture result for one
    graph, target and weight show the verified fields together, in one order."""
    code, _, _ = invoke(capsys, ["--mode", "fixtures", "--out", str(tmp_path), "--graph", "z2", "--radius", "2"])
    assert code == EXIT_OK
    fixture = json.loads((tmp_path / "z2.json").read_text())
    target = json.dumps(fixture["target"])
    reports = [fixture["results"][2]]
    for mode in ("ball", "coherent"):
        code, out, _ = invoke(capsys, ["--graph", "z2", "--mode", mode, "--radius", "2", "--target", target])
        assert code == EXIT_OK
        reports.append(json.loads(out))
    for report in reports:
        keys = list(report)
        start = keys.index("solution")
        assert keys[start : start + 3] == VERIFIED_FIELDS
        assert report["residual_zero"] is True
        assert report["metric_bound"] == "1/8"
    fixed, ball, coherent = reports
    assert {k: fixed[k] for k in VERIFIED_FIELDS} == {k: ball[k] for k in VERIFIED_FIELDS}
    # the coherent solution lives on the next ball out
    assert len(coherent["solution"]) > len(ball["solution"])


def test_fixture_family_subset_and_seed_sensitivity(tmp_path, capsys):
    code, out, _ = invoke(
        capsys,
        ["--mode", "fixtures", "--out", str(tmp_path / "s1"), "--seed", "1", "--graph", "z", "--radius", "2"],
    )
    assert code == EXIT_OK
    assert json.loads(out)["files"] == ["z.json"]
    invoke(capsys, ["--mode", "fixtures", "--out", str(tmp_path / "s2"), "--seed", "2", "--graph", "z", "--radius", "2"])
    a = (tmp_path / "s1" / "z.json").read_text()
    b = (tmp_path / "s2" / "z.json").read_text()
    assert json.loads(a)["target"] != json.loads(b)["target"]


def test_fixture_spec_paths_write_inside_out(tmp_path, capsys, monkeypatch):
    """A --graph entry that is a spec file path names its fixture after the
    file's base name, inside --out, whether the path is absolute or relative."""
    spec = tmp_path / "specs" / "custom.json"
    spec.parent.mkdir()
    spec.write_text('{"family": "path", "size": 4}')
    out_dir = tmp_path / "out"
    monkeypatch.chdir(tmp_path)
    for entry in (str(spec), "specs/custom.json"):
        code, out, err = invoke(capsys, ["--mode", "fixtures", "--out", str(out_dir),
                                         "--radius", "1", "--graph", f"z,{entry}"])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["files"] == ["z.json", "custom.json.json"]
        assert sorted(p.name for p in out_dir.iterdir()) == ["custom.json.json", "z.json"]
        assert json.loads((out_dir / "custom.json.json").read_text())["graph"]["family"] == "path"
    assert sorted(p.name for p in spec.parent.iterdir()) == ["custom.json"]


def test_fixture_name_clash_exits_3_before_writing(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "g.json").write_text('{"family": "line"}')
    out_dir = tmp_path / "out"
    entries = f"z,{tmp_path / 'a' / 'g.json'},{tmp_path / 'b' / 'g.json'}"
    code, out, err = invoke(capsys, ["--mode", "fixtures", "--out", str(out_dir), "--graph", entries])
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("invalid input:") and "'g.json.json'" in err
    assert not out_dir.exists()


def test_fixture_entry_that_fails_leaves_nothing_written(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = invoke(capsys, ["--mode", "fixtures", "--out", str(out_dir), "--radius", "1",
                                     "--graph", "z,tree1"])
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("invalid input:")
    assert not out_dir.exists()


def test_bare_radial_is_the_empty_list(capsys):
    reports = []
    for target in ("radial:", '{"kind":"radial","coeffs":[]}', "zero"):
        code, out, err = invoke(capsys, ["--graph", "z", "--target", target, "--mode", "ball", "--radius", "1"])
        assert (code, err) == (EXIT_OK, "")
        reports.append(json.loads(out)["solution"])
    assert reports == [{"0": "0", "-1": "0", "1": "0"}] * 3


def test_graph_over_the_vertex_budget_exits_5(capsys, tmp_path):
    """tree20000 meets the oracle's vertex budget while validation checks symmetry."""
    out_file = tmp_path / "r.json"
    code, out, err = invoke(capsys, ["--graph", "tree20000", "--mode", "certify", "--radius", "0",
                                     "--out", str(out_file)])
    assert (code, out) == (EXIT_OVER_BUDGET, "")
    assert err == "over budget: graph 'tree20000' would discover more than 100000 vertices\n"
    assert not out_file.exists()
    code, out, err = invoke(capsys, ["--mode", "fixtures", "--out", str(tmp_path / "fx"), "--graph",
                                     "z,tree20000"])
    assert (code, out) == (EXIT_OVER_BUDGET, "")
    assert not (tmp_path / "fx").exists()


@pytest.mark.parametrize("vertices, code", [(100_001, EXIT_OVER_BUDGET), (100_000, EXIT_INVALID)])
def test_custom_vertex_count_over_the_budget_exits_5(capsys, tmp_path, vertices, code):
    """The count is checked before the graph is built; 100,000 vertices are
    still allowed (and, with no edges, fail the connectivity check)."""
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"family": "custom", "vertices": vertices, "edges": []}))
    got, out, err = invoke(capsys, ["--graph", str(spec), "--mode", "certify", "--radius", "0"])
    assert (got, out) == (code, "")
    if code == EXIT_OVER_BUDGET:
        assert err == "over budget: graph 'custom' would discover more than 100000 vertices\n"
    else:
        assert err.startswith("invalid input: graph is not connected")


def test_custom_connectivity_error_stays_short(capsys, tmp_path):
    """99,999 unreachable vertices: the message names the first ten and the count."""
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"family": "custom", "vertices": 100_000, "edges": []}))
    code, out, err = invoke(capsys, ["--graph", str(spec), "--mode", "certify", "--radius", "0"])
    assert (code, out) == (EXIT_INVALID, "")
    assert err == (
        "invalid input: graph is not connected; 99999 unreachable vertices, "
        "the first 10 are [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]\n"
    )


def test_help_exits_zero(capsys):
    code = run_cli(["--help"])
    capsys.readouterr()
    assert code == 0


# --- flag grammar -------------------------------------------------------------
# The cases below pin the grammar argparse gave these flags; they pass with the
# former argparse parser too.

HELP_TEXT = (Path(__file__).with_name("cli_help.txt")).read_text(encoding="utf-8")


def test_mode_choices_are_the_report_builders_then_fixtures():
    assert MODES == (*reports_module._REPORTS, "fixtures")


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "ball", "--rad", "2"],
        ["--mode=ball", "--radius=2"],
        ["--mo=ball", "--rad=2", "--gr=z", "--lam=zero"],
        ["--mode", "ball", "--radius", "5", "--radius", "2"],
        ["--graph", "z2", "--mode", "ball", "--graph", "z", "--radius", "2"],
    ],
    ids=["prefix", "equals", "prefix-equals", "repeated", "repeated-graph"],
)
def test_flag_spellings_give_one_report(capsys, argv):
    expected = invoke(capsys, ["--mode", "ball", "--graph", "z", "--radius", "2"])
    assert expected[0] == EXIT_OK
    assert invoke(capsys, argv) == expected


CHOICES = "'ball', 'certify', 'chain', 'coherent', 'metric', 'fixtures'"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m", "ball", "--radius", "1"], "ambiguous option: --m could match --mode, --max-m"),
        (["--mode", "ball", "--radius", "1", "--m=2"], "ambiguous option: --m=2 could match --mode, --max-m"),
        (["--mode", "ball", "--radius", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["--mode", "ball", "--radius", "1", "-x", "y"], "unrecognized arguments: -x y"),
        (["x", "--mode", "ball", "--radius", "1"], "unrecognized arguments: x"),
        (["--mode", "ball", "--radius"], "argument --radius: expected one argument"),
        (["--mode", "ball", "--radius", "1", "--graph", "-x"], "argument --graph: expected one argument"),
        (["--mode", "ball", "--radius", "1", "--lambda", "-1/2"], "argument --lambda: expected one argument"),
        (["--mode", "ball", "--radius", "x"], "argument --radius: invalid int value: 'x'"),
        (["--mode", "nonsense"], f"argument --mode: invalid choice: 'nonsense' (choose from {CHOICES})"),
        (["--mode="], f"argument --mode: invalid choice: '' (choose from {CHOICES})"),
        (["--radius", "1"], "the following arguments are required: --mode"),
        (["--bogus", "--radius", "1"], "the following arguments are required: --mode"),
        (["--mode", "ball", "--radius", "1", "--"], "unrecognized arguments: --"),
        (["--mode", "ball", "--radius", "1", "--", "-h"], "unrecognized arguments: -- -h"),
        (["--", "--mode", "ball", "--radius", "1"], "the following arguments are required: --mode"),
        (["--radius", "x", "-h"], "argument --radius: invalid int value: 'x'"),
        (["-h", "--m"], "ambiguous option: --m could match --mode, --max-m"),
        (["--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
        (["-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_flag_grammar_usage_errors(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: exactlap ")
    assert f"error: {message}" in err.splitlines()
    assert "input schemas" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "ball", "--radius", "1", "--lambda", "-1"],
        ["--mode", "ball", "--radius", "1", "--lambda=-1"],
        ["--mode", "ball", "--radius", "1", "--lambda", "-1.5"],
        ["--mode", "ball", "--radius", "1", "--target", "-x y"],
    ],
)
def test_values_that_look_like_numbers_reach_validation(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("invalid input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        ["--he"],
        ["-hh"],
        ["--mode", "ball", "--radius", "1", "-h"],
        ["-h", "--radius", "x"],
        ["--bogus", "-h"],
    ],
)
def test_help_prints_the_committed_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, argv) == (EXIT_OK, HELP_TEXT, "")


def test_help_and_usage_do_not_rewrap(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")
    assert invoke(capsys, ["--help"]) == (EXIT_OK, HELP_TEXT, "")
    code, _, err = invoke(capsys, ["--mode", "nonsense"])
    usage = HELP_TEXT[: HELP_TEXT.index("\n\n") + 1]
    assert code == EXIT_USAGE
    assert err == f"{usage}error: argument --mode: invalid choice: 'nonsense' (choose from {CHOICES})\n{SCHEMA_HELP}\n"


@pytest.mark.parametrize(
    "section, next_section, key, table",
    [("--graph", "--target", "family", _FAMILIES), ("--target", "--lambda", "kind", _TARGETS),
     ("--lambda", "rationals", "kind", _WEIGHTS)],
    ids=["graph", "target", "weight"],
)
def test_the_schema_help_shows_every_kind_and_the_fields_it_reads(section, next_section, key, table):
    text = SCHEMA_HELP[SCHEMA_HELP.index(f"  {section}  ") : SCHEMA_HELP.index(f"  {next_section} ")]
    for name, (_, *fields) in table.items():
        start = text.index(f'{{"{key}":"{name}"')
        form = re.split(r" \| |\n", text[start:])[0]
        assert [f for f in fields if f'"{f}":' not in form] == [], form


INT_FLAGS = ["--radius", "--max-m", "--window", "--seed"]


@pytest.mark.parametrize("value", ["٢", "１", " 1_0", "1_0", "+1", " 1", "1 ", "-7\n", "0x1", "1.0", "", "-", "--1"])
@pytest.mark.parametrize("flag", INT_FLAGS)
def test_integer_flags_take_ascii_decimal_only(capsys, flag, value):
    code, out, err = invoke(capsys, ["--mode", "chain", "--radius", "1", f"{flag}={value}"])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"error: argument {flag}: invalid int value: {value!r}" in err.splitlines()


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter converts integer literals of any length",
)
@pytest.mark.parametrize("flag", INT_FLAGS)
def test_integer_flags_over_the_digit_limit_exit_64(capsys, flag):
    code, out, err = invoke(capsys, ["--mode", "chain", "--radius", "1", flag, HUGE])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"error: argument {flag}: invalid int value: {HUGE!r}" in err.splitlines()


def test_integer_flags_take_leading_zeros_and_minus(capsys):
    code, out, _ = invoke(capsys, ["--mode", "chain", "--radius", "01", "--max-m", "008",
                                   "--window", "0003", "--seed", "-7"])
    assert code == EXIT_OK
    assert invoke(capsys, ["--mode", "chain", "--radius", "1", "--max-m", "8"]) == (EXIT_OK, out, "")
    code, out, err = invoke(capsys, ["--mode", "chain", "--radius", "1", "--max-m", "-1"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "error: --max-m -1 must be at least --radius 1" in err.splitlines()


# Tokens whose integer spellings int() and the CLI read alike; "--flag=--" is
# left out, since argparse drops that "--" and leaves the flag a list, and so
# is "-7\n", which int() reads as -7 (a negative number ending in a newline is
# compared on the string flags below).
GRAMMAR_TOKENS = [
    "--mode", "--mo", "--m", "--mode=ball", "--mode=", "--radius", "--rad", "--r=2",
    "--max-m", "--max", "--ma=1", "--window", "--w", "--graph", "--g=z", "--gr",
    "--target", "--t", "--lambda", "--l=1", "--out", "--o", "--seed", "--s=3",
    "-h", "--help", "--he", "--help=", "--h=x", "-hh", "-hx", "-h=h", "-h=",
    "--", "--=x", "---x", "--bogus", "-x", "-",
    "ball", "chain", "fixtures", "nonsense", "z", "1", "-1", "007", "-0", "-.5", "-2.5",
    "x", "", "-x y", "-1/2", "a=b", "-.5\n", "-7.5\n",
]


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("values", vars(parse(argv)))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="the oracle is argparse as CPython 3.10 and 3.11 have it")
# the fixture only pins COLUMNS, the same for every example
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=8))
def test_flag_parse_matches_argparse(monkeypatch, argv):
    from argparse_oracle import build_parser

    monkeypatch.setenv("COLUMNS", "80")

    new, new_out, new_err = _parse_outcome(cli_module.parse_flags, argv)
    old, old_out, old_err = _parse_outcome(build_parser().parse_args, argv)
    assert new == old
    if new == ("exit", EXIT_OK):  # help: 3.10 titles its option list differently
        assert new_out.startswith("usage: exactlap ") and old_out.startswith("usage: exactlap ")
    else:
        assert (new_out, new_err) == (old_out, old_err)


@pytest.mark.parametrize("token", ["-7\n", "-.5\n", "-7.5\n"])
@pytest.mark.parametrize("flag", ["--target", "--lambda", "--out"])
def test_a_negative_number_ending_in_a_newline_is_a_value_as_in_argparse(monkeypatch, flag, token):
    """argparse's negative-number pattern ends in ``$``, which also matches before a final newline."""
    from argparse_oracle import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([flag, token, "--mode", "ball"], ["--mode", "ball", flag, token]):
        new = _parse_outcome(cli_module.parse_flags, argv)
        assert new == _parse_outcome(build_parser().parse_args, argv)
        assert new[0][0] == "values" and token in new[0][1].values()


def test_a_target_ending_in_a_newline_reaches_the_spec_reader(capsys):
    code, out, err = invoke(capsys, ["--mode", "ball", "--graph", "z", "--radius", "1", "--target", "-7\n"])
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("invalid input: unrecognized target spec '-7\\n'")


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "exactlap.cli", "--graph", "z", "--mode", "ball", "--radius", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solution"]["0"] == "2"
    # runpy warns here when a package module has imported exactlap.cli before it runs
    assert proc.stderr == ""


def test_custom_graph_end_to_end(capsys, tmp_path):
    spec = {"family": "custom", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]], "root": 0}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(spec))
    code, out, _ = invoke(
        capsys, ["--graph", str(path), "--mode", "ball", "--radius", "1", "--lambda", "1/2"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["residual_zero"] is True
    assert set(report["solution"]) == {"0", "1", "3"}
