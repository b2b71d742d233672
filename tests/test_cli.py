"""Command-line interface: reports, exit codes, determinism, wire formats."""

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlap.cli import (
    EXIT_ANOMALY,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WINDOW_EXCEEDED,
    run_cli,
)
from exactlap.errors import SingularSystem, SpecFormatError
from exactlap.graphs import enumerate_ball, grid_oracle
from exactlap.linalg import AffineSubspace
from exactlap.operators import LambdaField, TargetFunction
from exactlap.serialize import (
    ball_function_from_json,
    format_fraction,
    graph_spec_from_text,
    lambda_from_json,
    parse_fraction,
    target_from_json,
)
from exactlap.solver import Certificate, solve_on_ball

import exactlap.cli as cli_module
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
    assert parse_fraction(format_fraction(x)) == x


def test_format_fraction_compact_integer_form():
    assert format_fraction(Fraction(4, 2)) == "2"
    assert format_fraction(Fraction(-1, 3)) == "-1/3"


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
    payload = {label: format_fraction(x) for label, x in rep.solution.label_items()}
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
    expected = {label: format_fraction(x) for label, x in rep.solution.label_items()}
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


def test_unexpected_singular_is_an_anomaly(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise SingularSystem("forced", radius=1, boundary_saturated=False)

    monkeypatch.setattr(cli_module, "solve_on_ball", explode)
    code, out, err = invoke(
        capsys, ["--graph", "z", "--target", "delta", "--mode", "ball", "--radius", "1"]
    )
    assert code == EXIT_ANOMALY
    assert json.loads(out)["singular_expected_finite"] is False
    assert "anomaly" in err


# --- certify mode -----------------------------------------------------------


def test_certify_mode_reports_exact_determinant(capsys):
    code, out, _ = invoke(capsys, ["--graph", "z", "--mode", "certify", "--radius", "1"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["strict_inclusion"] is True
    assert parse_fraction(report["determinant"]) == Fraction(1, 2)
    assert report["passes"] is True


def test_certify_failure_is_an_anomaly(capsys, monkeypatch):
    bad = Certificate(radius=1, strict_inclusion=True, determinant=Fraction(0), passes=False)
    monkeypatch.setattr(cli_module, "max_principle_certificate", lambda *a, **k: bad)
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
    real = solver_module.solution_image

    def shifted(a, b, k):
        img = real(a, b, k)
        point = (img.particular[0] + 1,) + img.particular[1:]
        return AffineSubspace(k, point, img.basis)

    monkeypatch.setattr(solver_module, "solution_image", shifted)
    code, out, err = invoke(
        capsys,
        ["--graph", "z", "--mode", "chain", "--radius", "1", "--max-m", "6"],
    )
    assert code == EXIT_ANOMALY
    assert out == ""
    assert "misses the target" in err


def test_coherent_lift_failure_is_an_anomaly(capsys, monkeypatch):
    """A stabilized image from level 1 on replaced by a single point off by one
    at the root: no member extends the level below, so the lift must refuse."""
    real = solver_module.run_chain

    def shifted(oracle, target, n, max_m, window, lam):
        state = real(oracle, target, n, max_m, window, lam)
        if n < 1:
            return state
        m, img = state.images[-1]
        point = AffineSubspace.from_point((img.particular[0] + 1,) + img.particular[1:])
        return dataclasses.replace(state, images=state.images[:-1] + ((m, point),))

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
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "input schemas" in err


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
    ],
)
def test_invalid_inputs_exit_3(capsys, tmp_path, argv):
    (tmp_path / "latin1.json").write_bytes(b'{"kind":"\xe9"}')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = invoke(capsys, argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert "invalid input" in err


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


def test_out_file_matches_stdout(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    argv = ["--graph", "z", "--mode", "ball", "--radius", "1", "--out", str(out_file)]
    code, out, _ = invoke(capsys, argv)
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


def test_help_exits_zero(capsys):
    code = run_cli(["--help"])
    capsys.readouterr()
    assert code == 0


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "exactlap.cli", "--graph", "z", "--mode", "ball", "--radius", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solution"]["0"] == "2"


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
