"""`tools/work.py` runs requests as children on one or two package trees and digests their stdout."""

import contextlib
import hashlib
import importlib.util
import io
import json
import py_compile
import shutil
import sys
from pathlib import Path

from exactlap.cli import run_cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "work.py"
spec = importlib.util.spec_from_file_location("work", TOOL)
work = importlib.util.module_from_spec(spec)
spec.loader.exec_module(work)

SRC = TOOL.parents[1] / "src"
LIGHT = [
    ["--mode", "ball", "--graph", "z", "--radius", "1"],
    ["--mode", "certify", "--graph", "tree3", "--radius", "1"],
]
SIDE = {"walls_s", "median_s", "quartiles_s", "peak_rss_mb", "exit_code", "stdout_sha256"}
COMPARISON = {"change_wins", "median_gap_s", "parent_spread_s", "gain_holds", "slower_beyond_spread"}


def _stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_two_trees_give_the_shape_and_the_in_process_digests(capsys):
    assert work.work([SRC, SRC], LIGHT, 1) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"fingerprint", "rounds", "requests"}
    assert set(report["fingerprint"]) == {"python", "nproc", "cpu", "bytecode_cache"}
    assert report["rounds"] == 1
    assert [entry["argv"] for entry in report["requests"]] == LIGHT
    for entry in report["requests"]:
        assert set(entry) == {"argv", "parent", "change", "same_output"} | COMPARISON
        assert entry["same_output"] is True
        assert entry["change_wins"] in (0, 1)
        code, digest = _stdout_digest(entry["argv"])
        assert code == 0
        for side in ("parent", "change"):
            assert set(entry[side]) == SIDE
            assert len(entry[side]["walls_s"]) == 1
            assert (entry[side]["exit_code"], entry[side]["stdout_sha256"]) == (code, digest)


def _copy_with_indent_1(tmp_path, wire):
    """Copy src/ to tmp_path / "src" and write wire.py with reports indented by 1 to ``wire``."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / "exactlap" / "wire.py").read_text(encoding="utf-8")
    old = "    return json.dumps(report, indent=2) + \"\\n\"\n"
    assert text.count(old) == 1
    wire.write_text(text.replace(old, old.replace("indent=2", "indent=1")), encoding="utf-8")
    return copy


def test_a_changed_report_exits_1(tmp_path, capsys):
    copy = _copy_with_indent_1(tmp_path, tmp_path / "src" / "exactlap" / "wire.py")
    assert work.work([SRC, copy], LIGHT, 1) == 1
    report = json.loads(capsys.readouterr().out)
    for entry in report["requests"]:
        assert entry["same_output"] is False
        assert entry["parent"]["exit_code"] == entry["change"]["exit_code"] == 0
        assert entry["parent"]["stdout_sha256"] != entry["change"]["stdout_sha256"]


def test_children_compile_the_package_and_read_no_bytecode_beside_it(tmp_path, capsys, monkeypatch):
    """A stale .pyc in the tree's __pycache__, which Python reads unchecked, must not reach a child."""
    scratch = tmp_path / "wire.py"
    copy = _copy_with_indent_1(tmp_path, scratch)
    wire = copy / "exactlap" / "wire.py"
    monkeypatch.setattr(sys, "pycache_prefix", None)  # the cache path beside the source
    py_compile.compile(str(scratch), cfile=importlib.util.cache_from_source(str(wire)), doraise=True,
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    assert work.work([copy], LIGHT, 1) == 0
    report = json.loads(capsys.readouterr().out)
    for entry in report["requests"]:
        assert (entry["src"]["exit_code"], entry["src"]["stdout_sha256"]) == _stdout_digest(entry["argv"])
