"""`tools/sweep.py` runs its requests in process and digests what they print and write."""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
spec = importlib.util.spec_from_file_location("sweep", TOOL)
sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep)


def test_a_prefix_of_the_sweep_gives_one_repeatable_digest():
    argvs = sweep.requests()[:12]
    home = os.getcwd()
    digest, n_requests, n_files = sweep.sweep(argvs)
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert (n_requests, n_files) == (12, len(sweep.SPEC_FILES))
    assert sweep.sweep(argvs)[0] == digest
    assert os.getcwd() == home


def test_flag_errors_and_written_reports_are_digested():
    argvs = sweep.FLAG_ERRORS + [["--mode", "ball", "--graph", "z", "--radius", "1", "--out", "ball.json"]]
    digest, n_requests, n_files = sweep.sweep(argvs)
    assert (n_requests, n_files) == (len(argvs), len(sweep.SPEC_FILES) + 1)
    assert sweep.sweep(argvs[:-1])[0] != digest


# The digest covers stderr, which quotes standard-library error texts that
# may differ between interpreters, so it is pinned on the CPython releases
# where it was checked to read the same: 3.10, 3.11, 3.12 and 3.13.
@pytest.mark.skipif(
    sys.implementation.name != "cpython" or not (3, 10) <= sys.version_info[:2] <= (3, 13),
    reason="the pinned digest was checked on CPython 3.10-3.13",
)
def test_the_full_sweep_keeps_the_pinned_digest():
    # a change that alters an output on purpose updates this digest and says so in CHANGES.md
    assert sweep.sweep(sweep.requests()) == (
        "fc3eae4e7ae5357c17e8133f7c070996dae243ff519d2b83e884169261d7b4c3", 2969, 15
    )
