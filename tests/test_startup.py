"""Start-up guard: importing the CLI pulls in no heavy standard-library module.

Most of a CLI call is interpreter start-up, so the package keeps its import
graph to what it uses.  The probe runs without the ``site`` module (``-S``),
which may preload some of these modules, and still compares against the
modules loaded before the import rather than an absolute list.
"""

import json
import os
import subprocess
import sys

import exactlap

GUARDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random")

PROBE = """
import json, sys
before = set(sys.modules)
import exactlap.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_guarded_module():
    # -S drops site-packages from the path, so name the package's parent directory
    src = os.path.dirname(os.path.dirname(exactlap.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    new = json.loads(proc.stdout)
    assert "exactlap.cli" in new
    assert [m for m in GUARDED if m in new] == []
