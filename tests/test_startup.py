"""Start-up guard: the CLI pulls in no heavy standard-library module.

Most of a CLI call is interpreter start-up, so the package keeps its import
graph to what it uses.  The probe imports the CLI, then prints the help and
makes a usage error, the paths where a flag parser would load gettext and
locale.  It runs without the ``site`` module (``-S``), which may preload
some of these modules, and still compares against the modules loaded before
the import rather than an absolute list.
"""

import json
import os
import subprocess
import sys

import exactlap

GUARDED = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random",
    "argparse", "gettext", "locale",
)

PROBE = """
import json, os, sys
before = set(sys.modules)
import exactlap.cli
out, sys.stdout, sys.stderr = sys.stdout, open(os.devnull, "w"), open(os.devnull, "w")
codes = [exactlap.cli.run_cli(argv) for argv in (["--help"], ["--mode", "nonsense"])]
sys.stdout = out
print(json.dumps({"codes": codes, "new": sorted(set(sys.modules) - before)}))
"""


def test_cli_import_loads_no_guarded_module():
    # -S drops site-packages from the path, so name the package's parent directory
    src = os.path.dirname(os.path.dirname(exactlap.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    probe = json.loads(proc.stdout)
    assert probe["codes"] == [0, 64]
    assert "exactlap.cli" in probe["new"]
    assert [m for m in GUARDED if m in probe["new"]] == []
