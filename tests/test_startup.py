"""Start-up guard: the CLI pulls in no heavy standard-library module.

Most of a CLI call is interpreter start-up, so the package keeps its import
graph to what it uses.  The probe imports the CLI, then prints the help,
makes a usage error and runs a ball request: the paths where a flag parser
would load gettext and locale, and where a solve could load fixtures code
or an elimination heap.  It runs without the ``site`` module (``-S``),
which may preload some of these modules, and still compares against the
modules loaded before the import rather than an absolute list.
"""

import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import exactlap

GUARDED = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random",
    "argparse", "gettext", "locale", "heapq", "exactlap.fixtures",
)

PROBE = """
import json, os, sys
before = set(sys.modules)
import exactlap.cli
out, sys.stdout, sys.stderr = sys.stdout, open(os.devnull, "w"), open(os.devnull, "w")
codes = [exactlap.cli.run_cli(argv) for argv in (
    ["--help"], ["--mode", "nonsense"], ["--mode", "ball", "--graph", "z", "--radius", "1"],
)]
sys.stdout = out
print(json.dumps({"codes": codes, "new": sorted(set(sys.modules) - before)}))
"""

# Without a bytecode cache every CLI call compiles the package from source,
# and the parser holds a whole module's tokens and syntax tree at once; the
# memory it frees stays with the process, so the largest module sets the
# peak RSS of every request.
MAX_MODULE_TOKENS = 2000


def test_cli_import_loads_no_guarded_module():
    # -S drops site-packages from the path, so name the package's parent directory
    src = os.path.dirname(os.path.dirname(exactlap.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    probe = json.loads(proc.stdout)
    assert probe["codes"] == [0, 64, 0]
    assert "exactlap.cli" in probe["new"]
    assert [m for m in GUARDED if m in probe["new"]] == []


def test_no_module_is_over_the_token_limit():
    sizes = {}
    for path in sorted(Path(exactlap.__file__).parent.glob("*.py")):
        with open(path, "rb") as fh:
            sizes[path.name] = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert len(sizes) > 1
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_TOKENS} == {}
