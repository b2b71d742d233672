"""Start-up guard: the CLI pulls in no heavy standard-library module.

Most of a CLI call is interpreter start-up, so the package keeps its import
graph to what it uses.  The probe imports the CLI, then prints the help,
makes a usage error and runs a ball request: the paths where a flag parser
would load gettext and locale, and where a solve could load fixtures code,
an elimination heap or a lock.  It runs without the ``site`` module (``-S``),
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
    "argparse", "gettext", "locale", "heapq", "threading", "exactlap.fixtures",
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
# peak RSS of every request.  The parser's high-water mark grows by about
# 0.45 KB per token (CPython 3.11), so 1,000 tokens keep it near 0.45 MB.
# Tokens are counted as CPython 3.11 reads them, an f-string as one token;
# from 3.12 (PEP 701) tokenize splits an f-string into its parts.
MAX_MODULE_TOKENS = 1000
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def token_count(path: Path) -> int:
    """The tokens of a module, each f-string with its fields counted as one."""
    count = depth = 0
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            count += depth == 0
            depth += (tok.type == FSTRING_START) - (tok.type == FSTRING_END)
    return count


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
    sizes = {path.name: token_count(path) for path in Path(exactlap.__file__).parent.glob("*.py")}
    assert len(sizes) > 1
    assert {name: n for name, n in sizes.items() if n > MAX_MODULE_TOKENS} == {}
