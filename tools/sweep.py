"""One SHA-256 over a fixed sweep of command-line requests, to show that a
change keeps every report, message and exit code byte for byte.

Each request runs in this process through `exactlap.cli.run_cli`, in a
fresh temporary directory that holds the spec files some requests name.
The digest covers each request's argv, exit code, stdout and stderr, in
order, and then every file the sweep leaves in that directory (fixtures
and ``--out`` reports) by relative path and content.

    python tools/sweep.py                    # the package in src/ beside tools/
    python tools/sweep.py OTHER/src          # another checkout's package

Run it on two checkouts: equal digests mean equal behaviour on the sweep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CUSTOM = '{"family":"custom","vertices":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0],[0,2]]}'
SPARSE = '{"kind":"sparse","entries":{"0":"1","3":"-2/3","7":"5"}}'
MAP = '{"kind":"map","entries":{"0":"1/2","2":"3","5":"0"}}'
SPEC_FILES = {
    "custom.json": CUSTOM,
    "target.json": '{"kind":"radial","coeffs":["2","0","-1/4"]}',
    "weight.json": '{"kind":"constant","value":"7/3"}',
    "list.json": "[1, 2]",
}

GRAPHS = ["z", "z2", "z3", "tree3", "ladder2", "free2", "c5", "p4", CUSTOM, "custom.json"]
TARGETS = ["delta", "zero", "geometric", "radial:1,-1/2,3", "radial:", SPARSE, "target.json"]
WEIGHTS = ["zero", "distance", "2/5", "3", MAP, "weight.json"]
BAD_TARGETS = [
    "radial:1,,2", "radial:1.5", '{"kind":"radial"}', '{"kind":"sparse"}',
    '{"kind":"sparse","entries":[]}', '{"kind":"sparse","entries":{"x":"1"}}',
    '{"kind":"sparse","entries":{"1":"1","01":"2"}}', '{"kind":"sparse","entries":{"1":1.5}}',
    '{"kind":"nope"}', "missing.json", "list.json", "{not json",
    '{"kind":"geometric","ratio":"1/3"}', '{"kind":"radial","coeffs":"12"}',
]
BAD_WEIGHTS = [
    "-1", "-2/3", "1.5", '{"kind":"constant"}', '{"kind":"constant","value":"-1/2"}',
    '{"kind":"map"}', '{"kind":"map","entries":"0"}', '{"kind":"map","entries":{"0":"-1"}}',
    '{"kind":"map","entries":{"a":"1"}}', '{"kind":"map","entries":{"2":"1","002":"1"}}',
    '{"kind":"nope"}', "missing.json", '{"kind":"constant","value":"2","valeu":"3"}',
    '{"kind":"constant","value":null}', '{"kind":"zero","entries":{}}',
]
BAD_GRAPHS = [
    "", "tree1", "free27", "c2", "nope", '{"family":"ladder","widht":3}',
    '{"family":"custom","vertices":1000000,"edges":[]}',
    '{"family":"custom","vertices":3,"edges":[[0,1]]}',
]
FLAG_ERRORS = [
    [], ["--help"], ["--mode", "nonsense"], ["--mode", "ball"], ["--mode", "ball", "--radius", "-1"],
    ["--mode", "ball", "--radius", "x"], ["--mode", "ball", "--radius", "1", "--window", "0"],
    ["--mode", "chain", "--radius", "3", "--max-m", "1"], ["--mode", "metric", "--radius", "1", "--max-m", "-1"],
    ["--mode", "ball", "--radius"], ["--mode", "ball", "--radius", "1", "--bogus"], ["--mod", "ball"],
    ["--mode", "fixtures"], ["--mode", "fixtures", "--out", "fx_bad", "--radius", "-1"],
]
SOLVING = ["ball", "certify", "chain", "coherent", "metric"]


def requests() -> list[list[str]]:
    """The fixed request list, in the order it runs."""
    out = []
    for graph in GRAPHS:
        for target in TARGETS:
            for lam in WEIGHTS:
                common = ["--graph", graph, "--target", target, "--lambda", lam]
                out += [common + ["--mode", "ball", "--radius", str(r)] for r in range(3)]
                out.append(common + ["--mode", "chain", "--radius", "1", "--max-m", "4"])
                out.append(common + ["--mode", "coherent", "--radius", "1", "--max-m", "5"])
                out.append(common + ["--mode", "metric", "--radius", "1", "--max-m", "2"])
        for lam in WEIGHTS:
            out += [["--graph", graph, "--lambda", lam, "--mode", "certify", "--radius", str(r)] for r in range(4)]
    for mode in SOLVING:
        base = ["--graph", "z", "--mode", mode, "--radius", "1"]
        out += [base + ["--target", t] for t in BAD_TARGETS]
        out += [base + ["--lambda", w] for w in BAD_WEIGHTS]
        out += [["--graph", g, "--mode", mode, "--radius", "1"] for g in BAD_GRAPHS]
    out += FLAG_ERRORS
    out += [
        ["--mode", "coherent", "--graph", "z2", "--radius", "2", "--max-m", "2"],
        ["--mode", "coherent", "--graph", "tree3", "--radius", "1", "--max-m", "1", "--window", "2"],
        ["--mode", "ball", "--graph", "z2", "--radius", "2", "--out", "ball.json"],
        ["--mode", "ball", "--graph", "c5", "--radius", "2", "--out", "singular.json"],
        ["--mode", "ball", "--graph", "z", "--radius", "1", "--out", "no_dir/r.json"],
        ["--mode", "fixtures", "--out", "fx_default"],
        ["--mode", "fixtures", "--out", "fx_seed", "--seed", "7", "--radius", "2", "--graph", "z,tree3,c5,custom.json"],
        ["--mode", "fixtures", "--out", "fx_clash", "--graph", "z,z"],
        ["--mode", "fixtures", "--out", "fx_fail", "--radius", "1", "--graph", "z,tree1"],
        ["--mode", "fixtures", "--out", "custom.json"],
    ]
    return out


def sweep(argvs: list[list[str]]) -> tuple[str, int, int]:
    """Run the requests in a fresh temporary directory; return the digest
    and the request and file counts."""
    from exactlap.cli import run_cli

    digest = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in SPEC_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_cli(list(argv))
                digest.update((json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n").encode())
            files = sorted(p for p in Path(".").rglob("*") if p.is_file())
            for path in files:
                digest.update((json.dumps([path.as_posix(), path.read_text(encoding="utf-8")]) + "\n").encode())
        finally:
            os.chdir(home)
    return digest.hexdigest(), len(argvs), len(files)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else SRC))
    digest, n_requests, n_files = sweep(requests())
    print(f"{digest}  {n_requests} requests, {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
