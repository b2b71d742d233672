"""Wall time and peak RSS of a fixed list of heavy command-line requests,
to show what a change does to the work, which start-up hides in the
benchmark.

Each package tree is copied to a temporary directory without its
``__pycache__`` folders, and each request runs as a child
``python -m exactlap.cli`` with ``PYTHONPATH`` naming one copy; its wall
time (spawn to reap) and peak RSS come from `os.wait4`.  On Linux a child's
``ru_maxrss`` starts from the peak of the process that spawned it, so this
tool imports only the standard library and keeps its own peak below any
child's.  The children write no bytecode (``PYTHONDONTWRITEBYTECODE=1``)
and run with no ``PYTHONPYCACHEPREFIX``, even when the caller has one, so
each one compiles the package from source and reads the standard library
from the interpreter's own cache, as a child of a fresh checkout does.
The SHA-256 of each stdout shows that a faster side gives the same answer.

    python tools/work.py                    # the package in src/ beside tools/
    python tools/work.py PARENT/src src     # a parent and a change

Given two trees, each of `ROUNDS` rounds runs every request on both,
alternating which side runs first, and the change wins a round when its
wall time is lower.  A gain holds by the rule of the benchmark: the change
wins at least nine tenths of the rounds, and its median is lower than the
parent's by more than the parent's quartile spread.

Prints one JSON object; exits 1 when a request's exit code or stdout digest
is not the same in every run of both sides.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROUNDS = 10

REQUESTS = [
    ["--mode", "coherent", "--graph", "z2", "--radius", "20", "--max-m", "22"],
    ["--mode", "certify", "--graph", "z3", "--radius", "8"],
    ["--mode", "ball", "--graph", "z2", "--radius", "25", "--target", "delta"],
    ["--mode", "ball", "--graph", "z2", "--radius", "25", "--lambda", "distance"],
]

CACHE_STATE = (
    "package: none, copied without __pycache__ and PYTHONDONTWRITEBYTECODE=1, every child compiles it;"
    " standard library: the interpreter's own cache, no PYTHONPYCACHEPREFIX"
)


def fingerprint() -> dict:
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as info:  # Linux names the model here
        cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "bytecode_cache": CACHE_STATE,
    }


def run(argv: list[str], env: dict[str, str], cwd: str) -> tuple[int, float, int, str]:
    """One child: its exit code, wall seconds, peak RSS in KiB and stdout digest."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "exactlap.cli", *argv], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen waits no more
        out.seek(0)
        return child.returncode, wall, usage.ru_maxrss, hashlib.sha256(out.read()).hexdigest()


def quartiles(runs: list[tuple[int, float, int, str]]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of the wall times."""
    walls = [wall for _, wall, _, _ in runs]
    # statistics' default method; a lone run is its own quartiles
    return tuple(statistics.quantiles(walls, n=4)) if len(walls) > 1 else (walls[0],) * 3


def summary(runs: list[tuple[int, float, int, str]]) -> dict:
    q1, median, q3 = quartiles(runs)
    code, _, _, digest = runs[0]
    return {
        "walls_s": [round(wall, 4) for _, wall, _, _ in runs],
        "median_s": round(median, 4),
        "quartiles_s": [round(q1, 4), round(q3, 4)],
        "peak_rss_mb": round(statistics.median(rss for _, _, rss, _ in runs) / 1024, 2),
        "exit_code": code,
        "stdout_sha256": digest,
    }


def compare(parent: list[tuple[int, float, int, str]], change: list[tuple[int, float, int, str]]) -> dict:
    """The change's wins, and whether a gain holds or the change is slower beyond the parent's spread."""
    wins = sum(c[1] < p[1] for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = median - quartiles(change)[1]
    return {
        "change_wins": wins,
        "median_gap_s": round(gap, 4),
        "parent_spread_s": round(q3 - q1, 4),
        "gain_holds": 10 * wins >= 9 * len(parent) and gap > q3 - q1,
        "slower_beyond_spread": -gap > q3 - q1,
    }


def work(srcs: list[Path], requests: list[list[str]], rounds: int) -> int:
    """Run ``rounds`` rounds of the requests on one tree or on a parent and a change; print the JSON."""
    names = ("parent", "change") if len(srcs) == 2 else ("src",)
    runs = {name: [[] for _ in requests] for name in names}
    with tempfile.TemporaryDirectory() as home:
        base = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
        envs = {}
        for name, src in zip(names, srcs):
            copy = Path(home) / name
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            envs[name] = dict(base, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        for r in range(rounds):
            for i, argv in enumerate(requests):
                for name in names if r % 2 == 0 else names[::-1]:
                    runs[name][i].append(run(argv, envs[name], home))
    report, same = [], True
    for i, argv in enumerate(requests):
        entry = {"argv": argv, **{name: summary(runs[name][i]) for name in names}}
        outcomes = {(code, digest) for name in names for code, _, _, digest in runs[name][i]}
        entry["same_output"] = len(outcomes) == 1
        same &= entry["same_output"]
        if len(names) == 2:
            entry.update(compare(runs["parent"][i], runs["change"][i]))
        report.append(entry)
    print(json.dumps({"fingerprint": fingerprint(), "rounds": rounds, "requests": report}, indent=2))
    return 0 if same else 1


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: python tools/work.py [SRC [SRC]]", file=sys.stderr)
        return 2
    return work([Path(a) for a in argv] or [SRC], REQUESTS, ROUNDS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
