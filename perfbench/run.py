"""exactlap benchmark: seeded CLI request lists, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Untraced (``--trace 0``): one closed-loop client runs the workload's request
list through ``python -m exactlap.cli`` on this checkout's ``src``, one child
at a time, in whole passes over the list: at least 100 requests, then on
until ``--seconds`` is reached.  Each child's wall time (spawn to exit) and
peak RSS are taken from ``os.wait4`` in a small spawn helper (see
``spawner.py``).  Set-up time is the median of several requests that do no
work, taken before and after the loop.

Traced (``--trace 1``): the same list runs in-process through
``exactlap.cli.run_cli``, in passes that alternate between untraced and
traced with span-recording wrappers installed (see ``layers.py``); the
per-layer metrics are per traced pass over the list.

Every outcome is checked (see ``verify.py``); the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
human-readable summary with the environment fingerprint goes to stderr, and
``--record FILE`` also writes it as JSON.  ``--write-digests`` regenerates the
stdout digest table for the default seed from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import marshal
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

REQUEST_TIMEOUT_S = 60.0
# past this many seconds of a run each request is cut short at 0.1 s, so
# that a run whose requests hang still ends in time, with them timed out
RUN_LIMIT_S = 120.0
SETUP_SAMPLES = 10
# a run holds at least this many requests, so that >= 10 lie beyond the 90th percentile
MIN_REQUESTS = 100

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.enumerate_ball.calls": "count",
    "graphs.enumerate_ball.self_s": "s",
    "graphs.validate_oracle.self_s": "s",
    "graphs.expand.calls": "count",
    "graphs.expand.self_s": "s",
    "graphs.ball_vertices_max": "count",
    "operators.assemble.calls": "count",
    "operators.assemble.self_s": "s",
    "operators.assemble.cells": "count",
    "operators.assemble.nonzeros": "count",
    "operators.assemble.density": "ratio",
    "operators.restrict.self_s": "s",
    "operators.residual.self_s": "s",
    "linalg.determinant.calls": "count",
    "linalg.determinant.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.canonicalize.calls": "count",
    "linalg.canonicalize.self_s": "s",
    "linalg.image.calls": "count",
    "linalg.image.self_s": "s",
    "linalg.compare.self_s": "s",
    "linalg.result_bits_max": "bits",
    "solver.self_s": "s",
    "solver.deep_solve.calls": "count",
    "solver.deep_solve.distinct": "count",
    "solver.deep_solve.reuse": "ratio",
    "solver.chain.images": "count",
    "serialize.parse.self_s": "s",
    "serialize.emit.self_s": "s",
    "serialize.report_bytes": "bytes",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "cli.startup_share": "ratio",
    "graphs.share": "ratio",
    "operators.share": "ratio",
    "linalg.share": "ratio",
    "solver.share": "ratio",
    "serialize.share": "ratio",
    "cli.share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Child(NamedTuple):
    """What the spawn helper reports about one finished child."""

    code: int  # exit code, negative for a signal
    wall: float  # seconds from spawn to reap
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Spawner:
    """Client of the spawn helper; runs children one at a time."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)

    def run(self, argv, timeout: float = REQUEST_TIMEOUT_S) -> Child:
        """Run ``python argv`` in a child and wait for it."""
        timeout = max(0.1, min(timeout, RUN_LIMIT_S - (time.perf_counter() - STARTED)))
        msg = marshal.dumps(([sys.executable, *argv], self.env, timeout))
        self.proc.stdin.write(struct.pack("<I", len(msg)) + msg)
        self.proc.stdin.flush()
        head = self.proc.stdout.read(4)
        if len(head) < 4:
            raise RuntimeError("spawn helper exited")
        (size,) = struct.unpack("<I", head)
        return Child(*marshal.loads(self.proc.stdout.read(size)))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REQUEST_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def child_env() -> dict[str, str]:
    # a fixed hash seed gives every child the same dict and set layouts
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def cli_argv(req_argv) -> list[str]:
    return ["-m", "exactlap.cli", *req_argv]


def passes(seconds: float, run_pass, per_pass: int, min_requests: int = 0) -> int:
    """Run whole passes until ``min_requests`` are done and ``seconds`` are used.

    Stops once the next pass would end more than half a pass past
    ``seconds``.  Every pass holds the same requests, so percentiles do not
    depend on how many passes fit.
    """
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        run_pass()
        durations.append(time.perf_counter() - t)
        done = len(durations) * per_pass >= min_requests
        if done and time.perf_counter() - start + statistics.mean(durations) / 2 >= seconds:
            return len(durations)


class Checker:
    """Checks outcomes, once per distinct (request, exit code, stdout)."""

    def __init__(self, digests: list[str] | None):
        import verify  # imports exactlap, so only once src is on sys.path

        self.verify = verify
        self.digests = digests
        self.seen: dict[tuple, str | None] = {}
        self.failures: list[str] = []

    def __call__(self, req, code: int, stdout: bytes, idx: int | None = None) -> bool:
        """Whether the outcome is right; ``idx`` selects the committed digest, if any."""
        digest = self.digests[idx] if self.digests and idx is not None else None
        key = (req, code, self.verify.sha256(stdout), digest)
        if key not in self.seen:
            self.seen[key] = self.verify.check(req, code, stdout, digest, str(ROOT))
        reason = self.seen[key]
        if reason is not None:
            self.failures.append(f"{' '.join(req.argv)}: {reason}")
        return reason is None


def load_digests(workload: str, seed: int, requests) -> list[str] | None:
    """The committed stdout digests when running the default seed, else None."""
    if seed != workloads.DEFAULT_SEED:
        return None
    table = json.loads(DIGESTS.read_text())[workload]
    if table["requests_sha256"] != requests_sha256(requests):
        raise SystemExit(f"{DIGESTS.name} was taken for another request list; rerun --write-digests")
    return table["stdout_sha256"]


def requests_sha256(requests) -> str:
    return hashlib.sha256(json.dumps([r.argv for r in requests]).encode()).hexdigest()


def untraced(requests, seconds: float, check: Checker):
    with Spawner(child_env()) as sp:
        sp.run(cli_argv(workloads.NO_WORK))  # compiles bytecode on a fresh checkout
        setup = [sp.run(cli_argv(workloads.NO_WORK)) for _ in range(SETUP_SAMPLES // 2)]
        results = []

        def one_pass():
            for idx, req in enumerate(requests):
                results.append((idx, sp.run(cli_argv(req.argv))))

        start = time.perf_counter()
        rounds = passes(seconds, one_pass, len(requests), MIN_REQUESTS)
        wall = time.perf_counter() - start
        # half the set-up samples after the loop, so that one burst of load
        # on the machine cannot move their median
        setup += [sp.run(cli_argv(workloads.NO_WORK)) for _ in range(SETUP_SAMPLES - len(setup))]
    no_work = workloads.Request(workloads.NO_WORK)
    failed = sum(not check(no_work, c.code, c.stdout) for c in setup)
    for idx, c in results:
        if c.timed_out:
            failed += 1
            check.failures.append(f"{' '.join(requests[idx].argv)}: timed out")
        elif not check(requests[idx], c.code, c.stdout, idx):
            failed += 1
    done = [c for _, c in results if not c.timed_out]
    latencies = [c.wall for c in done]
    metrics = {
        "setup_s": statistics.median(c.wall for c in setup),
        "requests_per_s": len(done) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": max(c.maxrss_kb for c in done) / 1024,
    }
    samples = {"requests": len(results), "passes": rounds, "setup": len(setup)}
    return metrics, len(results) + len(setup), failed, samples


def in_process_pass(requests, check: Checker, tracer=None) -> tuple[int, int, int]:
    """One pass over the list through ``run_cli``.

    Returns the failures, the nanoseconds spent inside the calls and the
    bytes of stdout.  Outcomes are checked outside the timed calls, and only once per
    distinct output, so checking does not count as traced or untraced time.
    """
    import exactlap.cli

    failed = busy_ns = out_bytes = 0
    for idx, req in enumerate(requests):
        if tracer is not None:
            tracer.request += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = exactlap.cli.run_cli(list(req.argv))
        busy_ns += time.perf_counter_ns() - start
        stdout = out.getvalue().encode()
        out_bytes += len(stdout)
        failed += not check(req, code, stdout, idx)
    return failed, busy_ns, out_bytes


def traced(requests, seconds: float, check: Checker):
    import layers

    with Spawner(child_env()) as sp:
        startup = [sp.run(["-c", "import exactlap.cli"]) for _ in range(SETUP_SAMPLES)]
    failed = sum(c.code != 0 for c in startup)
    startup_s = statistics.median(c.wall for c in startup)

    # an untimed first pass fills first-call caches and runs each deep check once
    bad, _, report_bytes = in_process_pass(requests, check)
    failed += bad
    tracer = layers.Tracer()
    plain_ns = traced_ns = 0

    def pair():
        # untraced and traced passes alternate, so that drift in the
        # machine's speed does not show up as tracing overhead
        nonlocal failed, plain_ns, traced_ns
        bad, ns, _ = in_process_pass(requests, check)
        failed, plain_ns = failed + bad, plain_ns + ns
        tracer.install()
        try:
            bad, ns, _ = in_process_pass(requests, check, tracer)
        finally:
            tracer.restore()
        failed, traced_ns = failed + bad, traced_ns + ns

    rounds = passes(seconds, pair, len(requests))
    reason = layers.accounting_error(tracer.spans, traced_ns)
    if reason is not None:
        failed += 1
        check.failures.append(f"trace accounting: {reason}")
    metrics = layers.layer_metrics(tracer.spans, tracer.counters, rounds, traced_ns, plain_ns)
    metrics["serialize.report_bytes"] = report_bytes
    metrics["cli.startup_s"] = startup_s
    per_request_s = plain_ns / 1e9 / (rounds * len(requests))
    metrics["cli.startup_share"] = startup_s / (startup_s + per_request_s)
    samples = {"requests": (2 * rounds + 1) * len(requests), "passes": 2 * rounds + 1,
               "spans": len(tracer.spans), "startup": len(startup)}
    # the accounting check counts as one attempt
    return metrics, samples["requests"] + len(startup) + 1, failed, samples


def fingerprint() -> dict:
    """What a number depends on besides the code: never compare across these."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "machine": platform.machine(),
    }


def write_digests() -> None:
    """Record the stdout digest of every default-seed request, after checking it."""
    import verify

    table = {}
    with Spawner(child_env()) as sp:
        for name in workloads.WORKLOADS:
            requests = workloads.build(name, workloads.DEFAULT_SEED)
            digests = []
            for req in requests:
                c = sp.run(cli_argv(req.argv))
                reason = verify.check(req, c.code, c.stdout, None, str(ROOT))
                if reason is not None:
                    raise SystemExit(f"{' '.join(req.argv)}: {reason}\n{c.stderr.decode()}")
                digests.append(verify.sha256(c.stdout))
            table[name] = {"requests_sha256": requests_sha256(requests), "stdout_sha256": digests}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the summary with its environment as JSON")
    parser.add_argument("--write-digests", action="store_true",
                        help="regenerate the default-seed stdout digests and exit")
    args = parser.parse_args(argv)
    if not (SRC / "exactlap" / "cli.py").is_file():
        print(f"no exactlap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_digests:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    try:
        if args.write_digests:
            write_digests()
            return 0
        requests = workloads.build(args.workload, args.seed)
        checker = Checker(load_digests(args.workload, args.seed, requests))
        if args.trace:
            metrics, attempted, failed, samples = traced(requests, args.seconds, checker)
            names = PER_LAYER
        else:
            metrics, attempted, failed, samples = untraced(requests, args.seconds, checker)
            names = END_TO_END
    finally:
        shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": fingerprint(), "samples": samples,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": checker.failures[:20],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in names.items()},
    }
    for line in checker.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in summary.items() if k != "metrics"}), file=sys.stderr)
    for k, m in summary["metrics"].items():
        print(f"{k:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
