"""Correctness gate: does one CLI outcome match what its request implies?

Exit code and status come from the request.  Beyond them, every reported
solution is parsed back and the operator is re-applied with
``exactlap.operators.apply_laplacian`` against the target, at exact
equality, so a wrong number fails even when the report claims
``residual_zero``.  On the default seed each stdout must also match the
committed SHA-256 digest, because reports must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from exactlap.errors import ExactLapError
from exactlap.graphs import enumerate_ball
from exactlap.operators import apply_laplacian
from exactlap.serialize import (
    ball_function_from_json,
    graph_from_text,
    lambda_from_text,
    parse_fraction,
    target_from_text,
)

from workloads import Request


class Mismatch(Exception):
    """An outcome that differs from what its request implies."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(req: Request, code: int, stdout: bytes, digest: str | None = None,
          root: str = ".") -> str | None:
    """None when the outcome is right, else a one-line reason."""
    if code != req.code:
        return f"exit code {code}, expected {req.code}"
    if digest is not None and sha256(stdout) != digest:
        return "stdout differs from the committed digest"
    if req.status is None:
        return None if not stdout else "stdout is not empty on an error exit"
    try:
        report = json.loads(stdout)
        if report.get("status") != req.status:
            raise Mismatch(f"status {report.get('status')!r}, expected {req.status!r}")
        _check_report(req, report, root)
    except (Mismatch, ExactLapError, OSError, ValueError, KeyError, TypeError) as e:
        return f"{type(e).__name__}: {e}"
    return None


def _check_report(req: Request, report: dict, root: str) -> None:
    flags = req.flags()
    mode = flags["--mode"]
    if mode == "fixtures":
        _check_fixtures(flags, report, root)
        return
    n = int(flags["--radius"])
    if report["status"] == "singular":
        if not (report["singular_expected_finite"] and report["boundary_saturated"]):
            raise Mismatch("singular system not flagged as an expected finite saturation")
        if report["radius"] != n:
            raise Mismatch(f"singular at radius {report['radius']}, asked {n}")
        return
    if mode == "certify":
        _check_certify(req, report)
        return
    if mode == "metric":
        _check_metric(flags, report)
        return
    oracle = graph_from_text(flags["--graph"])
    target = target_from_text(flags.get("--target", "delta"))
    lam = lambda_from_text(flags.get("--lambda", "zero"))
    if mode == "ball":
        if report["residual_zero"] is not True:
            raise Mismatch("residual_zero is not true")
        inner = enumerate_ball(oracle, n)
        if report["ball_size"] != inner.size:
            raise Mismatch(f"ball_size {report['ball_size']}, expected {inner.size}")
        f = ball_function_from_json(inner, report["solution"])
        _check_preimage(oracle, f.extend_zero(enumerate_ball(oracle, n + 1)), target, lam)
    elif mode == "chain":
        dims = [img["dim"] for img in report["images"]]
        if any(b > a for a, b in zip(dims, dims[1:])) or report["stabilized_at"] is None:
            raise Mismatch(f"chain dims {dims} are not a stabilized non-increasing chain")
        f = ball_function_from_json(enumerate_ball(oracle, n + 1), report["universal_element"])
        _check_preimage(oracle, f, target, lam)
    elif mode == "coherent":
        if report["residual_zero"] is not True:
            raise Mismatch("residual_zero is not true")
        family = report["family"]
        if len(family) != n + 1 or family[-1]["solution"] != report["solution"]:
            raise Mismatch("family does not end in the reported solution")
        prev = None
        for level, item in enumerate(family):
            f = ball_function_from_json(enumerate_ball(oracle, level + 1), item["solution"])
            _check_preimage(oracle, f, target, lam)
            if prev is not None and f.values[: len(prev.values)] != prev.values:
                raise Mismatch(f"level {level} does not extend level {level - 1}")
            prev = f
    else:
        raise Mismatch(f"no check for mode {mode!r}")


def _check_preimage(oracle, f, target, lam) -> None:
    """L f must equal the target on the ball one smaller than f's domain."""
    applied = apply_laplacian(oracle, f, lam)
    if applied.values != target.on_ball(applied.ball).values:
        raise Mismatch(f"operator applied to the solution misses the target on B_{applied.ball.radius}")


def _check_certify(req: Request, report: dict) -> None:
    det = parse_fraction(report["determinant"])
    if report["passes"] is not True:
        raise Mismatch("certificate does not pass")
    if req.saturated:
        if report["strict_inclusion"] or det != 0:
            raise Mismatch("saturated finite ball must give a zero determinant")
    elif not report["strict_inclusion"] or det == 0:
        raise Mismatch("unsaturated ball must give a strict inclusion and nonzero determinant")


def _check_metric(flags: dict, report: dict) -> None:
    depth = min(int(flags["--radius"]), int(flags["--max-m"]))
    lower, upper = (parse_fraction(b) for b in report["bounds"])
    if report["depth"] != depth or lower < 0 or upper - lower != Fraction(1, 2 ** (depth + 1)):
        raise Mismatch(f"bounds {report['bounds']} at depth {report['depth']} are not a tail-wide bracket")


def _check_fixtures(flags: dict, report: dict, root: str) -> None:
    families = flags["--graph"].split(",")
    if report["files"] != [f"{fam}.json" for fam in families]:
        raise Mismatch(f"fixture files {report['files']} do not match {families}")
    for name in report["files"]:
        with open(os.path.join(root, flags["--out"], name), encoding="utf-8") as fh:
            fixture = json.load(fh)
        for res in fixture["results"]:
            good = res.get("residual_zero") is True or res.get("singular_expected_finite") is True
            if not good:
                raise Mismatch(f"fixture {name} radius {res['radius']} has no verified outcome")
