"""Values on the wire: exact rational strings, and the JSON report.

Every number crossing a process boundary is an exact rational rendered as
"p/q" (or just "p" when the denominator is 1); parsers accept both forms
and plain integers.  Floats are rejected everywhere, by policy.  A report
is one JSON object with solution values keyed by vertex label, and every
verified solve shows the same three fields, from `verified_fields`.  Graph,
target and weight specs are read in `exactlap.specs` and
`exactlap.serialize`.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from fractions import Fraction

from .errors import SpecFormatError
from .functions import BallFunction
from .operators import LambdaField

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$", re.ASCII)


def format_fraction(x: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _decimal(digits: str) -> int:
    """An ASCII decimal literal as an int.

    CPython refuses to convert literals over its digit limit (4,300 digits
    by default); here that is malformed input.
    """
    try:
        return int(digits)
    except ValueError:
        raise SpecFormatError(f"integer literal of {len(digits)} characters is too long") from None


def parse_fraction(text) -> Fraction:
    """Parse "p/q", "p", or an integer into an exact rational.

    Floats are refused: accepting them would silently launder binary
    rounding error into the exact pipeline.
    """
    if isinstance(text, bool):
        raise SpecFormatError(f"expected a rational, got boolean {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise SpecFormatError(f"floats are not accepted, got {text!r}; write an exact 'p/q' string")
    if not isinstance(text, str) or not _FRACTION_RE.match(text.strip()):
        raise SpecFormatError(f"not a rational literal: {text!r}")
    s = text.strip()
    if "/" in s:
        num, den = map(_decimal, s.split("/"))
        if den == 0:
            raise SpecFormatError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(_decimal(s))


def describe_lambda(lam: LambdaField) -> str:
    if lam.kind == "constant":
        return f"constant {format_fraction(lam.data)}"
    return lam.kind


def solution_to_json(fn: BallFunction) -> dict[str, str]:
    """Solution values keyed by the family's native vertex labels, in ball order."""
    return {label: format_fraction(x) for label, x in fn.label_items()}


def verified_fields(rep) -> dict:
    """The report fields of a `exactlap.direct.SolveReport`, in report order:
    the solution, its re-check and its distance bound."""
    return {
        "solution": solution_to_json(rep.solution),
        "residual_zero": rep.residual_ok,
        "metric_bound": format_fraction(rep.metric_bound),
    }


def ball_function_from_json(ball, values: Mapping[str, str]) -> BallFunction:
    """Rebuild a function on a ball from label-keyed JSON values.

    Labels are injective within every built-in family, so the mapping back
    to ids is unambiguous; missing or extra labels are an error.
    """
    parsed = {str(k): parse_fraction(v) for k, v in values.items()}
    out = []
    for v in ball.vertices:
        label = ball.oracle.label(v)
        if label not in parsed:
            raise SpecFormatError(f"solution is missing vertex {label!r}")
        out.append(parsed[label])
    if len(parsed) != len(out):
        extra = sorted(set(parsed) - {ball.oracle.label(v) for v in ball.vertices})
        raise SpecFormatError(f"solution has labels outside the ball: {extra}")
    return BallFunction(ball, tuple(out))


def dump_report(report: dict) -> str:
    """Canonical textual form of a JSON report: stable key order, trailing newline."""
    return json.dumps(report, indent=2) + "\n"
