"""Wire formats: rational strings, input specs, and JSON reports.

Every number crossing a process boundary is an exact rational rendered as
"p/q" (or just "p" when the denominator is 1); parsers accept both forms
and plain integers.  Floats are rejected everywhere, by policy.

Graph, target, and weight descriptions come in three interchangeable
shapes on the command line: a compact shorthand ("z2", "tree3", "c5",
"delta", "distance"), an inline JSON object, or a path to a file holding
that JSON.  The JSON forms are the canonical ones and are what reports
echo back.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Mapping
from fractions import Fraction

from .errors import SpecFormatError
from .graphs import GraphOracle, family_oracle
from .operators import BallFunction, LambdaField, TargetFunction

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


def _load_spec_text(text: str, what: str) -> dict:
    """Interpret a CLI value as inline JSON or a JSON file path."""
    inline = text.lstrip().startswith("{")
    if inline:
        source = f"inline {what} spec"
    elif os.path.exists(text):
        source = f"{what} spec file {text!r}"
    else:
        raise SpecFormatError(f"unrecognized {what} spec {text!r}: not a shorthand, inline JSON, or existing file")
    try:
        if inline:
            obj = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except OSError as e:
        raise SpecFormatError(f"{source} cannot be read: {e.strerror}") from None
    except UnicodeDecodeError:
        raise SpecFormatError(f"{source} is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise SpecFormatError(f"{source} is not valid JSON: {e}") from None
    except ValueError:  # an integer over CPython's digit limit
        raise SpecFormatError(f"{source} holds an integer literal that is too long") from None
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{what} spec must be a JSON object, got {type(obj).__name__}")
    return obj


_GRAPH_SHORTHAND = re.compile(r"^(z|z2|z3|tree(\d+)|ladder(\d*)|free(\d+)|c(\d+)|p(\d+))$", re.ASCII)


def graph_spec_from_text(text: str) -> dict:
    """Turn a CLI graph argument into a canonical family spec dict.

    Shorthands: z, z2, z3 (line and grids), treeD, ladder / ladderW,
    freeR, cK (cycle), pK (path).  Anything else must be inline JSON or a
    file path.
    """
    m = _GRAPH_SHORTHAND.match(text.strip())
    if m:
        s = m.group(1)
        if s == "z":
            return {"family": "line"}
        if s in ("z2", "z3"):
            return {"family": "grid", "dims": int(s[1])}
        if s.startswith("tree"):
            return {"family": "tree", "degree": _decimal(m.group(2))}
        if s.startswith("ladder"):
            return {"family": "ladder", "width": _decimal(m.group(3)) if m.group(3) else 2}
        if s.startswith("free"):
            return {"family": "free_group", "rank": _decimal(m.group(4))}
        if s.startswith("c"):
            return {"family": "cycle", "size": _decimal(m.group(5))}
        return {"family": "path", "size": _decimal(m.group(6))}
    return _load_spec_text(text, "graph")


def graph_from_text(text: str) -> GraphOracle:
    return family_oracle(graph_spec_from_text(text))


def _vertex_id(key, what: str) -> int:
    """A breadth-first vertex id written in ASCII decimal digits."""
    text = str(key)
    if not (text.isascii() and text.isdigit()):
        raise SpecFormatError(f"{what} key {key!r} is not a vertex id")
    return _decimal(text)


def _vertex_entries(entries: dict, what: str) -> dict[int, Fraction]:
    """Rational values keyed by vertex id; two keys may not name one vertex."""
    out: dict[int, Fraction] = {}
    for k, v in entries.items():
        vertex = _vertex_id(k, what)
        if vertex in out:
            raise SpecFormatError(f"{what} names vertex {vertex} twice")
        out[vertex] = parse_fraction(v)
    return out


def target_from_json(spec: dict) -> TargetFunction:
    """Build a target from its canonical JSON description.

    Kinds: {"kind":"delta"}; {"kind":"zero"}; {"kind":"geometric"} (value
    2^-d at distance d); {"kind":"radial","coeffs":[...]} (zero beyond the
    list); {"kind":"sparse","entries":{"id":"p/q",...}} keyed by vertex id.
    """
    kind = spec.get("kind")
    if kind == "delta":
        return TargetFunction.delta()
    if kind == "zero":
        return TargetFunction.radial(())
    if kind == "geometric":
        return TargetFunction.radial_fn(lambda d: Fraction(1, 2**d))
    if kind == "radial":
        coeffs = spec.get("coeffs")
        if not isinstance(coeffs, list):
            raise SpecFormatError("radial target requires a 'coeffs' list")
        return TargetFunction.radial([parse_fraction(c) for c in coeffs])
    if kind == "sparse":
        entries = spec.get("entries")
        if not isinstance(entries, dict):
            raise SpecFormatError("sparse target requires an 'entries' object keyed by vertex id")
        return TargetFunction.sparse(_vertex_entries(entries, "sparse target"))
    raise SpecFormatError(f"unknown target kind {kind!r}")


def target_from_text(text: str) -> TargetFunction:
    """CLI target argument: shorthand, inline JSON, or file path.

    Shorthands stand for canonical JSON specs: delta, zero, geometric, and
    radial:c0,c1,... with rational coefficients.  Bare ``radial:`` is the
    empty list; an empty coefficient is malformed, not skipped.
    """
    s = text.strip()
    if s in ("delta", "zero", "geometric"):
        return target_from_json({"kind": s})
    if s.startswith("radial:"):
        body = s[len("radial:") :]
        coeffs = body.split(",") if body else []
        return target_from_json({"kind": "radial", "coeffs": coeffs})
    return target_from_json(_load_spec_text(text, "target"))


def lambda_from_json(spec: dict) -> LambdaField:
    """Build a diagonal weight from its canonical JSON description.

    Kinds: {"kind":"zero"}; {"kind":"constant","value":"p/q"};
    {"kind":"distance"}; {"kind":"map","entries":{"id":"p/q",...}}.
    """
    kind = spec.get("kind")
    if kind == "zero":
        return LambdaField.zero()
    if kind == "constant":
        if "value" not in spec:
            raise SpecFormatError("constant weight requires a 'value'")
        value = parse_fraction(spec["value"])
        if value < 0:
            raise SpecFormatError(f"weight must be nonnegative, got {value}")
        return LambdaField.constant(value)
    if kind == "distance":
        return LambdaField.distance()
    if kind == "map":
        entries = spec.get("entries")
        if not isinstance(entries, dict):
            raise SpecFormatError("map weight requires an 'entries' object keyed by vertex id")
        clean = _vertex_entries(entries, "map weight")
        for vertex, value in clean.items():
            if value < 0:
                raise SpecFormatError(f"weight must be nonnegative, got {value} at vertex {vertex}")
        return LambdaField.from_map(clean)
    raise SpecFormatError(f"unknown weight kind {kind!r}")


def lambda_from_text(text: str) -> LambdaField:
    """CLI weight argument: zero | distance | a rational constant | JSON."""
    s = text.strip()
    if s in ("zero", "0"):
        return lambda_from_json({"kind": "zero"})
    if s in ("distance", "dist"):
        return lambda_from_json({"kind": "distance"})
    if _FRACTION_RE.match(s):
        return lambda_from_json({"kind": "constant", "value": s})
    return lambda_from_json(_load_spec_text(text, "weight"))


def describe_lambda(lam: LambdaField) -> str:
    if lam.kind == "constant":
        return f"constant {format_fraction(lam.data)}"
    return lam.kind


def solution_to_json(fn: BallFunction) -> dict[str, str]:
    """Solution values keyed by the family's native vertex labels, in ball order."""
    return {label: format_fraction(x) for label, x in fn.label_items()}


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
