"""Targets and weights from their specs; the wire formats' front door.

Every target and weight shorthand ("delta", "radial:1,1/2", "distance",
"3/2") stands for a canonical JSON spec, and `target_from_json` /
`lambda_from_json` build each one, so each check lives in one place:
each kind is one row of `_TARGETS` or `_WEIGHTS`, as each graph family is
one row of `exactlap.graphs._FAMILIES`.
Rational strings and the JSON report are in `exactlap.wire`, the spec text
and graph specs in `exactlap.specs`; the benchmark binds and imports
their functions here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SpecFormatError
from .functions import TargetFunction
from .operators import LambdaField
from .specs import _load_spec_text, _vertex_entries
from .wire import _FRACTION_RE, parse_fraction
# kept for the benchmark, whose tracer and verifier find these here
from .specs import graph_from_text, graph_spec_from_text
from .wire import ball_function_from_json, dump_report, solution_to_json


def _coeffs(spec: dict, what: str) -> list[Fraction]:
    coeffs = spec.get("coeffs")
    if not isinstance(coeffs, list):
        raise SpecFormatError(f"{what} requires a 'coeffs' list")
    return [parse_fraction(c) for c in coeffs]


def _value(spec: dict, what: str) -> Fraction:
    if "value" not in spec:
        raise SpecFormatError(f"{what} requires a 'value'")
    return parse_fraction(spec["value"])


# each field's reader, given the spec and the "<kind> <what>" its messages name
_READERS = {"coeffs": _coeffs, "value": _value, "entries": _vertex_entries}

# each kind's builder, then the fields it reads besides "kind"; any other key is an error
_TARGETS = {
    "delta": (TargetFunction.delta,), "zero": (lambda: TargetFunction.radial(()),),
    "geometric": (lambda: TargetFunction.radial_fn(lambda d: Fraction(1, 2**d)),),
    "radial": (TargetFunction.radial, "coeffs"), "sparse": (TargetFunction.sparse, "entries"),
}
_WEIGHTS = {
    "zero": (LambdaField.zero,), "constant": (LambdaField.constant, "value"),
    "distance": (LambdaField.distance,), "map": (LambdaField.from_map, "entries"),
}


def _from_json(spec: dict, kinds: dict, what: str):
    """Build the spec's kind from ``kinds`` once the spec gives no field that kind does not read.

    A weight's sign check in `exactlap.operators` raises ValueError, which reads as a spec error here.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecFormatError(f"unknown {what} kind {kind!r}")
    build, *fields = kinds[kind]
    unread = [k for k in spec if k != "kind" and k not in fields]
    if unread:
        raise SpecFormatError(f"{what} kind {kind!r} does not read field {unread[0]!r}")
    args = [_READERS[field](spec, f"{kind} {what}") for field in fields]
    try:
        return build(*args)
    except ValueError as e:
        raise SpecFormatError(str(e)) from None


def target_from_json(spec: dict) -> TargetFunction:
    """Build a target from its canonical JSON description.

    Kinds: {"kind":"delta"}; {"kind":"zero"}; {"kind":"geometric"} (value
    2^-d at distance d); {"kind":"radial","coeffs":[...]} (zero beyond the
    list); {"kind":"sparse","entries":{"id":"p/q",...}} keyed by vertex id.
    Any other key fails.
    """
    return _from_json(spec, _TARGETS, "target")


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
    {"kind":"distance"}; {"kind":"map","entries":{"id":"p/q",...}}.  Any
    other key fails.
    """
    return _from_json(spec, _WEIGHTS, "weight")


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
