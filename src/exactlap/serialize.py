"""Targets and weights from their specs; the wire formats' front door.

Every target and weight shorthand ("delta", "radial:1,1/2", "distance",
"3/2") stands for a canonical JSON spec, and `target_from_json` /
`lambda_from_json` build each one, so each check lives in one place.
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


# the fields each target and weight kind reads besides "kind"; any other key is an error
_TARGET_FIELDS = {"delta": (), "zero": (), "geometric": (), "radial": ("coeffs",), "sparse": ("entries",)}
_WEIGHT_FIELDS = {"zero": (), "constant": ("value",), "distance": (), "map": ("entries",)}


def _kind(spec: dict, fields: dict, what: str) -> str:
    """The spec's kind, once ``fields`` names it and the spec gives no field that kind does not read."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in fields:
        raise SpecFormatError(f"unknown {what} kind {kind!r}")
    unread = [k for k in spec if k != "kind" and k not in fields[kind]]
    if unread:
        raise SpecFormatError(f"{what} kind {kind!r} does not read field {unread[0]!r}")
    return kind


def target_from_json(spec: dict) -> TargetFunction:
    """Build a target from its canonical JSON description.

    Kinds: {"kind":"delta"}; {"kind":"zero"}; {"kind":"geometric"} (value
    2^-d at distance d); {"kind":"radial","coeffs":[...]} (zero beyond the
    list); {"kind":"sparse","entries":{"id":"p/q",...}} keyed by vertex id.
    Any other key fails.
    """
    kind = _kind(spec, _TARGET_FIELDS, "target")
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
    return TargetFunction.sparse(_vertex_entries(spec, "sparse target"))  # sparse, the one kind left


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


def _weight(build, data) -> LambdaField:
    """``build(data)``, whose sign check in `exactlap.operators` reads as a spec error here."""
    try:
        return build(data)
    except ValueError as e:
        raise SpecFormatError(str(e)) from None


def lambda_from_json(spec: dict) -> LambdaField:
    """Build a diagonal weight from its canonical JSON description.

    Kinds: {"kind":"zero"}; {"kind":"constant","value":"p/q"};
    {"kind":"distance"}; {"kind":"map","entries":{"id":"p/q",...}}.  Any
    other key fails.
    """
    kind = _kind(spec, _WEIGHT_FIELDS, "weight")
    if kind == "zero":
        return LambdaField.zero()
    if kind == "constant":
        if "value" not in spec:
            raise SpecFormatError("constant weight requires a 'value'")
        return _weight(LambdaField.constant, parse_fraction(spec["value"]))
    if kind == "distance":
        return LambdaField.distance()
    return _weight(LambdaField.from_map, _vertex_entries(spec, "map weight"))  # map, the one kind left


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
