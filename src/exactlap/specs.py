"""Input specs on the command line: shorthand, inline JSON, or a file path.

A graph, target or weight description comes as a compact shorthand
("z2", "tree3", "c5", "delta", "distance"), an inline JSON object, or a
path to a file holding that JSON.  The JSON forms are the canonical ones.
This module reads the text of a spec, turns graph specs into oracles, and
reads the vertex-keyed entries that sparse targets and weight maps hold;
`exactlap.serialize` builds targets and weights.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from .errors import SpecFormatError
from .graphs import family_oracle
from .oracle import GraphOracle
from .wire import _decimal, parse_fraction


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
