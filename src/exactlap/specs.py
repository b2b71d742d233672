"""Input specs on the command line: shorthand, inline JSON, or a file path.

A graph, target or weight description comes as a compact shorthand
("z2", "tree3", "c5", "delta", "distance"), an inline JSON object, or a
path to a file holding that JSON.  The JSON forms are the canonical ones.
Graph shorthands come from two tables: bare words, and prefixes followed
by ASCII decimal digits; any other text is read as JSON or a file.
This module reads the text of a spec, turns graph specs into oracles, and
reads the vertex-keyed entries that sparse targets and weight maps hold;
`exactlap.serialize` builds targets and weights.
"""

from __future__ import annotations

import json
import os
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

    def unique_keys(pairs: list) -> dict:
        """An object of the spec, at any depth; json's own reader keeps a repeated key's last value."""
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SpecFormatError(f"{source} names key {key!r} twice")
            seen.add(key)
        return dict(pairs)

    try:
        if not inline:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text, object_pairs_hook=unique_keys)
    except OSError as e:
        raise SpecFormatError(f"{source} cannot be read: {e.strerror}") from None
    except UnicodeDecodeError:
        raise SpecFormatError(f"{source} is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise SpecFormatError(f"{source} is not valid JSON: {e}") from None
    except ValueError:  # an integer over CPython's digit limit
        raise SpecFormatError(f"{source} holds an integer literal that is too long") from None
    except RecursionError:
        raise SpecFormatError(f"{source} is nested too deeply") from None
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{what} spec must be a JSON object, got {type(obj).__name__}")
    return obj


# bare shorthands; a bare `ladder` keeps the width that fixtures record
_GRAPH_WORDS = {
    "z": {"family": "line"},
    "z2": {"family": "grid", "dims": 2},
    "z3": {"family": "grid", "dims": 3},
    "ladder": {"family": "ladder", "width": 2},
}

# prefixes followed by ASCII decimal digits: the family, and the field the digits give
_GRAPH_PREFIXES = {
    "tree": ("tree", "degree"),
    "ladder": ("ladder", "width"),
    "free": ("free_group", "rank"),
    "c": ("cycle", "size"),
    "p": ("path", "size"),
}


def graph_spec_from_text(text: str) -> dict:
    """Turn a CLI graph argument into a canonical family spec dict.

    Shorthands: z, z2, z3 (line and grids), treeD, ladder / ladderW,
    freeR, cK (cycle), pK (path), where D, W, R and K are ASCII decimal
    digits.  Anything else must be inline JSON or a file path.
    """
    s = text.strip()
    if s in _GRAPH_WORDS:
        return dict(_GRAPH_WORDS[s])
    prefix = s.rstrip("0123456789")
    if prefix != s and prefix in _GRAPH_PREFIXES:
        family, field = _GRAPH_PREFIXES[prefix]
        return {"family": family, field: _decimal(s[len(prefix) :])}
    return _load_spec_text(text, "graph")


def graph_from_text(text: str) -> GraphOracle:
    return family_oracle(graph_spec_from_text(text))


def _vertex_id(key, what: str) -> int:
    """A breadth-first vertex id written in ASCII decimal digits."""
    text = str(key)
    if not (text.isascii() and text.isdigit()):
        raise SpecFormatError(f"{what} key {key!r} is not a vertex id")
    return _decimal(text)


def _vertex_entries(spec: dict, what: str) -> dict[int, Fraction]:
    """The spec's 'entries': rational values keyed by vertex id, no two keys naming one vertex."""
    entries = spec.get("entries")
    if not isinstance(entries, dict):
        raise SpecFormatError(f"{what} requires an 'entries' object keyed by vertex id")
    out: dict[int, Fraction] = {}
    for k, v in entries.items():
        vertex = _vertex_id(k, what)
        if vertex in out:
            raise SpecFormatError(f"{what} names vertex {vertex} twice")
        out[vertex] = parse_fraction(v)
    return out
