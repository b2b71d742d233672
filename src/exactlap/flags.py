"""The flag grammar of the command line, read without importing argparse.

Flags come from one table and are read with argparse's grammar: long flags
only, ``--flag value`` or ``--flag=value``, a unique prefix for any flag,
the last of repeated flags wins.  The usage and help texts are fixed
strings, as argparse printed them at 80 columns.  A bad flag exits 64 with
the usage, the error and the schema help on standard error.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

# the exit codes of the command line, documented in exactlap.cli
EXIT_OK = 0
EXIT_ANOMALY = 2
EXIT_INVALID = 3
EXIT_WINDOW_EXCEEDED = 4
EXIT_OVER_BUDGET = 5
EXIT_USAGE = 64

# --mode choices: the report builders of exactlap.reports, in their order, then fixtures
MODES = ("ball", "certify", "chain", "coherent", "metric", "fixtures")

SCHEMA_HELP = """\
input schemas
  --graph    shorthand: z | z2 | z3 | treeD | ladder | ladderW | freeR | cK | pK
             or JSON (inline or file):
               {"family":"line"} | {"family":"grid","dims":2|3}
               {"family":"tree","degree":D} | {"family":"ladder","width":W}
               {"family":"free_group","rank":R} | {"family":"cycle","size":K}
               {"family":"path","size":K}
               {"family":"custom","vertices":N,"edges":[[i,j],...],"root":0}
  --target   shorthand: delta | zero | geometric | radial:c0,c1,...
             or JSON: {"kind":"delta"} | {"kind":"zero"} | {"kind":"geometric"}
               {"kind":"radial","coeffs":["1","1/2",...]}
               {"kind":"sparse","entries":{"<vertex id>":"p/q",...}}
  --lambda   shorthand: zero | distance | a nonnegative rational like 1 or 3/2
             or JSON: {"kind":"zero"} | {"kind":"constant","value":"p/q"}
               {"kind":"distance"} | {"kind":"map","entries":{"<id>":"p/q",...}}
  rationals  always exact strings "p/q" or "p"; floats are rejected

modes
  ball      --radius N            unique preimage supported in the radius-N ball
  certify   --radius N            exact determinant + strict-inclusion certificate
  chain     --radius N [--max-m M --window W]   projected solution-set chain at level N
  coherent  --radius N [--max-m M --window W]   compatible family x_0..x_N
  metric    --radius A [--max-m B]   distance bounds between ball solves at radii A, B
  fixtures  --out DIR [--seed S --radius R --graph fam1,fam2,...]   regression baselines
"""


_CHOICES = "{" + ",".join(MODES) + "}"

# The texts argparse printed for these flags at its default width of 80
# columns; they do not re-wrap with COLUMNS.
USAGE = f"""\
usage: exactlap [-h] [--graph GRAPH] [--target TARGET] --mode
                {_CHOICES}
                [--radius RADIUS] [--max-m MAX_M] [--window WINDOW]
                [--lambda LAM] [--out OUT] [--seed SEED]
"""

HELP = f"""\
{USAGE}
Exact rational preimages of the combinatorial Laplacian on balls.

options:
  -h, --help            show this help message and exit
  --graph GRAPH         graph family shorthand, inline JSON, or JSON file
                        (default: z)
  --target TARGET       target function shorthand, inline JSON, or JSON file
  --mode {_CHOICES}
                        what to compute
  --radius RADIUS       ball radius (ball/certify/metric) or level count
                        (chain/coherent)
  --max-m MAX_M         depth budget for chains; second radius in metric mode
  --window WINDOW       consecutive equal images required to declare
                        stabilization
  --lambda LAM          diagonal weight: zero, distance, a rational, or JSON
  --out OUT             also write the report to this file (fixtures: output
                        directory)
  --seed SEED           seed for fixture target generation

{SCHEMA_HELP}"""


def usage_error(message: str):
    """Exit 64 with the usage, the error and the schema help on standard error."""
    sys.stderr.write(f"{USAGE}error: {message}\n{SCHEMA_HELP}\n")
    raise SystemExit(EXIT_USAGE)


def _int_value(text: str) -> int:
    """An integer flag: an optional ``-`` and ASCII decimal digits."""
    digits = text[1:] if text.startswith("-") else text
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:  # over CPython's digit limit
        pass
    raise ValueError(f"invalid int value: {text!r}")


def _mode_value(text: str) -> str:
    if text not in MODES:
        choices = ", ".join(map(repr, MODES))
        raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
    return text


# flag -> (attribute, type, default); --mode is required
_FLAGS = {
    "--graph": ("graph", str, None),
    "--target": ("target", str, "delta"),
    "--mode": ("mode", _mode_value, None),
    "--radius": ("radius", _int_value, None),
    "--max-m": ("max_m", _int_value, None),
    "--window": ("window", _int_value, 3),
    "--lambda": ("lam", str, "zero"),
    "--out": ("out", str, None),
    "--seed": ("seed", _int_value, 0),
}
_OPTIONS = ("-h", "--help", *_FLAGS)


def _classify(token: str) -> tuple[str | None, str | None] | None:
    """None for a value, else (flag, text after ``=`` or None); flag None if unknown."""
    if not token.startswith("-") or token == "-":
        return None
    name, eq, explicit = token.partition("=")
    explicit = explicit if eq else None
    if name in _OPTIONS:
        return name, explicit
    if token.startswith("--"):
        matches = [o for o in _OPTIONS if o.startswith(name)]
        if len(matches) > 1:
            usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif token.startswith("-h"):  # -hh reads as -h -h
        return "-h", token[2:]
    # argparse's negative-number pattern; its $ also matches before a final newline
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def parse_flags(argv: list[str]) -> SimpleNamespace:
    """The flag values by attribute, parsed as argparse would with these flags.

    Flags are long, given as ``--flag value`` or ``--flag=value``, and a
    unique prefix names its flag; the last of repeated flags wins.  A value
    may start with ``-`` only if it holds a space or is a negative number by
    argparse's pattern ``^-\\d+$|^-\\d*\\.\\d+$``, whose ``$`` also takes one
    final newline.  ``--`` and whatever follows it are never flags.  Tokens
    are read left to right: ``-h`` prints the help and exits 0, and a bad
    value exits 64 at once; an ambiguous prefix anywhere before ``--`` exits
    64 before anything else, and a missing ``--mode``, then tokens that no
    flag takes, exit 64 at the end.
    """
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(token) for token in argv[:end]]
    values = {attr: default for attr, _, default in _FLAGS.values()}
    extras = []
    i = 0
    while i < end:
        flag, explicit = kinds[i] or (None, None)
        i += 1
        if flag is None:
            extras.append(argv[i - 1])
        elif flag in ("-h", "--help"):
            if explicit is not None:
                rest = explicit.lstrip("h") if flag == "-h" else explicit
                if rest or not explicit:
                    usage_error(f"argument -h/--help: ignored explicit argument {rest!r}")
            sys.stdout.write(HELP)
            raise SystemExit(EXIT_OK)
        else:
            attr, kind, _ = _FLAGS[flag]
            if explicit is None:
                if i == end or kinds[i] is not None:
                    usage_error(f"argument {flag}: expected one argument")
                explicit = argv[i]
                i += 1
            try:
                values[attr] = kind(explicit)
            except ValueError as e:
                usage_error(f"argument {flag}: {e}")
    if values["mode"] is None:
        usage_error("the following arguments are required: --mode")
    extras += argv[end:]
    if extras:
        usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)
