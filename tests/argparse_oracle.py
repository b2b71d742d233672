"""The argparse parser the CLI had before its flag table, kept as an oracle.

``parse_flags`` in ``exactlap.cli`` reads flags with argparse's grammar
(CPython 3.10 and 3.11) without importing argparse.  This is the parser it
replaced, so tests can feed both the same argv and compare the values,
exit codes and standard error.  Integer flags here are read by ``int``,
which also takes non-ASCII digits, signs and underscores; the CLI takes
ASCII decimal only, so compare the two on other integer spellings.
"""

import argparse
import sys

from exactlap.flags import EXIT_USAGE, MODES, SCHEMA_HELP


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 64 with schema help."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        print(SCHEMA_HELP, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactlap",
        description="Exact rational preimages of the combinatorial Laplacian on balls.",
        epilog=SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--graph", default=None, help="graph family shorthand, inline JSON, or JSON file (default: z)")
    parser.add_argument("--target", default="delta", help="target function shorthand, inline JSON, or JSON file")
    parser.add_argument("--mode", required=True, choices=MODES, help="what to compute")
    parser.add_argument("--radius", type=int, default=None, help="ball radius (ball/certify/metric) or level count (chain/coherent)")
    parser.add_argument("--max-m", type=int, default=None, dest="max_m", help="depth budget for chains; second radius in metric mode")
    parser.add_argument("--window", type=int, default=3, help="consecutive equal images required to declare stabilization")
    parser.add_argument("--lambda", default="zero", dest="lam", help="diagonal weight: zero, distance, a rational, or JSON")
    parser.add_argument("--out", default=None, help="also write the report to this file (fixtures: output directory)")
    parser.add_argument("--seed", type=int, default=0, help="seed for fixture target generation")
    return parser
