"""Per-layer spans recorded from outside the package.

The layers are the package's modules.  Each traced function gets a wrapper
that records a span (name, start, end, parent, request id) in memory.
``solver`` and ``cli`` bind names such as ``determinant`` and
``solve_on_ball`` at import time, so a wrapper on the defining module alone
would record nothing: every module of the package that holds the same
function object gets the wrapper.  Two methods are wrapped on their classes.
Every patch is undone by ``Tracer.restore``.

A span's self time is its duration minus the part of it its children cover,
so self times over all spans sum to the root spans' time exactly (clock
ticks are integer nanoseconds).  Counters are taken from arguments and
results after the span closes, inside a ``trace.probe`` span that belongs to
no layer, so that counting is not billed to the caller's layer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("graphs", "operators", "linalg", "solver", "serialize", "cli")

# (defining module, attribute, span name); span names start with their layer
FUNCTIONS = [
    ("graphs", "enumerate_ball", "graphs.enumerate_ball"),
    ("graphs", "validate_oracle", "graphs.validate_oracle"),
    ("graphs", "family_oracle", "graphs.family_oracle"),
    ("operators", "truncated_operator_matrix", "operators.assemble"),
    ("operators", "restricted_operator_matrix", "operators.assemble"),
    ("operators", "restriction_matrix", "operators.restrict"),
    ("operators", "apply_laplacian", "operators.residual"),
    ("linalg", "determinant", "linalg.determinant"),
    ("linalg", "solve_exact", "linalg.solve"),
    ("linalg", "image_under_map", "linalg.image"),
    ("linalg", "affine_subset", "linalg.compare"),
    ("linalg", "subspace_equal", "linalg.compare"),
    ("solver", "solve_on_ball", "solver.ball"),
    ("solver", "max_principle_certificate", "solver.certify"),
    ("solver", "affine_solution_set", "solver.deep_solve"),
    ("solver", "run_chain", "solver.chain"),
    ("solver", "universal_element", "solver.universal"),
    ("solver", "coherent_solution", "solver.coherent"),
    ("solver", "prodiscrete_distance", "solver.metric"),
    ("serialize", "graph_spec_from_text", "serialize.parse"),
    ("serialize", "graph_from_text", "serialize.parse"),
    ("serialize", "target_from_text", "serialize.parse"),
    ("serialize", "target_from_json", "serialize.parse"),
    ("serialize", "lambda_from_text", "serialize.parse"),
    ("serialize", "lambda_from_json", "serialize.parse"),
    ("serialize", "solution_to_json", "serialize.emit"),
    ("serialize", "dump_report", "serialize.emit"),
    ("cli", "run_cli", "cli.run"),
]

# (defining module, class, method, span name)
METHODS = [
    ("graphs", "GraphOracle", "_expand_next", "graphs.expand"),
    ("linalg", "AffineSubspace", "__init__", "linalg.canonicalize"),
]

PROBE = "trace.probe"


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    request: int


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _bits(values) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
               default=0)


@dataclass
class Counters:
    """Counts taken at layer boundaries, summed over the traced requests."""

    counts: dict = field(default_factory=lambda: defaultdict(int))
    maxima: dict = field(default_factory=lambda: defaultdict(int))
    deep_keys: set = field(default_factory=set)

    def probe(self, name: str, request: int, args: tuple, result) -> None:
        c, m = self.counts, self.maxima
        if name == "graphs.enumerate_ball":
            m["graphs.ball_vertices_max"] = max(m["graphs.ball_vertices_max"], result.size)
        elif name == "operators.assemble":
            c["operators.assemble.cells"] += result.rows * result.cols
            c["operators.assemble.nonzeros"] += sum(1 for row in result.entries for x in row if x)
        elif name == "linalg.determinant":
            m["linalg.result_bits_max"] = max(m["linalg.result_bits_max"], _bits([result]))
        elif name == "linalg.solve" and not result.is_empty:
            bits = max(_bits(result.particular), *(_bits(v) for v in result.basis), 0)
            m["linalg.result_bits_max"] = max(m["linalg.result_bits_max"], bits)
        elif name == "solver.deep_solve":
            oracle, target, n, lam = args
            self.deep_keys.add((request, id(oracle), id(target), n, id(lam)))
        elif name == "solver.chain":
            c["solver.chain.images"] += len(result.images)


PROBED = {"graphs.enumerate_ball", "operators.assemble", "linalg.determinant",
          "linalg.solve", "solver.deep_solve", "solver.chain"}


class Tracer:
    """Installs span-recording wrappers into the imported package and undoes them."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters = Counters()
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters
        probed = name in PROBED

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            span = Span(name, clock(), 0, parent, self.request)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probed:
                probe = Span(PROBE, clock(), 0, parent, self.request)
                counters.probe(name, self.request, args, result)
                probe.end = clock()
                spans.append(probe)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in each package module that binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "exactlap" or k.startswith("exactlap.")) and m is not None]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"exactlap.{mod_name}"], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"exactlap.{mod_name}"], cls_name)
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def accounting_error(spans: list[Span], traced_ns: int) -> str | None:
    """None when self times over all spans sum exactly to the root spans' time
    and that fits inside the traced wall time, leaving only the unattributed
    remainder (output capture and counting probes); else why not."""
    selfs = self_times(spans)
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    if sum(selfs) != roots or roots > traced_ns:
        return f"self times sum to {sum(selfs)} ns, root spans to {roots} ns, wall {traced_ns} ns"
    return None


def layer_metrics(spans: list[Span], counters: Counters, rounds: int,
                  traced_ns: int, untraced_ns: int) -> dict[str, float]:
    """Per-layer metrics for one pass over the request list, from a traced run.

    Times and counts are divided by ``rounds``, the number of traced passes;
    shares are of the traced wall time.
    """
    selfs = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    layer_ns: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, selfs):
        self_ns[s.name] += t
        calls[s.name] += 1
        layer_ns[layer_of(s.name)] += t

    def sec(ns: int) -> float:
        return ns / 1e9 / rounds

    def per(n: int) -> float:
        return n / rounds

    c, m = counters.counts, counters.maxima
    deep_calls = calls["solver.deep_solve"]
    out = {
        "graphs.enumerate_ball.calls": per(calls["graphs.enumerate_ball"]),
        "graphs.enumerate_ball.self_s": sec(self_ns["graphs.enumerate_ball"]),
        "graphs.validate_oracle.self_s": sec(self_ns["graphs.validate_oracle"]),
        "graphs.expand.calls": per(calls["graphs.expand"]),
        "graphs.expand.self_s": sec(self_ns["graphs.expand"]),
        "graphs.ball_vertices_max": m["graphs.ball_vertices_max"],
        "operators.assemble.calls": per(calls["operators.assemble"]),
        "operators.assemble.self_s": sec(self_ns["operators.assemble"]),
        "operators.assemble.cells": per(c["operators.assemble.cells"]),
        "operators.assemble.nonzeros": per(c["operators.assemble.nonzeros"]),
        "operators.assemble.density": (c["operators.assemble.nonzeros"] / c["operators.assemble.cells"]
                                       if c["operators.assemble.cells"] else 0.0),
        "operators.restrict.self_s": sec(self_ns["operators.restrict"]),
        "operators.residual.self_s": sec(self_ns["operators.residual"]),
        "linalg.determinant.calls": per(calls["linalg.determinant"]),
        "linalg.determinant.self_s": sec(self_ns["linalg.determinant"]),
        "linalg.solve.calls": per(calls["linalg.solve"]),
        "linalg.solve.self_s": sec(self_ns["linalg.solve"]),
        "linalg.canonicalize.calls": per(calls["linalg.canonicalize"]),
        "linalg.canonicalize.self_s": sec(self_ns["linalg.canonicalize"]),
        "linalg.image.calls": per(calls["linalg.image"]),
        "linalg.image.self_s": sec(self_ns["linalg.image"]),
        "linalg.compare.self_s": sec(self_ns["linalg.compare"]),
        "linalg.result_bits_max": m["linalg.result_bits_max"],
        "solver.self_s": sec(layer_ns["solver"]),
        "solver.deep_solve.calls": per(deep_calls),
        "solver.deep_solve.distinct": per(len(counters.deep_keys)),
        "solver.deep_solve.reuse": len(counters.deep_keys) / deep_calls if deep_calls else 0.0,
        "solver.chain.images": per(c["solver.chain.images"]),
        "serialize.parse.self_s": sec(self_ns["serialize.parse"]),
        "serialize.emit.self_s": sec(self_ns["serialize.emit"]),
        "cli.self_s": sec(layer_ns["cli"]),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_ns[layer] / traced_ns
    out["trace.unattributed_share"] = (traced_ns - sum(layer_ns[k] for k in LAYERS)) / traced_ns
    out["trace.overhead_ratio"] = traced_ns / untraced_ns
    return out
