"""The package names that the benchmark binds from outside still resolve.

`perfbench/layers.py` wraps package functions and methods by name, and
`perfbench/verify.py` imports package names to re-check every outcome;
the benchmark's self-test reads a few bindings by attribute path.  All of
them live outside the package, so a deleted or renamed name breaks them
without breaking any package code.  This guard reads those files without
changing them: it installs the benchmark's tracer on the imported package,
runs a certify, a ball, a chain, a coherent and a metric request under it
(so that its probes read their results, and calls between the package's
modules show as spans), restores it, and resolves each name that
`verify.py` imports or the self-test reads.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from exactlap.cli import run_cli  # imports every module the tracer patches

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _bound(layers):
    """Each (module or class, attribute) that the tracer wraps, with the object bound there."""
    owners = [(importlib.import_module(f"exactlap.{m}"), attr) for m, attr, _ in layers.FUNCTIONS]
    owners += [(getattr(importlib.import_module(f"exactlap.{m}"), cls), attr) for m, cls, attr, _ in layers.METHODS]
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


def test_every_name_the_tracer_binds_resolves_and_is_restored(layers, capsys):
    before = _bound(layers)
    tracer = layers.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in before.items():
            assert vars(owner)[attr].__wrapped__ is original, attr
        assert run_cli(["--mode", "certify", "--graph", "z2", "--radius", "2"]) == 0
        assert run_cli(["--mode", "ball", "--graph", "z", "--radius", "2"]) == 0
        assert run_cli(["--mode", "chain", "--graph", "z", "--radius", "1"]) == 0
        assert run_cli(["--mode", "coherent", "--graph", "z", "--radius", "1"]) == 0
        assert run_cli(["--mode", "metric", "--graph", "z", "--radius", "1", "--max-m", "2"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert _bound(layers) == before
    names = {s.name for s in tracer.spans}
    # the probes read the assembled matrices and the solve results
    assert {"operators.assemble", "linalg.determinant", "linalg.solve", "linalg.canonicalize"} <= names
    assert {"solver.chain", "solver.universal", "solver.coherent", "solver.metric", "linalg.compare"} <= names
    # one chain for the chain request and one per level of the coherent request, each
    # seen through the binding its caller reads
    assert sum(s.name == "solver.chain" for s in tracer.spans) == 3
    assert tracer.counters.counts["operators.assemble.nonzeros"] > 0


def test_every_name_the_verifier_imports_resolves():
    tree = ast.parse((BENCH / "verify.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("exactlap")
        for alias in node.names
    ]
    assert imported
    missing = [(m, n) for m, n in imported if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def test_every_package_attribute_the_benchmark_self_test_reads_resolves():
    """`perfbench/tests` also reads bindings by path, such as `exactlap.cli.solve_on_ball`."""
    tree = ast.parse((BENCH / "tests" / "test_perfbench.py").read_text(encoding="utf-8"))
    paths = {
        (node.value.attr, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "exactlap"
    }
    assert ("cli", "solve_on_ball") in paths
    missing = [(m, n) for m, n in sorted(paths) if not hasattr(importlib.import_module(f"exactlap.{m}"), n)]
    assert missing == []
