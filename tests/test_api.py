"""The package's public API: each name is declared once, in the module that
defines it, and the package root republishes every module's ``__all__``."""

import ast
import importlib
from pathlib import Path

import exactlap

REPUBLISHED = (
    "errors", "chain", "direct", "families", "finite", "functions", "graphs",
    "linalg", "matrix", "operators", "oracle", "solver", "subspace",
)

PUBLIC = [
    "AffineSubspace", "BadFamilyParameter", "BadRadii", "Ball", "BallFunction", "Certificate",
    "ChainState", "ChainViolation", "CoherentResult", "DimensionMismatch", "EmptyUniversalSet",
    "ExactLapError", "GraphOracle", "GraphSpecError", "InsufficientDomain", "LambdaField",
    "LiftFailed", "NotStabilized", "OracleInconsistent", "RationalMatrix", "SingularSystem",
    "SolveReport", "SpecFormatError", "TargetFunction", "VertexBudgetExceeded",
    "affine_solution_set", "affine_subset", "apply_laplacian", "coherent_solution",
    "custom_oracle", "cycle_oracle", "determinant", "enumerate_ball", "family_oracle",
    "free_group_oracle", "grid_oracle", "ladder_oracle", "line_oracle",
    "max_principle_certificate", "path_oracle", "prodiscrete_distance",
    "restricted_operator_matrix", "run_chain", "solution_image", "solve_exact", "solve_on_ball",
    "subspace_equal", "tree_oracle", "truncated_operator_matrix", "universal_element",
    "validate_oracle",
]


def _module(name):
    return importlib.import_module(f"exactlap.{name}")


def test_the_public_names_are_the_pinned_ones():
    assert len(PUBLIC) == 51
    assert sorted(exactlap.__all__) == PUBLIC


def test_each_name_is_defined_in_the_module_that_declares_it():
    for name in REPUBLISHED:
        module = _module(name)
        elsewhere = [n for n in module.__all__ if getattr(module, n).__module__ != module.__name__]
        assert elsewhere == [], name


def test_the_root_republishes_exactly_the_modules_names():
    declared = [n for name in REPUBLISHED for n in _module(name).__all__]
    assert sorted(declared) == sorted(exactlap.__all__)
    assert len(set(declared)) == len(declared)  # no name is declared by two modules
    for name in REPUBLISHED:
        module = _module(name)
        assert all(getattr(exactlap, n) is getattr(module, n) for n in module.__all__), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from exactlap import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_the_root_lists_no_name_of_its_own():
    # __all__ at the root is a sum of `<module>.__all__` over the republished
    # modules, each star-imported, and each module's __all__ is a literal
    tree = ast.parse(Path(exactlap.__file__).read_text())
    starred = [node.module for node in tree.body if isinstance(node, ast.ImportFrom)
               and [a.name for a in node.names] == ["*"] and node.level == 1]
    assert sorted(starred) == sorted(REPUBLISHED)
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"]]
    terms = []
    while isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
        terms.append(value.right)
        value = value.left
    terms.append(value)
    assert all(isinstance(t, ast.Attribute) and t.attr == "__all__" and isinstance(t.value, ast.Name)
               for t in terms)
    assert sorted(t.value.id for t in terms) == sorted(REPUBLISHED)
    for name in REPUBLISHED:
        source = Path(_module(name).__file__).read_text()
        (literal,) = [node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                      and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
        assert ast.literal_eval(literal) == _module(name).__all__
