"""`tools/mutants.py` puts a mutant into a copy of the package and runs its tests there."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

SRC = TOOL.parents[1] / "src"


def _sources():
    return {path: path.read_bytes() for path in sorted(SRC.rglob("*.py"))}


def test_an_entry_is_killed_in_a_copy_and_src_is_left_alone(monkeypatch, capsys):
    before = _sources()
    name = "restrict takes a ball of another graph"
    monkeypatch.setattr(mutants, "MUTANTS", tuple(m for m in mutants.MUTANTS if m.name == name))
    assert mutants.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        f"killed       functions.py  {name}",
        "1 of 1 mutants killed",
    ]
    assert _sources() == before


def test_an_entry_whose_text_is_not_found_once_does_not_apply(monkeypatch, capsys):
    test = ("tests/test_code_lines.py::test_docstrings_comments_and_blank_lines_are_not_code",)
    missing = mutants.Mutant("missing", "kernel.py", "no such text", "", test)
    twice = mutants.Mutant("twice", "kernel.py", "import", "", test)
    assert mutants.run(twice) == "not applied"
    assert mutants.run(missing._replace(module="gone.py")) == "not applied"
    monkeypatch.setattr(mutants, "MUTANTS", (missing,))
    assert mutants.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "not applied  kernel.py     missing",
        "0 of 1 mutants killed",
    ]


def test_a_mutant_the_tests_pass_survives(monkeypatch, capsys):
    """A mutant whose tests pass survives; one whose tests overrun the limit is not killed either."""
    comment = "# rank loss: no row left with a nonzero here"
    harmless = mutants.Mutant(
        "harmless", "kernel.py", comment, "# a changed comment",
        ("tests/test_code_lines.py::test_docstrings_comments_and_blank_lines_are_not_code",),
    )
    monkeypatch.setattr(mutants, "MUTANTS", (harmless,))
    assert mutants.main() == 1
    assert capsys.readouterr().out.splitlines()[0] == "survived     kernel.py     harmless"
    monkeypatch.setattr(mutants, "TIMEOUT_S", 0.01)  # less than the interpreter takes to start
    assert mutants.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "timed out    kernel.py     harmless",
        "0 of 1 mutants killed",
    ]

