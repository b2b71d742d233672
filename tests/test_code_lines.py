"""`tools/code_lines.py` counts the lines that hold code, and no others."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    x = (1,
         2)

    def f(self):
        """A function docstring."""
        return """a string
        that is not a docstring"""
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, class, two lines of x, def, and both lines of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_the_command_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
    assert any(line.split()[1] == "direct.py" for line in lines[:-1])
