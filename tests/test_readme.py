"""The examples in README.md run as written."""

import json
import re
from pathlib import Path

from exactlap.cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BALL_COMMAND = "exactlap --mode ball --graph z --target delta --radius 2"


def fenced_block(lang: str, after: str) -> str:
    """Body of the first ```lang block that starts after the text ``after``."""
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, README.index(after))
    assert match, f"no {lang} block after {after!r}"
    return match.group(1)


def test_ball_example_report_matches_the_cli(capsys):
    expected = json.loads(fenced_block("json", BALL_COMMAND))
    code = run_cli(BALL_COMMAND.split()[1:])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == expected


def test_library_example_runs():
    exec(compile(fenced_block("python", "## Library"), "README.md", "exec"), {})
