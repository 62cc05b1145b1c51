"""The README's examples: every Python block runs, every command parses."""

import re
import shlex
from pathlib import Path

import pytest

from irscollab.cli import build_parser

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def _commands():
    """Every `irscollab ...` command of the sh blocks, continuation lines joined."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["irscollab"]:
                commands.append(words[1:])
    return commands


PYTHON_BLOCKS = _blocks("python")
COMMANDS = _commands()


def test_readme_has_examples():
    # Guards the parsing above: an empty list would parametrize no test.
    assert PYTHON_BLOCKS and COMMANDS


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"{c[0]}{i}" for i, c in enumerate(COMMANDS)])
def test_readme_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"irscollab {shlex.join(argv)} does not parse (exit {exc.code})")
