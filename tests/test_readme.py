"""The README's command-line examples print what the README says they print."""

import shlex
from pathlib import Path

import pytest

from sepk.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) of each "$ sepk ..." line in README.md.

    The expected output is the run of lines under the command, up to the next
    command or the end of its code block.
    """
    examples = []
    expected = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ sepk "):
            expected = []
            examples.append((line[len("$ sepk "):], expected))
        elif line.startswith("```"):
            expected = None
        elif expected is not None:
            expected.append(line)
    return [(cmd, "".join(f"{x}\n" for x in out)) for cmd, out in examples]


def test_readme_has_examples():
    assert len(readme_examples()) == 3


@pytest.mark.parametrize("command, expected", readme_examples())
def test_readme_example(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (expected, "")
