"""The command-line examples of README.md print what the README shows."""

import shlex
from pathlib import Path

import pytest

from dilatorus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown lines) of each `$ dilatorus ...` line in README.md.

    The shown lines run up to the next blank line, prompt or fence; a
    `...` line ends them early, and only the lines before it are
    compared."""
    examples = []
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("$ dilatorus "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None and line and not line.startswith("```"):
            current[1].append(line)
        else:
            current = None
    return examples


EXAMPLES = readme_examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("argv, shown", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    if "..." in shown:
        shown = shown[:shown.index("...")]
        printed = printed[:len(shown)]
    assert printed == shown
