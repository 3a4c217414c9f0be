"""The command-line examples of README.md print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from dilatorus import cli
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


# what "room" stands for in the README's command table
ROOM_FLAGS = {"--mu1", "--mu2", "--mu1-exact", "--mu2-exact", "--e1", "--e2"}


def readme_command_flags() -> dict[str, set[str]]:
    """command -> the flags its row of README's command table names.

    Parenthesized notes (defaults, ranges) are skipped, "room" stands
    for the room flags, and `--a/--b` names two flags."""
    rows = {}
    for line in README.read_text().splitlines():
        match = re.fullmatch(r"\| `([a-z-]+)` \| [^|]* \| ([^|]*) \|", line)
        if match is None:
            continue
        cell = re.sub(r"\([^)]*\)", "", match.group(2))
        flags = set(ROOM_FLAGS) if re.match(r"room\b", cell) else set()
        for quoted in re.findall(r"`(--[^`]+)`", cell):
            flags.update(quoted.split("/"))
        rows[match.group(1)] = flags
    return rows


def test_the_readme_command_table_names_each_commands_flags():
    rows = readme_command_flags()
    assert list(rows) == list(cli._COMMANDS)
    for name, (_, _, grammar) in cli._COMMANDS.items():
        assert rows[name] == {flag for flag, _ in grammar}, name
