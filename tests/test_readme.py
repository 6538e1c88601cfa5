"""README's examples and stated caps, checked against the package.

The library tour runs as a doctest, every command of "Command line" runs
in-process through ``klrc.cli.main`` and must write exactly the stdout README
shows, and each cap README states is pinned to the constant that sets it.
Nothing here reads a ``src/`` assert, so the examples hold under
``python -O`` as well.
"""

import doctest
import re
from pathlib import Path

import pytest

from klrc import _lanes, cli
from klrc.cartan import DEFAULT_MAX_RANK, RANK_CACHE_SIZE
from klrc.fock import DEFAULT_MAX_BOXES, DEFAULT_MAX_COMPONENTS
from klrc.maxweights import DEFAULT_MAX_VERTICES
from klrc.multiplicity import DEFAULT_MAX_HEIGHT

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of README's section ``## title``, up to the next one."""
    found = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert found, title
    return found.group(1)


def fenced(text: str, language: str) -> list[str]:
    """The bodies of the code blocks of ``language`` in ``text``."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def shown_commands() -> list[tuple[list[str], list[str]]]:
    """Each ``klrc`` command of the "Command line" example block, as its
    arguments, with the stdout lines README shows for it: after ``#`` on its
    own line, or on the ``#`` lines right after it."""
    (block,) = fenced(section("Command line"), "sh")
    commands = []
    for line in block.splitlines():
        if line.startswith("klrc "):
            command, _, shown = line.partition(" #")
            commands.append((command.split()[1:], [shown.strip()] if shown else []))
        elif line.startswith("#"):
            commands[-1][1].append(line[2:])
    return commands


COMMANDS = shown_commands()


def test_every_subcommand_has_an_example_with_its_stdout():
    assert sorted(argv[0] for argv, _ in COMMANDS) == sorted(cli.COMMANDS)
    assert all(shown for _, shown in COMMANDS)


@pytest.mark.parametrize("argv, shown", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_line_example(argv, shown, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("\n".join(shown) + "\n", "")


def test_library_tour():
    (block,) = fenced(section("Library quick tour"), "python")
    tour = doctest.DocTestParser().get_doctest(block, {}, "README library tour", "README.md", 0)
    report: list[str] = []
    runner = doctest.DocTestRunner()
    results = runner.run(tour, out=report.append)
    assert results.attempted >= 8
    assert results.failed == 0, "".join(report)


# each number README states, as the text that states it, with the constant
# it names; README is read with its line breaks as spaces
CAPS = {
    "DEFAULT_MAX_BOXES": ("{} boxes for graded dimensions", DEFAULT_MAX_BOXES),
    "DEFAULT_MAX_HEIGHT": ("height {} for multiplicities", DEFAULT_MAX_HEIGHT),
    "DEFAULT_MAX_VERTICES": ("{} vertices per quiver", DEFAULT_MAX_VERTICES),
    "DEFAULT_MAX_VERTICES-members": ("at most {} class members", DEFAULT_MAX_VERTICES),
    "DEFAULT_MAX_RANK": ("rank {} on the command line", DEFAULT_MAX_RANK),
    "DEFAULT_MAX_COMPONENTS": ("at most {} components", DEFAULT_MAX_COMPONENTS),
    "DEPTH_CAP": ("must stay below 2^{}", _lanes.DEPTH_CAP.bit_length() - 1),
    "DEPTH_CAP-message": ("cap is {}`", _lanes.DEPTH_CAP - 1),
    "WRITE_PIECES": ("at most {} of them joined into one write", cli.WRITE_PIECES),
    "RANK_CACHE_SIZE": ("up to {} ranks of each stay cached", RANK_CACHE_SIZE),
}


@pytest.mark.parametrize("text, constant", CAPS.values(), ids=CAPS)
def test_readme_states_the_cap(text, constant):
    assert text.format(constant) in " ".join(README.split())


def test_the_depth_cap_is_a_power_of_two():
    """README states the depth cap as a power of two."""
    assert _lanes.DEPTH_CAP == 1 << _lanes.DEPTH_CAP.bit_length() - 1
