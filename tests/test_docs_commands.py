"""Every ``python -m repro ...`` command in README.md and docs/*.md parses.

The commands are taken from fenced code blocks (one per line, a trailing
``# comment`` dropped) and from inline code spans, and run through the
CLI's own argparse parser, so a flag or subcommand the CLI no longer has
fails here instead of in a reader's shell. Usage notation is expanded:
``[A | B]`` yields one command per alternative, other brackets mark
optional parts (kept), and upper-case placeholders get sample values.
"""

import re
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PREFIX = "python -m repro"

#: Sample values for the placeholders the docs use.
PLACEHOLDERS = {
    "N": "100", "C": "0.95", "P": "0.05", "DIR": "cache-dir",
    "FILE": "out.json", "K": "campaign", "DAYS": "7",
}

_FENCE = re.compile(r"^\s*```.*?^\s*```", re.M | re.S)
_SPAN = re.compile(r"`(" + re.escape(PREFIX) + r"\b[^`]*)`")
_CHOICE = re.compile(r"\[([^\[\]]*\|[^\[\]]*)\]")


def documented_commands():
    found = []
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        for block in _FENCE.findall(text):
            for line in block.splitlines():
                line = line.strip()
                if line.startswith(PREFIX):
                    found.append((path.name, line.split(" #")[0]))
        for span in _SPAN.findall(_FENCE.sub("", text)):
            found.append((path.name, span))
    return [(name, " ".join(command.split())) for name, command in found]


def expand(command: str):
    """Concrete argument lists for one documented command."""
    choice = _CHOICE.search(command)
    if choice:
        for option in choice.group(1).split("|"):
            yield from expand(
                command[:choice.start()] + option.strip() + command[choice.end():]
            )
        return
    words = command.replace("[", " ").replace("]", " ").split()[len(PREFIX.split()):]
    yield [PLACEHOLDERS.get(word, word) for word in words]


COMMANDS = documented_commands()


def test_the_docs_document_commands():
    names = {name for name, _ in COMMANDS}
    assert {"README.md", "architecture.md", "observability.md"} <= names
    assert len(COMMANDS) >= 15


@pytest.mark.parametrize(
    "name, command", COMMANDS, ids=[f"{n}:{c[len(PREFIX) + 1:]}" for n, c in COMMANDS]
)
def test_documented_command_parses(name, command):
    for argv in expand(command):
        try:
            _build_parser().parse_args(argv)
        except SystemExit as exit:
            pytest.fail(f"{name}: `{command}` does not parse as {argv} (exit {exit.code})")


def test_a_removed_flag_fails_the_check():
    (argv,) = expand("python -m repro report -j 2")
    with pytest.raises(SystemExit):
        _build_parser().parse_args(argv)
