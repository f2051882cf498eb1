"""Every documented command line parses.

Each ``configvalidator …`` or ``python -m repro …`` line in a fenced
block of ``docs/*.md`` or ``README.md`` goes through the real argument
parser, so an option the CLI drops cannot linger in the docs.  Lines
ending in a backslash are joined with the next; comments, redirections
and anything after a pipe or ``&&`` are stripped.
"""

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md"]
_INVOCATION = re.compile(r"\bconfigvalidator\b|\bpython3? -m repro\b")
_STOP = {"|", "||", "&&", ";", "&"}
#: ``>``, ``2>>``, ``<``, ``&>`` ...; group 1 is an attached target.
_REDIRECT = re.compile(r"[0-9&]?(?:>>?|<)(.*)")


def _fenced_lines(text):
    """(line number, line) of every line inside a fenced block, with
    continuation lines joined onto the line they continue."""
    inside = False
    pending, start = "", 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            inside = not inside
            continue
        if not inside:
            continue
        if not pending:
            start = number
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, pending + line
        pending = ""


def _argv(line):
    """The CLI arguments of a command line, or None if it runs no CLI."""
    if not _INVOCATION.search(line):
        return None
    tokens = shlex.split(line, comments=True)
    for index, token in enumerate(tokens):
        if token == "configvalidator":
            rest = tokens[index + 1:]
            break
        if (token.startswith("python") and tokens[index + 1:index + 3]
                == ["-m", "repro"]):
            rest = tokens[index + 3:]
            break
    else:
        return None
    argv = []
    tokens = iter(rest)
    for token in tokens:
        if token in _STOP:
            break
        redirect = _REDIRECT.fullmatch(token)
        if redirect is None:
            argv.append(token)
        elif not redirect.group(1):
            next(tokens, None)  # the target is the next word
    return argv


def _documented_commands():
    for path in DOCS:
        for number, line in _fenced_lines(path.read_text(encoding="utf-8")):
            argv = _argv(line)
            if argv is not None:
                yield pytest.param(
                    argv, id=f"{path.relative_to(ROOT)}:{number}")


COMMANDS = list(_documented_commands())


def test_docs_document_commands():
    assert len(COMMANDS) >= 30


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
    else:
        return
    pytest.fail(f"configvalidator {shlex.join(argv)} exits {code}: "
                f"{capsys.readouterr().err.strip()}", pytrace=False)
