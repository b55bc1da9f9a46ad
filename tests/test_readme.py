"""README's examples against the tool: each ``flateta`` line of the CLI
block runs through ``run()`` and must give the exit code and the values
its comment states, and the Library block runs as written."""

import io
import re
import shlex
from pathlib import Path

import pytest

from flateta.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first ```language block after the '## heading' line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)[1]


CLI_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("flateta ")]


def _claims(comment: str) -> tuple[int, list[str]]:
    """(exit code, stdout phrases) a comment states: 'exit code N' (else 0),
    each 'name = value [= value]' verbatim, and 'signature N' as the
    report's 'signature: N'."""
    code = re.search(r"exit code (\d)", comment)
    phrases = re.findall(r"[\w()]+ = \S+(?: = \S+)?", comment)
    phrases += [f"signature: {n}" for n in re.findall(r"signature (\S+)", comment)]
    return int(code[1]) if code else 0, phrases


def test_cli_block_states_values():
    assert len(CLI_LINES) >= 5
    assert sum(len(_claims(line.partition("#")[2])[1]) for line in CLI_LINES) >= 4


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_matches_its_comment(line):
    argv = shlex.split(line, comments=True)[1:]
    code, phrases = _claims(line.partition("#")[2])
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == code
    assert (err.getvalue() == "") == (code == 0)
    for phrase in phrases:
        # the value ends where the output's token ends: -4/3 is not -4/
        assert re.search(re.escape(phrase) + r"(?!\S)", out.getvalue()), phrase


def test_library_block_runs():
    exec(_block("Library", "python"), {})
