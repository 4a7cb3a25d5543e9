"""README's quickstarts run as written: a renamed function, flag or config
key fails here before it misleads a reader."""

import re
import shlex
from pathlib import Path

import pytest

from fairprice.cli import COMMANDS, build_parser, resolve_settings

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _cli_lines() -> list[list[str]]:
    """Each `fairprice ...` line of the CLI quickstart, continuation lines
    joined and comments stripped, as argv after the program name."""
    text = _block("CLI quickstart", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("fairprice ")]


def test_library_quickstart_runs(capsys):
    exec(compile(_block("Library quickstart", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3  # regret, S and U


def test_cli_quickstart_has_every_command():
    assert sorted({argv[0] for argv in _cli_lines()}) == sorted(
        [name for name, _, _ in COMMANDS] + ["validate"])


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[0])
def test_cli_quickstart_line_parses(argv):
    args = build_parser().parse_args(argv)
    if args.command != "validate":
        assert resolve_settings(args)
