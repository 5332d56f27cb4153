"""The README's examples run as written: its Python block, and each
`curvkit` line of its command-line block through `cli.main` from the
repository root."""

import pathlib
import re
import shlex

import pytest

from curvkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(heading: str, language: str) -> str:
    """The first `language` code block under the `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in fenced("Command line", "sh").splitlines()
            if line.startswith("curvkit ")]


def test_readme_python_block_runs():
    exec(compile(fenced("Library at a glance", "python"), "README.md", "exec"), {})


def test_readme_lists_commands():
    assert {argv[0] for argv in COMMANDS} == {"curvature", "classify", "wrs", "verify"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(monkeypatch, capsys, argv):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
