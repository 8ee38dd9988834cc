"""The README's examples run as written.

Every `cpwalls ...` line of its bash blocks goes through cli.main in a
scratch directory and must exit 0, and its Python block is executed, so an
edit to the library or the README that breaks an example fails here.
"""

import pathlib
import re
import shlex

import pytest

from cpwalls import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def _commands() -> list[list[str]]:
    """The argv of each `cpwalls` line, continuation lines joined."""
    commands = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["cpwalls"]:
                commands.append(words[1:])
    return commands


COMMANDS = _commands()


def test_readme_has_its_examples():
    assert len(COMMANDS) == 9
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out or any(tmp_path.iterdir())


def test_readme_python_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
