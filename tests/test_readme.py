"""The README's examples run as written, and its column lists are the tables'.

Every `cpwalls ...` line of its bash blocks goes through cli.main in a
scratch directory and must exit 0, and its Python block is executed, so an
edit to the library or the README that breaks an example fails here. The
four "columns" bullets of "Output contract", the zero cells they name and
the --units si statement under "Units" are read against the one column
table, analysis._COLUMNS, and the commands' tuples of column names, so the
README is checked, not a hand-kept copy.
"""

import pathlib
import re
import shlex

import pytest
from test_cli import NUMERIC_COLUMNS

from cpwalls import cli
from cpwalls.analysis import _COLUMNS, _LIMIT_COLUMNS, SWEEP_QUANTITIES

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


def _text() -> str:
    return " ".join(README.read_text().split())


def _columns_bullet(table: str) -> str:
    """The first sentence of README's "`table` columns:" bullet."""
    return re.search(rf"- `{table}` columns: (.*?)\. ", _text()).group(1)


def _names(text: str) -> list[str]:
    """The backquoted names in text, a row-major "X_xx … X_zz" as its nine cells."""
    names = []
    for name in re.findall(r"`([^`]+)`", text):
        first, _, last = name.partition(" … ")
        if last:
            assert (first[-2:], last) == ("xx", first[:-2] + "zz"), name
            names += [first[:-2] + i + j for i in "xyz" for j in "xyz"]
        else:
            names.append(name)
    return names


def test_readme_column_lists_are_the_tables():
    assert _names(_columns_bullet("potential"))[0] == ",".join(cli.POTENTIAL_COLUMNS)
    assert _names(_columns_bullet("correlators")) == list(cli.CORRELATOR_COLUMNS)
    sweep = _names(_columns_bullet("sweep"))
    assert sweep[:3] == ["z", ",".join(SWEEP_QUANTITIES), "V_wall"]
    assert _names(_columns_bullet("limits"))[0] == ",".join(_LIMIT_COLUMNS)


def test_readme_zero_cells_are_the_tables():
    said = re.search(r"The off-diagonal and `EB` cells vanish identically", _text())
    assert said
    tensor = cli.CORRELATOR_COLUMNS[1:28]
    off_or_eb = {c for c in tensor if c[:2] == "EB" or c[-2] != c[-1]}
    zero = {c for columns in NUMERIC_COLUMNS.values() for c in columns if _COLUMNS[c][2]}
    assert zero == off_or_eb and len(zero) == 21


def test_readme_units_statement_is_the_table():
    said = re.search(r"`--units si` multiplies every numeric column but (.*?) \(", _text())
    natural = {c for columns in NUMERIC_COLUMNS.values() for c in columns if not _COLUMNS[c][1]}
    assert set(_names(said.group(1))) == natural == {"z", "a", "rel_error"}
