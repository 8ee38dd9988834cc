"""Smoke test of the example scripts at tiny sizes.

The scripts are not imported by the package, so nothing else notices when a
library change breaks them.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import cpwalls

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    # the package may be importable only through PYTHONPATH (a source tree)
    src = str(pathlib.Path(cpwalls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


def test_potential_landscape_dumps_the_pinned_csv(tmp_path):
    out = _run_script(
        "potential_landscape.py", "--count", "21", "--csv-dir", "tmp",
        cwd=tmp_path,
    )
    assert "=== geometry cp" in out
    dumps = sorted(p.name for p in (tmp_path / "tmp").iterdir())
    assert len(dumps) == 6
    data = (tmp_path / "tmp" / "landscape_cp_1.0_0.25.csv").read_bytes()
    # the same bytes as `cpwalls sweep` writes for this curve
    assert hashlib.sha256(data).hexdigest() == (
        "5dcbabce04b766cc99d44fb4f1ec233928d67d978975c4ab898afd9936b12161"
    )


def test_limit_convergence_runs(tmp_path):
    out = _run_script("limit_convergence.py", "--rungs", "3", cwd=tmp_path)
    assert out.count("fitted convergence exponent") == 2


def test_code_lines_counts_a_known_fixture(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment line\n"
        "import math  # a trailing comment\n"  # code line 1
        "\n"
        "\n"
        "def f(x):\n"  # 2
        '    """Function docstring."""\n'
        "    return math.fsum(\n"  # 3
        "        [x,\n"  # 4
        "         x * 2],\n"  # 5
        "    )\n"  # 6
        "\n"
        'TEXT = """a string that is not a docstring\n'  # 7
        'spans two lines"""\n'  # 8
    )
    out = _run_script("code_lines.py", str(fixture), str(fixture), cwd=tmp_path)
    assert out == f"8 {fixture}\n8 {fixture}\n16 total\n"


def test_table_memory_prints_a_peak_per_table(tmp_path):
    out = _run_script("table_memory.py", "2", "200", cwd=tmp_path)
    lines = out.splitlines()
    assert lines[0] == "command rows run peak_rss_mib cpu_s"
    rows = [line.split() for line in lines[1:]]
    assert [r[:3] for r in rows] == [
        ["potential", "2", "1"], ["correlators", "2", "1"],
        ["potential", "200", "1"], ["correlators", "200", "1"],
    ]
    assert all(len(r) == 5 for r in rows), rows
    assert all(5.0 < float(r[3]) < 500.0 for r in rows), rows
    # a child that imports NumPy spends some CPU time, well under a minute
    assert all(0.0 < float(r[4]) < 60.0 for r in rows), rows


# the total of python scripts/code_lines.py src/cpwalls/*.py
PACKAGE_CODE_LINES = 1619


def test_the_package_stays_within_its_code_lines(tmp_path):
    """The package's code lines are at most PACKAGE_CODE_LINES.

    A change that needs more lines should re-pin on purpose and say where
    ROADMAP item 6 gets the lines back.
    """
    paths = sorted(str(p) for p in (ROOT / "src" / "cpwalls").glob("*.py"))
    out = _run_script("code_lines.py", *paths, cwd=tmp_path)
    count, word = out.splitlines()[-1].split()
    assert word == "total" and int(count) <= PACKAGE_CODE_LINES
