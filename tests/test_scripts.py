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
