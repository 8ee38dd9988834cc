"""Which production faults `python -m cpwalls verify --level full` catches.

Each mutant is one exact text replacement in one module of a copy of the
package, the ten mutants ROADMAP item 3 names. The copy runs verify full
in a child process that writes no bytecode, and the test reads the names
of the failing checks from its stderr. Mutant 10 fails three named checks.
The other nine pass every check today: they are strict xfails, so each one
turns into a failure, to be unmarked, once a check that kills it lands.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import cpwalls

SRC = pathlib.Path(cpwalls.__file__).resolve().parent

_XFAIL = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")

# (number, module, old text, new text, the checks that must fail, or None
# for "at least one")
MUTANTS = [
    (1, "profiles.py",  # the kernel's far-side sign set to +1
     "sign = np.where(near, 1.0, -1.0)", "sign = np.where(near, 1.0, 1.0)", None),
    (2, "profiles.py",  # pow(u, -4) -> pow(u, -3) in the cot series
     "pow(u, -4) + COT_SERIES_CONST", "pow(u, -3) + COT_SERIES_CONST", None),
    (3, "profiles.py",  # the kernel's band test u < eps -> u <= 2 eps
     "asymptotic = u < guard.epsilon", "asymptotic = u <= 2 * guard.epsilon", None),
    (4, "profiles.py",  # _point's band test u >= eps -> u >= 2 eps
     "\n        if u >= guard.epsilon:", "\n        if u >= 2 * guard.epsilon:", None),
    (5, "profiles.py",  # _point flags band rows as exact
     "deriv.series(u, sign, _pow), True", "deriv.series(u, sign, _pow), False", None),
    (6, "analysis.py",  # _nearest_wall's tie goes to the far wall
     "repels = (z > d_far)", "repels = (z >= d_far)", None),
    (7, "analysis.py",  # _nearest_wall always takes the far distance
     "_single_wall(atom, minimum(z, d_far),", "_single_wall(atom, d_far,", None),
    (8, "potentials.py",  # stationary_points swaps "max" and "min"
     'kind = "max"\n    else:\n        kind = "min"',
     'kind = "min"\n    else:\n        kind = "max"', None),
    (9, "potentials.py",  # the cp combined constant a few ulps off
     "-7.0 / 8.0 / 360.0,", "-7.0 / 8.0 / 360.0 * (1.0 + 2.0 ** -50),", None),
    (10, "profiles.py",  # 5.0 -> 5.0000001 in the csc closed form
     "(c * c + 5.0)", "(c * c + 5.0000001)",
     {"csc_profile_vs_image_sum", "near_wall_series_csc", "far_wall_series_csc"}),
]

# Imports the package from the directory argv[1], then runs the process entry.
_VERIFY_FULL = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); from cpwalls.cli import run;"
    " sys.exit(run())"
)


def test_each_mutant_replaces_one_place():
    for number, module, old, new, _ in MUTANTS:
        assert (SRC / module).read_text().count(old) == 1, number
        assert old != new


@pytest.mark.parametrize("number, module, old, new, killed", [
    pytest.param(*m, id=f"mutant-{m[0]}", marks=() if m[4] else _XFAIL) for m in MUTANTS
])
def test_verify_full_fails_a_named_check_under_each_mutant(
    tmp_path, number, module, old, new, killed
):
    copy = tmp_path / "src" / "cpwalls"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / module).read_text()
    if text.count(old) != 1:  # not an AssertionError, which the xfails expect
        pytest.fail(f"mutant {number} does not match {module} once")
    (copy / module).write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_FULL, str(copy.parent),
         "verify", "--level", "full"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if "Traceback" in proc.stderr:
        pytest.fail(proc.stderr)
    failed = {line.split()[1].rstrip(":") for line in proc.stderr.splitlines()}
    assert proc.returncode == len(failed)
    assert failed, "verify full passes every check"
    if killed:
        assert failed == killed
