"""What a process loads: one-point CLI runs, refusals and verify quick need no NumPy.

NumPy's import is most of a short `python -m cpwalls` run, so only array
work loads it: grid tables, the image-sum oracles from
oracles._ARRAY_IMAGE_TERMS image pairs on (verify full) and
CorrelatorTensor.components. verify quick sums its images in Python and
its matrix checks read CorrelatorTensor._matrix, nested lists, so it loads
no NumPy in any format, nor does run_verification("quick").
`import cpwalls` loads neither NumPy nor the oracles nor the verification
suite, whose names resolve on first use, each from its own module; no
table command and no limits run loads either, and an oracle name loads
cpwalls.oracles and not the suite. The records are
named tuples, so nothing loads `dataclasses` (or, through it, `inspect`),
and no run loads `json`: a JSON table, like verify's JSON, is written from
%-templates.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import cpwalls

# Every name cpwalls/__init__.py exported when the verification suite was
# still imported eagerly, less the unused units.to_si and units.to_natural
# deleted since.
EXPORTED = (
    "LimitRow", "LimitStudy", "PotentialCurve", "SweepSpec",
    "limit_convergence_study", "nearest_wall_reference", "run_sweep",
    "CorrelatorTensor", "Geometry", "WallKind", "correlator_bb",
    "correlator_eb", "correlator_ee", "mean_square_b", "mean_square_e",
    "tensor_prefactor",
    "ConfigError", "CpwallsError", "DomainError", "FlatPotentialWarning",
    "InvalidGrid", "NegativePolarizabilityWarning", "NonFiniteResult",
    "OutOfDomain", "TailBoundViolated", "TooCloseToWall",
    "AtomResponse", "PotentialSample", "force", "potential_electric",
    "potential_magnetic", "potential_sample", "potential_total",
    "single_wall_limit", "stationary_points",
    "DEFAULT_GUARD", "DEFAULT_ORACLE", "GuardPolicy", "OracleConfig",
    "cot_profile", "cot_profile_deriv", "cot_profile_series",
    "cot_profile_via_hurwitz", "cot_profile_via_images", "csc_profile",
    "csc_profile_deriv", "csc_profile_series", "csc_profile_via_images",
    "image_tail_bound", "image_terms_needed", "wall_distance", "zeta4",
    "HBAR_C_J_M",
    "REQUIRED_CHECK_NAMES", "CheckResult", "VerificationReport",
    "run_verification",
    "__version__",
)

_PROBE = """
import sys
import cpwalls
UNUSED = ("numpy", "cpwalls.oracles", "cpwalls.verification", "dataclasses", "inspect",
          "json")
loaded = [m for m in UNUSED if m in sys.modules]
assert not loaded, ("import cpwalls", loaded)
from cpwalls.cli import main
runs = [
    ["potential", "--geometry", "cp", "--guard-mode", "asymptotic", "--z", "1e-7"],
    ["correlators", "--geometry", "cp", "--z", "0.7"],
    ["sweep", "--geometry", "cp", "--z", "0.7", "--emit-limit-reference"],
    ["limits", "--wall-type", "permeable", "--z", "0.5"],
    ["potential", "--z-min", "0.9", "--z-max", "0.1", "--z-count", "5"],
    ["potential", "--z", "1.5"],
    ["potential", "--geometry", "cp", "--z", "1e-9"],
    ["potential", "--z", "0.3", "--format", "json", "--units", "si"],
]
codes = []
for argv in runs:
    codes.append(main(argv))
    loaded = [m for m in UNUSED if m in sys.modules]
    assert not loaded, (argv, loaded)
assert codes == [0, 0, 0, 0, 1, 2, 2, 0], codes
for name in sys.argv[1:]:
    getattr(cpwalls, name)
    assert name in dir(cpwalls), name
"""


def _run_probe(code, *args):
    """Run code in a fresh interpreter that imports cpwalls from this tree."""
    src = str(pathlib.Path(cpwalls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_one_point_runs_refusals_and_import_load_no_numpy():
    proc = _run_probe(_PROBE, *EXPORTED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "ConfigError: --z-min must be smaller than --z-max\n"
        "OutOfDomain: z=1.5 is not strictly between the walls (0, 1.0)\n"
        "TooCloseToWall: xi=3.141592653589793e-09 is within 1e-06 of a wall"
        " (mode=reject)\n"
    )


# One verify run per format, in one process; after each, whether NumPy is loaded.
_VERIFY_PROBE = """
import sys
from cpwalls.cli import main
level = sys.argv[1]
for fmt in ("text", "csv", "json"):
    assert main(["verify", "--level", level, "--format", fmt]) == 0, fmt
    sys.stderr.write("%s numpy=%s\\n" % (fmt, "numpy" in sys.modules))
"""


@pytest.mark.parametrize("level, loaded", [("quick", False), ("full", True)])
def test_verify_quick_loads_no_numpy_in_any_format_and_full_does(level, loaded):
    proc = _run_probe(_VERIFY_PROBE, level)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "".join(
        f"{fmt} numpy={loaded}\n" for fmt in ("text", "csv", "json"))


def test_run_verification_quick_loads_no_numpy():
    proc = _run_probe(
        "import sys\n"
        "from cpwalls import run_verification\n"
        "assert run_verification('quick').passed\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_grid_tables_load_numpy_and_not_the_verification_suite():
    proc = _run_probe(
        "import sys\n"
        "from cpwalls.cli import main\n"
        "for command in ('potential', 'correlators', 'sweep'):\n"
        "    assert main([command, '--z-min', '0.1', '--z-max', '0.9', '--z-count', '5']) == 0\n"
        "assert 'numpy' in sys.modules, 'numpy not loaded'\n"
        "loaded = [m for m in ('cpwalls.oracles', 'cpwalls.verification') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_the_twelve_lazy_names_without_loading_their_modules():
    assert len(cpwalls._LAZY_NAMES) == 12
    assert {*cpwalls._LAZY_NAMES, "oracles", "verification"} <= set(dir(cpwalls))
    proc = _run_probe(
        "import sys, cpwalls\n"
        "missing = {*cpwalls._LAZY_NAMES, 'oracles', 'verification'} - set(dir(cpwalls))\n"
        "assert not missing, missing\n"
        "loaded = [m for m in ('cpwalls.oracles', 'cpwalls.verification') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_an_oracle_name_loads_the_oracles_and_not_the_verification_suite():
    proc = _run_probe(
        "import sys, cpwalls\n"
        "from cpwalls import zeta4, OracleConfig\n"
        "assert 'cpwalls.oracles' in sys.modules, 'oracles not loaded'\n"
        "for name, module in cpwalls._LAZY_NAMES.items():\n"
        "    if module == 'oracles':\n"
        "        getattr(cpwalls, name)\n"
        "assert 'cpwalls.verification' not in sys.modules, 'verification loaded'\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )
    assert proc.returncode == 0, proc.stderr
