"""What a process loads: one-point CLI runs and refusals need no NumPy.

NumPy's import is most of a short `python -m cpwalls` run, so only array
work loads it: grid tables, the image-sum oracles, 3x3 tensor matrices and
the convergence fit. `import cpwalls` loads neither NumPy nor the
verification suite, whose names resolve on first use.
"""

import os
import pathlib
import subprocess
import sys

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
loaded = [m for m in ("numpy", "cpwalls.verification") if m in sys.modules]
assert not loaded, ("import cpwalls", loaded)
from cpwalls.cli import main
runs = [
    ["potential", "--z", "0.3", "--format", "json", "--units", "si"],
    ["potential", "--geometry", "cp", "--guard-mode", "asymptotic", "--z", "1e-7"],
    ["correlators", "--geometry", "cp", "--z", "0.7"],
    ["limits", "--wall-type", "permeable", "--z", "0.5"],
    ["potential", "--z-min", "0.9", "--z-max", "0.1", "--z-count", "5"],
    ["potential", "--z", "1.5"],
    ["potential", "--geometry", "cp", "--z", "1e-9"],
]
codes = []
for argv in runs:
    codes.append(main(argv))
    loaded = [m for m in ("numpy", "cpwalls.verification") if m in sys.modules]
    assert not loaded, (argv, loaded)
assert codes == [0, 0, 0, 0, 1, 2, 2], codes
for name in sys.argv[1:]:
    getattr(cpwalls, name)
    assert name in dir(cpwalls), name
"""


def test_one_point_runs_refusals_and_import_load_no_numpy():
    src = str(pathlib.Path(cpwalls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *EXPORTED],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "ConfigError: --z-min must be smaller than --z-max\n"
        "OutOfDomain: z=1.5 is not strictly between the walls (0, 1.0)\n"
        "TooCloseToWall: xi=3.141592653589793e-09 is within 1e-06 of a wall"
        " (mode=reject)\n"
    )
