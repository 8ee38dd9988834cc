"""Casimir-Polder potentials and vacuum-field correlators between walls.

A conducting wall at z = 0 faces either a second conductor or an infinitely
permeable wall at z = a. The package evaluates the renormalized vacuum
correlator tensors <E_i E_j>, <B_i B_j>, <E_i B_j> at any point between the
walls, the resulting Casimir-Polder potential and force on an atom with
static polarizabilities, single-wall limits, and stationary points - all in
natural units (hbar = c = 1), with independent oracles for every closed form.

Importing the package loads neither NumPy nor the verification suite: NumPy
comes in with the first array (a grid table, an image sum, a 3x3 tensor),
and cpwalls.verification with the first of its names that is asked for.
"""

import importlib as _importlib

from .analysis import (
    LimitRow,
    LimitStudy,
    PotentialCurve,
    SweepSpec,
    limit_convergence_study,
    nearest_wall_reference,
    run_sweep,
)
from .correlators import (
    CorrelatorTensor,
    Geometry,
    WallKind,
    correlator_bb,
    correlator_eb,
    correlator_ee,
    mean_square_b,
    mean_square_e,
    tensor_prefactor,
)
from .errors import (
    ConfigError,
    CpwallsError,
    DomainError,
    FlatPotentialWarning,
    InvalidGrid,
    NegativePolarizabilityWarning,
    NonFiniteResult,
    OutOfDomain,
    TailBoundViolated,
    TooCloseToWall,
)
from .potentials import (
    AtomResponse,
    PotentialSample,
    force,
    potential_electric,
    potential_magnetic,
    potential_sample,
    potential_total,
    single_wall_limit,
    stationary_points,
)
from .profiles import (
    DEFAULT_GUARD,
    DEFAULT_ORACLE,
    GuardPolicy,
    OracleConfig,
    cot_profile,
    cot_profile_deriv,
    cot_profile_series,
    cot_profile_via_hurwitz,
    cot_profile_via_images,
    csc_profile,
    csc_profile_deriv,
    csc_profile_series,
    csc_profile_via_images,
    image_tail_bound,
    image_terms_needed,
    wall_distance,
    zeta4,
)
from .units import HBAR_C_J_M

__version__ = "0.1.0"

# The verification suite and its names load on first use (PEP 562), so an
# import of the package, or of the CLI, does not compile it.
_VERIFICATION_NAMES = (
    "REQUIRED_CHECK_NAMES",
    "CheckResult",
    "VerificationReport",
    "run_verification",
)
__all__ = [n for n in globals() if not n.startswith("_")]
__all__ += ["verification", *_VERIFICATION_NAMES]


def __getattr__(name: str):
    if name == "verification" or name in _VERIFICATION_NAMES:
        # not "from . import verification", which asks this hook again
        verification = _importlib.import_module(".verification", __name__)
        return verification if name == "verification" else getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
