"""Casimir-Polder potentials and vacuum-field correlators between walls.

A conducting wall at z = 0 faces either a second conductor or an infinitely
permeable wall at z = a. The package evaluates the renormalized vacuum
correlator tensors <E_i E_j>, <B_i B_j>, <E_i B_j> at any point between the
walls, the resulting Casimir-Polder potential and force on an atom with
static polarizabilities, single-wall limits, and stationary points - all in
natural units (hbar = c = 1), with independent oracles for every closed form.

Importing the package loads neither NumPy nor the verification suite nor
the oracles: NumPy comes in with the first array (a grid table, an image
sum of 1024 image pairs or more, a tensor's components), and each of
cpwalls.oracles and cpwalls.verification with the first of its names that
is asked for. cpwalls.oracles holds the independent oracles
(OracleConfig, DEFAULT_ORACLE, the image sums, zeta4 and the Hurwitz
route), so `from cpwalls import zeta4` does not compile the check table;
cpwalls.verification, the checks, imports it.

Every record (GuardPolicy, Geometry, AtomResponse, CorrelatorTensor,
SweepSpec, PotentialCurve, LimitStudy, CheckResult, ...) is an immutable
named tuple: it iterates, equals the plain tuple of its fields, and offers
_asdict and _replace. A record that checks or normalizes its fields does so
in __new__, which _replace goes through too. Nothing imports dataclasses.
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
    GuardPolicy,
    cot_profile,
    cot_profile_deriv,
    cot_profile_series,
    csc_profile,
    csc_profile_deriv,
    csc_profile_series,
    wall_distance,
)
from .units import HBAR_C_J_M

__version__ = "0.1.0"

# The oracles and the verification suite load on first use of one of their
# names (PEP 562), each name from the module given here, so an import of the
# package, or of the CLI, compiles neither, and an oracle does not compile
# the suite.
_LAZY_NAMES = {
    "DEFAULT_ORACLE": "oracles",
    "OracleConfig": "oracles",
    "cot_profile_via_hurwitz": "oracles",
    "cot_profile_via_images": "oracles",
    "csc_profile_via_images": "oracles",
    "image_tail_bound": "oracles",
    "image_terms_needed": "oracles",
    "zeta4": "oracles",
    "REQUIRED_CHECK_NAMES": "verification",
    "CheckResult": "verification",
    "VerificationReport": "verification",
    "run_verification": "verification",
}
__all__ = [n for n in globals() if not n.startswith("_")]
__all__ += ["oracles", "verification", *_LAZY_NAMES]


def __getattr__(name: str):
    module = name if name in ("oracles", "verification") else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not "from . import <module>", which asks this hook again
    loaded = _importlib.import_module("." + module, __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
