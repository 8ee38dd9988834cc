"""Casimir-Polder potentials and vacuum-field correlators between walls.

A conducting wall at z = 0 faces either a second conductor or an infinitely
permeable wall at z = a. The package evaluates the renormalized vacuum
correlator tensors <E_i E_j>, <B_i B_j>, <E_i B_j> at any point between the
walls, the resulting Casimir-Polder potential and force on an atom with
static polarizabilities, single-wall limits, and stationary points - all in
natural units (hbar = c = 1), with independent oracles for every closed form.
"""

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
from .units import HBAR_C_J_M, to_natural, to_si
from .verification import (
    REQUIRED_CHECK_NAMES,
    CheckResult,
    VerificationReport,
    run_verification,
)

__version__ = "0.1.0"
