"""Renormalized vacuum correlator tensors between two parallel walls.

A conducting wall sits at z = 0 and a second wall at z = a; the second wall
is either conducting (kind "cc") or infinitely permeable (kind "cp", always
at z = a). The free-space contribution is already subtracted, so every
component scales like a^-4 at fixed z/a.

All nine pair tensors (EE, BB, EB) are diagonal with xx = yy, and the EB
tensors vanish identically, so a tensor is stored as its two distinct
components (par = xx = yy, perp = zz) and the 3x3 matrix is built only when
asked for. In natural units (hbar = c = 1) the components carry dimension
length^-4.

Each geometry has one profile function p and one diagonal constant K
(WALL_TABLE): par = pref*(p - K) and perp = pref*(p + K) for EE, with p
replaced by -p for BB, where pref = (pi/a)^4 * 2/(3*pi). K is 1/120 for "cc"
and -7/8 * 1/120 for "cp".

Geometry maps z to xi = pi*z/a and hands the geometry's forms to the
profiles module: one profiles._evaluate call per form at one z (point_terms
is two of them plus the band test wall_distance(xi) < guard.epsilon), one
profiles.profile_terms call for a grid.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import NonFiniteResult, OutOfDomain
from .profiles import (
    COT_PROFILE,
    COT_PROFILE_DERIV,
    CSC_PROFILE,
    CSC_PROFILE_DERIV,
    DEFAULT_GUARD,
    PI,
    Form,
    GuardPolicy,
    _evaluate,
    profile_terms,
    wall_distance,
)

if TYPE_CHECKING:
    import numpy as np

_np = None  # NumPy, once CorrelatorTensor.components first needs it
_SMALLEST_NORMAL = sys.float_info.min


class WallKind(enum.Enum):
    """Which pair of walls bounds the vacuum."""

    CONDUCTOR_CONDUCTOR = "cc"
    CONDUCTOR_PERMEABLE = "cp"

    # Members are singletons, so hashing by identity agrees with equality.
    # Enum's own __hash__ runs in Python and made every WALL_TABLE lookup
    # cost about as much as a profile evaluation.
    __hash__ = object.__hash__


class Wall(NamedTuple):
    """The closed-form ingredients of one geometry: two Forms in xi and K."""

    profile: Form
    profile_deriv: Form
    diag_const: float


# K is written out here rather than taken from profiles.COT_SERIES_CONST or
# CSC_SERIES_CONST: those are the fault-injection surface of the series
# checks, and this table is the one of potential_additivity and
# potential_from_correlators, which keep their own copies of the constants.
WALL_TABLE = {
    WallKind.CONDUCTOR_CONDUCTOR: Wall(
        COT_PROFILE, COT_PROFILE_DERIV, 1.0 / 120.0
    ),
    WallKind.CONDUCTOR_PERMEABLE: Wall(
        CSC_PROFILE, CSC_PROFILE_DERIV, -7.0 / 8.0 * (1.0 / 120.0)
    ),
}


@dataclass(frozen=True)
class Geometry:
    """Wall pair and separation; the permeable wall (if any) is at z = a."""

    kind: WallKind
    separation_a: float

    def __post_init__(self) -> None:
        if not (self.separation_a > 0.0 and math.isfinite(self.separation_a)):
            raise OutOfDomain(
                f"separation_a must be positive and finite, got {self.separation_a!r}"
            )

    def xi(self, z: float) -> float:
        """Scaled coordinate pi*z/a for a point strictly between the walls."""
        if not 0.0 < z < self.separation_a:  # also false for nan
            raise OutOfDomain(
                f"z={z!r} is not strictly between the walls (0, {self.separation_a})"
            )
        return PI * (z / self.separation_a)

    def profile(self, z: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
        """The geometry's profile at xi(z): cot_profile ("cc"), csc_profile ("cp")."""
        return _evaluate(WALL_TABLE[self.kind].profile, self.xi(z), guard)

    def profile_deriv(self, z: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
        """d/dxi of the geometry's profile at xi(z)."""
        return _evaluate(WALL_TABLE[self.kind].profile_deriv, self.xi(z), guard)

    def point_terms(
        self, z: float, guard: GuardPolicy = DEFAULT_GUARD
    ) -> tuple[float, float, bool]:
        """profile, profile_deriv and the asymptotic flag at one z, on floats.

        The scalar methods' two _evaluate calls, profile first, then the
        guard band's own test: the values equal profile_terms on a one-point
        grid bit for bit (where a power leaves the double range this raises
        as ** does instead of giving inf).
        """
        xi = self.xi(z)
        wall = WALL_TABLE[self.kind]
        return (
            _evaluate(wall.profile, xi, guard),
            _evaluate(wall.profile_deriv, xi, guard),
            wall_distance(xi) < guard.epsilon,
        )

    def profile_terms(
        self, z: np.ndarray, guard: GuardPolicy = DEFAULT_GUARD
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """profile, profile_deriv and the asymptotic mask over a grid of z.

        One profiles.profile_terms call; the values equal the scalar methods
        bit for bit. The first refused point in grid order raises the error
        the scalar methods raise for it.
        """
        import numpy as np

        z = np.asarray(z, dtype=np.float64)
        a = self.separation_a
        forms = WALL_TABLE[self.kind][:2]  # profile, profile_deriv
        outside = ~((0.0 < z) & (z < a))
        if outside.any():
            first = int(outside.argmax())
            profile_terms(*forms, PI * (z[:first] / a), guard)  # earlier refusals
            self.xi(float(z[first]))  # raises
        return profile_terms(*forms, PI * (z / a), guard)


@dataclass(frozen=True)
class CorrelatorTensor:
    """Diagonal correlator tensor diag(par, par, perp) at a point, natural units."""

    par: float
    perp: float
    field_pair: str  # one of "EE", "BB", "EB"

    def __post_init__(self) -> None:
        if self.field_pair not in ("EE", "BB", "EB"):
            raise ValueError(f"unknown field pair {self.field_pair!r}")

    @property
    def components(self) -> np.ndarray:
        """A fresh 3x3 float64 matrix; off-diagonal entries are zero."""
        global _np
        if _np is None:  # an import statement on every call costs a quarter more
            import numpy as _np
        m = _np.zeros((3, 3))  # a fifth of the cost of np.diag
        m[0, 0] = m[1, 1] = self.par
        m[2, 2] = self.perp
        return m

    def trace(self) -> float:
        return self.par + self.par + self.perp


def tensor_prefactor(separation_a: float) -> float:
    """Common scale (pi/a)^4 * 2/(3*pi) of every correlator component.

    Raises NonFiniteResult where the scale is not a normal double (a above
    about 5.5e76): every component would come out subnormal or zero, its
    digits lost.
    """
    pref = (PI / separation_a) ** 4 * (2.0 / (3.0 * PI))
    if not pref >= _SMALLEST_NORMAL:
        raise NonFiniteResult(
            f"correlator prefactor (pi/a)^4*2/(3*pi)={pref!r} at"
            f" a={separation_a!r} is not a finite normal double"
        )
    return pref


def _tensor(geom: Geometry, p, field_pair: str) -> CorrelatorTensor:
    """EE tensor for profile value p; the BB tensor is the EE one at -p.

    p may also be an array of profile values, for a whole grid at once.
    """
    pref = tensor_prefactor(geom.separation_a)
    k = WALL_TABLE[geom.kind].diag_const
    return CorrelatorTensor(pref * (p - k), pref * (p + k), field_pair)


def correlator_ee(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> CorrelatorTensor:
    """<E_i E_j> tensor: diag(p - K, p - K, p + K) * prefactor."""
    return _tensor(geom, geom.profile(z, guard), "EE")


def correlator_bb(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> CorrelatorTensor:
    """<B_i B_j> tensor: same constants as EE with the profile sign flipped."""
    return _tensor(geom, -geom.profile(z, guard), "BB")


def correlator_eb(geom: Geometry, z: float) -> CorrelatorTensor:
    """<E_i B_j> tensor, identically zero in both geometries."""
    geom.xi(z)  # domain check only
    return CorrelatorTensor(0.0, 0.0, "EB")


def mean_square_e(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> float:
    """<E^2> = trace of the EE tensor."""
    return correlator_ee(geom, z, guard).trace()


def mean_square_b(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> float:
    """<B^2> = trace of the BB tensor."""
    return correlator_bb(geom, z, guard).trace()
