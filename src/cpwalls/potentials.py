"""Casimir-Polder potentials, forces, and stationary points.

An atom with static electric/magnetic polarizabilities (alpha0, beta0) sits
at 0 < z < a between the walls. The potentials follow from the correlators
via V_E = -alpha0/2 * <E^2> and V_M = -beta0/2 * <B^2>; here they are written
out as closed forms in the profile functions, and the verification suite
checks the two routes against each other.

Conductor-conductor ("cc"), with p = cot_profile(pi*z/a):
    V_E = -(alpha0*pi^3)/(3*a^4) * (3*p - 1/120)
    V_M = +(beta0 *pi^3)/(3*a^4) * (3*p + 1/120)
    V   = -(alpha0-beta0)*pi^3/a^4 * p + (alpha0+beta0)*pi^3/(360*a^4)

Conductor-permeable ("cp"), with q = csc_profile(pi*z/a):
    V_E = -(alpha0*pi^3)/(3*a^4) * (3*q + 7/960)
    V_M = +(beta0 *pi^3)/(3*a^4) * (3*q - 7/960)
    V   = -(alpha0-beta0)*pi^3/a^4 * q - (7/8)*(alpha0+beta0)*pi^3/(360*a^4)

So both parts are one expression in the geometry's profile p and diagonal
constant K (correlators.WALL_TABLE: 1/120 for "cc", -7/8 * 1/120 for "cp"):
V_E = -(alpha0*pi^3)/(3*a^4) * (3*p - K), V_M = +(beta0*pi^3)/(3*a^4) *
(3*p + K). The total keeps its own combined constant (1/360, -7/8 * 1/360),
so its equality with the sum of the parts stays a check between two routes.

Stationary points: the profile slope vanishes only at the midplane, and only
for "cc" (cot_profile' = -cos(xi)*(cos(xi)^2 + 2)/(2*sin(xi)^5); csc_profile'
is strictly negative), so the potential has a stationary point at z = a/2 in
"cc" and none in "cp".

Sign conventions: force_z = -dV/dz, so force_z > 0 pushes the atom toward
the wall at z = a. Natural units (hbar = c = 1): with polarizabilities in
length^3, potentials are inverse lengths and forces inverse lengths squared.

AtomResponse and PotentialSample are named tuples; AtomResponse.__new__
refuses a polarizability that is not a number or not finite, by
profiles._finite, and warns, naming the caller's line, about a negative
one.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from typing import NamedTuple

from .correlators import WALL_TABLE, Geometry, WallKind, _record
from .errors import (
    FlatPotentialWarning,
    NegativePolarizabilityWarning,
    OutOfDomain,
)
from .profiles import (
    DEFAULT_GUARD, PI, Form, GuardPolicy, _finite, _inside, _point, _pow,
)

# Combined constant of potential_total, transcribed apart from the diagonal
# constants in correlators.WALL_TABLE: potential_additivity compares the two.
_COMBINED_CONST = {
    WallKind.CONDUCTOR_CONDUCTOR: 1.0 / 360.0,
    WallKind.CONDUCTOR_PERMEABLE: -7.0 / 8.0 / 360.0,
}
_PI3, _PI4 = PI ** 3, PI ** 4  # the doubles PI ** 3 and PI ** 4, taken once
_REGIME = ("exact", "asymptotic")  # potential_sample's regime by its flag
# The z step with nothing to evaluate: profiles._point's domain and band tests
# alone, so a bracket end is refused where a profile is, and no power of it
# can leave the double range.
_NO_FORM = Form(closed=lambda s, c, sign, pow: None, series=lambda u, sign, pow: None)


class AtomResponse(namedtuple("AtomResponse", "alpha0 beta0")):
    """Static polarizabilities alpha0 (electric), beta0 (magnetic).

    Both in length^3 (natural units). Negative values are admitted - the
    formulas are linear - but flagged, since for ground-state atoms the
    static responses are normally positive.
    """

    __slots__ = ()

    def __new__(cls, alpha0: float, beta0: float):
        numbers = "polarizabilities must be numbers"
        if not (_finite(alpha0, numbers) and _finite(beta0, numbers)):
            raise ValueError("polarizabilities must be finite")
        if alpha0 < 0.0 or beta0 < 0.0:
            warnings.warn(
                "negative static polarizability supplied",
                NegativePolarizabilityWarning,
                stacklevel=2,  # the caller of AtomResponse(...)
            )
        return tuple.__new__(cls, (alpha0, beta0))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __reduce__(self):
        # a copy or an unpickled record is not checked, nor warned about, again
        return tuple.__new__, (type(self), tuple(self))


class PotentialSample(NamedTuple):
    """One evaluated point: position, potential, force, evaluation regime."""

    z: float
    V: float
    force_z: float
    regime: str  # "exact" or "asymptotic"


def _electric(atom: AtomResponse, geom: Geometry, p: float) -> float:
    pref = atom.alpha0 * _PI3 / (3.0 * geom.separation_a ** 4)
    return -pref * (3.0 * p - WALL_TABLE[geom.kind].diag_const)


def _magnetic(atom: AtomResponse, geom: Geometry, p: float) -> float:
    pref = atom.beta0 * _PI3 / (3.0 * geom.separation_a ** 4)
    return pref * (3.0 * p + WALL_TABLE[geom.kind].diag_const)


def _total(atom: AtomResponse, geom: Geometry, p: float) -> float:
    a4 = geom.separation_a ** 4
    diff = atom.alpha0 - atom.beta0
    both = atom.alpha0 + atom.beta0
    return (
        -diff * _PI3 / a4 * p
        + both * _PI3 * _COMBINED_CONST[geom.kind] / a4
    )


def _force(atom: AtomResponse, geom: Geometry, dp: float) -> float:
    return (atom.alpha0 - atom.beta0) * _PI4 / geom.separation_a ** 5 * dp


def potential_electric(
    atom: AtomResponse,
    geom: Geometry,
    z: float,
    guard: GuardPolicy = DEFAULT_GUARD,
) -> float:
    """Electric part -alpha0/2 * <E^2>, as a closed form in the profile."""
    return _electric(atom, geom, geom.profile(z, guard))


def potential_magnetic(
    atom: AtomResponse,
    geom: Geometry,
    z: float,
    guard: GuardPolicy = DEFAULT_GUARD,
) -> float:
    """Magnetic part -beta0/2 * <B^2>, as a closed form in the profile."""
    return _magnetic(atom, geom, geom.profile(z, guard))


def potential_total(
    atom: AtomResponse,
    geom: Geometry,
    z: float,
    guard: GuardPolicy = DEFAULT_GUARD,
) -> float:
    """Combined potential in its own closed form (not the sum of the parts).

    Equality with potential_electric + potential_magnetic is a checked
    invariant, not an implementation shortcut.
    """
    return _total(atom, geom, geom.profile(z, guard))


def single_wall_limit(atom: AtomResponse, wall_type: str, distance: float) -> float:
    """a -> infinity limit at distance d from one wall.

    conducting: -3*(alpha0-beta0)/(8*pi*d^4)   (attractive for alpha0 > beta0)
    permeable:  +3*(alpha0-beta0)/(8*pi*d^4)   (repulsive for alpha0 > beta0)
    """
    if wall_type not in ("conducting", "permeable"):
        raise ValueError(f"unknown wall_type {wall_type!r}")
    if not _inside(distance, math.inf):
        raise OutOfDomain(f"wall distance must be positive, got {distance!r}")
    return _single_wall(atom, distance, wall_type == "permeable", _pow)


def _single_wall(atom: AtomResponse, d, repels, pow):
    """single_wall_limit at distance d from a wall that repels (True) or not.

    d and repels are floats and a bool, or arrays of them; pow is
    operator.pow or np.float_power. The sign is a factor of +-1.0, which
    is exact.
    """
    magnitude = 3.0 * (atom.alpha0 - atom.beta0) / (8.0 * PI * pow(d, 4))
    return (2.0 * repels - 1.0) * magnitude


def force(
    atom: AtomResponse,
    geom: Geometry,
    z: float,
    guard: GuardPolicy = DEFAULT_GUARD,
) -> float:
    """Analytic -dV/dz via the profile derivative and dxi/dz = pi/a."""
    return _force(atom, geom, geom.profile_deriv(z, guard))


def potential_sample(
    atom: AtomResponse,
    geom: Geometry,
    z: float,
    guard: GuardPolicy = DEFAULT_GUARD,
) -> PotentialSample:
    """Potential and force at z, tagged with the evaluation regime.

    The regime is "asymptotic" inside the guard band (mode="reject" raises
    there instead) and "exact" elsewhere, as Geometry.point_terms flags it
    along with the profile and its slope, in one call. The record holds the
    library's own values and is built without a check.
    """
    p, dp, asymptotic = geom.point_terms(z, guard)
    V, force_z = _total(atom, geom, p), _force(atom, geom, dp)
    return _record(PotentialSample, (z, V, force_z, _REGIME[asymptotic]))


def stationary_points(
    atom: AtomResponse,
    geom: Geometry,
    z_lo: float,
    z_hi: float,
    guard: GuardPolicy = DEFAULT_GUARD,
) -> list[tuple[float, str]]:
    """The force root in the closed bracket [z_lo, z_hi], classified.

    Returns [(a/2, kind)] for "cc" when the bracket holds the midplane and
    [] otherwise (the "cp" potential is strictly monotonic). kind is "max"
    for alpha0 > beta0 and "min" for alpha0 < beta0, because
    cot_profile''(pi/2) = 1; it is "saddle-flat" when the curvature
    (alpha0-beta0)*pi^5/a^6 is within 1e-9 of the natural force-gradient
    scale pi^4*(|alpha0|+|beta0|)/a^6. A degenerate atom (alpha0 == beta0)
    has a position-independent potential: that returns [] with a
    FlatPotentialWarning rather than every point. A bracket end inside the
    guard band is refused in either guard mode, by the z step in reject
    mode: TooCloseToWall, worded as the profile's own refusal of that z
    ("xi=... is within epsilon of a wall (mode=reject)"), z_lo first.
    """
    a = geom.separation_a
    if not (_inside(z_lo, z_hi) and _inside(z_hi, a)):
        raise OutOfDomain(
            f"need 0 < z_lo < z_hi < a, got z_lo={z_lo!r}, z_hi={z_hi!r}, a={a!r}"
        )
    reject = GuardPolicy(guard.epsilon)  # refuses a bracket end in the band in either mode
    for end in (z_lo, z_hi):
        _point(_NO_FORM, None, end, a, reject)
    if atom.alpha0 == atom.beta0:
        warnings.warn(
            "flat potential: alpha0 == beta0 makes every point stationary",
            FlatPotentialWarning,
            stacklevel=2,
        )
        return []
    z_mid = 0.5 * a
    if geom.kind is not WallKind.CONDUCTOR_CONDUCTOR or not z_lo <= z_mid <= z_hi:
        return []
    diff = atom.alpha0 - atom.beta0
    if abs(diff) * PI <= 1e-9 * (abs(atom.alpha0) + abs(atom.beta0)):
        kind = "saddle-flat"
    elif diff > 0.0:
        kind = "max"
    else:
        kind = "min"
    return [(z_mid, kind)]
