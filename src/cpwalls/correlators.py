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
and -7/8 * 1/120 for "cp". _par_perp is the one transcription of that pair,
for a profile value or a whole array of them: the tensor records, the
traces (mean_square_e/b, par + par + perp, built without a record) and the
correlator columns of the tables all take it from there.

Geometry hands the geometry's forms, z and a to the profiles module, whose
z step decides where z lies: one profiles._point call per method on one z
(profile and profile_deriv with one form, point_terms with both, which
also gives the asymptotic flag), one profiles._profile_terms call on a
grid. A z is between the walls where 0 < z < a by the test of
profiles._inside (so a z that float arithmetic refuses, a str or a
Decimal, is outside), and its xi is pi*(z/a); _point and Geometry.xi
apply that rule, word a refusal with profiles._outside and chain no
exception. Where pi*z/a underflows to 0.0 (z/a below about 1e-324) the
point is in the guard band at every epsilon, in _point as in the kernel,
not refused as outside the walls, and a refusal names it as the smallest
positive double, the xi Geometry.xi gives it. _point alone decides the
band: a grid's first refused row goes to Geometry.profile, which raises
the scalar error and message. Records the
module builds from its own values (the tensors of correlator_ee and
correlator_bb, the one zero EB record) skip the checks of
CorrelatorTensor.__new__.

Geometry and CorrelatorTensor are named tuples checked in __new__: a
Geometry's kind must be a WallKind (ValueError otherwise) and its
separation a number by profiles._finite (ValueError otherwise), positive
and finite (OutOfDomain otherwise, an int beyond the double range too).
"""

from __future__ import annotations

import enum
import sys
from collections import namedtuple
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
    _XI_MIN,
    _finite,
    _inside,
    _outside,
    _point,
    _profile_terms,
)

if TYPE_CHECKING:
    import numpy as np

_np = None  # NumPy, once CorrelatorTensor.components first needs it
_SMALLEST_NORMAL = sys.float_info.min
_TENSOR_SCALE = 2.0 / (3.0 * PI)  # tensor_prefactor's factor after (pi/a)^4
_record = tuple.__new__  # builds a record from the library's own values, unchecked


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


class Geometry(namedtuple("Geometry", "kind separation_a")):
    """Wall pair and separation; the permeable wall (if any) is at z = a.

    kind is a WallKind; separation_a is positive and finite.
    """

    __slots__ = ()

    def __new__(cls, kind: WallKind, separation_a: float):
        a = separation_a
        if not (_finite(a, "separation_a is not a number: {!r}") and a > 0.0):
            raise OutOfDomain(f"separation_a must be positive and finite, got {a!r}")
        if not isinstance(kind, WallKind):
            raise ValueError(f"geometry kind must be a WallKind, got {kind!r}")
        return tuple.__new__(cls, (kind, separation_a))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def xi(self, z: float) -> float:
        """Scaled coordinate pi*z/a for a point strictly between the walls.

        Never 0.0: where pi*z/a underflows, xi is the smallest positive
        double.
        """
        a = self.separation_a
        if _inside(z, a):  # 0 < z < a, false for nan and for what is not a number
            return PI * (z / a) or _XI_MIN
        raise _outside(z, a)

    def profile(self, z: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
        """The geometry's profile at xi(z): cot_profile ("cc"), csc_profile ("cp")."""
        return _point(WALL_TABLE[self.kind].profile, None, z, self.separation_a, guard)

    def profile_deriv(self, z: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
        """d/dxi of the geometry's profile at xi(z)."""
        return _point(WALL_TABLE[self.kind].profile_deriv, None, z, self.separation_a, guard)

    def point_terms(
        self, z: float, guard: GuardPolicy = DEFAULT_GUARD
    ) -> tuple[float, float, bool]:
        """profile, profile_deriv and the asymptotic flag at one z, on floats.

        One profiles._point call: one reflection, one sin/cos pair and one
        band test for both forms. The values equal profile_terms on a
        one-point grid bit for bit (where a power leaves the double range
        this raises as ** does instead of giving inf, the profile before
        the slope), and a refusal is the scalar methods' own.
        """
        wall = WALL_TABLE[self.kind]
        return _point(wall.profile, wall.profile_deriv, z, self.separation_a, guard)

    def profile_terms(
        self, z: np.ndarray, guard: GuardPolicy = DEFAULT_GUARD
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """profile, profile_deriv and the asymptotic mask over a grid of z.

        The checked grid entry: one profiles._profile_terms call on z and
        a, whose values equal the scalar methods bit for bit. The
        refused rows are those outside (0, a) and, under mode="reject",
        those in the band; the first of them in grid order goes to
        self.profile, which raises the scalar error and message for it.
        """
        import numpy as np

        with np.errstate(all="ignore"):  # inf and nan, not warnings
            return self._grid_terms(np.asarray(z, dtype=np.float64), guard)

    def _grid_terms(self, z: np.ndarray, guard: GuardPolicy):
        """profile_terms on a float64 array, in the caller's NumPy error state."""
        a = self.separation_a
        p, dp, asymptotic = _profile_terms(*WALL_TABLE[self.kind][:2], z, a, guard)
        ok = (0.0 < z) & (z < a)
        if guard.mode == "reject":
            ok = ok > asymptotic  # inside and not in the band
        if not ok.all():  # _point decides the band as the kernel does, so this raises
            self.profile(float(z[ok.argmin()]), guard)
        return p, dp, asymptotic


class CorrelatorTensor(namedtuple("CorrelatorTensor", "par perp field_pair")):
    """Diagonal correlator tensor diag(par, par, perp) at a point, natural units.

    field_pair is one of "EE", "BB", "EB".
    """

    __slots__ = ()

    def __new__(cls, par: float, perp: float, field_pair: str):
        if field_pair not in ("EE", "BB", "EB"):
            raise ValueError(f"unknown field pair {field_pair!r}")
        return tuple.__new__(cls, (par, perp, field_pair))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

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

    def _matrix(self) -> list[list[float]]:
        """components as nested lists, built without NumPy (what verify reads)."""
        par = self.par
        return [[par, 0.0, 0.0], [0.0, par, 0.0], [0.0, 0.0, self.perp]]

    def trace(self) -> float:
        return self.par + self.par + self.perp


_EB = CorrelatorTensor(0.0, 0.0, "EB")  # the one <E_i B_j> record


def tensor_prefactor(separation_a: float) -> float:
    """Common scale (pi/a)^4 * 2/(3*pi) of every correlator component.

    Raises NonFiniteResult where the scale is not a normal double (a above
    about 5.5e76): every component would come out subnormal or zero, its
    digits lost.
    """
    pref = (PI / separation_a) ** 4 * _TENSOR_SCALE
    if not pref >= _SMALLEST_NORMAL:
        raise NonFiniteResult(
            f"correlator prefactor (pi/a)^4*2/(3*pi)={pref!r} at"
            f" a={separation_a!r} is not a finite normal double"
        )
    return pref


def _par_perp(geom: Geometry, p):
    """(par, perp) of the EE tensor for profile value p; BB is EE at -p.

    The one transcription of the components. p may also be an array of
    profile values, for a whole grid at once.
    """
    pref = tensor_prefactor(geom.separation_a)
    k = WALL_TABLE[geom.kind].diag_const
    return pref * (p - k), pref * (p + k)


def _trace(par, perp):
    """Trace par + par + perp of a _par_perp pair, without a tensor record."""
    return par + par + perp


def correlator_ee(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> CorrelatorTensor:
    """<E_i E_j> tensor: diag(p - K, p - K, p + K) * prefactor."""
    return _record(CorrelatorTensor, _par_perp(geom, geom.profile(z, guard)) + ("EE",))


def correlator_bb(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> CorrelatorTensor:
    """<B_i B_j> tensor: same constants as EE with the profile sign flipped."""
    return _record(CorrelatorTensor, _par_perp(geom, -geom.profile(z, guard)) + ("BB",))


def correlator_eb(geom: Geometry, z: float) -> CorrelatorTensor:
    """<E_i B_j> tensor, identically zero in both geometries."""
    geom.xi(z)  # domain check only
    return _EB


def mean_square_e(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> float:
    """<E^2> = trace of the EE tensor."""
    return _trace(*_par_perp(geom, geom.profile(z, guard)))


def mean_square_b(
    geom: Geometry, z: float, guard: GuardPolicy = DEFAULT_GUARD
) -> float:
    """<B^2> = trace of the BB tensor."""
    return _trace(*_par_perp(geom, -geom.profile(z, guard)))
