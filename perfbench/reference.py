"""Independent reference values and output checks.

The reference is the benchmark's own mpmath transcription of the closed
forms in the docstrings of cpwalls' profiles, potentials and correlators
modules, evaluated at 40 digits from the exact double inputs. Derivatives
come from mpmath's numerical differentiation of the profile, not from a
closed form, so a wrong derivative formula in the package cannot be
copied here. It shares no code or constant with the package.

A value passes when it is within REL_TOL of the reference, measured against
the sum of the magnitudes of the terms in its closed form: V crosses zero in
the cp geometry, so a plain relative error would blow up there. Outputs are
never compared byte for byte, because a correct kernel may move a value by
one ulp.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40

REL_TOL = 1e-11
PI = mp.pi
HBAR_C = mp.mpf("6.62607015e-34") / (2 * PI) * mp.mpf(299792458)

# Diagonal correlator constants (c_par, c_perp) and the constant parts of
# V_E and V_M, per geometry, as the module docstrings state them.
_C_PAR = {"cc": -mp.mpf(1) / 120, "cp": mp.mpf(7) / 960}
_C_PERP = {"cc": mp.mpf(1) / 120, "cp": -mp.mpf(7) / 960}
_VE_CONST = {"cc": -mp.mpf(1) / 120, "cp": mp.mpf(7) / 960}
_VM_CONST = {"cc": mp.mpf(1) / 120, "cp": -mp.mpf(7) / 960}


class CheckFailure(Exception):
    """An output differs from what the program must produce."""


def profile(kind: str, xi):
    """cot_profile (cc) or csc_profile (cp), -(1/16) d^3/dxi^3 cot/csc."""
    s, c = mp.sin(xi), mp.cos(xi)
    if kind == "cc":
        return (2 * c * c + 1) / (8 * s ** 4)
    return c * (c * c + 5) / (16 * s ** 4)


def profile_deriv(kind: str, xi):
    return mp.diff(lambda t: profile(kind, t), xi)


class Point:
    """Reference quantities at one position between the walls."""

    def __init__(self, geometry: str, a: float, z, alpha: float, beta: float):
        self.g = geometry
        self.a = mp.mpf(a)
        self.alpha = mp.mpf(alpha)
        self.beta = mp.mpf(beta)
        self.z = mp.mpf(z)
        self.xi = PI * self.z / self.a
        self.p = profile(geometry, self.xi)

    def v_parts(self):
        """(V_E, V_M) with their term scales."""
        pref = PI ** 3 / (3 * self.a ** 4)
        ve = -self.alpha * pref * (3 * self.p + _VE_CONST[self.g])
        vm = self.beta * pref * (3 * self.p + _VM_CONST[self.g])
        se = abs(self.alpha) * pref * (3 * abs(self.p) + abs(_VE_CONST[self.g]))
        sm = abs(self.beta) * pref * (3 * abs(self.p) + abs(_VM_CONST[self.g]))
        return (ve, se), (vm, sm)

    def v_total(self):
        (ve, se), (vm, sm) = self.v_parts()
        return ve + vm, se + sm

    def force(self):
        """-dV/dz; scaled by |p| + |p'| because p' vanishes at the cc midplane."""
        k = (self.alpha - self.beta) * PI ** 4 / self.a ** 5
        dp = profile_deriv(self.g, self.xi)
        return k * dp, abs(k) * (abs(dp) + abs(self.p))

    def tensor(self, pair: str):
        """[(xx, scale), (zz, scale)] for EE or BB (BB flips the profile)."""
        pref = (PI / self.a) ** 4 * 2 / (3 * PI)
        p = self.p if pair == "EE" else -self.p
        c_par, c_perp = _C_PAR[self.g], _C_PERP[self.g]
        return [(pref * (c_par + p), pref * (abs(c_par) + abs(p))),
                (pref * (c_perp + p), pref * (abs(c_perp) + abs(p)))]

    def trace(self, pair: str):
        (xx, sx), (zz, sz) = self.tensor(pair)
        return 2 * xx + zz, 2 * sx + sz


def single_wall(alpha: float, beta: float, wall: str, d):
    """a -> infinity limit: -/+ 3(alpha-beta)/(8 pi d^4), conducting/permeable."""
    mag = 3 * (mp.mpf(alpha) - mp.mpf(beta)) / (8 * PI * mp.mpf(d) ** 4)
    val = -mag if wall == "conducting" else mag
    return val, abs(val)


def nearest_wall(geometry: str, a: float, z: float, alpha: float, beta: float):
    near, far = mp.mpf(z), mp.mpf(a) - mp.mpf(z)
    if near <= far:
        return single_wall(alpha, beta, "conducting", near)
    return single_wall(alpha, beta,
                       "conducting" if geometry == "cc" else "permeable", far)


def expect(label: str, got: float, ref, scale, factor=1) -> None:
    """got must be within REL_TOL of ref*factor relative to scale*factor."""
    want = ref * factor
    tol = REL_TOL * abs(scale * factor)
    if not abs(mp.mpf(got) - want) <= tol:
        raise CheckFailure(
            f"{label}: got {got!r}, reference {mp.nstr(want, 20)},"
            f" tolerance {mp.nstr(tol, 3)}"
        )
