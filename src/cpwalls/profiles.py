"""Profile functions for the parallel-wall vacuum geometry.

Everything position-dependent in the wall-modified vacuum is carried by two
dimensionless profile functions of the scaled coordinate xi = pi*z/a,
defined on the open interval (0, pi):

    cot_profile(xi) = -(1/16) d^3/dxi^3 cot(xi)
    csc_profile(xi) = -(1/16) d^3/dxi^3 csc(xi)

The first appears between two conducting walls, the second when the far wall
is permeable. Both diverge like (3/8)*u^-4 at a wall distance u -> 0, which
is where all the numerical care below goes.

Evaluation strategy
-------------------
Closed forms (derived once from the defining third derivatives and verified
symbolically in the test suite):

    cot_profile(xi) = (2*cos(xi)^2 + 1) / (8*sin(xi)^4)
    csc_profile(xi) = cos(xi)*(cos(xi)^2 + 5) / (16*sin(xi)^4)

For xi > pi/2 the closed forms are evaluated at the reflected point
u = pi - xi using the exact symmetries (cot_profile even, csc_profile odd
about pi/2). The reflection is computed in double-double style,
u = (PI - xi) + PI_LO, because the poles sit at multiples of the *real* pi:
with plain math.pi the pole offset of ~1.2e-16 already costs ~6e-10 absolute
near u = 0.05, an order of magnitude above the 1e-10 oracle budget.

Each of the four quantities (the two profiles and their xi-slopes) is
written once, as a Form: a closed form in s = sin(u), c = cos(u) and the
sign (+1 on (0, pi/2], -1 beyond) and a near-wall series in u and the sign.
Both take the power function as an argument, so one transcription serves
both paths. The scalar functions pass operator.pow, which is the ** operator
itself: its bits, and its OverflowError and ZeroDivisionError messages, are
those of plain float arithmetic (math.pow would say "math range error" and
raise ValueError instead); math.sin, math.cos and operator.pow are bound
once, at import.

On floats, one function decides the guard band: _at, which runs the one
band test, the kernel's own u < epsilon, takes one sin/cos pair for the
closed forms or, inside the band, refuses (mode="reject") or takes the
series with the asymptotic flag, and names the xi of a refusal. Two entry
points turn an argument into (u, sign) and call it. _evaluate serves the
six public functions of xi: a check that xi is in (0, pi), worded by
_check_domain, and the reflection; the two *_series functions pass a
policy whose epsilon is inf, so every point takes the series. _point is
the z step of every Geometry method on one z: it checks 0 < z < a,
worded by _outside, forms xi = pi*(z/a) and reflects once, and asks for
the profile and, if wanted, its slope. An xi that underflows to 0.0 is
thus in the band at every epsilon, 5e-324 included; the smallest positive
double only names it in a refusal and is its series' wall distance.
Geometry.profile_terms and stationary_points refuse a position by calling
_point. An argument that float arithmetic refuses is outside the
domain: a str, a Decimal or an int beyond the double range is refused as
outside (0, pi) (cpwalls.oracles.zeta4: as not q > 0; a z as outside
(0, a), by _outside), by the test 0.0 * x < x < hi of _inside, with no
type test on the way of a number.
_profile_terms, the z step on arrays, takes the same z and a and
evaluates the same forms on a whole array, for tables, and refuses
nothing: it passes np.float_power, which is libm's pow as ** is (** on
arrays and np.power use a SIMD pow that differs from libm in the last
bit), and returns the band mask, from which Geometry.profile_terms picks
the first refused row and hands it to the scalar path to raise. No form
may power with ** or np.power itself.

The independent oracles of these closed forms, the image sums and the
Hurwitz-zeta route, live in cpwalls.oracles; their one caller in the
package is the check table in cpwalls.verification. They take pi and its
low part from math and 3/8 from their own literal, never from this
module's constants, so a wrong PI_LO or SERIES_LEADING moves the closed
forms and not their oracles; they share only the input rule below.

NumPy is imported inside _profile_terms only, so a process that evaluates
single points never loads it.

GuardPolicy is a named tuple whose __new__ checks the fields. A number
field of any record (cpwalls.oracles' OracleConfig too) is checked
by _finite, the test of _inside against inf: a value that float arithmetic
refuses as not a number (a str, a Decimal, a complex) is a ValueError, and
an int or a Fraction beyond the double range is out of range, as inf is.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import OutOfDomain, TooCloseToWall

if TYPE_CHECKING:
    import numpy as np

PI = math.pi
# pi = PI + PI_LO to ~1e-32; PI_LO == sin(math.pi) in IEEE double arithmetic.
PI_LO = 1.2246467991473532e-16
HALF_PI = 0.5 * math.pi
_sin, _cos, _pow = math.sin, math.cos, operator.pow  # bound once for the scalar steps
_XI_MIN = 5e-324  # the smallest positive double: xi where pi*z/a underflows

# Series data about a wall (distance u): profile = (3/8)*u^-4 + const + O(u^2).
SERIES_LEADING = 0.375
COT_SERIES_CONST = 1.0 / 120.0
CSC_SERIES_CONST = 7.0 / 960.0


def _inside(x, hi: float) -> bool:
    """0 < x < hi, and False for an x that float arithmetic refuses.

    0.0 * x is 0.0 for a positive number (nan for inf and nan) and raises
    for an x that float arithmetic refuses: TypeError for one that is not
    a number, a Decimal included, OverflowError for an int or a Fraction
    beyond the double range. The comparisons stay exact.
    """
    try:
        return 0.0 * x < x < hi
    except (TypeError, OverflowError):
        return False


def _finite(x, not_a_number: str) -> bool:
    """Whether x is finite, by the test of _inside; a ValueError, with the
    message not_a_number.format(x), for an x that is not a number.

    The one rule for a number field of a record: 0.0 * x < inf is False for
    inf and nan, and raises TypeError for what is not a number, a Decimal
    included, and for a complex, which no ordering comparison takes. An int
    or a Fraction beyond the double range raises OverflowError: it is a
    number, and not finite.
    """
    try:
        return 0.0 * x < math.inf
    except OverflowError:
        return False
    except TypeError:
        raise ValueError(not_a_number.format(x)) from None


class GuardPolicy(namedtuple("GuardPolicy", "epsilon mode")):
    """What to do inside the guard band around xi = 0 and xi = pi.

    mode="reject" raises TooCloseToWall; mode="asymptotic" substitutes the
    leading near-wall series at every wall distance u < epsilon. The series
    drops a term, so its relative error grows like u^6 and is largest at
    u = epsilon: to leading order 4u^6/189 (about u^6/47) for cot_profile,
    31u^6/1512 (about u^6/49) for csc_profile and half of each for their
    slopes. Measured against mpmath at u = 0.1, 0.5 and 1.0:

        cot_profile        2.1e-8   3.6e-4   2.9e-2
        csc_profile        2.1e-8   3.5e-4   3.2e-2
        cot_profile_deriv  1.1e-8   2.0e-4   2.2e-2
        csc_profile_deriv  1.0e-8   1.9e-4   2.1e-2

    and near pi/2 no digit is right (csc_profile is 2.0, 200%, off at
    u = 1.5). Each series is within one ulp of the true value only up to
    about epsilon = 4e-3 (3 to 5 ulps off at 6e-3); the default 1e-6 is
    well inside that. A wider epsilon is accepted, and costs this error.
    """

    __slots__ = ()

    def __new__(cls, epsilon: float = 1e-6, mode: str = "reject"):
        if not (_finite(epsilon, "guard epsilon must be a number") and epsilon > 0.0):
            raise ValueError("guard epsilon must be positive and finite")
        if epsilon >= HALF_PI:
            raise ValueError("guard epsilon must be smaller than pi/2")
        if mode not in ("reject", "asymptotic"):
            raise ValueError(f"unknown guard mode {mode!r}")
        return tuple.__new__(cls, (epsilon, mode))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates


DEFAULT_GUARD = GuardPolicy()


def wall_distance(xi: float) -> float:
    """Distance from xi to the nearest wall (0 or pi); negative outside."""
    if xi <= HALF_PI:
        return xi
    return (PI - xi) + PI_LO


def _check_domain(xi: float) -> None:
    if not _inside(xi, PI):
        raise OutOfDomain(f"xi={xi!r} is outside the open interval (0, pi)")


class Form(NamedTuple):
    """One profile quantity: its closed form and its near-wall series.

    closed(s, c, sign, pow) takes s = sin(u), c = cos(u) at the wall
    distance u and sign = +1 on (0, pi/2], -1 beyond; series(u, sign, pow)
    is the expansion about the nearest wall. pow is operator.pow for one
    point and np.float_power for arrays.
    """

    closed: Callable
    series: Callable


# The series read SERIES_LEADING and the *_SERIES_CONST at call time, so a
# perturbed constant reaches the scalar functions and the tables alike.
COT_PROFILE = Form(
    closed=lambda s, c, sign, pow: (2.0 * c * c + 1.0) / (8.0 * pow(s, 4)),
    series=lambda u, sign, pow: SERIES_LEADING * pow(u, -4) + COT_SERIES_CONST,
)
CSC_PROFILE = Form(
    closed=lambda s, c, sign, pow: sign * c * (c * c + 5.0) / (16.0 * pow(s, 4)),
    series=lambda u, sign, pow: (
        sign * (SERIES_LEADING * pow(u, -4) - CSC_SERIES_CONST)
    ),
)
COT_PROFILE_DERIV = Form(
    closed=lambda s, c, sign, pow: -sign * c * (c * c + 2.0) / (2.0 * pow(s, 5)),
    series=lambda u, sign, pow: sign * (-1.5) * pow(u, -5),
)
CSC_PROFILE_DERIV = Form(
    # (c * c) * (c * c) rounds as c2 * c2 with c2 = c * c
    closed=lambda s, c, sign, pow: (
        -((c * c) * (c * c) + 18.0 * (c * c) + 5.0) / (16.0 * pow(s, 5))
    ),
    series=lambda u, sign, pow: -1.5 * pow(u, -5),
)


def _at(profile: Form, deriv: Form | None, u: float, sign: float, xi: float, guard: GuardPolicy):
    """The one band test on floats: the Forms at wall distance u and sign.

    u >= epsilon takes the closed forms on one sin/cos pair; inside the band
    mode="reject" raises TooCloseToWall naming xi, and mode="asymptotic"
    takes the series, with the asymptotic flag. Where xi underflowed to 0.0
    the smallest positive double is the xi a refusal names and the u of the
    series. With deriv=None it returns the profile alone, a float, and
    evaluates no slope.
    """
    if u >= guard.epsilon:
        if deriv is None:
            return profile.closed(_sin(u), _cos(u), sign, _pow)
        s, c = _sin(u), _cos(u)
        return profile.closed(s, c, sign, _pow), deriv.closed(s, c, sign, _pow), False
    if guard.mode == "reject":
        raise TooCloseToWall(
            f"xi={xi or _XI_MIN!r} is within {guard.epsilon} of a wall (mode=reject)")
    u = u or _XI_MIN
    if deriv is None:
        return profile.series(u, sign, _pow)
    return profile.series(u, sign, _pow), deriv.series(u, sign, _pow), True


def _evaluate(form: Form, xi: float, guard: GuardPolicy) -> float:
    """One Form at one xi: domain check, reflection, then _at.

    u is the distance to the nearest wall (the reflection about the true pi
    done in double-double) and sign is +1 on (0, pi/2] and -1 beyond. An xi
    off (0, pi) is refused after the except block, so that its error chains
    nothing.
    """
    try:  # _inside(xi, PI) inline; unchained, which is one bytecode less
        if not (0.0 * xi < xi and xi < PI):
            raise OutOfDomain  # worded by _check_domain, below
    except (OutOfDomain, TypeError, OverflowError):  # or refused by float arithmetic
        pass
    else:
        if xi <= HALF_PI:
            return _at(form, None, xi, 1.0, xi, guard)
        return _at(form, None, (PI - xi) + PI_LO, -1.0, xi, guard)
    _check_domain(xi)


def _outside(z, a: float) -> OutOfDomain:
    """The refusal of a position z not strictly between the walls (0, a)."""
    return OutOfDomain(f"z={z!r} is not strictly between the walls (0, {a})")


def _point(profile: Form, deriv: Form | None, z: float, a: float, guard: GuardPolicy):
    """The z step on floats: (profile, slope, asymptotic) at one z.

    The one place a position between the walls becomes (u, sign): 0 < z < a
    by the test of _inside, xi = pi*(z/a) and one reflection; _at then runs
    the band test, u < epsilon as in _profile_terms, for both Forms. Where
    pi*z/a underflows to 0.0 the point is in the band whatever epsilon is.
    With deriv=None it returns the profile alone, a float. The values are
    _profile_terms' at the same z and a bit for bit (where a power leaves
    the double range this raises as ** does, the profile before the slope).
    A z off (0, a) is refused after the except block, so that its error
    chains nothing.
    """
    try:  # _inside(z, a) inline
        if not (0.0 * z < z and z < a):
            raise OutOfDomain  # worded by _outside, below
    except (OutOfDomain, TypeError, OverflowError):  # or refused by float arithmetic
        pass
    else:
        xi = PI * (z / a)
        if xi <= HALF_PI:
            return _at(profile, deriv, xi, 1.0, xi, guard)
        return _at(profile, deriv, (PI - xi) + PI_LO, -1.0, xi, guard)
    raise _outside(z, a)


def cot_profile(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """-(1/16) d^3/dxi^3 cot(xi); even about pi/2, positive on (0, pi)."""
    return _evaluate(COT_PROFILE, xi, guard)


def csc_profile(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """-(1/16) d^3/dxi^3 csc(xi); odd about pi/2."""
    return _evaluate(CSC_PROFILE, xi, guard)


def cot_profile_deriv(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """d/dxi of cot_profile; odd about pi/2."""
    return _evaluate(COT_PROFILE_DERIV, xi, guard)


def csc_profile_deriv(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """d/dxi of csc_profile; even about pi/2 and strictly negative."""
    return _evaluate(CSC_PROFILE_DERIV, xi, guard)


# The series everywhere: no u reaches an epsilon of inf, which GuardPolicy
# itself refuses, so the record is built unchecked.
_SERIES_ONLY = tuple.__new__(GuardPolicy, (math.inf, "asymptotic"))


def cot_profile_series(xi: float) -> float:
    """Near-wall expansion (3/8)*u^-4 + 1/120, u = distance to either wall.

    The constant keeps the same sign at both walls (the image sum is even
    under reflection); relative error is about u^6/47 at distance u.
    """
    return _evaluate(COT_PROFILE, xi, _SERIES_ONLY)


def csc_profile_series(xi: float) -> float:
    """Near-wall expansion of csc_profile; sign flips at the far wall.

    Near xi=0: (3/8)*u^-4 - 7/960. Near xi=pi: -(3/8)*u^-4 + 7/960.
    """
    return _evaluate(CSC_PROFILE, xi, _SERIES_ONLY)


def _profile_terms(
    profile: Form, deriv: Form, z: np.ndarray, a: float, guard: GuardPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The z step on arrays: profile, slope and asymptotic mask over z.

    profile and deriv are the Forms of a profile and of its slope, for
    example COT_PROFILE and COT_PROFILE_DERIV; z is a float64 array and
    xi = pi*(z/a). A pure evaluator: it checks no domain and refuses
    nothing, and only guard.epsilon is read. Every element with z in
    (0, a) is _point's value in asymptotic mode bit for bit (series inside
    the band): the forms are the same, np.sin/np.cos agree with libm on
    the platforms the golden tests pin, and np.float_power is libm's pow.
    Where pi*(z/a) underflows to 0.0 the element is in the band, as in
    _point, and its series is infinite. Elements off (0, a) are
    meaningless; Geometry.profile_terms, the checked grid entry, refuses
    such rows and, under mode="reject", the masked ones.
    NumPy's error state is the caller's: Geometry.profile_terms and the
    table chunks run this under np.errstate(all="ignore"), so an overflow
    gives inf, not a warning.
    """
    import numpy as np

    xi = PI * (z / a)
    near = xi <= HALF_PI
    u = np.where(near, xi, (PI - xi) + PI_LO)
    sign = np.where(near, 1.0, -1.0)
    asymptotic = u < guard.epsilon
    s, c = np.sin(u), np.cos(u)
    p = profile.closed(s, c, sign, np.float_power)
    dp = deriv.closed(s, c, sign, np.float_power)
    if asymptotic.any():
        ua, sa = u[asymptotic], sign[asymptotic]
        p[asymptotic] = profile.series(ua, sa, np.float_power)
        dp[asymptotic] = deriv.series(ua, sa, np.float_power)
    return p, dp, asymptotic
