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
raise ValueError instead). _evaluate is the one evaluator on floats: every
scalar function, and every Geometry method on one z, is one _evaluate call
per form, and outside it the guard band on floats is only ever the test
wall_distance(xi) < guard.epsilon. profile_terms evaluates the same forms
on a whole array of xi, for tables, and passes np.float_power, which is
libm's pow as ** is; ** on arrays and np.power use a SIMD pow that differs
from libm in the last bit. No form may power with ** or np.power itself.

Two independent oracles cross-check the closed forms: a truncated image sum
over the poles (with a certified tail bound) and a Hurwitz-zeta form summed
directly with an Euler-Maclaurin tail.

Both image sums run over the same terms (xi - n*pi)^-4, with all signs plus
for cot_profile and alternating ones for csc_profile, so one pass per point
(_image_sums) builds and powers the displacements once and returns both.
The powers go through np.float_power, which is libm's pow: NumPy's ** uses
a SIMD pow whose last bit depends on the CPU features it dispatches to, and
an oracle should not change with the machine.

NumPy is imported inside the array functions (profile_terms, _image_sums)
only, so a process that evaluates single points never loads it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn

from .errors import OutOfDomain, TailBoundViolated, TooCloseToWall

if TYPE_CHECKING:
    import numpy as np

PI = math.pi
# pi = PI + PI_LO to ~1e-32; PI_LO == sin(math.pi) in IEEE double arithmetic.
PI_LO = 1.2246467991473532e-16
HALF_PI = 0.5 * math.pi

# Series data about a wall (distance u): profile = (3/8)*u^-4 + const + O(u^2).
SERIES_LEADING = 0.375
COT_SERIES_CONST = 1.0 / 120.0
CSC_SERIES_CONST = 7.0 / 960.0


@dataclass(frozen=True)
class GuardPolicy:
    """What to do inside the guard band around xi = 0 and xi = pi.

    mode="reject" raises TooCloseToWall; mode="asymptotic" substitutes the
    leading near-wall series, which is all the divergence leaves visible
    anyway (the dropped u^2 term is ~u^6/47 of the u^-4 leading one, far
    below double precision at any plausible epsilon).
    """

    epsilon: float = 1e-6
    mode: str = "reject"

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("guard epsilon must be positive and finite")
        if self.epsilon >= HALF_PI:
            raise ValueError("guard epsilon must be smaller than pi/2")
        if self.mode not in ("reject", "asymptotic"):
            raise ValueError(f"unknown guard mode {self.mode!r}")


@dataclass(frozen=True)
class OracleConfig:
    """Truncation control for the image-sum oracles.

    image_terms is the number N of image pairs kept on each side; the
    truncated tail is bounded by (N*pi - xi)^-3 / (4*pi), and evaluation
    refuses to proceed when that bound exceeds target_abs_tol.
    """

    image_terms: int = 1500
    target_abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.image_terms < 1:
            raise ValueError("image_terms must be a positive integer")
        if not (self.target_abs_tol > 0.0 and math.isfinite(self.target_abs_tol)):
            raise ValueError("target_abs_tol must be positive and finite")


DEFAULT_GUARD = GuardPolicy()
DEFAULT_ORACLE = OracleConfig()


def wall_distance(xi: float) -> float:
    """Distance from xi to the nearest wall (0 or pi); negative outside."""
    if xi <= HALF_PI:
        return xi
    return (PI - xi) + PI_LO


def _check_domain(xi: float) -> None:
    if not 0.0 < xi < PI:  # also false for nan and inf
        raise OutOfDomain(f"xi={xi!r} is outside the open interval (0, pi)")


def _refuse(xi: float, guard: GuardPolicy | None) -> NoReturn:
    """Raise for xi outside (0, pi), else for xi in a rejecting guard band."""
    _check_domain(xi)
    raise TooCloseToWall(
        f"xi={xi!r} is within {guard.epsilon} of a wall (mode=reject)"
    )


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


def _evaluate(form: Form, xi: float, guard: GuardPolicy | None) -> float:
    """One Form at one point: domain check, reflection, guard band, value.

    u is the distance to the nearest wall (the reflection about the true pi
    done in double-double) and sign is +1 on (0, pi/2] and -1 beyond. Inside
    the guard band mode="reject" raises and mode="asymptotic" takes the
    series; guard=None asks for the series everywhere.
    """
    if not 0.0 < xi < PI:  # also false for nan and inf
        _refuse(xi, guard)
    if xi <= HALF_PI:
        u, sign = xi, 1.0
    else:
        u, sign = (PI - xi) + PI_LO, -1.0
    if guard is not None:
        if u >= guard.epsilon:
            return form.closed(math.sin(u), math.cos(u), sign, operator.pow)
        if guard.mode == "reject":
            _refuse(xi, guard)
    return form.series(u, sign, operator.pow)


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


def cot_profile_series(xi: float) -> float:
    """Near-wall expansion (3/8)*u^-4 + 1/120, u = distance to either wall.

    The constant keeps the same sign at both walls (the image sum is even
    under reflection); relative error is about u^6/47 at distance u.
    """
    return _evaluate(COT_PROFILE, xi, None)


def csc_profile_series(xi: float) -> float:
    """Near-wall expansion of csc_profile; sign flips at the far wall.

    Near xi=0: (3/8)*u^-4 - 7/960. Near xi=pi: -(3/8)*u^-4 + 7/960.
    """
    return _evaluate(CSC_PROFILE, xi, None)


def profile_terms(
    profile: Form, deriv: Form, xi: np.ndarray, guard: GuardPolicy = DEFAULT_GUARD
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profile, slope and asymptotic mask over a whole grid of xi.

    profile and deriv are the Forms of a profile and of its slope, for
    example COT_PROFILE and COT_PROFILE_DERIV. Every element is the scalar
    path's value (series inside an asymptotic guard band) bit for bit: the
    forms are the same, np.sin/np.cos agree with libm on the platforms the
    golden tests pin, and np.float_power is libm's pow. A point outside
    (0, pi), or in the band under mode="reject", raises the scalar path's
    error for the first such point.
    """
    import numpy as np

    xi = np.asarray(xi, dtype=np.float64)
    near = xi <= HALF_PI
    u = np.where(near, xi, (PI - xi) + PI_LO)
    sign = np.where(near, 1.0, -1.0)
    asymptotic = u < guard.epsilon
    refused = ~((0.0 < xi) & (xi < PI)) | (asymptotic & (guard.mode == "reject"))
    if refused.any():
        _refuse(float(xi[refused.argmax()]), guard)
    with np.errstate(all="ignore"):
        s, c = np.sin(u), np.cos(u)
        p = profile.closed(s, c, sign, np.float_power)
        dp = deriv.closed(s, c, sign, np.float_power)
        ua, sa = u[asymptotic], sign[asymptotic]
        p[asymptotic] = profile.series(ua, sa, np.float_power)
        dp[asymptotic] = deriv.series(ua, sa, np.float_power)
    return p, dp, asymptotic


def image_tail_bound(xi: float, image_terms: int) -> float:
    """Bound on the dropped tail of either image sum, by integral estimate.

    (3/8) * sum_{|n|>N} |xi - n*pi|^-4 <= (N*pi - xi)^-3 / (4*pi) for
    0 < xi < pi; the left-image tail is smaller, so the bound covers both.
    """
    gap = image_terms * PI - xi
    if gap <= 0.0:
        return math.inf
    return gap ** -3 / (4.0 * PI)


def image_terms_needed(xi: float, target_abs_tol: float) -> int:
    """Smallest N with image_tail_bound(xi, N) <= target_abs_tol."""
    _check_domain(xi)
    if not target_abs_tol > 0.0:
        raise ValueError("target_abs_tol must be positive")
    n = math.ceil((xi + (4.0 * PI * target_abs_tol) ** (-1.0 / 3.0)) / PI)
    return max(n, 1)


def _image_sums(xi: float, cfg: OracleConfig) -> tuple[float, float]:
    """Both image sums in one pass: (3/8) * sum_n (+-1)^n (xi - n*pi)^-4.

    Returns (plain, alternating), n = -N..N with N = cfg.image_terms: the
    plain sum is the cot_profile oracle, the alternating one (sign (-1)^n)
    the csc_profile oracle. The displacements are built and powered once
    and each sum is one correctly rounded math.fsum, so neither depends on
    the order of the terms. Raises OutOfDomain off (0, pi) and
    TailBoundViolated when the truncated tail may exceed cfg.target_abs_tol.
    """
    _check_domain(xi)
    n_terms = cfg.image_terms
    bound = image_tail_bound(xi, n_terms)
    if bound > cfg.target_abs_tol:
        raise TailBoundViolated(
            f"tail bound {bound:.3e} exceeds target {cfg.target_abs_tol:.3e}"
            f" at xi={xi!r} with N={n_terms}"
        )
    import numpy as np

    n = np.arange(1, n_terms + 1, dtype=np.float64)
    # Poles at the true pi: n*PI_LO is exact for n < 2^37, so each
    # displacement carries one rounding.
    d = np.concatenate(([xi], (xi - n * PI) - n * PI_LO, (xi + n * PI) + n * PI_LO))
    # libm pow, as in math and profile_terms: the SIMD pow behind ** rounds
    # differently depending on the CPU features NumPy dispatches to.
    terms = np.float_power(d, -4)
    plain = math.fsum(terms.tolist())
    terms[1 : n_terms + 1 : 2] *= -1.0  # odd n, right of xi
    terms[n_terms + 1 :: 2] *= -1.0  # odd n, left of xi
    return SERIES_LEADING * plain, SERIES_LEADING * math.fsum(terms.tolist())


def cot_profile_via_images(
    xi: float, cfg: OracleConfig = DEFAULT_ORACLE
) -> float:
    """Image-sum oracle: (3/8) * sum_n (xi - n*pi)^-4, n = -N..N."""
    return _image_sums(xi, cfg)[0]


def csc_profile_via_images(
    xi: float, cfg: OracleConfig = DEFAULT_ORACLE
) -> float:
    """Alternating image-sum oracle: (3/8) * sum_n (-1)^n (xi - n*pi)^-4."""
    return _image_sums(xi, cfg)[1]


_ZETA4_CUTOFF = 24
# Euler-Maclaurin tail for sum_{k>=K} (q+k)^-4 at x = q+K:
#   x^-3/3 + x^-4/2 + x^-5/3 - x^-7/6 + 2*x^-9/9, error ~ x^-11.
_ZETA4_TAIL = (
    (3, 1.0 / 3.0),
    (4, 0.5),
    (5, 1.0 / 3.0),
    (7, -1.0 / 6.0),
    (9, 2.0 / 9.0),
)


def zeta4(q: float) -> float:
    """Hurwitz zeta at s=4: sum_{k>=0} (q+k)^-4 for q > 0.

    Direct summation of the first terms plus an Euler-Maclaurin tail; the
    absolute error is dominated by rounding of the leading q^-4 term.
    """
    if not (q > 0.0 and math.isfinite(q)):
        raise OutOfDomain(f"zeta4 requires q > 0, got {q!r}")
    head = math.fsum((q + k) ** -4 for k in range(_ZETA4_CUTOFF))
    x = q + _ZETA4_CUTOFF
    tail = math.fsum(coeff * x ** -p for p, coeff in _ZETA4_TAIL)
    return head + tail


def cot_profile_via_hurwitz(xi: float) -> float:
    """Second independent oracle: (3/(8*pi^4)) * (zeta4(q) + zeta4(1-q)).

    q = xi/pi; the reflected argument is formed from (PI - xi) + PI_LO
    rather than 1 - q to avoid amplifying the pi representation error.
    """
    _check_domain(xi)
    q1 = xi / PI
    q2 = ((PI - xi) + PI_LO) / PI
    return SERIES_LEADING / PI ** 4 * (zeta4(q1) + zeta4(q2))
