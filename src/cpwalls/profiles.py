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

profile_terms evaluates the same closed forms and series on a whole array
of xi at once, for tables; the scalar functions stay on math, which is
faster for one point.

Two independent oracles cross-check the closed forms: a truncated image sum
over the poles (with a certified tail bound) and a Hurwitz-zeta form summed
directly with an Euler-Maclaurin tail.

Both image sums run over the same terms (xi - n*pi)^-4, with all signs plus
for cot_profile and alternating ones for csc_profile, so one pass per point
(_image_sums) builds and powers the displacements once and returns both.
The powers go through np.float_power, which is libm's pow: NumPy's ** uses
a SIMD pow whose last bit depends on the CPU features it dispatches to, and
an oracle should not change with the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, TailBoundViolated, TooCloseToWall

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


def _wall(xi: float, guard: GuardPolicy | None) -> tuple[float, float, bool]:
    """Domain check, reflection and guard decision for one point.

    Returns (u, sign, asymptotic): u is the distance to the nearest wall
    (the reflection about the true pi done in double-double), sign is +1 on
    (0, pi/2] and -1 beyond, and asymptotic says the guard band asks for the
    near-wall series. guard=None skips the band, for the series themselves.
    """
    if not 0.0 < xi < PI:  # inlined _check_domain: this is the hot path
        raise OutOfDomain(f"xi={xi!r} is outside the open interval (0, pi)")
    if xi <= HALF_PI:
        u, sign = xi, 1.0
    else:
        u, sign = (PI - xi) + PI_LO, -1.0
    if guard is None or u >= guard.epsilon:
        return u, sign, False
    if guard.mode == "reject":
        raise TooCloseToWall(
            f"xi={xi!r} is within {guard.epsilon} of a wall (mode=reject)"
        )
    return u, sign, True


def cot_profile(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """-(1/16) d^3/dxi^3 cot(xi); even about pi/2, positive on (0, pi)."""
    u, _, asymptotic = _wall(xi, guard)
    if asymptotic:
        return cot_profile_series(xi)
    s = math.sin(u)
    c = math.cos(u)
    return (2.0 * c * c + 1.0) / (8.0 * s ** 4)


def csc_profile(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """-(1/16) d^3/dxi^3 csc(xi); odd about pi/2."""
    u, sign, asymptotic = _wall(xi, guard)
    if asymptotic:
        return csc_profile_series(xi)
    s = math.sin(u)
    c = math.cos(u)
    return sign * c * (c * c + 5.0) / (16.0 * s ** 4)


def cot_profile_deriv(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """d/dxi of cot_profile; odd about pi/2."""
    u, sign, asymptotic = _wall(xi, guard)
    if asymptotic:
        return sign * (-1.5) * u ** -5
    s = math.sin(u)
    c = math.cos(u)
    return -sign * c * (c * c + 2.0) / (2.0 * s ** 5)


def csc_profile_deriv(xi: float, guard: GuardPolicy = DEFAULT_GUARD) -> float:
    """d/dxi of csc_profile; even about pi/2 and strictly negative."""
    u, _, asymptotic = _wall(xi, guard)
    if asymptotic:
        return -1.5 * u ** -5
    s = math.sin(u)
    c = math.cos(u)
    c2 = c * c
    return -(c2 * c2 + 18.0 * c2 + 5.0) / (16.0 * s ** 5)


def cot_profile_series(xi: float) -> float:
    """Near-wall expansion (3/8)*u^-4 + 1/120, u = distance to either wall.

    The constant keeps the same sign at both walls (the image sum is even
    under reflection); relative error is about u^6/47 at distance u.
    """
    u, _, _ = _wall(xi, None)
    return SERIES_LEADING * u ** -4 + COT_SERIES_CONST


def csc_profile_series(xi: float) -> float:
    """Near-wall expansion of csc_profile; sign flips at the far wall.

    Near xi=0: (3/8)*u^-4 - 7/960. Near xi=pi: -(3/8)*u^-4 + 7/960.
    """
    u, sign, _ = _wall(xi, None)
    return sign * (SERIES_LEADING * u ** -4 - CSC_SERIES_CONST)


def profile_terms(
    kind: str, xi: np.ndarray, guard: GuardPolicy = DEFAULT_GUARD
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profile, slope and asymptotic mask over a whole grid of xi.

    kind is "cot" or "csc". Every element equals the scalar profile and
    derivative (series inside an asymptotic guard band) bit for bit: the
    expressions and their order are the scalar ones, np.sin/np.cos agree
    with libm on the platforms the golden tests pin, and powers go through
    np.float_power, because the SIMD power behind ** and np.power differs
    from libm in the last bit. A point outside (0, pi), or in the band under
    mode="reject", raises the scalar path's error for the first such point.
    """
    if kind not in ("cot", "csc"):
        raise ValueError(f"unknown profile kind {kind!r}")
    xi = np.asarray(xi, dtype=np.float64)
    near = xi <= HALF_PI
    u = np.where(near, xi, (PI - xi) + PI_LO)
    sign = np.where(near, 1.0, -1.0)
    asymptotic = u < guard.epsilon
    refused = ~((0.0 < xi) & (xi < PI)) | (asymptotic & (guard.mode == "reject"))
    if refused.any():
        _wall(float(xi[refused.argmax()]), guard)  # raises
    with np.errstate(all="ignore"):
        s, c = np.sin(u), np.cos(u)
        ua, sa = u[asymptotic], sign[asymptotic]
        lead = SERIES_LEADING * np.float_power(ua, -4)
        slope = -1.5 * np.float_power(ua, -5)
        if kind == "cot":
            p = (2.0 * c * c + 1.0) / (8.0 * np.float_power(s, 4))
            dp = -sign * c * (c * c + 2.0) / (2.0 * np.float_power(s, 5))
            p[asymptotic], dp[asymptotic] = lead + COT_SERIES_CONST, sa * slope
        else:
            c2 = c * c
            p = sign * c * (c2 + 5.0) / (16.0 * np.float_power(s, 4))
            dp = -(c2 * c2 + 18.0 * c2 + 5.0) / (16.0 * np.float_power(s, 5))
            p[asymptotic], dp[asymptotic] = sa * (lead - CSC_SERIES_CONST), slope
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
