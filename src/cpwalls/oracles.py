"""Independent oracles of the two profile closed forms.

Two routes to cot_profile and csc_profile that share no formula with
profiles: a truncated image sum over the poles (with a certified tail
bound) and a Hurwitz-zeta form summed directly with an Euler-Maclaurin
tail. Their one caller in the package is verification's oracle row, and
cpwalls serves their public names (OracleConfig, DEFAULT_ORACLE,
image_tail_bound, image_terms_needed, cot_profile_via_images,
csc_profile_via_images, zeta4, cot_profile_via_hurwitz) from this module
on first use. So no table command compiles them, and `from cpwalls import
zeta4` does not compile the check table. New oracles go here too.

They take pi from math.pi, pi's low part from math.sin(math.pi), which
equals profiles.PI_LO, and 3/8 from their own literal _LEADING, never from
profiles' constants, so a wrong profiles.PI_LO or profiles.SERIES_LEADING
moves the closed forms and not their oracles. They keep the package's one
input rule (profiles._inside, _finite and _check_domain), so they refuse
what it refuses, in its words. Besides that rule, this module imports only
the standard library, errors, and NumPy inside _image_pass.

Both image sums run over the same terms (xi - n*pi)^-4, with all signs plus
for cot_profile and alternating ones for csc_profile, so one pass
(_image_pass) takes many points, builds and powers each point's
displacements once and returns both sums at each; _image_sums is its call
on one point. Every point is checked before the array pass. The size N of
a point picks its path. Below _ARRAY_IMAGE_TERMS image pairs (verify
quick's, about 300) the point runs in Python, with math.fsum over the
terms. From there on (verify full's, about 1370, and the default
OracleConfig's 1500) the sums are exact in NumPy: the points of one N are
the rows of 2-D blocks of about _IMAGE_BLOCK doubles, and error-free vector
extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008) splits
the terms of even and of odd n of each row into levels on shrinking
power-of-two grids, each level's slice sums exact, and stops once a level's
grid is finer than the row's smallest term's ulp, and a math.fsum over
those few doubles gives the correctly rounded sums. Both paths give the
correctly rounded sum of the same terms, so their bits agree, and a point
gets the same bits alone as among others. Each point's two sums are formed
as soon as its terms exist (_signed_sums): at once on the Python path, row
by row after each block on the array path, so a pass holds the terms of
one point, or the levels of one block, at a time. Verify full's 120 oracle
points take about 2.4 ms in 24 blocks of 5, and about 3.3 ms one point at
a time (2-core Xeon, Python 3.11, NumPy 2.4). A term with n != 0 is r * r
with r = 1/(d*d) for its displacement d, on arrays in place: three
correctly rounded IEEE operations, which give the same bits on every
IEEE-754 machine and every SIMD dispatch (NumPy's ** and np.power use a
SIMD pow whose last bit depends on the CPU features NumPy dispatches to,
and an oracle should not change with the machine). On verify full's arrays
they take about an eighth of the time of np.float_power (libm's pow). Each
such term is within 5 half-ulp roundings, 2.5 * 2^-52 relative, of d^-4,
so both sums are within 3.5 * 2^-52 times the plain sum of the exact terms
d^-4, fsum's and the factor 3/8's roundings included. The n = 0 term,
xi^-4, is the only one that can overflow, and it keeps libm's pow: ** in
Python, np.float_power on arrays. NumPy is imported inside _image_pass,
for points from _ARRAY_IMAGE_TERMS image pairs on or where the n = 0 term
overflows, only.

OracleConfig is a named tuple whose __new__ checks the fields:
image_terms must be an integer, by operator.index, and target_abs_tol a
number by profiles._finite's rule.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import OutOfDomain, TailBoundViolated
from .profiles import _check_domain, _finite, _inside

# The oracles' own constants: pi as math gives it, and the 3/8 of the image
# sums and the Hurwitz route (production's copy is profiles.SERIES_LEADING).
PI = math.pi
_LEADING = 0.375


class OracleConfig(namedtuple("OracleConfig", "image_terms target_abs_tol")):
    """Truncation control for the image-sum oracles.

    image_terms is the number N of image pairs kept on each side, an
    integer (operator.index) below 2**25; the truncated tail is bounded by
    (N*pi - xi)^-3 / (4*pi), and evaluation refuses to proceed when that
    bound exceeds target_abs_tol.
    """

    __slots__ = ()

    def __new__(cls, image_terms: int = 1500, target_abs_tol: float = 1e-12):
        try:
            image_terms = operator.index(image_terms)
        except TypeError as exc:
            raise ValueError("image_terms must be a positive integer") from exc
        if image_terms < 1:
            raise ValueError("image_terms must be a positive integer")
        if image_terms >= 2**25:  # the bound of _image_pass' exact extraction
            raise ValueError(f"image_terms must be below 2**25, got {image_terms}")
        if not (_finite(target_abs_tol, "target_abs_tol must be a number")
                and target_abs_tol > 0.0):
            raise ValueError("target_abs_tol must be positive and finite")
        return tuple.__new__(cls, (image_terms, target_abs_tol))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates


DEFAULT_ORACLE = OracleConfig()


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
    OracleConfig(1, target_abs_tol)  # refuses the tolerance by OracleConfig's rule
    n = math.ceil((xi + (4.0 * PI * target_abs_tol) ** (-1.0 / 3.0)) / PI)
    return max(n, 1)


# The image count N from which a point's image sums run on arrays: below it
# a Python pass over the 2N+1 terms is cheaper than importing NumPy (verify
# quick needs N of about 300 per point, verify full about 1370).
_ARRAY_IMAGE_TERMS = 1024
# Doubles per block of the array pass: the points of one N are the rows of
# 2-D arrays of at most this many elements, and at least one row (5 rows at
# verify full's N of about 1370 and at the default 1500). Blocks of 2**15
# took as long and raised the peak RSS of a long-lived process twice as much.
_IMAGE_BLOCK = 2**14


def _image_pass(points) -> list[tuple[float, float]]:
    """Both image sums at many points: (3/8) * sum_n (+-1)^n (xi - n*pi)^-4.

    points is a sequence of (xi, cfg) pairs, and the result holds one
    (plain, alternating) pair per point, n = -N..N with N = cfg.image_terms:
    the plain sum is the cot_profile oracle, the alternating one (sign
    (-1)^n) the csc_profile oracle. Each is the correctly rounded sum of the
    same 2N+1 terms, so neither depends on the order of the terms, on the
    path, or on the other points: below N = _ARRAY_IMAGE_TERMS a Python pass
    per point sums them with math.fsum. A term with n != 0 is r * r with
    r = 1.0 / (d * d), three correctly rounded operations on both paths (no
    libm, so no machine dependence; within 2.5 * 2^-52 of d^-4, relative).
    The n = 0 term is xi ** -4 (libm's pow), np.float_power on arrays.
    Where it overflows (xi below about 8.6e-78) the Python pass hands the
    point to the array pass, which gives inf with NumPy's overflow warning
    at every N.

    The array pass takes the points of one N together, _IMAGE_BLOCK doubles
    at a time, each point a row of one 2-D array. Its displacements are
    built and powered once, in place, the terms with even n != 0 in one
    slice and those with odd n in the other. A column of zero terms (n =
    -inf, so d = inf) leads the even slice, so that neither slice is empty.
    Error-free vector extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31, 2008) then
    splits both slices of each row into levels: with the row's own
    sigma = 2^e, e = (exponent of its largest term) + m and 2^m above the
    number of terms, q = (sigma + t) - sigma and t - q are exact, every q is
    a multiple of 2^(e-53) below 2^(e-m), so each slice sum of q is exact in
    any order. The residuals t - q lie within 2^(e-53), so the next level
    takes e - (53 - m). Every term is a multiple of the grid g of the row's
    smallest one, and once 2^(e-53) < g the level takes each residual
    whole, q = t: the row stops there, at its own level, so the block's
    last level sums t itself. That leaves both slice sums of a row as a few
    exact doubles (the bound needs m <= 26, that is N below 2^25, about
    3.4e7). The rows of a block share the first row's sigma: a row whose
    largest term has another exponent is scaled by a power of two before
    the levels and its slice sums scaled back after them, both exact.
    math.fsum over those doubles and the n = 0 term, with the odd levels
    added or subtracted, gives the correctly rounded sums. The n = 0 term
    stays out of the levels: it is the only one that can be near overflow
    (inf for xi below about 8.6e-78, where both sums are inf), and it is a
    single exact double already.

    The points are checked in input order, all of them before the array
    pass: the first point off (0, pi) raises OutOfDomain, the first whose
    truncated tail may exceed its cfg.target_abs_tol TailBoundViolated.
    """
    # Poles at the true pi, its low part from sin(pi) rather than PI_LO so
    # that the oracle does not move with production: n*lo is exact for
    # |n| < 2^37, so each displacement carries one rounding.
    lo = math.sin(math.pi)
    sums, rows = [None] * len(points), {}  # (plain, alternating); N -> array rows
    for i, (xi, cfg) in enumerate(points):
        _check_domain(xi)
        n_terms = cfg.image_terms
        bound = image_tail_bound(xi, n_terms)
        if bound > cfg.target_abs_tol:
            raise TailBoundViolated(
                f"tail bound {bound:.3e} exceeds target {cfg.target_abs_tol:.3e}"
                f" at xi={xi!r} with N={n_terms}"
            )
        try:  # the n = 0 term is xi itself, powered by ** (libm's pow), never r * r
            t0 = xi ** -4 if n_terms < _ARRAY_IMAGE_TERMS else None
        except OverflowError:  # the array pass gives inf and NumPy's warning
            t0 = None
        if t0 is None:
            rows.setdefault(n_terms, []).append(i)
        else:  # the terms of even n != 0, then of odd n: r * r, r = 1/(d*d)
            evens, odds = ([(r := 1.0 / ((d := (xi - n * PI) - n * lo) * d)) * r for n in (
                *range(-k, -n_terms - 1, -2), *range(k, n_terms + 1, 2))] for k in (2, 1))
            sums[i] = _signed_sums(t0, evens, odds)
    if rows:
        import numpy as np
    for n_terms, index in rows.items():
        k = np.arange(0.0, n_terms + 1)
        k[0] = math.inf  # n = -inf: the column of zero terms
        n = np.concatenate((-k[::2], k[2::2], -k[1::2], k[1::2]))  # even n, then odd n
        n_pi, n_lo = n * PI, n * lo
        cut = [0, n_terms // 2 * 2 + 1]  # where the even slice and the odd one start
        m = (2 * n_terms).bit_length()
        step = max(1, _IMAGE_BLOCK // len(n))
        for block in (index[b:b + step] for b in range(0, len(index), step)):
            xs = [points[i][0] for i in block]
            # Each row's largest term is n = 1's and its smallest n = -N's (|d|
            # grows with |xi - n*pi| and every rounding is monotone): their
            # exponents give the row's e and its number of levels.
            tops, stops = [], []
            for xi in xs:
                big = 1.0 / ((d := (xi - PI) - lo) * d)
                small = 1.0 / ((d := (xi + n_terms * PI) + n_terms * lo) * d)
                tops.append(math.frexp(big * big)[1])
                stops.append((tops[-1] + m - math.frexp(small * small)[1]) // (53 - m) + 2)
            x = np.array(xs, dtype=float)
            t = np.subtract.outer(x, n_pi)
            t -= n_lo
            t *= t  # r * r with r = 1/(d*d), in place: three correctly rounded steps
            np.divide(1.0, t, out=t)
            t *= t
            shifts = [e - tops[0] for e in tops]
            if any(shifts):  # to the first row's sigma
                t /= np.ldexp(1.0, shifts)[:, None]
            sigma, q, levels = math.ldexp(1.0, tops[0] + m), np.empty_like(t), []
            for _ in range(max(stops) - 1):
                np.add(t, sigma, out=q)
                q -= sigma
                t -= q
                levels.append(np.add.reduceat(q, cut, axis=1))  # exact in any order
                sigma *= 2.0 ** (m - 53)
            levels.append(np.add.reduceat(t, cut, axis=1))
            levels = np.array(levels)  # level, row, slice
            if any(shifts):  # back to each row's own scale
                levels *= np.ldexp(1.0, shifts)[:, None]
            # libm pow, as in math and _profile_terms: it overflows to inf with
            # NumPy's warning where xi ** -4 raised
            t0 = np.float_power(x, -4).tolist()
            for i, t0_i, (evens, odds), stop in zip(
                    block, t0, levels.transpose(1, 2, 0).tolist(), stops):
                sums[i] = _signed_sums(t0_i, evens[:stop], odds[:stop])
    return sums


def _signed_sums(t0, evens, odds) -> tuple[float, float]:
    """(3/8) * the correctly rounded sums of t0, evens and +-odds: one point's
    (plain, alternating) pair."""
    return (_LEADING * math.fsum([t0, *evens, *odds]),
            _LEADING * math.fsum([t0, *evens, *(-s for s in odds)]))


def _image_sums(xi: float, cfg: OracleConfig) -> tuple[float, float]:
    """Both image sums at one point: _image_pass of the one pair (xi, cfg).

    Raises OutOfDomain off (0, pi) and TailBoundViolated when the
    truncated tail may exceed cfg.target_abs_tol.
    """
    return _image_pass(((xi, cfg),))[0]


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
    if not _inside(q, math.inf):
        raise OutOfDomain(f"zeta4 requires q > 0, got {q!r}")
    head = math.fsum((q + k) ** -4 for k in range(_ZETA4_CUTOFF))
    x = q + _ZETA4_CUTOFF
    tail = math.fsum(coeff * x ** -p for p, coeff in _ZETA4_TAIL)
    return head + tail


def cot_profile_via_hurwitz(xi: float) -> float:
    """Second independent oracle: (3/(8*pi^4)) * (zeta4(q) + zeta4(1-q)).

    q = xi/pi; the reflected argument is formed from the wall distance
    (PI - xi) + sin(pi) rather than 1 - q to avoid amplifying the pi
    representation error. sin(pi) is pi's low part, equal to PI_LO, taken
    from its own source so that the oracle does not move with production.
    """
    _check_domain(xi)
    q1 = xi / PI
    q2 = ((PI - xi) + math.sin(math.pi)) / PI
    return _LEADING / PI ** 4 * (zeta4(q1) + zeta4(q2))
