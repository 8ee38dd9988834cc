"""The image-sum oracles: one pass gives both sums at many points.

oracles._image_pass builds the displacements d = xi - n*pi once. Every
term with n != 0 is r * r with r = 1/(d*d), three correctly rounded IEEE
operations, so no libm pow and no SIMD dispatch can move its bits; the
n = 0 term, xi^-4, the only one that can overflow, keeps libm's pow (**
and np.float_power). Below N = oracles._ARRAY_IMAGE_TERMS image pairs the
pass runs in Python and sums with math.fsum; from there on it runs on
NumPy arrays, in place, and sums the terms exactly in levels (error-free
vector extraction). Either way it returns the correctly rounded plain and
alternating sum. It must equal a plain-Python transcription of that rule
bit for bit (math.fsum is correctly rounded, so neither the term order nor
the summation method shows), on a uniform grid of xi, on log-uniform xi
down to 1e-76 where the n = 0 term nears overflow, and with N from 1 to
1e5, N = _ARRAY_IMAGE_TERMS - 1 and N = _ARRAY_IMAGE_TERMS among them.
Against mpmath, both sums are within 3.5 * 2^-52 times the plain sum of the
exact terms d^-4: 2.5 for the five half-ulp roundings of a term, a half
for math.fsum's and a half for the factor 3/8's. The extreme points are
pinned to their recorded values: below about 8.6e-78 the n = 0 term
overflows and both sums are inf, with NumPy's overflow warning, at every
N. Many points in one call, as the rows of 2-D blocks, equal one-point
calls (oracles._image_sums) bit for bit: across the seams of the blocks,
next to both walls, with rows of many N in one call, and with one
overflowing row among finite ones, which alone is inf and warns. Every
point is checked before the array pass, and a refusal names the first bad
point. The two public oracles are the halves of the pair.
"""

import math
import random
import warnings

import mpmath
import pytest

from cpwalls import oracles, profiles
from cpwalls.errors import OutOfDomain, TailBoundViolated
from cpwalls.profiles import PI, PI_LO
from cpwalls.oracles import (
    OracleConfig,
    _ARRAY_IMAGE_TERMS,
    _image_sums,
    cot_profile_via_images,
    csc_profile_via_images,
    image_tail_bound,
    image_terms_needed,
)


def _transcribed(x: float, n_terms: int) -> tuple[float, float]:
    plain, alternating = [x ** -4], [x ** -4]
    for n in range(1, n_terms + 1):
        sign = -1.0 if n % 2 else 1.0
        for v in ((x - n * PI) - n * PI_LO, (x + n * PI) + n * PI_LO):
            r = 1.0 / (v * v)
            t = r * r
            plain.append(t)
            alternating.append(sign * t)
    lead = 0.375  # the oracles' 3/8, a literal here too
    return lead * math.fsum(plain), lead * math.fsum(alternating)


def _seeded_xi(count: int) -> list[float]:
    rng = random.Random(20240401)
    edges = [1e-3, 0.05, profiles.HALF_PI, PI - 0.05, PI - 1e-3]
    return edges + [rng.uniform(0.0, PI) for _ in range(count - len(edges))]


# the last N of the Python pass and the first of the array pass
EDGE_SIZES = (_ARRAY_IMAGE_TERMS - 1, _ARRAY_IMAGE_TERMS)


def test_the_two_passes_meet_between_verify_quick_and_full():
    # quick's N (about 300 at 1e-10) runs in Python, full's (about 1370 at
    # 1e-12) and the default OracleConfig's on arrays
    assert max(image_terms_needed(x, 1e-10) for x in _seeded_xi(50)) < _ARRAY_IMAGE_TERMS
    assert min(image_terms_needed(x, 1e-12) for x in _seeded_xi(50)) >= _ARRAY_IMAGE_TERMS
    assert oracles.DEFAULT_ORACLE.image_terms >= _ARRAY_IMAGE_TERMS


def test_pass_equals_the_python_transcription_bit_for_bit():
    # N = 1 and 7 leave a tail far above any useful tolerance; a loose
    # target lets the pass run so the arithmetic itself is compared.
    # and all of them in one call, as the rows of blocks
    pairs, want = [], []
    for i, x in enumerate(_seeded_xi(1000)):
        configs = [OracleConfig(1, 1e300), OracleConfig(7, 1e300)] + [
            OracleConfig(image_terms_needed(x, tol), tol)
            for tol in (1e-8, 1e-10, 1e-12)
        ]
        if i % 10 == 0:
            configs += [OracleConfig(n_terms, 1e300) for n_terms in EDGE_SIZES]
        for cfg in configs:
            want.append(_transcribed(x, cfg.image_terms))
            assert _image_sums(x, cfg) == want[-1], (x, cfg)
            pairs.append((x, cfg))
    assert len(pairs) == 5200
    assert oracles._image_pass(pairs) == want


def test_both_sums_are_within_three_and_a_half_ulps_of_the_exact_plain_sum():
    # the bound in units of 2^-52 times the plain sum of the exact d^-4
    # (d as the pass forms it, one rounding each, taken as exact), on both
    # sides of _ARRAY_IMAGE_TERMS
    worst = 0.0
    with mpmath.workdps(40):
        for x in _seeded_xi(9):
            for n_terms in EDGE_SIZES:
                signed = [(1, x)] + [
                    (-1 if n % 2 else 1, v)
                    for n in range(1, n_terms + 1)
                    for v in ((x - n * PI) - n * PI_LO, (x + n * PI) + n * PI_LO)
                ]
                exact = [(sign, mpmath.mpf(v) ** -4) for sign, v in signed]
                plain = 0.375 * mpmath.fsum(t for _, t in exact)
                alternating = 0.375 * mpmath.fsum(sign * t for sign, t in exact)
                unit = plain * 2.0 ** -52
                got = _image_sums(x, OracleConfig(n_terms, 1e300))
                for value, want in zip(got, (plain, alternating)):
                    worst = max(worst, float(abs(value - want) / unit))
    assert worst <= 3.5, worst


@pytest.mark.parametrize("scale", [0.0, 10.0])
@pytest.mark.parametrize("n_terms", [3, *EDGE_SIZES])
def test_both_passes_take_pis_low_part_from_sin_pi(monkeypatch, scale, n_terms):
    cfg = OracleConfig(n_terms, 1e300)
    want = [_image_sums(x, cfg) for x in (0.05, 2.0, PI - 1e-3)]
    monkeypatch.setattr(profiles, "PI_LO", PI_LO * scale)
    assert [_image_sums(x, cfg) for x in (0.05, 2.0, PI - 1e-3)] == want


def test_log_uniform_points_down_to_1e_76_equal_the_transcription():
    # and all of them in one call, as the rows of blocks
    rng = random.Random(20261018)
    pairs, want = [], []
    for i in range(300):
        x = math.exp(rng.uniform(math.log(1e-76), math.log(PI)))
        sizes = [1, 2, 3] + ([image_terms_needed(x, 1e-12)] if i % 3 == 0 else [])
        if i % 60 == 0:
            sizes.append(100_000 + i)
        if i % 30 == 0:
            sizes += EDGE_SIZES
        for n_terms in sizes:
            cfg = OracleConfig(n_terms, 1e300)
            want.append(_transcribed(x, n_terms))
            assert _image_sums(x, cfg) == want[-1], (x, n_terms)
            pairs.append((x, cfg))
    assert len(pairs) == 1025
    assert oracles._image_pass(pairs) == want


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-78])
@pytest.mark.parametrize(
    "cfg",
    [oracles.DEFAULT_ORACLE,
     *(OracleConfig(n_terms, 1e300) for n_terms in (1, 2, *EDGE_SIZES))],
)
def test_an_overflowing_first_term_gives_inf_with_numpys_warning(x, cfg):
    # on either side of _ARRAY_IMAGE_TERMS: never a bare OverflowError
    with pytest.warns(RuntimeWarning, match="overflow encountered in float_power"):
        assert _image_sums(x, cfg) == (math.inf, math.inf)


@pytest.mark.parametrize(
    "x, want",
    [
        (5e-77, (6.000000000000002e+304, 6.000000000000002e+304)),
        (1e-76, (3.750000000000001e+303, 3.750000000000001e+303)),
        (1e-70, (3.75e+279, 3.75e+279)),
        (1e-20, (3.750000000000001e+79, 3.750000000000001e+79)),
        (PI - 4.440892098500626e-16, (3.639706508581745e+60, -3.639706508581745e+60)),
        (PI - 1e-15, (3.5945125752798957e+59, -3.5945125752798957e+59)),
    ],
)
@pytest.mark.parametrize("n_terms", [1, 2, 3, *EDGE_SIZES, 1500])
def test_points_next_to_the_walls_keep_their_values(x, want, n_terms):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _image_sums(x, OracleConfig(n_terms, 1e300)) == want


@pytest.mark.parametrize("x", [0.05, 0.7, profiles.HALF_PI, 2.9, PI - 0.05])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_each_oracle_is_its_half_of_the_pair(x, tol):
    cfg = OracleConfig(image_terms_needed(x, tol), tol)
    plain, alternating = _image_sums(x, cfg)
    assert cot_profile_via_images(x, cfg) == plain
    assert csc_profile_via_images(x, cfg) == alternating


def test_default_config_halves():
    plain, alternating = _image_sums(0.7, oracles.DEFAULT_ORACLE)
    assert cot_profile_via_images(0.7) == plain
    assert csc_profile_via_images(0.7) == alternating


@pytest.mark.parametrize(
    "x, cfg, message",
    [
        (0.3, OracleConfig(1, 1e-12),
         "tail bound 3.468e-03 exceeds target 1.000e-12 at xi=0.3 with N=1"),
        (3.0, OracleConfig(2, 1e-6),
         "tail bound 2.249e-03 exceeds target 1.000e-06 at xi=3.0 with N=2"),
    ],
)
@pytest.mark.parametrize(
    "oracle", [_image_sums, cot_profile_via_images, csc_profile_via_images]
)
def test_tail_bound_refusal_keeps_its_message(oracle, x, cfg, message):
    with pytest.raises(TailBoundViolated) as info:
        oracle(x, cfg)
    assert str(info.value) == message


@pytest.mark.parametrize("x", [0.0, PI, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "oracle", [_image_sums, cot_profile_via_images, csc_profile_via_images]
)
def test_points_off_the_interval_are_refused_first(oracle, x):
    # the domain check comes before the tail bound, even with N = 1
    with pytest.raises(OutOfDomain):
        oracle(x, OracleConfig(1, 1e-12))


# A block of the array pass holds _IMAGE_BLOCK // (2N + 1) points of one N:
# 5 at the default N = 1500, as at verify full's 1370 and 1371.
BLOCK = oracles._IMAGE_BLOCK // 3001
WALLS = [5e-77, 1e-70, 1e-20, 0.05, profiles.HALF_PI, PI - 1e-15, PI - 4.440892098500626e-16]


def _many(count: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(0.0, PI) for _ in range(count)]


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("xs", ["uniform", "walls"])
def test_many_points_in_one_call_equal_one_point_calls(count, xs):
    # across the seams of the blocks, and next to both walls, where the
    # rows' largest terms differ by up to 200 binades
    xs = _many(count, count) if xs == "uniform" else (WALLS * count)[:count]
    cfg = oracles.DEFAULT_ORACLE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracles._image_pass([(x, cfg) for x in xs])
        assert got == [_image_sums(x, cfg) for x in xs]
    assert got == [_transcribed(x, 1500) for x in xs]


def test_rows_of_different_n_in_one_call_equal_one_point_calls():
    # N on both sides of _ARRAY_IMAGE_TERMS, and verify full's two, in one
    # call, interleaved so that no two neighbours share a block by order
    sizes = [1, 7, 300, *EDGE_SIZES, 1370, 1371, 1500]
    rng = random.Random(20261020)
    pairs = [(x, OracleConfig(rng.choice(sizes), 1e300)) for x in _many(60, 7) + WALLS]
    rng.shuffle(pairs)
    got = oracles._image_pass(pairs)
    assert got == [_image_sums(x, cfg) for x, cfg in pairs]
    assert got == [_transcribed(x, cfg.image_terms) for x, cfg in pairs]


@pytest.mark.parametrize("n_terms", [1, 2, *EDGE_SIZES, 1500])
def test_an_overflowing_row_among_finite_ones_is_inf_alone(n_terms):
    cfg = OracleConfig(n_terms, 1e300)
    xs = _many(BLOCK + 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [_image_sums(x, cfg) for x in xs]
    xs.insert(4, 1e-80)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = oracles._image_pass([(x, cfg) for x in xs])
    assert [str(w.message) for w in caught] == ["overflow encountered in float_power"]
    assert got.pop(4) == (math.inf, math.inf)
    assert got == want


@pytest.mark.parametrize(
    "xs, cfg_of, error, message",
    [
        # the tail bound of the second point, before the third's domain
        ([0.5, 3.0, 0.0], lambda x: OracleConfig(2 if x == 3.0 else 1500, 1e-6),
         TailBoundViolated,
         "tail bound 2.249e-03 exceeds target 1.000e-06 at xi=3.0 with N=2"),
        # the domain of the second point, before the third's tail bound
        ([0.5, PI, 0.3], lambda x: OracleConfig(1 if x == 0.3 else 1500, 1e-12),
         OutOfDomain, f"xi={PI!r} is outside the open interval (0, pi)"),
        # before any array work: the first point would overflow with a warning
        ([1e-80, 2.0, -1.0], lambda x: oracles.DEFAULT_ORACLE,
         OutOfDomain, "xi=-1.0 is outside the open interval (0, pi)"),
    ],
)
def test_a_refusal_names_the_first_bad_point_in_input_order(xs, cfg_of, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            oracles._image_pass([(x, cfg_of(x)) for x in xs])
    assert str(info.value) == message


def test_image_terms_needed_refuses_a_tolerance_that_is_not_positive():
    with pytest.raises(ValueError) as info:
        image_terms_needed(1.0, 0.0)
    assert str(info.value) == "target_abs_tol must be positive and finite"


def test_tail_bound_is_infinite_when_no_image_lies_beyond_xi():
    # N*pi - xi <= 0: the kept images do not reach past xi, nothing is bounded
    assert image_tail_bound(4.0, 1) == math.inf
    assert image_tail_bound(3.0, 1) < math.inf
