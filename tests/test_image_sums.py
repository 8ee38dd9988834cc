"""The image-sum oracles: one pow pass per point gives both sums.

profiles._image_sums builds the displacements xi - n*pi once and powers
them with libm's pow. Below N = profiles._ARRAY_IMAGE_TERMS image pairs it
does so in Python (** is libm's pow) and sums with math.fsum; from there on
it runs on NumPy arrays (np.float_power) and sums the terms exactly in
levels (error-free vector extraction). Either way it returns the correctly
rounded plain and alternating sum. It must equal a plain-Python
transcription of the defining sums bit for bit (math.fsum is correctly
rounded, so neither the term order nor the summation method shows), on a
uniform grid of xi, on log-uniform xi down to 1e-76 where the n = 0 term
nears overflow, and with N from 1 to 1e5, N = _ARRAY_IMAGE_TERMS - 1 and
N = _ARRAY_IMAGE_TERMS among them. The extreme points are pinned to their
recorded values: below about 8.6e-78 the n = 0 term overflows and both sums
are inf, with NumPy's overflow warning, at every N. The two public oracles
are the halves of the pair.
"""

import math
import random
import warnings

import pytest

from cpwalls import profiles
from cpwalls.errors import OutOfDomain, TailBoundViolated
from cpwalls.profiles import (
    PI,
    PI_LO,
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
            t = v ** -4
            plain.append(t)
            alternating.append(sign * t)
    lead = profiles.SERIES_LEADING
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
    assert profiles.DEFAULT_ORACLE.image_terms >= _ARRAY_IMAGE_TERMS


def test_pass_equals_the_python_transcription_bit_for_bit():
    # N = 1 and 7 leave a tail far above any useful tolerance; a loose
    # target lets the pass run so the arithmetic itself is compared.
    checked = 0
    for i, x in enumerate(_seeded_xi(1000)):
        configs = [OracleConfig(1, 1e300), OracleConfig(7, 1e300)] + [
            OracleConfig(image_terms_needed(x, tol), tol)
            for tol in (1e-8, 1e-10, 1e-12)
        ]
        if i % 10 == 0:
            configs += [OracleConfig(n_terms, 1e300) for n_terms in EDGE_SIZES]
        for cfg in configs:
            assert _image_sums(x, cfg) == _transcribed(x, cfg.image_terms), (
                x, cfg,
            )
            checked += 1
    assert checked == 5200


@pytest.mark.parametrize("scale", [0.0, 10.0])
@pytest.mark.parametrize("n_terms", [3, *EDGE_SIZES])
def test_both_passes_take_pis_low_part_from_sin_pi(monkeypatch, scale, n_terms):
    cfg = OracleConfig(n_terms, 1e300)
    want = [_image_sums(x, cfg) for x in (0.05, 2.0, PI - 1e-3)]
    monkeypatch.setattr(profiles, "PI_LO", PI_LO * scale)
    assert [_image_sums(x, cfg) for x in (0.05, 2.0, PI - 1e-3)] == want


def test_log_uniform_points_down_to_1e_76_equal_the_transcription():
    rng = random.Random(20261018)
    checked = 0
    for i in range(300):
        x = math.exp(rng.uniform(math.log(1e-76), math.log(PI)))
        sizes = [1, 2, 3] + ([image_terms_needed(x, 1e-12)] if i % 3 == 0 else [])
        if i % 60 == 0:
            sizes.append(100_000 + i)
        if i % 30 == 0:
            sizes += EDGE_SIZES
        for n_terms in sizes:
            cfg = OracleConfig(n_terms, 1e300)
            assert _image_sums(x, cfg) == _transcribed(x, n_terms), (x, n_terms)
            checked += 1
    assert checked == 1025


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-78])
@pytest.mark.parametrize(
    "cfg",
    [profiles.DEFAULT_ORACLE,
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
    plain, alternating = _image_sums(0.7, profiles.DEFAULT_ORACLE)
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


def test_image_terms_needed_refuses_a_tolerance_that_is_not_positive():
    with pytest.raises(ValueError) as info:
        image_terms_needed(1.0, 0.0)
    assert str(info.value) == "target_abs_tol must be positive and finite"


def test_tail_bound_is_infinite_when_no_image_lies_beyond_xi():
    # N*pi - xi <= 0: the kept images do not reach past xi, nothing is bounded
    assert image_tail_bound(4.0, 1) == math.inf
    assert image_tail_bound(3.0, 1) < math.inf
