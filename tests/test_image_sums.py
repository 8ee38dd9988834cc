"""The image-sum oracles: one pow pass per point gives both sums.

profiles._image_sums builds the displacements xi - n*pi once, powers them
with libm's pow and returns the plain and the alternating sum. It must equal
a plain-Python transcription of the defining sums bit for bit (Python's
float ** calls the same libm pow, and math.fsum is correctly rounded, so the
term order does not matter), and the two public oracles are its halves.
"""

import math
import random

import pytest

from cpwalls import profiles
from cpwalls.errors import OutOfDomain, TailBoundViolated
from cpwalls.profiles import (
    PI,
    PI_LO,
    OracleConfig,
    _image_sums,
    cot_profile_via_images,
    csc_profile_via_images,
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


def test_pass_equals_the_python_transcription_bit_for_bit():
    # N = 1 and 7 leave a tail far above any useful tolerance; a loose
    # target lets the pass run so the arithmetic itself is compared.
    checked = 0
    for x in _seeded_xi(1000):
        configs = [OracleConfig(1, 1e300), OracleConfig(7, 1e300)] + [
            OracleConfig(image_terms_needed(x, tol), tol)
            for tol in (1e-8, 1e-10, 1e-12)
        ]
        for cfg in configs:
            assert _image_sums(x, cfg) == _transcribed(x, cfg.image_terms), (
                x, cfg,
            )
            checked += 1
    assert checked == 5000


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
