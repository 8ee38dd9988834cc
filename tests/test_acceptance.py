"""Acceptance gate: nine analytic criteria, one printed verdict line each.

Each test prints "[criterion N] PASS/FAIL - <label>" so a plain pytest run
doubles as a checklist. Tolerances are part of the contract and must not be
loosened; every reference here is computed by a route independent of the
implementation under test (image sums, Hurwitz zeta, brute-force scans,
finite differences, closed-form constants).
"""

import contextlib
import math
import random

import numpy as np
import pytest

import cpwalls.profiles as profiles
from cpwalls.analysis import limit_convergence_study
from cpwalls.cli import main
from cpwalls.correlators import (
    Geometry,
    WallKind,
    correlator_eb,
    correlator_ee,
    mean_square_b,
    mean_square_e,
)
from cpwalls.oracles import (
    OracleConfig,
    cot_profile_via_hurwitz,
    cot_profile_via_images,
    csc_profile_via_images,
)
from cpwalls.potentials import (
    AtomResponse,
    force,
    potential_electric,
    potential_total,
    stationary_points,
)
from cpwalls.profiles import PI, cot_profile, csc_profile
from cpwalls.verification import run_verification

CC = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0)
CP = Geometry(WallKind.CONDUCTOR_PERMEABLE, 1.0)
ELECTRIC = AtomResponse(1.0, 0.0)
MAGNETIC = AtomResponse(0.0, 1.0)


@pytest.fixture(name="criterion")
def criterion_fixture(capsys):
    # Write the verdict past pytest's capture so a plain `pytest -v` run
    # shows one checklist line per criterion.
    @contextlib.contextmanager
    def criterion(number: int, label: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"\n[criterion {number}] {verdict} - {label}")

    return criterion


def test_criterion_1_oracle_equivalence(criterion):
    with criterion(1, "closed forms track both oracles to 1e-10 over 200 points"):
        cfg = OracleConfig(image_terms=2000, target_abs_tol=1e-12)
        for x in np.linspace(0.05, PI - 0.05, 200):
            x = float(x)
            f = cot_profile(x)
            assert abs(f - cot_profile_via_images(x, cfg)) <= 1e-10
            assert abs(f - cot_profile_via_hurwitz(x)) <= 1e-10
            assert abs(csc_profile(x) - csc_profile_via_images(x, cfg)) <= 1e-10


def _fitted_remainder_coeffs(fn, leading_sign, const, reflect):
    coeffs = []
    for u in (0.1, 0.05, 0.025):
        x = PI - u if reflect else u
        w = (PI - x) + profiles.PI_LO if reflect else x
        coeffs.append((fn(x) - leading_sign * 0.375 * w ** -4 - const) / w ** 2)
    return coeffs


def test_criterion_2_wall_expansions(criterion):
    with criterion(2, "near/far-wall expansions with stable quadratic remainder"):
        # remainder coefficient (value - leading - constant)/u^2 must be the
        # same number at u = 0.1, 0.05, 0.025 up to genuinely higher orders
        cases = [
            (cot_profile, 1.0, 1.0 / 120.0, False),
            (csc_profile, 1.0, -7.0 / 960.0, False),
            (csc_profile, -1.0, 7.0 / 960.0, True),
        ]
        for fn, sign, const, reflect in cases:
            cs = _fitted_remainder_coeffs(fn, sign, const, reflect)
            spread = (max(cs) - min(cs)) / abs(sum(cs) / len(cs))
            assert spread <= 0.05


def test_criterion_3_midpoint_spot_values(criterion):
    with criterion(3, "midpoint values: 1/8, 0, and -11*pi^3/90"):
        assert abs(cot_profile(PI / 2.0) - 0.125) <= 1e-14
        assert abs(csc_profile(PI / 2.0)) <= 1e-14
        v_mid = potential_total(ELECTRIC, CC, 0.5)
        ref = -11.0 * math.pi ** 3 / 90.0
        assert abs(v_mid - ref) <= 1e-12 * abs(ref)


def test_criterion_4_single_wall_limits(criterion):
    with criterion(4, "single-wall limits approached with exponent in [3.5, 4.5]"):
        for wall_type in ("conducting", "permeable"):
            study = limit_convergence_study(
                ELECTRIC, wall_type, 1.0, [20.0, 40.0, 80.0, 160.0]
            )
            errs = [row.rel_error for row in study.rows]
            assert all(b < a for a, b in zip(errs, errs[1:]))
            assert 3.5 <= study.convergence_exponent() <= 4.5


def test_criterion_5_correlator_identities(criterion):
    with criterion(5, "EB zero, constant signed trace sums, V_E from trace(EE)"):
        for geom in (CC, CP):
            for z in (0.1, 0.5, 0.9):
                assert np.all(correlator_eb(geom, z).components == 0.0)
        for geom, sign in ((CC, -1.0), (CP, 1.0)):
            sums = [
                mean_square_e(geom, float(z)) + mean_square_b(geom, float(z))
                for z in np.linspace(0.2, 0.8, 100)
            ]
            mean = sum(sums) / len(sums)
            assert all(sign * s > 0.0 for s in sums)
            assert max(sums) - min(sums) <= 1e-12 * abs(mean)
            for z in np.linspace(0.01, 0.99, 101):
                z = float(z)
                v_e = potential_electric(ELECTRIC, geom, z)
                ref = -ELECTRIC.alpha0 / 2.0 * mean_square_e(geom, z)
                assert abs(v_e - ref) <= 1e-12 * abs(ref)


def test_criterion_6_force_derivative_checks(criterion):
    with criterion(6, "analytic force matches finite differences; zero at midplane"):
        atom = AtomResponse(1.0, 0.25)
        h = 1e-6
        rng = random.Random(20260815)
        for geom in (CC, CP):
            for _ in range(100):
                z = rng.uniform(0.05, 0.95)
                fd = -(
                    potential_total(atom, geom, z + h)
                    - potential_total(atom, geom, z - h)
                ) / (2.0 * h)
                analytic = force(atom, geom, z)
                assert abs(fd - analytic) <= 1e-6 * abs(analytic)
        scale = math.pi ** 4 * (abs(atom.alpha0) + abs(atom.beta0))
        assert abs(force(atom, CC, 0.5)) <= 1e-12 * scale


def test_criterion_7_symmetry_suite(criterion):
    with criterion(7, "reflection/antisymmetry/a^4-scaling at 1e-12 relative"):
        atom = AtomResponse(1.0, 0.25)
        for x in np.linspace(0.05, 1.45, 100):
            x = float(x)
            f1, f2 = cot_profile(x), cot_profile(PI - x)
            assert abs(f1 - f2) <= 1e-12 * max(abs(f1), abs(f2))
            g1, g2 = csc_profile(x), csc_profile(PI - x)
            assert abs(g1 + g2) <= 1e-12 * max(abs(g1), abs(g2))
        for z in np.linspace(0.05, 0.45, 50):
            z = float(z)
            v1 = potential_total(atom, CC, z)
            v2 = potential_total(atom, CC, 1.0 - z)
            assert abs(v1 - v2) <= 1e-12 * max(abs(v1), abs(v2))
        for kind in (WallKind.CONDUCTOR_CONDUCTOR, WallKind.CONDUCTOR_PERMEABLE):
            unit = Geometry(kind, 1.0)
            for a in (0.5, 2.0, 4.0):
                scaled = Geometry(kind, a)
                for t in (0.11, 0.3, 0.5, 0.83):
                    v_unit = potential_total(atom, unit, t)
                    v_scaled = potential_total(atom, scaled, a * t) * a ** 4
                    assert abs(v_unit - v_scaled) <= 1e-12 * abs(v_unit)


def _brute_force_scan(atom, geom, z_lo, z_hi, n=10_000):
    zs = np.linspace(z_lo, z_hi, n + 1)
    vs = np.array([potential_total(atom, geom, float(z)) for z in zs])
    return zs, vs


def test_criterion_8_stationary_points(criterion):
    with criterion(8, "stationary points agree with a 10^4-point scan oracle"):
        step = (0.95 - 0.05) / 10_000

        pts = stationary_points(ELECTRIC, CC, 0.05, 0.95)
        zs, vs = _brute_force_scan(ELECTRIC, CC, 0.05, 0.95)
        assert len(pts) == 1 and pts[0][1] == "max"
        assert abs(pts[0][0] - 0.5) <= 1e-10
        assert abs(float(zs[np.argmax(vs)]) - pts[0][0]) <= step

        pts = stationary_points(MAGNETIC, CC, 0.05, 0.95)
        zs, vs = _brute_force_scan(MAGNETIC, CC, 0.05, 0.95)
        assert len(pts) == 1 and pts[0][1] == "min"
        assert abs(pts[0][0] - 0.5) <= 1e-10
        assert abs(float(zs[np.argmin(vs)]) - pts[0][0]) <= step

        assert stationary_points(ELECTRIC, CP, 0.05, 0.95) == []
        _, vs = _brute_force_scan(ELECTRIC, CP, 0.05, 0.95)
        assert np.all(np.diff(vs) > 0.0)  # strictly monotone: no interior root


def test_criterion_9_end_to_end_verify(criterion, capsys, monkeypatch):
    with criterion(9, "verify exits 0; a perturbed constant is caught by name"):
        report = run_verification("full")
        assert report.passed
        assert main(["verify", "--level", "full", "--format", "json"]) == 0
        capsys.readouterr()

        monkeypatch.setattr(
            profiles, "COT_SERIES_CONST", profiles.COT_SERIES_CONST + 1e-4
        )
        code = main(["verify", "--level", "quick"])
        captured = capsys.readouterr()
        assert code != 0
        assert "near_wall_series_cot" in captured.err
