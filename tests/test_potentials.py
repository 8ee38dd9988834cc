"""Potentials, forces, single-wall limits, and stationary points.

Frozen literals were generated once from 50-digit mpmath evaluations at the
exact double inputs shown (a = 1, z = 0.3, alpha0 = 1, beta0 = 0.25).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwalls.correlators import (
    Geometry,
    WallKind,
    mean_square_b,
    mean_square_e,
)
from cpwalls.errors import (
    FlatPotentialWarning,
    NegativePolarizabilityWarning,
    OutOfDomain,
    TooCloseToWall,
)
from cpwalls.potentials import (
    AtomResponse,
    force,
    potential_electric,
    potential_magnetic,
    potential_sample,
    potential_total,
    single_wall_limit,
    stationary_points,
)
from cpwalls.profiles import GuardPolicy

CC = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0)
CP = Geometry(WallKind.CONDUCTOR_PERMEABLE, 1.0)
ELECTRIC = AtomResponse(1.0, 0.0)
MAGNETIC = AtomResponse(0.0, 1.0)
MIXED = AtomResponse(1.0, 0.25)


def test_atom_response_validation():
    with pytest.raises(ValueError):
        AtomResponse(math.nan, 0.0)
    with pytest.raises(ValueError):
        AtomResponse(0.0, math.inf)
    with pytest.warns(NegativePolarizabilityWarning):
        AtomResponse(-1.0, 0.0)
    with pytest.warns(NegativePolarizabilityWarning):
        AtomResponse(1.0, -0.5)


def test_negative_polarizability_warning_points_at_the_caller():
    with pytest.warns(NegativePolarizabilityWarning) as record:
        AtomResponse(-1.0, 0.0)
    assert [w.filename for w in record] == [__file__]


def test_midpoint_value_cc():
    # alpha=1, beta=0, a=1, z=1/2: V = -11*pi^3/90
    assert potential_total(ELECTRIC, CC, 0.5) == pytest.approx(
        -11.0 * math.pi ** 3 / 90.0, rel=1e-12
    )


def test_midpoint_value_cp():
    # profile term vanishes at the midplane: V = -(7/8)*pi^3/360
    assert potential_total(ELECTRIC, CP, 0.5) == pytest.approx(
        -7.0 * math.pi ** 3 / 2880.0, rel=1e-12
    )


def test_frozen_reference_values():
    assert potential_electric(MIXED, CC, 0.3) == pytest.approx(
        -15.213056435818575, rel=1e-14
    )
    assert potential_magnetic(MIXED, CC, 0.3) == pytest.approx(
        3.8463283821217269, rel=1e-14
    )
    assert potential_total(MIXED, CC, 0.3) == pytest.approx(
        -11.366728053696848, rel=1e-14
    )
    assert potential_electric(MIXED, CP, 0.3) == pytest.approx(
        -14.289004912279441, rel=1e-14
    )
    assert potential_magnetic(MIXED, CP, 0.3) == pytest.approx(
        3.5345699890486625, rel=1e-14
    )
    assert potential_total(MIXED, CP, 0.3) == pytest.approx(
        -10.754434923230778, rel=1e-14
    )
    assert force(MIXED, CC, 0.3) == pytest.approx(-145.30986015254787, rel=1e-13)
    assert force(MIXED, CP, 0.3) == pytest.approx(-149.38159760389216, rel=1e-13)


@pytest.mark.parametrize("geom", [CC, CP])
def test_parts_sum_to_total(geom):
    for z in (0.07, 0.3, 0.5, 0.66, 0.93):
        total = potential_total(MIXED, geom, z)
        parts = potential_electric(MIXED, geom, z) + potential_magnetic(MIXED, geom, z)
        assert parts == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("geom", [CC, CP])
def test_parts_follow_from_correlator_traces(geom):
    # V_E = -alpha0/2 <E^2>, V_M = -beta0/2 <B^2>: the closed forms must
    # agree with the independent trace route through the tensors
    for z in (0.07, 0.3, 0.5, 0.66, 0.93):
        assert potential_electric(MIXED, geom, z) == pytest.approx(
            -MIXED.alpha0 / 2.0 * mean_square_e(geom, z), rel=1e-12
        )
        assert potential_magnetic(MIXED, geom, z) == pytest.approx(
            -MIXED.beta0 / 2.0 * mean_square_b(geom, z), rel=1e-12
        )


def test_linearity_in_polarizabilities():
    for geom in (CC, CP):
        for z in (0.2, 0.5, 0.77):
            v_mixed = potential_total(MIXED, geom, z)
            combined = (
                MIXED.alpha0 * potential_total(ELECTRIC, geom, z)
                + MIXED.beta0 * potential_total(MAGNETIC, geom, z)
            )
            assert v_mixed == pytest.approx(combined, rel=1e-13)


def test_separation_scaling():
    # doubling a at fixed z/a divides the potential by 16 (exact inputs)
    wide_cc = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 2.0)
    wide_cp = Geometry(WallKind.CONDUCTOR_PERMEABLE, 2.0)
    for (narrow, wide) in ((CC, wide_cc), (CP, wide_cp)):
        for t in (0.11, 0.3, 0.5, 0.9):
            assert 16.0 * potential_total(MIXED, wide, 2.0 * t) == pytest.approx(
                potential_total(MIXED, narrow, t), rel=1e-14
            )
            assert 32.0 * force(MIXED, wide, 2.0 * t) == pytest.approx(
                force(MIXED, narrow, t), rel=1e-14
            )


def test_cc_reflection_symmetry():
    for z in (0.08, 0.21, 0.4):
        v1 = potential_total(MIXED, CC, z)
        v2 = potential_total(MIXED, CC, 1.0 - z)
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_cp_reflection_decomposition():
    # the profile part is odd about the midplane, the constant part even;
    # away from the walls the sum identity itself is well conditioned
    const = -7.0 / 8.0 * (MIXED.alpha0 + MIXED.beta0) * math.pi ** 3 / 360.0
    for z in (0.26, 0.33, 0.45):
        v_sum = potential_total(MIXED, CP, z) + potential_total(MIXED, CP, 1.0 - z)
        assert v_sum == pytest.approx(2.0 * const, rel=1e-12)
    # near the wall, compare the odd parts directly
    for z in (0.05, 0.1):
        p1 = potential_total(MIXED, CP, z) - const
        p2 = potential_total(MIXED, CP, 1.0 - z) - const
        assert abs(p1 + p2) <= 1e-12 * max(abs(p1), abs(p2))


def test_single_wall_limit_values():
    d = 0.7
    attract = -3.0 * (MIXED.alpha0 - MIXED.beta0) / (8.0 * math.pi * d ** 4)
    assert single_wall_limit(MIXED, "conducting", d) == attract
    assert single_wall_limit(MIXED, "permeable", d) == -attract
    assert single_wall_limit(MIXED, "conducting", d) < 0.0 < single_wall_limit(
        MIXED, "permeable", d
    )


def test_single_wall_limit_validation():
    with pytest.raises(ValueError):
        single_wall_limit(MIXED, "dielectric", 1.0)
    with pytest.raises(OutOfDomain):
        single_wall_limit(MIXED, "conducting", 0.0)
    with pytest.raises(OutOfDomain):
        single_wall_limit(MIXED, "permeable", -1.0)


def test_two_wall_potential_approaches_single_wall():
    z = 1.0
    prev = None
    for a in (20.0, 40.0, 80.0, 160.0):
        geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, a)
        rel = abs(
            potential_total(ELECTRIC, geom, z)
            / single_wall_limit(ELECTRIC, "conducting", z)
            - 1.0
        )
        if prev is not None:
            assert rel < prev
        prev = rel
    assert prev < 1e-4


def test_repulsion_near_permeable_wall():
    # close to the permeable wall the potential of a polarizable atom is
    # positive and the force pushes it away (toward smaller z)
    geom = Geometry(WallKind.CONDUCTOR_PERMEABLE, 1.0)
    assert potential_total(ELECTRIC, geom, 0.99) > 0.0
    assert force(ELECTRIC, geom, 0.99) < 0.0
    # and attraction near the conducting wall
    assert potential_total(ELECTRIC, geom, 0.01) < 0.0
    assert force(ELECTRIC, geom, 0.01) < 0.0


def test_force_vanishes_at_cc_midplane():
    scale = math.pi ** 4 * (abs(MIXED.alpha0) + abs(MIXED.beta0))
    assert abs(force(MIXED, CC, 0.5)) <= 1e-12 * scale


def test_force_finite_difference_seeded():
    rng = random.Random(424242)
    h = 1e-6
    for geom in (CC, CP):
        for _ in range(60):
            z = rng.uniform(0.05, 0.95)
            fd = -(
                potential_total(MIXED, geom, z + h)
                - potential_total(MIXED, geom, z - h)
            ) / (2.0 * h)
            analytic = force(MIXED, geom, z)
            scale = max(abs(analytic), math.pi ** 4 * abs(MIXED.alpha0 - MIXED.beta0))
            assert abs(fd - analytic) <= 1e-6 * scale


def test_potential_sample_regimes():
    s = potential_sample(MIXED, CC, 0.4)
    assert s.regime == "exact"
    assert s.z == 0.4
    assert s.V == potential_total(MIXED, CC, 0.4)
    assert s.force_z == force(MIXED, CC, 0.4)

    soft = GuardPolicy(epsilon=1e-6, mode="asymptotic")
    deep = potential_sample(MIXED, CC, 1e-8, soft)
    assert deep.regime == "asymptotic"
    assert math.isfinite(deep.V) and deep.V < 0.0

    with pytest.raises(TooCloseToWall):
        potential_sample(MIXED, CC, 1e-8)


# ----------------------------------------------------------------------
# Stationary points.
# ----------------------------------------------------------------------


def brute_force_extremum(atom, geom, z_lo, z_hi, n=10_000):
    """Independent scan oracle: index of the extreme potential value."""
    zs = [z_lo + (z_hi - z_lo) * i / n for i in range(n + 1)]
    vs = [potential_total(atom, geom, z) for z in zs]
    i_min = min(range(len(vs)), key=vs.__getitem__)
    i_max = max(range(len(vs)), key=vs.__getitem__)
    return zs, vs, i_min, i_max


def test_electric_atom_has_midplane_maximum():
    pts = stationary_points(ELECTRIC, CC, 0.1, 0.9)
    assert len(pts) == 1
    z_star, kind = pts[0]
    assert kind == "max"
    assert abs(z_star - 0.5) < 1e-9
    zs, vs, _, i_max = brute_force_extremum(ELECTRIC, CC, 0.1, 0.9)
    assert abs(zs[i_max] - z_star) <= (0.9 - 0.1) / 10_000 + 1e-12


def test_magnetic_atom_has_midplane_minimum():
    pts = stationary_points(MAGNETIC, CC, 0.1, 0.9)
    assert len(pts) == 1
    z_star, kind = pts[0]
    assert kind == "min"
    assert abs(z_star - 0.5) < 1e-9
    zs, vs, i_min, _ = brute_force_extremum(MAGNETIC, CC, 0.1, 0.9)
    assert abs(zs[i_min] - z_star) <= (0.9 - 0.1) / 10_000 + 1e-12


def test_permeable_geometry_has_no_stationary_point():
    assert stationary_points(ELECTRIC, CP, 0.1, 0.9) == []
    # oracle: the potential is strictly monotonic on the bracket
    zs, vs, i_min, i_max = brute_force_extremum(ELECTRIC, CP, 0.1, 0.9)
    assert i_min == 0 and i_max == len(zs) - 1
    assert all(b > a for a, b in zip(vs, vs[1:]))


def test_flat_potential_warns_and_returns_empty():
    flat = AtomResponse(1.0, 1.0)
    with pytest.warns(FlatPotentialWarning):
        assert stationary_points(flat, CC, 0.1, 0.9) == []


def test_nearly_flat_atom_classified_saddle_flat():
    nearly = AtomResponse(1.0, 1.0 - 1e-15)
    pts = stationary_points(nearly, CC, 0.1, 0.9)
    assert len(pts) == 1
    assert pts[0][1] == "saddle-flat"


def test_stationary_points_validation():
    with pytest.raises(OutOfDomain):
        stationary_points(ELECTRIC, CC, 0.0, 0.9)
    with pytest.raises(OutOfDomain):
        stationary_points(ELECTRIC, CC, 0.9, 0.1)
    with pytest.raises(OutOfDomain):
        stationary_points(ELECTRIC, CC, 0.1, 1.0)
    with pytest.raises(TooCloseToWall):
        stationary_points(ELECTRIC, CC, 1e-9, 0.9)


@settings(deadline=None)
@given(
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=4.0),
)
def test_potential_linearity_property(z, alpha0, beta0):
    atom = AtomResponse(alpha0, beta0)
    direct = potential_total(atom, CC, z)
    part_e = alpha0 * potential_total(ELECTRIC, CC, z)
    part_m = beta0 * potential_total(MAGNETIC, CC, z)
    # scale by the largest intermediate: for alpha0 == beta0 the two parts
    # cancel near a wall, so their rounding sets the attainable accuracy
    scale = max(abs(direct), abs(part_e), abs(part_m), 1e-300)
    assert abs(direct - (part_e + part_m)) <= 1e-12 * scale


@settings(deadline=None)
@given(st.floats(min_value=0.02, max_value=0.98))
def test_electric_potential_negative_between_conductors_property(z):
    # 3*cot_profile > 1/120 everywhere, so V_E < 0 for a polarizable atom
    assert potential_electric(ELECTRIC, CC, z) < 0.0
    assert potential_magnetic(AtomResponse(0.0, 1.0), CC, z) > 0.0
