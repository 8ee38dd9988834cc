"""Correlator tensors: structure, frozen reference values, scaling, traces.

Frozen literals were generated once from 50-digit mpmath evaluations of the
defining expressions at the exact double inputs shown (a = 1, z = 0.3).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwalls import correlators
from cpwalls.analysis import _Terms
from cpwalls.correlators import (
    CorrelatorTensor,
    Geometry,
    WallKind,
    correlator_bb,
    correlator_eb,
    correlator_ee,
    mean_square_b,
    mean_square_e,
    tensor_prefactor,
)
from cpwalls.errors import NonFiniteResult, OutOfDomain, TooCloseToWall
from cpwalls.potentials import AtomResponse, stationary_points
from cpwalls.profiles import GuardPolicy

CC = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0)
CP = Geometry(WallKind.CONDUCTOR_PERMEABLE, 1.0)


def diag(tensor: CorrelatorTensor) -> tuple[float, float, float]:
    return tuple(float(tensor.components[i, i]) for i in range(3))


def test_geometry_validation():
    with pytest.raises(OutOfDomain):
        Geometry(WallKind.CONDUCTOR_CONDUCTOR, 0.0)
    with pytest.raises(OutOfDomain):
        Geometry(WallKind.CONDUCTOR_CONDUCTOR, -2.0)
    with pytest.raises(OutOfDomain):
        Geometry(WallKind.CONDUCTOR_CONDUCTOR, math.inf)


def test_geometry_xi():
    geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 2.0)
    assert geom.xi(1.0) == math.pi / 2.0
    for bad in (0.0, 2.0, -0.1, 2.5, math.nan):
        with pytest.raises(OutOfDomain):
            geom.xi(bad)


def test_wall_kind_round_trip():
    assert WallKind("cc") is WallKind.CONDUCTOR_CONDUCTOR
    assert WallKind("cp") is WallKind.CONDUCTOR_PERMEABLE
    assert WallKind.CONDUCTOR_PERMEABLE.value == "cp"


def test_tensor_prefactor():
    assert tensor_prefactor(1.0) == pytest.approx(
        math.pi ** 4 * 2.0 / (3.0 * math.pi), rel=1e-15
    )
    # a^-4 scale: halving a multiplies by 16
    assert tensor_prefactor(0.5) == pytest.approx(16.0 * tensor_prefactor(1.0), rel=1e-15)


def test_tensor_prefactor_that_is_not_a_normal_double_is_refused():
    assert tensor_prefactor(6.7e76) > 2.2250738585072014e-308
    for a in (1e80, 1e100):  # a subnormal, an exact zero
        with pytest.raises(NonFiniteResult, match="prefactor"):
            tensor_prefactor(a)
    with pytest.raises(NonFiniteResult):
        correlator_ee(Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1e100), 5e99)


@pytest.mark.parametrize("geom", [CC, CP])
@pytest.mark.parametrize("z", [0.1, 0.25, 0.5, 0.83])
def test_tensor_structure(geom, z):
    ee = correlator_ee(geom, z)
    bb = correlator_bb(geom, z)
    eb = correlator_eb(geom, z)
    for t in (ee, bb, eb):
        off = t.components[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)
        assert t.components[0, 0] == t.components[1, 1]
    assert np.all(eb.components == 0.0)
    assert ee.field_pair == "EE" and bb.field_pair == "BB" and eb.field_pair == "EB"


def _bits(matrix):
    return [[x.hex() for x in row] for row in matrix]


@pytest.mark.parametrize("build", [correlator_ee, correlator_bb, correlator_eb])
@pytest.mark.parametrize("geom", [CC, CP])
def test_the_matrix_verify_reads_is_components_as_lists(geom, build):
    # verify's matrix checks read _matrix, built without NumPy, in place of
    # components.tolist(): the two must agree bit for bit, signs of zero too
    rng = random.Random(20261019)
    for z in [1e-3, 0.1, 0.5, 0.83, 1.0 - 1e-3] + [rng.uniform(0.0, 1.0) for _ in range(50)]:
        t = build(geom, z)
        assert _bits(t._matrix()) == _bits(t.components.tolist()), z
    assert t._matrix() is not t._matrix()


@pytest.mark.parametrize(
    "par, perp", [(1.5, -2.25), (-0.0, 0.0), (1e-300, 3e300), (0.0, 0.0)]
)
@pytest.mark.parametrize("pair", ["EE", "BB", "EB"])
def test_the_matrix_of_any_record_is_components_as_lists(par, perp, pair):
    t = CorrelatorTensor(par, perp, pair)
    assert _bits(t._matrix()) == _bits(t.components.tolist())


@pytest.mark.parametrize(
    "par, perp", [(1.5, -2.25), (-0.0, 0.0), (1e-300, 3e300), (0.0, 0.0)]
)
def test_components_is_a_fresh_writable_diag(par, perp):
    t = CorrelatorTensor(par, perp, "EE")
    m = t.components
    want = np.diag([par, par, perp])
    assert m.dtype == np.float64 and m.shape == (3, 3) and m.flags.writeable
    assert np.array_equal(m, want)
    assert np.array_equal(np.signbit(m), np.signbit(want))
    m[0, 1] = 7.0
    m[2, 2] = 7.0
    assert np.array_equal(t.components, want)
    assert t.components is not t.components


def test_midpoint_values_cc():
    ee = diag(correlator_ee(CC, 0.5))
    bb = diag(correlator_bb(CC, 0.5))
    p3 = math.pi ** 3
    assert ee[0] == pytest.approx(7.0 * p3 / 90.0, rel=1e-13)
    assert ee[2] == pytest.approx(4.0 * p3 / 45.0, rel=1e-13)
    assert bb[0] == pytest.approx(-4.0 * p3 / 45.0, rel=1e-13)
    assert bb[2] == pytest.approx(-7.0 * p3 / 90.0, rel=1e-13)


def test_midpoint_values_cp():
    # profile contribution vanishes at the midplane, leaving the constants
    ee = diag(correlator_ee(CP, 0.5))
    bb = diag(correlator_bb(CP, 0.5))
    p3 = math.pi ** 3
    assert ee[0] == pytest.approx(7.0 * p3 / 1440.0, rel=1e-13)
    assert ee[2] == pytest.approx(-7.0 * p3 / 1440.0, rel=1e-13)
    assert bb[0] == pytest.approx(7.0 * p3 / 1440.0, rel=1e-13)
    assert bb[2] == pytest.approx(-7.0 * p3 / 1440.0, rel=1e-13)


def test_frozen_reference_values_cc():
    ee = diag(correlator_ee(CC, 0.3))
    bb = diag(correlator_bb(CC, 0.3))
    assert ee[0] == pytest.approx(10.027199562100162, rel=1e-14)
    assert ee[2] == pytest.approx(10.371713747436827, rel=1e-14)
    assert bb[0] == pytest.approx(-10.371713747436827, rel=1e-14)
    assert bb[2] == pytest.approx(-10.027199562100162, rel=1e-14)


def test_frozen_reference_values_cp():
    ee = diag(correlator_ee(CP, 0.3))
    bb = diag(correlator_bb(CP, 0.3))
    assert ee[0] == pytest.approx(9.6264865789094877, rel=1e-14)
    assert ee[2] == pytest.approx(9.3250366667399062, rel=1e-14)
    assert bb[0] == pytest.approx(-9.3250366667399062, rel=1e-14)
    assert bb[2] == pytest.approx(-9.6264865789094877, rel=1e-14)


def test_cc_ee_bb_mirror_antisymmetry():
    # with the -+1/120 constants, BB at z is -EE reversed: xx <-> zz
    for z in (0.1, 0.37, 0.5, 0.8):
        ee = diag(correlator_ee(CC, z))
        bb = diag(correlator_bb(CC, z))
        assert bb[0] == pytest.approx(-ee[2], rel=1e-15)
        assert bb[2] == pytest.approx(-ee[0], rel=1e-15)


def test_scaling_with_separation():
    # same z/a (exact: divide by a power of two) scales all components by a^-4
    big = Geometry(WallKind.CONDUCTOR_PERMEABLE, 2.0)
    for z in (0.3, 0.5, 0.7):
        small_ee = correlator_ee(CP, z).components
        big_ee = correlator_ee(big, 2.0 * z).components
        assert np.allclose(16.0 * big_ee, small_ee, rtol=2e-15, atol=0.0)


def test_trace_sums_are_constant_and_signed():
    zs = np.linspace(0.2, 0.8, 25)
    for geom, sign in ((CC, -1.0), (CP, 1.0)):
        sums = [mean_square_e(geom, z) + mean_square_b(geom, z) for z in zs]
        assert all(sign * s > 0.0 for s in sums)
        assert max(sums) - min(sums) <= 1e-12 * abs(np.mean(sums))


def test_trace_sum_values():
    pref = math.pi ** 4 * 2.0 / (3.0 * math.pi)
    got_cc = mean_square_e(CC, 0.4) + mean_square_b(CC, 0.4)
    got_cp = mean_square_e(CP, 0.4) + mean_square_b(CP, 0.4)
    assert got_cc == pytest.approx(-pref / 60.0, rel=1e-12)
    assert got_cp == pytest.approx(7.0 * pref / 480.0, rel=1e-12)


def test_mean_squares_equal_traces():
    for geom in (CC, CP):
        for z in (0.15, 0.5, 0.85):
            assert mean_square_e(geom, z) == correlator_ee(geom, z).trace()
            assert mean_square_b(geom, z) == correlator_bb(geom, z).trace()


def test_guard_modes_propagate():
    z = 1e-8  # xi ~ 3e-8, inside the default band
    with pytest.raises(TooCloseToWall):
        correlator_ee(CC, z)
    soft = GuardPolicy(epsilon=1e-6, mode="asymptotic")
    t = correlator_ee(CC, z, soft)
    assert np.isfinite(t.components).all()
    assert t.components[2, 2] > 0.0


def test_trace_method():
    t = CorrelatorTensor(1.0, 3.0, "EE")
    assert t.trace() == 5.0


@settings(deadline=None)
@given(st.floats(min_value=0.02, max_value=0.98))
def test_ee_dominates_bb_near_conducting_wall_property(z):
    # trace(EE) - trace(BB) = 2 * pref * 3 * profile for "cc": the electric
    # fluctuations always exceed the magnetic ones between conductors
    assert mean_square_e(CC, z) > mean_square_b(CC, z)


@settings(deadline=None)
@given(st.floats(min_value=0.02, max_value=0.98))
def test_cp_reflection_swaps_ee_bb_property(z):
    # csc antisymmetry: EE at z mirrors BB at a-z up to the even constants
    ee = diag(correlator_ee(CP, z))
    bb = diag(correlator_bb(CP, 1.0 - z))
    for got, want in zip(ee, bb):
        assert abs(got - want) <= 1e-11 * max(abs(got), abs(want), 1.0)


def _outcome(fn, *args):
    """fn(*args), or the class and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


_TRACE_COLUMNS = ("EE_trace", "BB_trace", "trace_sum")


def _trace_configs(rng, count):
    """count (geometry, guard, z list) triples; xi near both walls too."""
    configs = []
    for _ in range(count):
        geom = Geometry(rng.choice(list(WallKind)), 10.0 ** rng.uniform(-3.0, 80.0))
        guard = GuardPolicy(
            10.0 ** rng.uniform(-12.0, -2.0), rng.choice(["reject", "asymptotic"])
        )
        xis = []
        for _ in range(100):
            pick = rng.random()
            if pick < 0.25:
                xis.append(rng.uniform(0.0, 1e-9))
            elif pick < 0.5:
                xis.append(math.pi - rng.uniform(0.0, 1e-9))
            else:
                xis.append(rng.uniform(0.0, math.pi))
        a = geom.separation_a
        configs.append((geom, guard, [x * a / math.pi for x in xis]))
    return configs


def test_traces_equal_the_tensor_records_on_floats_and_arrays():
    # mean_square_e/b and the table's trace columns compute par + par + perp
    # without a CorrelatorTensor; every value, and every refusal, must be
    # the record's .trace(), on one point and on a grid.
    rng = random.Random(60417)
    points = grid_values = refused = 0
    for geom, guard, zs in _trace_configs(rng, 200):
        def grid(name, z):
            p, dp, _ = geom.profile_terms(z, guard)
            return _Terms(None, geom, z, p, dp)[name].tolist()

        want = {name: [] for name in _TRACE_COLUMNS}
        for z in zs:
            ee = _outcome(lambda: correlator_ee(geom, z, guard).trace())
            bb = _outcome(lambda: correlator_bb(geom, z, guard).trace())
            assert _outcome(mean_square_e, geom, z, guard) == ee
            assert _outcome(mean_square_b, geom, z, guard) == bb
            # profile and prefactor fail alike for EE and BB
            assert isinstance(ee, tuple) == isinstance(bb, tuple)
            both = ee if isinstance(ee, tuple) else ee + bb
            cells = dict(zip(_TRACE_COLUMNS, (ee, bb, both)))
            p = _outcome(geom.profile, z, guard)
            for name, cell in cells.items():
                if not isinstance(p, tuple):
                    assert _outcome(lambda: _Terms(None, geom, z, p, None)[name]) == cell
                want[name].append(cell)
            points += 1
        errors = [c for c in want["EE_trace"] if isinstance(c, tuple)]
        refused += len(errors)
        # a grid refuses as its first domain refusal, else as the prefactor;
        # the grid of the points that evaluate gives the floats' values
        domain = [e for e in errors if e[0] is not NonFiniteResult]
        ok = [i for i, c in enumerate(want["EE_trace"]) if not isinstance(c, tuple)]
        for name in _TRACE_COLUMNS:
            whole = _outcome(grid, name, np.array(zs))
            assert whole == ((domain or errors)[0] if errors else want[name])
            if errors and ok:
                got = grid(name, np.array([zs[i] for i in ok]))
                assert got == [want[name][i] for i in ok]
        grid_values += len(ok)
    assert points == 20000
    assert refused > 1000 and grid_values > 10000


def test_traces_build_no_tensor_record(monkeypatch):
    # a record is built either checked (CorrelatorTensor.__new__) or, by the
    # library from its own values, unchecked (correlators._record)
    built = []
    new, record = CorrelatorTensor.__new__, correlators._record

    def spy(cls, *args):
        built.append(args)
        return new(cls, *args)

    def spy_record(cls, fields):
        built.append(fields)
        return record(cls, fields)

    monkeypatch.setattr(CorrelatorTensor, "__new__", spy)
    monkeypatch.setattr(correlators, "_record", spy_record)
    zs = np.array([0.2, 0.5, 0.9])
    for geom in (CC, CP):
        mean_square_e(geom, 0.3)
        mean_square_b(geom, 0.3)
        for z, p in ((0.3, geom.profile(0.3)), (zs, geom.profile_terms(zs)[0])):
            for name in _TRACE_COLUMNS + ("EE_par", "EE_perp", "BB_par", "BB_perp"):
                _Terms(None, geom, z, p, None)[name]
    assert built == []
    correlator_ee(CC, 0.3)  # the counter does see a record
    assert len(built) == 1


# pi*z/a rounds to 0.0 for these z although 0 < z < a.
_XI_UNDERFLOWS = [(1e300, 1e-30), (4.0, 5e-324), (1e30, 1e-300)]


@pytest.mark.parametrize("eps", [1e-6, 5e-324])
@pytest.mark.parametrize("kind", list(WallKind))
@pytest.mark.parametrize("a, z", _XI_UNDERFLOWS)
def test_xi_that_underflows_is_the_smallest_double_in_the_band(kind, a, z, eps):
    # such a point is as close to the wall as one whose xi is subnormal,
    # and is refused as one, not as a point outside the walls: in the band
    # at every epsilon, the smallest one included, by the scalar z step,
    # the grid and a stationary_points bracket alike
    geom = Geometry(kind, a)
    assert math.pi * (z / a) == 0.0
    assert geom.xi(z) == 5e-324
    band = f"TooCloseToWall: xi=5e-324 is within {eps} of a wall (mode=reject)"
    grid = np.array([z, 0.5 * a])
    guard, soft = GuardPolicy(eps), GuardPolicy(eps, "asymptotic")
    for call in (
        lambda: geom.profile(z, guard),
        lambda: geom.profile_deriv(z, guard),
        lambda: geom.point_terms(z, guard),
        lambda: geom.profile_terms(grid, guard),
        # a bracket end in the band is refused in either mode
        lambda: stationary_points(AtomResponse(1.0, 0.0), geom, z, 0.5 * a, guard),
        lambda: stationary_points(AtomResponse(1.0, 0.0), geom, z, 0.5 * a, soft),
    ):
        with pytest.raises(TooCloseToWall) as info:
            call()
        assert f"{info.typename}: {info.value}" == band
    with pytest.raises(OverflowError):  # as for a subnormal xi: u**-4
        geom.profile(z, soft)
    p, dp, asymptotic = geom.profile_terms(grid, soft)
    assert (p[0], dp[0]) == (math.inf, -math.inf)
    assert asymptotic.tolist() == [True, False]
    assert p[1] == geom.profile(0.5 * a, soft)


@pytest.mark.parametrize("a, z", [(1.0, 5e-324), (1e300, 1e-20), (1e30, 1e-290)])
def test_xi_that_does_not_underflow_keeps_its_bits(a, z):
    geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, a)
    xi = math.pi * (z / a)
    assert 0.0 < xi < 2.2250738585072014e-308  # subnormal
    assert geom.xi(z) == xi
    with pytest.raises(TooCloseToWall, match=f"xi={xi!r} is within"):
        geom.profile_terms(np.array([z]))
