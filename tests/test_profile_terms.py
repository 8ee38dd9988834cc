"""The array kernel profile_terms against the scalar profile functions.

Geometry.point_terms, the kernel's one-point twin on floats that the CLI
uses for a single --z, is held to the same `==` against the kernel and the
scalar functions, at a = pi, where xi(z) = pi*(z/pi) is the seeded xi
itself or one of its neighbours.

The CLI tables and run_sweep take every profile value from profile_terms,
and their bytes are pinned to the scalar path's, so equality here is `==`,
element by element, not a tolerance. Both paths run the same Forms, so what
this checks is the platform: that np.sin, np.cos and np.float_power round as
libm's sin, cos and the scalar ** do, and that the kernel's masking picks
the series exactly where the scalar guard band does.
"""

import math

import numpy as np
import pytest

from cpwalls.correlators import Geometry, WallKind
from cpwalls.errors import OutOfDomain, TooCloseToWall
from cpwalls.profiles import (
    COT_PROFILE,
    COT_PROFILE_DERIV,
    CSC_PROFILE,
    CSC_PROFILE_DERIV,
    PI,
    PI_LO,
    GuardPolicy,
    cot_profile,
    cot_profile_deriv,
    cot_profile_series,
    csc_profile,
    csc_profile_deriv,
    csc_profile_series,
    profile_terms,
    wall_distance,
)

SCALAR = {
    "cot": (cot_profile, cot_profile_deriv, cot_profile_series),
    "csc": (csc_profile, csc_profile_deriv, csc_profile_series),
}
FORMS = {
    "cot": (COT_PROFILE, COT_PROFILE_DERIV),
    "csc": (CSC_PROFILE, CSC_PROFILE_DERIV),
}
# At a = pi the seeded xi serve as positions z, and xi(z) stays at or next
# to z, band edges included.
GEOMETRY = {
    "cot": Geometry(WallKind.CONDUCTOR_CONDUCTOR, PI),
    "csc": Geometry(WallKind.CONDUCTOR_PERMEABLE, PI),
}
EPS = 1e-3


def _ulps(x: float, n: int) -> list[float]:
    """x and its n neighbours on either side."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _points() -> np.ndarray:
    """Seeded xi over (0, pi): both halves, pi/2, both walls, the guard edge."""
    rng = np.random.default_rng(20240517)
    near_wall = 10.0 ** rng.uniform(-9.0, -0.5, 20_000)
    pts = [
        rng.uniform(0.0, PI, 60_000),
        near_wall,
        (PI - near_wall) + PI_LO,
        0.5 * PI + rng.uniform(-1e-15, 1e-15, 2_000),
        _ulps(0.5 * PI, 50),
    ]
    # the guard edge u = EPS at either wall, and a few ulps either side of it
    for edge in (EPS, 1e-6):
        pts.append(_ulps(edge, 3))
        pts.append(_ulps((PI - edge) + PI_LO, 3))
    xi = np.concatenate([np.asarray(p, dtype=np.float64) for p in pts])
    return xi[(xi > 0.0) & (xi < PI)]


XI = _points()


def test_points_cover_the_cases():
    u = np.array([wall_distance(x) for x in XI])
    assert len(XI) >= 100_000
    assert (XI < 0.5 * PI).sum() > 40_000 and (XI > 0.5 * PI).sum() > 40_000
    assert (np.abs(XI - 0.5 * PI) <= 1e-15).sum() > 1_000
    far = u[XI > 0.5 * PI]
    xi_at_z = PI * (XI / PI)  # Geometry.xi of every seeded z at a = pi
    for edge in (EPS, 1e-6):
        for xi in (XI, xi_at_z):
            assert np.isin(_ulps(edge, 1), xi).all()
            assert np.isin(_ulps((PI - edge) + PI_LO, 1), xi).all()
        assert ((far < edge) & (far > edge - 1e-15)).any()
        assert ((far >= edge) & (far < edge + 1e-15)).any()


def _point_terms_agree(kind, guard, z):
    """Geometry.point_terms over z equals the kernel and the scalar functions.

    Returns the kernel's asymptotic mask.
    """
    geom = GEOMETRY[kind]
    profile, deriv, _ = SCALAR[kind]
    p, dp, asymptotic = geom.profile_terms(z, guard)
    zs = z.tolist()
    xs = [geom.xi(x) for x in zs]
    assert [geom.point_terms(x, guard) for x in zs] == list(
        zip(p.tolist(), dp.tolist(), asymptotic.tolist())
    )
    assert p.tolist() == [profile(x, guard) for x in xs]
    assert dp.tolist() == [deriv(x, guard) for x in xs]
    assert asymptotic.tolist() == [wall_distance(x) < guard.epsilon for x in xs]
    return asymptotic


@pytest.mark.parametrize("kind", sorted(SCALAR))
def test_asymptotic_mode_equals_the_scalar_path(kind):
    guard = GuardPolicy(EPS, "asymptotic")
    profile, deriv, series = SCALAR[kind]
    p, dp, asymptotic = profile_terms(*FORMS[kind], XI, guard)
    xs = XI.tolist()
    assert p.tolist() == [profile(x, guard) for x in xs]
    assert dp.tolist() == [deriv(x, guard) for x in xs]
    assert asymptotic.tolist() == [wall_distance(x) < EPS for x in xs]
    assert 1_000 < _point_terms_agree(kind, guard, XI).sum() < len(xs)
    band = XI[asymptotic].tolist()
    assert 1_000 < len(band) < len(xs)
    assert p[asymptotic].tolist() == [series(x) for x in band]


@pytest.mark.parametrize("kind", sorted(SCALAR))
def test_reject_mode_equals_the_scalar_path(kind):
    guard = GuardPolicy(1e-6, "reject")
    profile, deriv, _ = SCALAR[kind]
    xi = XI[np.array([wall_distance(x) >= 1e-6 for x in XI.tolist()])]
    p, dp, asymptotic = profile_terms(*FORMS[kind], xi, guard)
    xs = xi.tolist()
    assert p.tolist() == [profile(x, guard) for x in xs]
    assert dp.tolist() == [deriv(x, guard) for x in xs]
    assert not asymptotic.any()
    z = XI[np.array([wall_distance(x) >= 1e-6 for x in (PI * (XI / PI)).tolist()])]
    assert abs(len(z) - len(xs)) < 10  # the same points, bar a few at the edge
    assert not _point_terms_agree(kind, guard, z).any()


def _raised(call):
    with pytest.raises((OutOfDomain, TooCloseToWall)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "xi",
    [
        [0.5, 1.0, PI - 1e-7, 0.0, 2.0],   # band before the domain error
        [0.5, float("nan"), 1e-8],        # domain error before the band
        [1.0, PI, 2.0],
        [-1.0],
    ],
)
def test_first_refused_point_raises_the_scalar_error(xi):
    guard = GuardPolicy()
    first = next(x for x in xi if not 0.0 < x < PI or wall_distance(x) < 1e-6)
    kernel = _raised(lambda: profile_terms(*FORMS["cot"], np.array(xi), guard))
    assert kernel == _raised(lambda: cot_profile(first, guard))
    # the same list as positions z at a = pi, refused by Geometry
    geom = GEOMETRY["cot"]
    first_z = next(
        z for z in xi if not 0.0 < z < PI or wall_distance(geom.xi(z)) < 1e-6
    )
    grid = _raised(lambda: geom.profile_terms(np.array(xi), guard))
    assert grid == _raised(lambda: geom.point_terms(first_z, guard))
    assert grid == _raised(lambda: geom.profile(first_z, guard))


def test_geometry_grid_refuses_the_first_bad_row_in_grid_order():
    geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0)
    # 0.9999998 is in the guard band, 1.0 and beyond are outside the walls
    z = np.linspace(0.999999, 1.0000002, 7)
    assert _raised(lambda: geom.profile_terms(z)) == _raised(
        lambda: geom.profile(float(z[4]))
    )
    assert _raised(lambda: geom.profile_terms(z[5:])) == _raised(
        lambda: geom.profile(float(z[5]))
    )



def _outcome(call):
    """call()'s value, or the class and message of a double-range error."""
    try:
        return call()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", sorted(SCALAR))
@pytest.mark.parametrize("z", [1e-62, 1e-70, 1e-80, 1e-310, 1e-320])
def test_point_terms_raises_as_the_first_failing_scalar_method(kind, z):
    """Where a power leaves the double range: the profile first, then the slope."""
    geom = Geometry(GEOMETRY[kind].kind, 1.0)
    guard = GuardPolicy(1e-300, "asymptotic")
    profile = _outcome(lambda: geom.profile(z, guard))
    slope = _outcome(lambda: geom.profile_deriv(z, guard))
    error = next((o for o in (profile, slope) if isinstance(o, tuple)), None)
    expected = error or (profile, slope, False)
    assert _outcome(lambda: geom.point_terms(z, guard)) == expected
