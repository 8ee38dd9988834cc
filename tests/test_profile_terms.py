"""The array kernel _profile_terms against the scalar profile functions.

The kernel takes positions z and a separation a. Here a = pi, so that
xi(z) = pi*(z/pi) of a seeded z is the seeded xi itself or one of its
neighbours, and the scalar functions are called on that xi.
Geometry.point_terms, the kernel's one-point twin on floats that the CLI
uses for a single --z, is held to the same `==` against the kernel and the
scalar functions.

The CLI tables and run_sweep take every profile value from the kernel,
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
from cpwalls.errors import DomainError, OutOfDomain, TooCloseToWall
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
    _profile_terms,
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
    p, dp, asymptotic = _profile_terms(*FORMS[kind], XI, PI, guard)
    xs = (PI * (XI / PI)).tolist()  # the kernel's xi of each seeded z
    assert p.tolist() == [profile(x, guard) for x in xs]
    assert dp.tolist() == [deriv(x, guard) for x in xs]
    assert asymptotic.tolist() == [wall_distance(x) < EPS for x in xs]
    assert 1_000 < _point_terms_agree(kind, guard, XI).sum() < len(xs)
    band = [x for x, near in zip(xs, asymptotic.tolist()) if near]
    assert 1_000 < len(band) < len(xs)
    assert p[asymptotic].tolist() == [series(x) for x in band]


@pytest.mark.parametrize("kind", sorted(SCALAR))
def test_reject_mode_equals_the_scalar_path(kind):
    guard = GuardPolicy(1e-6, "reject")
    profile, deriv, _ = SCALAR[kind]
    z = XI[np.array([wall_distance(x) >= 1e-6 for x in (PI * (XI / PI)).tolist()])]
    p, dp, asymptotic = _profile_terms(*FORMS[kind], z, PI, guard)
    xs = (PI * (z / PI)).tolist()
    assert p.tolist() == [profile(x, guard) for x in xs]
    assert dp.tolist() == [deriv(x, guard) for x in xs]
    assert not asymptotic.any()
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
    # the list as positions z at a = pi, refused by Geometry
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


PARITY_A = (1.0, 2.5, 3.7e-5, 1e-300, 1e30, 1e300)
PARITY_EPS = (1e-300, 1e-6, 1e-3, 0.5)


def _parity_row(rng, a: float, eps: float) -> float:
    """One z: inside, in either band, outside, a special value or underflowing."""
    kind = rng.choice(6, p=[0.5, 0.15, 0.15, 0.06, 0.06, 0.08])
    if kind == 0:
        return a * rng.uniform(0.0, 1.0)
    band = a * (eps / PI) * rng.uniform(0.5, 2.0)  # straddles the band edge
    if kind == 1:
        return band
    if kind == 2:
        return a - band
    if kind == 3:
        return a * rng.uniform(-1.0, 2.0)  # outside about two times in three
    if kind == 4:
        return float(rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf, a]))
    return math.ldexp(a, -int(rng.integers(1070, 1100)))  # pi*z/a underflows, or z is 0


def _scalar(call):
    """call()'s value, a DomainError, or None for a double-range error."""
    try:
        return call()
    except DomainError as exc:
        return exc
    except (OverflowError, ZeroDivisionError):
        return None


def test_grid_refuses_exactly_where_the_scalar_path_does():
    """About 3000 seeded grids: same refusal, same class and message, same values.

    A grid is refused if and only if Geometry.profile raises a DomainError
    at one of its rows, and then with that error for the first such row. A
    power that leaves the double range on one z is not a refusal.
    """
    rng = np.random.default_rng(20261018)
    refused = underflowed = 0
    for _ in range(3000):
        a = float(rng.choice(PARITY_A))
        geom = Geometry(rng.choice(list(WallKind)), a)
        guard = GuardPolicy(float(rng.choice(PARITY_EPS)),
                            str(rng.choice(["reject", "asymptotic"])))
        z = [_parity_row(rng, a, guard.epsilon) for _ in range(rng.integers(1, 7))]
        rows = [_scalar(lambda: geom.profile(x, guard)) for x in z]
        first = next((r for r in rows if isinstance(r, DomainError)), None)
        try:
            p, dp, asymptotic = geom.profile_terms(np.array(z), guard)
        except DomainError as exc:
            assert first is not None, (geom, guard, z)
            assert (type(exc), str(exc)) == (type(first), str(first))
            refused += 1
            continue
        assert first is None, (geom, guard, z)
        underflowed += any(PI * (x / a) == 0.0 for x in z)
        for i, x in enumerate(z):
            assert asymptotic[i] == (wall_distance(geom.xi(x)) < guard.epsilon)
            if rows[i] is not None:
                assert p[i] == rows[i]
            slope = _scalar(lambda: geom.profile_deriv(x, guard))
            if slope is not None:
                assert dp[i] == slope
    assert 1000 < refused < 2000 and underflowed > 40, (refused, underflowed)


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
