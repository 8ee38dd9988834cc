"""Every public scalar function against the array path, bit for bit.

The scalar functions of correlators and potentials, and the Geometry
methods on one z, are held to Geometry.profile_terms plus the table column
expressions of analysis._COLUMN at the same z, on a one-point grid. Each
value must have the same bits; a refused point must raise the class and
message the grid raises, and that message is also spelled out here, from
z, a and the guard alone. Where a power or a quotient leaves the double
range the scalar path raises OverflowError or ZeroDivisionError as the **
and / operators do, and the grid's cell is inf or nan instead: that is the
one allowed difference.

The points are seeded over both kinds, separations from 1e-300 to 1e300,
both guard modes and several band widths: both band edges to the ulp,
z > a/2, xi within a few ulps of pi/2, points outside the walls or not
finite, and points whose xi underflows. Fixed points follow for each kind
and separation: the double just below a (it evaluates), a itself (it is
refused), the midplane and the doubles on either side of it. A refusal
raises with no exception in its __context__, and nearest_wall_reference
equals the V_wall column at every point that evaluates.
"""

import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from test_records import NUMBER_FIELDS

import cpwalls
from cpwalls import correlators, profiles
from cpwalls.analysis import (
    _COLUMN,
    _Terms,
    SweepSpec,
    limit_convergence_study,
    nearest_wall_reference,
)
from cpwalls.correlators import (
    Geometry,
    WallKind,
    correlator_bb,
    correlator_eb,
    correlator_ee,
    mean_square_b,
    mean_square_e,
)
from cpwalls.errors import DomainError, InvalidGrid, OutOfDomain, TooCloseToWall
from cpwalls.oracles import image_terms_needed
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
from cpwalls.profiles import PI, GuardPolicy, wall_distance

SEPARATIONS = (1.0, 2.5, 3.7e-5, 1e-300, 1e-60, 1e30, 1e300)
BAND_WIDTHS = (1e-300, 1e-6, 1e-3, 0.5)
POLARIZABILITIES = (0.0, 1.0, 0.25, 3.0e-7, 1e150, 1e-200, -2.0)

# public call -> (evaluations of the profile form, of the slope form)
FORM_EVALUATIONS = {
    "potential_electric": (1, 0),
    "potential_magnetic": (1, 0),
    "potential_total": (1, 0),
    "force": (0, 1),
    "potential_sample": (1, 1),
    "correlator_ee": (1, 0),
    "correlator_bb": (1, 0),
    "correlator_eb": (0, 0),
    "mean_square_e": (1, 0),
    "mean_square_b": (1, 0),
    "profile": (1, 0),
    "profile_deriv": (0, 1),
    "point_terms": (1, 1),
}
# public call with a float value -> the table column that gives it
FLOAT_COLUMNS = {
    "potential_electric": "V_E",
    "potential_magnetic": "V_M",
    "potential_total": "V",
    "force": "force",
    "mean_square_e": "EE_trace",
    "mean_square_b": "BB_trace",
}


def _public_call(name, atom, geom, z, guard):
    if name in ("profile", "profile_deriv", "point_terms"):
        return getattr(geom, name)(z, guard)
    if name == "correlator_eb":
        return correlator_eb(geom, z)
    if name.startswith(("correlator", "mean_square")):
        return globals()[name](geom, z, guard)
    return globals()[name](atom, geom, z, guard)


def _z(rng, a: float, eps: float) -> float:
    """One seeded position: inside, at a band edge, near a/2, outside or odd."""
    kind = rng.choice(7, p=[0.3, 0.2, 0.2, 0.1, 0.07, 0.06, 0.07])
    if kind == 0:
        return a * rng.uniform(0.0, 1.0)
    if kind in (1, 2):  # the band edge xi = eps or pi - eps, to a few ulps
        z = a * (eps / PI) if kind == 1 else a - a * (eps / PI)
        for _ in range(int(rng.integers(0, 4))):
            z = math.nextafter(z, rng.choice([-math.inf, math.inf]))
        return z
    if kind == 3:  # xi within a few ulps of pi/2
        z = 0.5 * a
        for _ in range(int(rng.integers(0, 4))):
            z = math.nextafter(z, rng.choice([-math.inf, math.inf]))
        return z
    if kind == 4:
        return a * rng.uniform(-1.0, 2.0)  # outside about two times in three
    if kind == 5:
        return float(rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf, a]))
    return math.ldexp(a, -int(rng.integers(1070, 1100)))  # pi*z/a underflows, or z is 0


def _refusal(geom: Geometry, z: float, guard: GuardPolicy):
    """The class and message a refused z raises, spelled out; None if not refused."""
    a = geom.separation_a
    if not 0.0 < z < a:
        return OutOfDomain, f"z={z!r} is not strictly between the walls (0, {a})"
    xi = PI * (z / a) or 5e-324
    if guard.mode == "reject" and wall_distance(xi) < guard.epsilon:
        return TooCloseToWall, f"xi={xi!r} is within {guard.epsilon} of a wall (mode=reject)"
    return None


def _cases(rng):
    """(geom, guard, atom, z): 2500 seeded points, then the fixed boundary ones."""
    for _ in range(2500):
        a = float(rng.choice(SEPARATIONS))
        geom = Geometry(rng.choice(list(WallKind)), a)
        guard = GuardPolicy(float(rng.choice(BAND_WIDTHS)),
                            str(rng.choice(["reject", "asymptotic"])))
        atom = AtomResponse(float(rng.choice(POLARIZABILITIES)),
                            float(rng.choice(POLARIZABILITIES)))
        yield geom, guard, atom, _z(rng, a, guard.epsilon)
    guard, atom = GuardPolicy(1e-6, "asymptotic"), AtomResponse(1.0, 0.25)
    for kind in WallKind:
        for a in SEPARATIONS:
            half = 0.5 * a
            for z in (math.nextafter(a, 0.0), a, math.nextafter(half, 0.0), half,
                      math.nextafter(half, a)):
                yield Geometry(kind, a), guard, atom, z


def _outcome(call):
    """call()'s value, or the class and message of what it raised."""
    try:
        return call()
    except (DomainError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _context(call):
    """The __context__ of the DomainError that call() raises."""
    try:
        call()
    except DomainError as exc:
        return exc.__context__
    raise AssertionError("not refused")


def _same(scalar, grid, term: float = 0.0) -> bool:
    """Same bits (a zero's sign counts, any nan equals any nan), or both raised alike.

    The scalar path may raise a double-range error instead where the grid's
    cell, or the profile term the cell is built from, is not finite.
    """
    if isinstance(scalar, tuple) and scalar[0] in (OverflowError, ZeroDivisionError):
        if not math.isfinite(term) or not (isinstance(grid, tuple) or math.isfinite(grid)):
            return True
    if isinstance(grid, tuple):  # the grid raised: the scalar must raise the same
        return scalar == grid
    grid = float(grid)
    if isinstance(scalar, tuple):
        return False
    if math.isnan(grid) or math.isnan(scalar):
        return math.isnan(grid) and math.isnan(scalar)
    return scalar == grid and math.copysign(1.0, scalar) == math.copysign(1.0, grid)


def _grid(geom, atom, z, guard):
    """(p, dp, asymptotic, cells by column) of the array path at z, or what it raised."""
    zs = np.array([z])
    terms = _outcome(lambda: geom.profile_terms(zs, guard))
    if isinstance(terms, tuple) and isinstance(terms[0], type):
        return terms
    p, dp, asymptotic = terms
    with np.errstate(all="ignore"):
        ops = (np.float_power, np.minimum)  # the array path's pow and minimum, for V_wall
        cells = {name: _outcome(lambda: _Terms(atom, geom, zs, p, dp, ops)[name][0])
                 for name in _COLUMN if name not in ("EE", "BB")}
    return p[0], dp[0], bool(asymptotic[0]), cells


def test_the_scalar_layer_equals_the_array_path():
    rng = np.random.default_rng(20261019)
    seen = dict.fromkeys(
        ("value", "refused", "asymptotic", "band_edge", "far_half", "midplane",
         "double_range"), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative polarizabilities
        for geom, guard, atom, z in _cases(rng):
            a = geom.separation_a
            case = (geom, guard, atom, z)
            grid = _grid(geom, atom, z, guard)
            expected = _refusal(geom, z, guard)
            if expected is not None:
                assert grid == expected, case
                seen["refused"] += 1
                for name in FORM_EVALUATIONS:  # correlator_eb has no guard band
                    band = name == "correlator_eb" and grid[0] is TooCloseToWall
                    got = _outcome(lambda: _public_call(name, atom, geom, z, guard))
                    assert got == ((0.0, 0.0, "EB") if band else grid), (name, case)
                    if not band:
                        assert _context(lambda: _public_call(
                            name, atom, geom, z, guard)) is None, (name, case)
                continue
            p, dp, asymptotic, cells = grid
            seen["value"] += 1
            seen["asymptotic"] += asymptotic
            xi = PI * (z / a) or 5e-324
            seen["band_edge"] += abs(wall_distance(xi) - guard.epsilon) <= 4e-16 * guard.epsilon
            seen["far_half"] += z > 0.5 * a
            seen["midplane"] += abs(z - 0.5 * a) <= 4e-16 * a
            assert _same(_outcome(lambda: geom.profile(z, guard)), p), case
            assert _same(_outcome(lambda: geom.profile_deriv(z, guard)), dp), case
            terms = _outcome(lambda: geom.point_terms(z, guard))
            if isinstance(terms, tuple) and isinstance(terms[0], type):
                seen["double_range"] += 1
                assert not (math.isfinite(p) and math.isfinite(dp)), case
            else:
                assert _same(terms[0], p) and _same(terms[1], dp), case
                assert terms[2] is asymptotic, case
            for name, column in FLOAT_COLUMNS.items():
                got = _outcome(lambda: _public_call(name, atom, geom, z, guard))
                assert _same(got, cells[column], dp if name == "force" else p), (name, case)
            for pair, call in (("EE", correlator_ee), ("BB", correlator_bb)):
                got = _outcome(lambda: call(geom, z, guard))
                par, perp = cells[pair + "_par"], cells[pair + "_perp"]
                if isinstance(got, tuple) and isinstance(got[0], type):
                    assert _same(got, par, p) and _same(got, perp, p), case
                else:
                    assert _same(got.par, par) and _same(got.perp, perp), case
                    assert got.field_pair == pair, case
            assert correlator_eb(geom, z) == (0.0, 0.0, "EB"), case
            sample = _outcome(lambda: potential_sample(atom, geom, z, guard))
            if isinstance(sample, tuple) and isinstance(sample[0], type):
                assert not (math.isfinite(p) and math.isfinite(dp)) or _same(
                    sample, cells["V"]) or _same(sample, cells["force"]), case
            else:
                assert sample.z == z, case
                assert sample.regime == ("asymptotic" if asymptotic else "exact"), case
                assert _same(sample.V, cells["V"]) and _same(sample.force_z, cells["force"]), case
            wall, cell = _outcome(lambda: nearest_wall_reference(geom, atom, z)), cells["V_wall"]
            if isinstance(wall, tuple):  # d**4 left the double range; the cell did not raise
                assert wall[0] in (OverflowError, ZeroDivisionError), case
                assert cell == 0.0 or math.isinf(cell) or (
                    math.isnan(cell) and atom.alpha0 == atom.beta0), case
            else:
                assert _same(wall, cell), case
    assert seen["value"] > 1000 and seen["refused"] > 400, seen
    assert min(seen.values()) > 20, seen


_OUTSIDE = "z={!r} is not strictly between the walls (0, 2.0)"
# Positions at a = 2.0 that the z step refuses under mode="reject", with
# the class and message of the refusal; pi*z/a underflows at z = 5e-324.
REFUSED_POSITIONS = [
    pytest.param(z, (OutOfDomain, _OUTSIDE.format(z)), id=label)
    for z, label in (("0.5", "str"), (Decimal("0.5"), "Decimal"),
                     (10 ** 400, "int-beyond-double"), (-1.0, "negative"),
                     (2.0, "a"), (math.nan, "nan"))
] + [pytest.param(5e-324, (TooCloseToWall, "xi=5e-324 is within 1e-06 of a wall"
                                           " (mode=reject)"), id="xi-underflows")]


@pytest.mark.parametrize("kind", list(WallKind))
@pytest.mark.parametrize("z, refusal", [(z, None) for z in (0.3, 1.4, 1e-9, 2.0 - 1e-9)]
                         + REFUSED_POSITIONS)
def test_one_evaluation_per_form_per_public_call(monkeypatch, kind, z, refusal):
    """Each public call is one z step, which evaluates each form at most once.

    The z step is profiles._point, or Geometry.xi in correlator_eb, which
    evaluates no form; profiles._evaluate, the entry point of the public xi
    functions, is not called. The geometry's two forms count their
    closed-form and series evaluations. A refused position is refused by
    that one z step, with its class and message, and evaluates no form.
    """
    counts = {}

    def counted(key, fn):
        def spy(*args):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)
        return spy

    wall = correlators.WALL_TABLE[kind]
    forms = {
        "profile": wall.profile._replace(
            closed=counted("profile", wall.profile.closed),
            series=counted("profile", wall.profile.series)),
        "slope": wall.profile_deriv._replace(
            closed=counted("slope", wall.profile_deriv.closed),
            series=counted("slope", wall.profile_deriv.series)),
    }
    monkeypatch.setitem(correlators.WALL_TABLE, kind,
                        wall._replace(profile=forms["profile"], profile_deriv=forms["slope"]))
    monkeypatch.setattr(correlators, "_point", counted("_point", profiles._point))
    monkeypatch.setattr(profiles, "_evaluate", counted("_evaluate", profiles._evaluate))
    monkeypatch.setattr(Geometry, "xi", counted("xi", Geometry.xi))
    geom, atom = Geometry(kind, 2.0), AtomResponse(1.0, 0.25)
    guard = GuardPolicy(1e-6, "asymptotic" if refusal is None else "reject")
    for name, (profile, slope) in FORM_EVALUATIONS.items():
        counts.clear()
        got = _outcome(lambda: _public_call(name, atom, geom, z, guard))
        eb = name == "correlator_eb"
        assert counts.get("_point", 0) == (not eb), name
        assert counts.get("xi", 0) == eb, name
        assert "_evaluate" not in counts, name
        if refusal is None:
            assert counts.get("profile", 0) == profile, name
            assert counts.get("slope", 0) == slope, name
            continue
        assert "profile" not in counts and "slope" not in counts, name
        band = eb and refusal[0] is TooCloseToWall  # correlator_eb has no guard band
        assert got == ((0.0, 0.0, "EB") if band else refusal), name


# (call, kind) -> opcode events of one warm call, the calling lambda's included
BYTECODES = {
    ("potential_total z < a/2", "cc"): 142, ("potential_total z < a/2", "cp"): 144,
    ("potential_total z > a/2", "cc"): 146, ("potential_total z > a/2", "cp"): 148,
    ("potential_sample", "cc"): 218, ("potential_sample", "cp"): 226,
    ("force", "cc"): 123, ("force", "cp"): 129,
    ("correlator_ee", "cc"): 147, ("correlator_ee", "cp"): 149,
    ("cot_profile", None): 79,
}


def _bytecodes(call) -> int:
    """Opcode events that one call() runs once it has run once already."""
    call()
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="bytecode counts are those of CPython 3.11")
def test_the_scalar_path_runs_a_pinned_number_of_bytecodes():
    """A change in these counts is a change in the scalar path's cost: re-pin it on purpose."""
    atom, guard = AtomResponse(1.0, 0.25), GuardPolicy()
    counts = {("cot_profile", None): _bytecodes(lambda: profiles.cot_profile(1.1, guard))}
    for kind in WallKind:
        geom = Geometry(kind, 2.0)
        for name, call in {
            "potential_total z < a/2": lambda: potential_total(atom, geom, 0.7, guard),
            "potential_total z > a/2": lambda: potential_total(atom, geom, 1.3, guard),
            "potential_sample": lambda: potential_sample(atom, geom, 0.7, guard),
            "force": lambda: force(atom, geom, 0.7, guard),
            "correlator_ee": lambda: correlator_ee(geom, 0.7, guard),
        }.items():
            counts[name, kind.value] = _bytecodes(call)
    assert counts == BYTECODES


@pytest.mark.parametrize("name", ["cot_profile", "csc_profile", "cot_profile_deriv",
                                  "csc_profile_deriv", "cot_profile_series",
                                  "csc_profile_series"])
def test_profile_functions_are_one_evaluation(monkeypatch, name):
    calls, evaluate = [], profiles._evaluate

    def spy(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(profiles, "_evaluate", spy)
    assert getattr(profiles, name)(2.5) == evaluate(*calls[0])
    assert len(calls) == 1


@pytest.mark.parametrize("z", ["0.5", None, [1.0], b"1", 1j, Decimal("0.5"),
                               10 ** 400, -10 ** 400, Fraction(10 ** 400)])
@pytest.mark.parametrize("name", sorted(FORM_EVALUATIONS))
def test_a_position_that_is_not_a_number_is_refused_as_outside(name, z):
    """So is one beyond the double range; neither refusal chains an exception."""
    geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 2.0)
    with pytest.raises(OutOfDomain) as info:
        _public_call(name, AtomResponse(1.0, 0.0), geom, z, GuardPolicy())
    assert str(info.value) == f"z={z!r} is not strictly between the walls (0, 2.0)"
    assert info.value.__context__ is None


# The public functions of xi, and zeta4 of q
XI_FUNCTIONS = (
    "cot_profile", "csc_profile", "cot_profile_deriv", "csc_profile_deriv",
    "cot_profile_series", "csc_profile_series", "cot_profile_via_images",
    "csc_profile_via_images", "cot_profile_via_hurwitz", "image_terms_needed", "zeta4")


@pytest.mark.parametrize("xi", ["1.0", None, [1.0], Decimal("1.0"), Decimal("2.0")])
@pytest.mark.parametrize("name", XI_FUNCTIONS)
def test_a_profile_argument_that_is_not_a_number_is_refused_as_outside(name, xi):
    """An argument that float arithmetic refuses, a Decimal too, is outside."""
    args = (xi, 1e-12) if name == "image_terms_needed" else (xi,)
    with pytest.raises(OutOfDomain) as info:
        getattr(cpwalls, name)(*args)
    if name == "zeta4":
        assert str(info.value) == f"zeta4 requires q > 0, got {xi!r}"
    else:
        assert str(info.value) == f"xi={xi!r} is outside the open interval (0, pi)"
    assert info.value.__context__ is None


GEOM = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 2.0)
ATOM = AtomResponse(1.0, 0.0)
# Five values that are not numbers, then three numbers out of every range here
ODD_VALUES = ("0.5", None, [0.5], Decimal("0.5"), 0.5j, 10 ** 400, math.nan, math.inf)


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _z_grid_refusal(x):
    """What z_grid = [0.5, x] raises: the one number rule decides, not NumPy."""
    if isinstance(x, (str, Decimal, complex)) or x is None:  # not a number
        return InvalidGrid, f"z_grid entry {x!r} is not a number"
    if not _is_number(x):  # a list entry makes the grid ragged
        return InvalidGrid, "z_grid must be a sequence of numbers"
    return InvalidGrid, "z_grid must lie strictly inside (0, 2.0)"  # nan, inf, 10**400


# (public name, argument) -> (the call with x as that argument, its refusal of x)
ARGUMENT_RULES = {
    ("single_wall_limit", "distance"): (
        lambda x: single_wall_limit(ATOM, "conducting", x),
        lambda x: (OutOfDomain, f"wall distance must be positive, got {x!r}")),
    ("nearest_wall_reference", "z"): (
        lambda x: nearest_wall_reference(GEOM, ATOM, x),
        lambda x: (OutOfDomain, f"z={x!r} is not strictly between the walls (0, 2.0)")),
    ("stationary_points", "z_lo"): (
        lambda x: stationary_points(ATOM, GEOM, x, 1.5),
        lambda x: (OutOfDomain,
                   f"need 0 < z_lo < z_hi < a, got z_lo={x!r}, z_hi=1.5, a=2.0")),
    ("stationary_points", "z_hi"): (
        lambda x: stationary_points(ATOM, GEOM, 0.5, x),
        lambda x: (OutOfDomain,
                   f"need 0 < z_lo < z_hi < a, got z_lo=0.5, z_hi={x!r}, a=2.0")),
    ("SweepSpec", "z_min"): (
        lambda x: SweepSpec.from_range(GEOM, ATOM, x, 1.5, 3),
        lambda x: (InvalidGrid,
                   f"need 0 < z_min < z_max < a, got z_min={x!r}, z_max=1.5, a=2.0")),
    ("SweepSpec", "z_max"): (
        lambda x: SweepSpec.from_range(GEOM, ATOM, 0.5, x, 3),
        lambda x: (InvalidGrid,
                   f"need 0 < z_min < z_max < a, got z_min=0.5, z_max={x!r}, a=2.0")),
    ("limit_convergence_study", "z"): (
        lambda x: limit_convergence_study(ATOM, "conducting", x, [20.0, 40.0]),
        lambda x: (InvalidGrid, f"need 0 < z < min(a_values), got z={x!r}")),
    ("limit_convergence_study", "a_values"): (
        lambda x: limit_convergence_study(ATOM, "conducting", 1.0, [20.0, x]),
        lambda x: (InvalidGrid, f"a_values entry {x!r} is not a positive finite number")),
    ("limit_convergence_study", "a_values[0]"): (
        lambda x: limit_convergence_study(ATOM, "conducting", 1.0, [x, 40.0]),
        lambda x: (InvalidGrid, f"a_values entry {x!r} is not a positive finite number")),
    ("SweepSpec", "z_grid"): (
        lambda x: SweepSpec(GEOM, ATOM, [0.5, x]),
        _z_grid_refusal),
    ("image_terms_needed", "target_abs_tol"): (
        lambda x: image_terms_needed(1.0, x),
        lambda x: (ValueError, "target_abs_tol must be positive and finite"
                   if _is_number(x) else "target_abs_tol must be a number")),
}


@pytest.mark.parametrize("x", ODD_VALUES)
@pytest.mark.parametrize("rule", ARGUMENT_RULES, ids="-".join)
def test_an_odd_argument_gets_the_refusal_of_its_check(rule, x):
    """Never a bare TypeError or OverflowError.

    A refusal of a position, a distance or a separation chains no
    exception. A z_grid that NumPy cannot convert is an InvalidGrid that
    carries NumPy's own error.
    """
    call, refusal = ARGUMENT_RULES[rule]
    error, message = refusal(x)
    with pytest.raises(Exception) as info:
        call(x)
    assert (type(info.value), str(info.value)) == (error, message)
    if rule[1] not in ("z_grid", "target_abs_tol"):
        assert info.value.__context__ is None


def test_a_grid_of_ints_and_fractions_is_a_grid_of_numbers():
    grid = [Fraction(1, 2), 1, np.float64(1.5), Fraction(7, 4)]
    assert SweepSpec(GEOM, ATOM, grid).z_grid == (0.5, 1.0, 1.5, 1.75)


@pytest.mark.parametrize("a_values", [[20.0, math.nan], [20.0, 40.0, -80.0],
                                      [20.0, 40.0, 0.0], [20.0, "40"]])
def test_a_bad_separation_is_refused_before_any_row(monkeypatch, a_values):
    rows = []
    monkeypatch.setattr(cpwalls.analysis, "potential_total", lambda *args: rows.append(args))
    with pytest.raises(InvalidGrid, match="is not a positive finite number"):
        limit_convergence_study(ATOM, "conducting", 1.0, a_values)
    assert rows == []


@pytest.mark.parametrize("a_values", [5, None, 2.5])
def test_a_separation_list_that_is_not_a_sequence_is_refused(monkeypatch, a_values):
    rows = []
    monkeypatch.setattr(cpwalls.analysis, "potential_total", lambda *args: rows.append(args))
    with pytest.raises(InvalidGrid) as info:
        limit_convergence_study(ATOM, "conducting", 1.0, a_values)
    message = "a_values must be a sequence of numbers"
    assert (type(info.value), str(info.value)) == (InvalidGrid, message)
    assert rows == []


# Public callables with no number rule of their own, and why
NO_ARGUMENT_CONTRACT = (
    # helpers of the checked calls, unchecked so as to cost nothing there
    "wall_distance", "image_tail_bound", "tensor_prefactor",
    # records that hold the library's results, their numbers unchecked
    "CorrelatorTensor", "PotentialSample", "PotentialCurve", "LimitRow",
    "LimitStudy", "CheckResult", "VerificationReport",
    # no numeric argument: an enum value, a checked SweepSpec, a level name
    "WallKind", "run_sweep", "run_verification",
)


def test_every_public_callable_has_its_number_rule_tested():
    """A public name added later fails here until its rule is decided."""
    public = set()
    for name in cpwalls.__all__:
        obj = getattr(cpwalls, name)
        if callable(obj) and not (
            isinstance(obj, type) and issubclass(obj, (Exception, Warning))
        ):
            public.add(name)
    tested = {*FORM_EVALUATIONS, *XI_FUNCTIONS}
    tested |= {name for name, _ in NUMBER_FIELDS} | {name for name, _ in ARGUMENT_RULES}
    assert public - tested == set(NO_ARGUMENT_CONTRACT)
