"""Profile functions: symbolic identities, high-precision oracles, guards.

The closed forms in cpwalls.profiles are proven against their defining third
derivatives with sympy, then checked numerically against mpmath evaluations
at 50 digits and against scipy's independent Hurwitz-zeta/polygamma routes.
Frozen literals below were generated once from the mpmath expressions at the
exact double-precision inputs shown.
"""

import math
import operator

import mpmath
import pytest
import scipy.special
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwalls import correlators, potentials
from cpwalls.correlators import _TENSOR_SCALE, WALL_TABLE, Geometry, WallKind
from cpwalls.errors import OutOfDomain, TailBoundViolated, TooCloseToWall
from cpwalls.oracles import (
    OracleConfig,
    cot_profile_via_hurwitz,
    cot_profile_via_images,
    csc_profile_via_images,
    image_tail_bound,
    image_terms_needed,
    zeta4,
)
from cpwalls.potentials import _COMBINED_CONST, _PI3, _PI4, AtomResponse
from cpwalls.profiles import (
    COT_PROFILE,
    COT_PROFILE_DERIV,
    COT_SERIES_CONST,
    CSC_PROFILE,
    CSC_PROFILE_DERIV,
    CSC_SERIES_CONST,
    HALF_PI,
    PI,
    PI_LO,
    SERIES_LEADING,
    GuardPolicy,
    cot_profile,
    cot_profile_deriv,
    cot_profile_series,
    csc_profile,
    csc_profile_deriv,
    csc_profile_series,
    wall_distance,
)
from cpwalls.units import HBAR_C_J_M

mpmath.mp.dps = 50

_X = sp.symbols("x")
_COT_CLOSED = (2 * sp.cos(_X) ** 2 + 1) / (8 * sp.sin(_X) ** 4)
_CSC_CLOSED = sp.cos(_X) * (sp.cos(_X) ** 2 + 5) / (16 * sp.sin(_X) ** 4)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# ----------------------------------------------------------------------
# Symbolic proofs: closed forms, derivatives, series coefficients.
# ----------------------------------------------------------------------


def test_cot_closed_form_matches_defining_derivative():
    defining = -sp.diff(sp.cot(_X), _X, 3) / 16
    assert sp.simplify(defining - _COT_CLOSED) == 0


def test_csc_closed_form_matches_defining_derivative():
    defining = -sp.diff(sp.csc(_X), _X, 3) / 16
    assert sp.simplify(defining - _CSC_CLOSED) == 0


def test_closed_forms_match_image_sum_generators():
    # sum over integer-translated poles: sum_n (x+n*pi)^-2 = csc(x)^2 and
    # sum_n (-1)^n (x+n*pi)^-2 = csc(x)*cot(x); two more derivatives turn
    # the inverse squares into the inverse fourth powers of the image sums,
    # so (3/8)*sum_n (+-1)^n (x-n*pi)^-4 = (1/16) * (generator)''.
    assert sp.simplify(sp.diff(sp.csc(_X) ** 2, _X, 2) / 16 - _COT_CLOSED) == 0
    assert (
        sp.simplify(sp.diff(sp.csc(_X) * sp.cot(_X), _X, 2) / 16 - _CSC_CLOSED)
        == 0
    )


def test_derivative_closed_forms():
    cot_deriv = -sp.cos(_X) * (sp.cos(_X) ** 2 + 2) / (2 * sp.sin(_X) ** 5)
    csc_deriv = -(sp.cos(_X) ** 4 + 18 * sp.cos(_X) ** 2 + 5) / (
        16 * sp.sin(_X) ** 5
    )
    assert sp.simplify(sp.diff(_COT_CLOSED, _X) - cot_deriv) == 0
    assert sp.simplify(sp.diff(_CSC_CLOSED, _X) - csc_deriv) == 0


def test_near_wall_series_coefficients():
    ser = sp.series(_COT_CLOSED, _X, 0, 4).removeO()
    assert ser.coeff(_X, -4) == sp.Rational(3, 8)
    assert ser.coeff(_X, 0) == sp.Rational(1, 120)
    assert ser.coeff(_X, 2) == sp.Rational(1, 126)

    ser = sp.series(_CSC_CLOSED, _X, 0, 4).removeO()
    assert ser.coeff(_X, -4) == sp.Rational(3, 8)
    assert ser.coeff(_X, 0) == sp.Rational(-7, 960)
    assert ser.coeff(_X, 2) == sp.Rational(-31, 4032)


def test_far_wall_series_coefficients():
    # Reflection u = pi - x: the cot form repeats its near-wall expansion,
    # the csc form flips sign wholesale.
    u = sp.symbols("u", positive=True)
    far_cot = sp.series(_COT_CLOSED.subs(_X, sp.pi - u), u, 0, 2).removeO()
    assert far_cot.coeff(u, -4) == sp.Rational(3, 8)
    assert far_cot.coeff(u, 0) == sp.Rational(1, 120)

    far_csc = sp.series(_CSC_CLOSED.subs(_X, sp.pi - u), u, 0, 2).removeO()
    assert far_csc.coeff(u, -4) == sp.Rational(-3, 8)
    assert far_csc.coeff(u, 0) == sp.Rational(7, 960)


def test_exact_symmetries_symbolically():
    assert sp.simplify(_COT_CLOSED.subs(_X, sp.pi - _X) - _COT_CLOSED) == 0
    assert sp.simplify(_CSC_CLOSED.subs(_X, sp.pi - _X) + _CSC_CLOSED) == 0


# The production Forms against their definitions: -(1/16) d^3/dx^3 cot x
# or csc x, and the x-derivative of that.
_FORMS = {
    "COT_PROFILE": (COT_PROFILE, -sp.diff(sp.cot(_X), _X, 3) / 16),
    "CSC_PROFILE": (CSC_PROFILE, -sp.diff(sp.csc(_X), _X, 3) / 16),
    "COT_PROFILE_DERIV": (COT_PROFILE_DERIV, -sp.diff(sp.cot(_X), _X, 4) / 16),
    "CSC_PROFILE_DERIV": (CSC_PROFILE_DERIV, -sp.diff(sp.csc(_X), _X, 4) / 16),
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("name", sorted(_FORMS))
def test_production_forms_are_their_definitions(name, sign):
    """Form.closed and Form.series, as the evaluators call them, in sympy.

    At wall distance u, sign = +1 is the point x = u and sign = -1 the
    point x = pi - u. The closed form at (sin u, cos u) simplifies to the
    definition at x, its float literals taken as the rationals they are.
    Each series coefficient at u^-5, u^-4 and u^0 is the double of the
    exact Laurent coefficient of the definition about the wall.
    """
    form, defining = _FORMS[name]
    u = sp.symbols("u", positive=True)
    exact = defining.subs(_X, u if sign > 0 else sp.pi - u)
    closed = form.closed(sp.sin(u), sp.cos(u), sign, operator.pow)
    assert sp.simplify(sp.nsimplify(closed, rational=True) - exact) == 0
    series = sp.expand(form.series(u, sign, operator.pow))
    laurent = sp.series(exact, u, 0, 1).removeO()
    for k in (-5, -4, 0):
        assert float(series.coeff(u, k)) == float(laurent.coeff(u, k)), k


def _pi_ulps(x: float, n: int, roundings: float) -> float:
    """Ulps of x that an expression in PI**n may be off by.

    PI is pi less PI_LO, so PI**n carries n*PI_LO/pi of relative error,
    and each rounding on the way adds at most 2^-53 relative (libm's pow
    counts as two: it is within one ulp, not half of one).
    """
    return (n * PI_LO / PI + roundings * 2.0 ** -53) * abs(x) / math.ulp(x)


# name -> (production double, its exact value, the ulps it may be off by).
# A correctly rounded double is within 0.5 ulp; every literal here is one,
# and so are 2/(3*pi) (+0.47 ulp) and pi - PI (+0.12), although formed by
# an expression. Measured ulps at 60 digits are given for the others.
CONSTANTS = {
    "SERIES_LEADING": (SERIES_LEADING, lambda: mpmath.mpf(3) / 8, 0.5),
    "COT_SERIES_CONST": (COT_SERIES_CONST, lambda: mpmath.mpf(1) / 120, 0.5),
    "CSC_SERIES_CONST": (CSC_SERIES_CONST, lambda: mpmath.mpf(7) / 960, 0.5),
    "WALL_TABLE cc K": (
        WALL_TABLE[WallKind.CONDUCTOR_CONDUCTOR].diag_const,
        lambda: mpmath.mpf(1) / 120, 0.5),
    "WALL_TABLE cp K": (
        WALL_TABLE[WallKind.CONDUCTOR_PERMEABLE].diag_const,
        lambda: -mpmath.mpf(7) / 960, 0.5),
    "_COMBINED_CONST cc": (
        _COMBINED_CONST[WallKind.CONDUCTOR_CONDUCTOR], lambda: mpmath.mpf(1) / 360, 0.5),
    "_COMBINED_CONST cp": (
        _COMBINED_CONST[WallKind.CONDUCTOR_PERMEABLE], lambda: -mpmath.mpf(7) / 2880, 0.5),
    "_TENSOR_SCALE": (_TENSOR_SCALE, lambda: 2 / (3 * mpmath.pi), 0.5),
    "PI_LO": (PI_LO, lambda: mpmath.pi - mpmath.mpf(PI), 0.5),
    # PI ** 3 and PI ** 4: PI's own error and one pow; measured -1.12, -1.55
    "_PI3": (_PI3, lambda: mpmath.pi ** 3, _pi_ulps(_PI3, 3, 2)),
    "_PI4": (_PI4, lambda: mpmath.pi ** 4, _pi_ulps(_PI4, 4, 2)),
    # h / (2 * PI) * c, with h and c exact by SI definition: the literal h,
    # PI's error, a quotient and a product; measured +0.58
    "HBAR_C_J_M": (
        HBAR_C_J_M,
        lambda: mpmath.mpf("6.62607015e-34") * 299792458 / (2 * mpmath.pi),
        _pi_ulps(HBAR_C_J_M, 1, 3)),
}


@pytest.mark.parametrize("name", CONSTANTS)
def test_production_constants_are_their_exact_values(name):
    value, exact, ulps = CONSTANTS[name]
    with mpmath.workdps(60):
        off = (mpmath.mpf(value) - exact()) / math.ulp(value)
    assert abs(off) <= ulps, (name, float(off))


# The module docstrings' constants per kind: the one in V_E = -(alpha0*pi^3)/
# (3*a^4) * (3*p - K) and par, perp = pref*(p -+ K), and the one in V's
# (alpha0+beta0)*pi^3*C/a^4: 1/120 and 1/360 for "cc", -7/8 of each for "cp".
_DOCUMENTED_K = {
    WallKind.CONDUCTOR_CONDUCTOR: (sp.Rational(1, 120), sp.Rational(1, 360)),
    WallKind.CONDUCTOR_PERMEABLE: (-sp.Rational(7, 960), -sp.Rational(7, 2880)),
}


@pytest.mark.parametrize("kind", list(WallKind))
def test_production_potentials_and_tensor_are_their_documented_forms(monkeypatch, kind):
    """potentials._electric, _magnetic, _total, _force and correlators._par_perp in sympy.

    Symbols for alpha0, beta0, a and the profile value p and slope dp go
    through the production functions, in records built by tuple.__new__,
    with K, the combined constant, pi^3, pi^4, pi and 2/(3*pi) set to their
    exact values (test_production_constants_are_their_exact_values holds
    each double to its own). Each result, its float literals taken as the
    rationals they are, equals the documented expression. The force is
    also -dV/dz of the documented V at p = f(xi), with dxi/dz = pi/a, and
    V_E is -alpha0/2 times the trace of the EE tensor. tensor_prefactor
    checks that its value is a normal double, which needs a number: a = 2
    for the tensor.
    """
    alpha, beta, a = sp.symbols("alpha beta a", positive=True)
    p, dp, xi = sp.symbols("p dp xi", real=True)
    k, c = _DOCUMENTED_K[kind]
    monkeypatch.setitem(WALL_TABLE, kind, WALL_TABLE[kind]._replace(diag_const=k))
    monkeypatch.setitem(potentials._COMBINED_CONST, kind, c)
    monkeypatch.setattr(potentials, "_PI3", sp.pi ** 3)
    monkeypatch.setattr(potentials, "_PI4", sp.pi ** 4)
    monkeypatch.setattr(correlators, "PI", sp.pi)
    monkeypatch.setattr(correlators, "_TENSOR_SCALE", 2 / (3 * sp.pi))
    atom = tuple.__new__(AtomResponse, (alpha, beta))
    geom, geom2 = (tuple.__new__(Geometry, (kind, sep)) for sep in (a, 2))

    def same(got, want):
        return sp.simplify(sp.nsimplify(got, rational=True) - want) == 0

    v = -(alpha - beta) * sp.pi ** 3 / a ** 4 * p + (alpha + beta) * sp.pi ** 3 * c / a ** 4
    f = sp.Function("f")
    slope = sp.diff(v.subs(p, f(xi)), xi).subs(sp.Derivative(f(xi), xi), dp)
    assert same(potentials._electric(atom, geom, p),
                -(alpha * sp.pi ** 3) / (3 * a ** 4) * (3 * p - k))
    assert same(potentials._magnetic(atom, geom, p),
                (beta * sp.pi ** 3) / (3 * a ** 4) * (3 * p + k))
    assert same(potentials._total(atom, geom, p), v)
    assert same(potentials._force(atom, geom, dp), -slope * sp.pi / a)
    pref = (sp.pi / 2) ** 4 * 2 / (3 * sp.pi)
    par, perp = correlators._par_perp(geom2, p)
    assert same(par, pref * (p - k)) and same(perp, pref * (p + k))
    trace = correlators._trace(par, perp)
    assert same(potentials._electric(atom, geom2, p), -alpha / 2 * trace)


# ----------------------------------------------------------------------
# Exact and frozen spot values.
# ----------------------------------------------------------------------


def test_midplane_values_are_exact():
    assert cot_profile(HALF_PI) == 0.125
    assert abs(csc_profile(HALF_PI)) < 1e-14
    assert csc_profile_deriv(HALF_PI) == pytest.approx(-5.0 / 16.0, rel=1e-14)


def test_quarter_point_values():
    x = PI / 4.0
    assert cot_profile(x) == pytest.approx(1.0, rel=1e-14)
    assert cot_profile_deriv(x) == pytest.approx(-5.0, rel=1e-14)
    # 11*sqrt(2)/16
    assert csc_profile(x) == pytest.approx(0.9722718241315029, rel=1e-14)


def test_third_point_values():
    x = PI / 3.0
    assert cot_profile(x) == pytest.approx(1.0 / 3.0, rel=1e-14)
    # -17*sqrt(3)/24
    assert csc_profile_deriv(x) == pytest.approx(-1.2268693220279547, rel=1e-14)


# mpmath closed forms at the exact double inputs 0.3, 1.1, 2.8 (50 digits).
_FROZEN_COT = {0.3: 46.305366915180569, 1.1: 0.27968906932884768, 2.8: 27.551406494289501}
_FROZEN_CSC = {0.3: 46.288289842251640, 1.1: 0.23394703909083808, 2.8: -27.533880748136932}


@pytest.mark.parametrize("x,expected", sorted(_FROZEN_COT.items()))
def test_cot_profile_frozen_values(x, expected):
    assert cot_profile(x) == pytest.approx(expected, rel=5e-15)


@pytest.mark.parametrize("x,expected", sorted(_FROZEN_CSC.items()))
def test_csc_profile_frozen_values(x, expected):
    assert csc_profile(x) == pytest.approx(expected, rel=5e-15)


def test_derivative_frozen_values():
    assert cot_profile_deriv(1.1) == pytest.approx(-0.88981903559589258, rel=5e-15)
    assert csc_profile_deriv(1.1) == pytest.approx(-0.97226995995409882, rel=5e-15)


# ----------------------------------------------------------------------
# High-precision numerical oracles (mpmath / scipy).
# ----------------------------------------------------------------------


def _mp_cot_profile(x: float):
    xm = mpmath.mpf(x)
    return (2 * mpmath.cos(xm) ** 2 + 1) / (8 * mpmath.sin(xm) ** 4)


def _mp_csc_profile(x: float):
    xm = mpmath.mpf(x)
    return mpmath.cos(xm) * (mpmath.cos(xm) ** 2 + 5) / (16 * mpmath.sin(xm) ** 4)


def test_profiles_against_mpmath_sweep():
    # 41 points spanning both wall regions; the double-double reflection
    # should hold the relative error to a few ulp everywhere.
    for i in range(41):
        x = 0.02 + (PI - 0.04) * i / 40.0
        assert rel_err(cot_profile(x), float(_mp_cot_profile(x))) < 1e-13
        got = csc_profile(x)
        want = float(_mp_csc_profile(x))
        scale = max(abs(want), 1.0)
        assert abs(got - want) / scale < 1e-13


def test_image_sum_oracle_matches_closed_form():
    cfg = OracleConfig(image_terms=2000, target_abs_tol=1e-12)
    for x in (0.06, 0.5, 1.2, HALF_PI, 2.3, PI - 0.06):
        assert abs(cot_profile_via_images(x, cfg) - cot_profile(x)) < 1e-10
        assert abs(csc_profile_via_images(x, cfg) - csc_profile(x)) < 1e-10


def test_hurwitz_oracle_matches_closed_form():
    for x in (0.06, 0.5, 1.2, HALF_PI, 2.3, PI - 0.06):
        assert abs(cot_profile_via_hurwitz(x) - cot_profile(x)) < 1e-10


def test_zeta4_against_scipy_hurwitz_and_polygamma():
    for q in (0.03, 0.1, 0.5, 0.997, 1.0, 2.5, 17.0, 123.0):
        assert rel_err(zeta4(q), float(scipy.special.zeta(4, q))) < 1e-13
        # polygamma route: psi'''(q) = 6 * sum_k (q+k)^-4
        assert rel_err(zeta4(q), float(scipy.special.polygamma(3, q)) / 6.0) < 1e-13


def test_zeta4_closed_values():
    assert zeta4(1.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-14)
    assert zeta4(0.5) == pytest.approx(math.pi ** 4 / 6.0, rel=1e-14)
    assert zeta4(2.0) == pytest.approx(math.pi ** 4 / 90.0 - 1.0, rel=1e-13)


def test_zeta4_rejects_nonpositive():
    with pytest.raises(OutOfDomain):
        zeta4(0.0)
    with pytest.raises(OutOfDomain):
        zeta4(-1.0)


# ----------------------------------------------------------------------
# Tail bounds and truncation control.
# ----------------------------------------------------------------------


def _mp_dropped_tail(x: float, n_terms: int, alternating: bool):
    xm = mpmath.mpf(x)
    term = lambda n: abs(xm - n * mpmath.pi) ** -4
    right = mpmath.nsum(term, [n_terms + 1, mpmath.inf])
    left = mpmath.nsum(lambda n: term(-n), [n_terms + 1, mpmath.inf])
    # for the alternating sum the dropped tail is no larger in magnitude
    return float(mpmath.mpf(3) / 8 * (right + left))


@pytest.mark.parametrize("n_terms", [1, 2, 5, 20])
@pytest.mark.parametrize("x", [0.3, 1.5, 3.0])
def test_tail_bound_dominates_true_tail(x, n_terms):
    assert image_tail_bound(x, n_terms) >= _mp_dropped_tail(x, n_terms, False)


def test_image_terms_needed_is_minimal_and_sufficient():
    for x in (0.3, 1.5, 3.0):
        for tol in (1e-6, 1e-10, 1e-12):
            n = image_terms_needed(x, tol)
            assert image_tail_bound(x, n) <= tol
            if n > 1:
                assert image_tail_bound(x, n - 1) > tol


def test_insufficient_terms_raise_tail_bound_violated():
    cfg = OracleConfig(image_terms=1, target_abs_tol=1e-12)
    with pytest.raises(TailBoundViolated):
        cot_profile_via_images(0.3, cfg)
    with pytest.raises(TailBoundViolated):
        csc_profile_via_images(0.3, cfg)


def test_oracle_insensitive_to_extra_terms():
    x = 0.7
    lean = OracleConfig(image_terms=image_terms_needed(x, 1e-12), target_abs_tol=1e-12)
    fat = OracleConfig(image_terms=10_000, target_abs_tol=1e-12)
    assert abs(cot_profile_via_images(x, lean) - cot_profile_via_images(x, fat)) < 1e-11
    assert abs(csc_profile_via_images(x, lean) - csc_profile_via_images(x, fat)) < 1e-11


# ----------------------------------------------------------------------
# Domain and guard behavior.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.0, -0.5, PI, 4.0, math.nan, math.inf])
def test_out_of_domain_rejected(bad):
    for fn in (cot_profile, csc_profile, cot_profile_deriv, csc_profile_deriv):
        with pytest.raises(OutOfDomain):
            fn(bad)
    with pytest.raises(OutOfDomain):
        cot_profile_via_hurwitz(bad)


def test_guard_reject_raises_near_both_walls():
    guard = GuardPolicy(epsilon=1e-6, mode="reject")
    for x in (1e-7, PI - 1e-7):
        for fn in (cot_profile, csc_profile, cot_profile_deriv, csc_profile_deriv):
            with pytest.raises(TooCloseToWall):
                fn(x, guard)


def test_guard_asymptotic_substitutes_series():
    guard = GuardPolicy(epsilon=1e-6, mode="asymptotic")
    for x in (1e-7, PI - 1e-7):
        assert cot_profile(x, guard) == cot_profile_series(x)
        assert csc_profile(x, guard) == csc_profile_series(x)


def test_guard_band_is_strict():
    # just outside the band the closed form is used, and it agrees with the
    # series to ~u^6/47 relative, i.e. far below double precision here
    guard = GuardPolicy(epsilon=1e-6, mode="reject")
    x = 1.5e-6
    assert rel_err(cot_profile(x, guard), cot_profile_series(x)) < 1e-13


def test_guard_policy_validation():
    with pytest.raises(ValueError):
        GuardPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        GuardPolicy(epsilon=2.0)
    with pytest.raises(ValueError):
        GuardPolicy(mode="clamp")


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(image_terms=0)
    with pytest.raises(ValueError):
        OracleConfig(target_abs_tol=0.0)


def test_wall_distance():
    assert wall_distance(0.3) == 0.3
    assert wall_distance(HALF_PI) == HALF_PI
    # reflected distance carries the pi representation correction
    assert wall_distance(PI - 0.3) == pytest.approx(0.3, abs=1e-15)
    assert abs((PI - 0.3) + wall_distance(PI - 0.3) - (PI + PI_LO)) < 5e-16


# ----------------------------------------------------------------------
# Property-based checks.
# ----------------------------------------------------------------------

_INTERIOR = st.floats(min_value=0.02, max_value=PI - 0.02)


@settings(deadline=None)
@given(_INTERIOR)
def test_reflection_symmetry_property(x):
    assert rel_err(cot_profile(x), cot_profile(PI - x)) < 1e-12


@settings(deadline=None)
@given(_INTERIOR)
def test_antisymmetry_property(x):
    a, b = csc_profile(x), csc_profile(PI - x)
    # near the midplane both values cross zero; the natural scale there is
    # O(1), set by the slope -5/16
    assert abs(a + b) < 1e-12 * max(abs(a), abs(b), 1.0)


@settings(deadline=None)
@given(st.floats(min_value=1e-5, max_value=PI - 1e-5))
def test_cot_profile_positive_everywhere(x):
    assert cot_profile(x) > 0.0


@settings(deadline=None)
@given(st.floats(min_value=1e-5, max_value=PI - 1e-5))
def test_csc_profile_slope_negative_everywhere(x):
    assert csc_profile_deriv(x) < 0.0


@settings(deadline=None)
@given(st.floats(min_value=0.02, max_value=HALF_PI))
def test_profiles_bracket_each_other(x):
    # on the conducting-wall half the alternating sum is strictly smaller
    assert -cot_profile(x) < csc_profile(x) < cot_profile(x)


@settings(deadline=None)
@given(st.floats(min_value=1e-4, max_value=0.05))
def test_series_tracks_closed_form_near_wall(u):
    budget = u ** 6 / 40.0 + 1e-14
    assert rel_err(cot_profile_series(u), cot_profile(u)) < budget
    assert rel_err(csc_profile_series(u), csc_profile(u)) < budget
    assert rel_err(cot_profile_series(PI - u), cot_profile(PI - u)) < budget
    assert rel_err(csc_profile_series(PI - u), csc_profile(PI - u)) < budget


# The guard band's error as GuardPolicy and README state it: the series'
# relative error at wall distance u, to leading order and, to two digits,
# at u = 0.1, 0.5 and 1.0.
SERIES_ERROR = {
    "COT_PROFILE": (COT_PROFILE, 4 / 189, (2.1e-8, 3.6e-4, 2.9e-2)),
    "CSC_PROFILE": (CSC_PROFILE, 31 / 1512, (2.1e-8, 3.5e-4, 3.2e-2)),
    "COT_PROFILE_DERIV": (COT_PROFILE_DERIV, 2 / 189, (1.1e-8, 2.0e-4, 2.2e-2)),
    "CSC_PROFILE_DERIV": (CSC_PROFILE_DERIV, 31 / 3024, (1.0e-8, 1.9e-4, 2.1e-2)),
}


@pytest.mark.parametrize("name", SERIES_ERROR)
def test_the_guard_band_error_is_the_documented_one(name):
    """The series against the closed form in mpmath (proven above) at u.

    Within one ulp up to u = 4e-3, and no longer at 6e-3; the stated
    figures at 0.1, 0.5 and 1.0; the leading order to 1% at 0.03.
    """
    form, leading, figures = SERIES_ERROR[name]

    def error(u: float) -> tuple[float, float]:
        """(relative error, error in ulps) of the series at u."""
        exact = form.closed(mpmath.sin(u), mpmath.cos(u), 1.0, operator.pow)
        off = form.series(u, 1.0, operator.pow) - exact
        return float(abs(off / exact)), float(abs(off) / math.ulp(float(exact)))

    for u in (1e-3, 2e-3, 3e-3, 4e-3):
        assert error(u)[1] <= 1.0, u
    assert error(6e-3)[1] > 1.0
    assert rel_err(error(0.03)[0], leading * 0.03 ** 6) < 0.01
    for u, figure in zip((0.1, 0.5, 1.0), figures):
        assert float(f"{error(u)[0]:.2g}") == figure, u


@settings(deadline=None)
@given(st.floats(min_value=0.1, max_value=PI - 0.1))
def test_derivatives_match_finite_differences(x):
    h = 1e-6
    for fn, deriv in (
        (cot_profile, cot_profile_deriv),
        (csc_profile, csc_profile_deriv),
    ):
        fd = (fn(x + h) - fn(x - h)) / (2.0 * h)
        assert rel_err(fd, deriv(x)) < 1e-6


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.05, max_value=PI - 0.05))
def test_image_oracles_meet_target_property(x):
    cfg = OracleConfig(image_terms=image_terms_needed(x, 1e-11), target_abs_tol=1e-11)
    assert abs(cot_profile_via_images(x, cfg) - cot_profile(x)) < 1e-9
    assert abs(csc_profile_via_images(x, cfg) - csc_profile(x)) < 1e-9
