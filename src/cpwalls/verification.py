"""Self-verification: every cross-module invariant as a named check.

REQUIRED_CHECK_NAMES is the authoritative inventory. _CHECKS is one ordered
table of (names, check) rows; check(level) yields one (max_abs, max_rel,
tolerance, passed, points) tuple per name of its row. At import time the
table's names must equal REQUIRED_CHECK_NAMES in order, or the module raises
(an explicit raise, so it holds under python -O), and a check cannot
silently drop out of the suite. run_verification runs the rows in that
order, pairs each row's names with what its check yields (zip strict, so a
check that yields too few or too many results raises instead of being cut
short) and builds every CheckResult in that one place. A check passes iff
its measured error is at or below its tolerance (binary checks count
violations against a tolerance of zero); a check that finds its structural
condition broken reports max_rel = inf and fails. CheckResult and
VerificationReport are named tuples; CheckResult.__new__ turns NumPy
scalars into plain floats, bools and ints, and CheckResult.as_dict is _asdict.

Levels: "quick" samples about 10 positions per check (2 expansion scales
for the series checks) with relaxed oracle tolerances (1e-8); "full"
samples 20 to 200 positions per check (4 scales for the series checks, the
same 4 separations for single_wall_convergence), 120 of them for the
oracles at the certified 1e-10 budget. points_tested counts the positions
times the geometries, atoms, scales or tensors a check sweeps over.
The three oracle checks (cot_profile_vs_image_sum, cot_profile_vs_hurwitz,
csc_profile_vs_image_sum) are one row: it hands all of its points to one
image pass (oracles._image_pass), which gives both sums at each, and
evaluates cot_profile once per point, and they are still reported as three
checks. potential_additivity and potential_from_correlators are one row
too: it evaluates V, V_E and V_M once per (geometry, atom, z) for both.
So are potential_linearity and potential_scaling, which read one unscaled
V per (geometry, z).
Rows whose checks differ only in their arguments share one function: the
four series checks, the two finite-difference checks, the two reflection
checks and the two zero-pattern matrix checks (tensor_structure, eb_zero:
one walk, _check_matrices, over the builders it looks up when it runs).
Each production value a check reads is evaluated once per point: a value
that depends on the geometry and z only (a profile, <E^2>, <B^2>, an
unscaled potential, an a = 1 tensor) once per (geometry, z), however many
atoms, factors or scales the check then sweeps. Nothing is kept from one
run_verification call to the next. run_verification("full") takes about
11 ms in process (2-core Xeon, Python 3.11, NumPy 2.4), 2.4 ms of it in
the image pass.

The quick level loads no NumPy: its oracle points need fewer image pairs
than oracles._ARRAY_IMAGE_TERMS, so their image sums run in Python, and
the full level's run on arrays.

The relative checks compare by one of two rules. _agree takes (x, y,
floor) triples, two routes to one value, and measures |x - y| against
max(|x|, |y|, floor): potential_additivity, potential_linearity,
potential_scaling and cc_potential_reflection. _near takes (x, r) pairs, a
value and its reference, and measures |x - r| against |r|: the two
derivative_fd checks, trace_sum_constant, correlator_scaling,
cc_reflection_cp_asymmetry and force_fd_consistency. Two checks keep their
own denominators, which fit neither rule: the profile reflections
(cot_profile_reflection, csc_profile_antisymmetry) measure against
max(|fn(x)|, floor), and potential_from_correlators takes the larger of two
errors against one trace route.

The matrix checks (tensor_structure, eb_zero, correlator_scaling,
cc_reflection_cp_asymmetry) read each tensor's 3x3 matrix as
CorrelatorTensor._matrix builds it, nested lists of plain floats, without
NumPy: they never read par and perp, so a wrong matrix fails them even
where the stored components are right. They do not read
CorrelatorTensor.components, the NumPy array; the test suite pins
components.tolist() to _matrix bit for bit.

The near/far-wall series checks read the expansion constants through the
profiles module object on purpose: perturbing profiles.COT_SERIES_CONST (a
fault-injection exercise for the test harness) must make exactly those
checks fail, proving the suite can actually catch a miscopied constant.
The far-wall series checks measure the wall distance pi - x with pi's low
part from math.sin(math.pi), as the oracles do, not with profiles.PI_LO,
so a wrong PI_LO fails them at the full level.
Likewise potential_from_correlators holds its own copy of each geometry's
diagonal constant, so a perturbed correlators.WALL_TABLE entry fails it
together with potential_additivity.

The oracles themselves (the image sums, the Hurwitz route and their
OracleConfig) live in cpwalls.oracles, which shares no formula or constant
with profiles; this module imports from it only what _check_oracles calls.
So a verify run compiles two units, this table and the oracles, neither
larger than the largest module a table command compiles (cli).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import partial
from typing import NamedTuple

from . import profiles
from .analysis import limit_convergence_study
from .correlators import (
    Geometry,
    WallKind,
    correlator_bb,
    correlator_eb,
    correlator_ee,
    mean_square_b,
    mean_square_e,
)
from .oracles import OracleConfig, _image_pass, cot_profile_via_hurwitz, image_terms_needed
from .potentials import (
    AtomResponse,
    force,
    potential_electric,
    potential_magnetic,
    potential_total,
)
from .profiles import (
    PI,
    cot_profile,
    cot_profile_deriv,
    csc_profile,
    csc_profile_deriv,
)

_CC = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0)
_CP = Geometry(WallKind.CONDUCTOR_PERMEABLE, 1.0)
_GEOMETRIES = (_CC, _CP)
# Second transcription of each geometry's diagonal constant K, from the closed
# forms in the potentials docstring (V_E carries 3p - K, V_M carries 3p + K).
# correlators.WALL_TABLE holds the production copy.
_DIAG_CONST = {
    WallKind.CONDUCTOR_CONDUCTOR: 1.0 / 120.0,
    WallKind.CONDUCTOR_PERMEABLE: -7.0 / 960.0,
}
# Binary-exact polarizabilities keep the algebraic identities at the few-ulp
# level instead of hiding them under input rounding.
_ATOMS = (
    AtomResponse(1.0, 0.0),
    AtomResponse(0.0, 1.0),
    AtomResponse(1.0, 0.25),
    AtomResponse(0.5, 2.0),
)


class CheckResult(
    namedtuple(
        "CheckResult",
        "name max_abs_error max_rel_error tolerance passed points_tested",
    )
):
    __slots__ = ()

    def __new__(
        cls,
        name: str,
        max_abs_error: float,
        max_rel_error: float,
        tolerance: float,
        passed: bool,
        points_tested: int,
    ):
        # normalize numpy scalars leaking in from grid arithmetic, so the
        # serializers see plain Python types
        return tuple.__new__(cls, (
            name,
            float(max_abs_error),
            float(max_rel_error),
            float(tolerance),
            bool(passed),
            int(points_tested),
        ))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace normalizes

    def as_dict(self) -> dict:
        return self._asdict()


class VerificationReport(NamedTuple):
    level: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


REQUIRED_CHECK_NAMES = (
    "cot_profile_vs_image_sum",
    "cot_profile_vs_hurwitz",
    "csc_profile_vs_image_sum",
    "cot_profile_reflection",
    "csc_profile_antisymmetry",
    "near_wall_series_cot",
    "near_wall_series_csc",
    "far_wall_series_cot",
    "far_wall_series_csc",
    "cot_profile_derivative_fd",
    "csc_profile_derivative_fd",
    "cot_profile_positive",
    "tensor_structure",
    "eb_zero",
    "trace_sum_constant",
    "correlator_scaling",
    "cc_reflection_cp_asymmetry",
    "potential_additivity",
    "potential_from_correlators",
    "potential_linearity",
    "potential_scaling",
    "cc_potential_reflection",
    "single_wall_convergence",
    "force_fd_consistency",
)


def _grid(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _abs_result(diffs, refs, tol, points):
    """Pass/fail on max absolute error; relative column is informational."""
    max_abs = max(diffs)
    max_rel = max(d / abs(r) for d, r in zip(diffs, refs))
    return max_abs, max_rel, tol, max_abs <= tol, points


def _rel_result(diffs, denoms, tol, broken=False):
    """Pass/fail on max relative error; denominators supplied by the check.

    points is the number of diffs. broken=True (a structural condition the
    check also tests does not hold) reports max_rel = inf, which fails the
    check.
    """
    max_abs = max(diffs)
    max_rel = math.inf if broken else max(
        (d / dn if dn > 0.0 else (0.0 if d == 0.0 else math.inf))
        for d, dn in zip(diffs, denoms)
    )
    return max_abs, max_rel, tol, max_rel <= tol, len(diffs)


def _agree(triples, tol):
    """Two routes to one value: |x - y| / max(|x|, |y|, floor) per (x, y, floor)."""
    diffs = [abs(x - y) for x, y, _ in triples]
    return _rel_result(diffs, [max(abs(x), abs(y), fl) for x, y, fl in triples], tol)


def _near(pairs, tol, broken=False):
    """A value against its reference: |x - r| / |r| per (x, r)."""
    diffs = [abs(x - r) for x, r in pairs]
    return _rel_result(diffs, [abs(r) for _, r in pairs], tol, broken)


def _count_result(violations, worst, points):
    """Binary check: passes iff no violations; worst is informational."""
    return violations, worst, 0.0, violations == 0, points


def _check_oracles(level: str):
    """cot and csc against the image sums, and cot against the Hurwitz route.

    One image pass over all points gives both sums at each, and one
    cot_profile value per point serves all three checks.
    """
    n, target, tol = (10, 1e-10, 1e-8) if level == "quick" else (120, 1e-12, 1e-10)
    cot_diffs, hurwitz_diffs, csc_diffs, refs = [], [], [], []
    xs = _grid(0.05, PI - 0.05, n)
    images = _image_pass([(x, OracleConfig(image_terms_needed(x, target), target)) for x in xs])
    for x, (cot_images, csc_images) in zip(xs, images):
        val = cot_profile(x)
        cot_diffs.append(abs(val - cot_images))
        hurwitz_diffs.append(abs(val - cot_profile_via_hurwitz(x)))
        csc_diffs.append(abs(csc_profile(x) - csc_images))
        refs.append(val)  # csc profile crosses zero; scale all three by cot
    yield _abs_result(cot_diffs, refs, tol, n)
    yield _abs_result(hurwitz_diffs, refs, tol, n)
    yield _abs_result(csc_diffs, refs, tol, n)


def _check_reflection(fn, parity, floor, level: str):
    """fn(x) against parity * fn(pi - x), relative to max(|fn(x)|, floor)."""
    n = 10 if level == "quick" else 100
    pairs = [(fn(x), fn(PI - x)) for x in _grid(0.02, 1.55, n)]
    diffs = [abs(y - parity * mirror) for y, mirror in pairs]
    yield _rel_result(diffs, [max(abs(y), floor) for y, _ in pairs], 1e-12)


def _series_ratio_spread(values: list[float]) -> float:
    """Spread of the fitted O(u^2) coefficient across scales, as a ratio."""
    mean = math.fsum(values) / len(values)
    if mean == 0.0:
        return math.inf
    return (max(values) - min(values)) / abs(mean)


def _series_scales(level: str) -> list[float]:
    return [0.1, 0.05] if level == "quick" else [0.1, 0.05, 0.025, 0.0125]


def _series_check(fn, far, sign, const, level: str):
    """Fit (fn - sign*(3/8)*w^-4 - const())/w^2 at shrinking wall distances w.

    far=True expands about xi = pi instead of xi = 0, where w = (pi - x)
    takes pi's low part from sin(pi), as the oracles do, so a wrong
    profiles.PI_LO fails the far-wall checks. const() reads the expansion
    constant through the profiles module at call time, so a perturbed
    profiles constant shows up here.
    """
    us = _series_scales(level)
    cs = []
    for u in us:
        x = PI - u if far else u
        w = (PI - x) + math.sin(math.pi) if far else x
        cs.append(
            (fn(x) - sign * profiles.SERIES_LEADING * w ** -4 - const()) / w ** 2
        )
    spread = _series_ratio_spread(cs)
    yield spread, spread, 0.05, spread <= 0.05, len(us)


def _check_derivative_fd(fn, deriv, seed, level: str):
    rng = random.Random(seed)
    xs = [rng.uniform(0.1, PI - 0.1) for _ in range(10 if level == "quick" else 50)]
    h = 1e-6
    yield _near([((fn(x + h) - fn(x - h)) / (2.0 * h), deriv(x)) for x in xs], 1e-7)


def _check_cot_positive(level: str):
    n = 10 if level == "quick" else 200
    values = [cot_profile(x) for x in _grid(0.01, PI - 0.01, n)]
    yield _count_result(sum(1 for v in values if v <= 0.0), min(values), n)


def _check_matrices(builds, lo, hi, deviations, level: str):
    """Count the nonzero deviations(t) of each built 3x3 matrix t.

    builds() gives the tensor builders, looked up at call time, and each
    runs on both geometries at n points of [lo, hi]. deviations(t) lists
    what must vanish exactly in the matrix t, as plain floats; the worst
    of them is reported.
    """
    n = 10 if level == "quick" else 40
    matrices = [
        build(geom, z)._matrix()
        for geom in _GEOMETRIES for z in _grid(lo, hi, n) for build in builds()
    ]
    devs = [d for t in matrices for d in deviations(t)]
    yield _count_result(sum(d != 0.0 for d in devs), max(0.0, *devs), len(matrices))


def _tensor_deviations(t):
    """The off-diagonal, xx - yy and t - t.T magnitudes of an EE or BB matrix."""
    (xx, xy, xz), (yx, yy, yz), (zx, zy, _) = t
    # t - t.T is zero on the diagonal: its upper triangle is enough
    return (max(abs(xy), abs(xz), abs(yx), abs(yz), abs(zx), abs(zy)), abs(xx - yy),
            max(abs(xy - yx), abs(xz - zx), abs(yz - zy)))


def _check_trace_sum(level: str):
    # The cancellation 3*p - 3*p leaves the trace sum ~1e4 times smaller than
    # either trace near the walls, so the 1e-12 relative claim is tested on
    # [0.2a, 0.8a] where both traces stay O(10) times the sum.
    n = 10 if level == "quick" else 100
    pairs, wrong_sign = [], False
    for geom, expected_sign in ((_CC, -1.0), (_CP, 1.0)):
        a = geom.separation_a
        sums = [
            mean_square_e(geom, z) + mean_square_b(geom, z)
            for z in _grid(0.2 * a, 0.8 * a, n)
        ]
        wrong_sign = wrong_sign or sums[0] * expected_sign <= 0.0
        pairs += [(s, sums[0]) for s in sums]
    yield _near(pairs, 1e-12, broken=wrong_sign)


def _check_correlator_scaling(level: str):
    fracs = [0.3, 0.5, 0.77] if level == "quick" else _grid(0.1, 0.9, 20)
    scales, pairs = (2.0, 3.0, 10.0), []
    for kind in WallKind:
        base, scaled = Geometry(kind, 1.0), [Geometry(kind, s) for s in scales]
        for frac in fracs:
            for build in (correlator_ee, correlator_bb):
                t1 = build(base, frac)._matrix()
                for s, geom in zip(scales, scaled):
                    t2 = build(geom, s * frac)._matrix()
                    pairs += [(t2[i][i] * s ** 4, t1[i][i]) for i in range(3)]
    yield _near(pairs, 1e-12)


def _check_reflection_asymmetry(level: str):
    n = 10 if level == "quick" else 50
    pairs = []
    for z in _grid(0.05, 0.45, n):
        for build in (correlator_ee, correlator_bb):
            t1 = build(_CC, z)._matrix()
            t2 = build(_CC, 1.0 - z)._matrix()
            pairs += [(t2[i][i], t1[i][i]) for i in range(3)]
    # The conductor-permeable tensors must NOT be reflection symmetric.
    zz_quarter = correlator_ee(_CP, 0.25)._matrix()[2][2]
    zz_three_quarter = correlator_ee(_CP, 0.75)._matrix()[2][2]
    scale = abs(zz_quarter) + abs(zz_three_quarter)
    symmetric = abs(zz_quarter - zz_three_quarter) <= 1e-3 * scale
    yield _near(pairs, 1e-12, broken=symmetric)


def _potential_floor(atom: AtomResponse, a: float) -> float:
    """Natural magnitude of the constant part of V: (|a0|+|b0|)*pi^3/(360 a^4)."""
    return (abs(atom.alpha0) + abs(atom.beta0)) * PI ** 3 / (360.0 * a ** 4)


def _check_potentials(level: str):
    """potential_additivity and potential_from_correlators, one value of each
    potential per (geometry, atom, z).

    Additivity compares V with V_E + V_M. From correlators, there are three
    routes per part: the closed form in potentials, -alpha0/2 * <E^2> from
    the correlator trace, and the closed form as documented, with this
    module's own copy of K. The first two share correlators.WALL_TABLE, so
    only the third catches a wrong constant there.
    """
    zs = _grid(0.05, 0.95, 10 if level == "quick" else 50)
    triples, diffs, denoms = [], [], []
    for geom in _GEOMETRIES:
        k = _DIAG_CONST[geom.kind]
        a4 = geom.separation_a ** 4
        # the values that depend on (geometry, z) only
        at_z = [(z, geom.profile(z), mean_square_e(geom, z), mean_square_b(geom, z))
                for z in zs]
        for atom in _ATOMS:
            # factors that depend on the atom and a only
            floor = _potential_floor(atom, geom.separation_a)
            scale_e = -(atom.alpha0 * PI ** 3 / (3.0 * a4))
            scale_m = atom.beta0 * PI ** 3 / (3.0 * a4)
            floor_e = abs(atom.alpha0) * PI ** 3 / (360.0 * a4)
            floor_m = abs(atom.beta0) * PI ** 3 / (360.0 * a4)
            for z, p, e2, b2 in at_z:
                ve = potential_electric(atom, geom, z)
                vm = potential_magnetic(atom, geom, z)
                triples.append((potential_total(atom, geom, z), ve + vm, floor))
                for x, doc, y, fl in (
                    (ve, scale_e * (3.0 * p - k), -0.5 * atom.alpha0 * e2, floor_e),
                    (vm, scale_m * (3.0 * p + k), -0.5 * atom.beta0 * b2, floor_m),
                ):
                    diffs.append(max(abs(x - y), abs(doc - y)))
                    denoms.append(max(abs(x), abs(y), fl))
    yield _agree(triples, 1e-12)
    yield _rel_result(diffs, denoms, 1e-12)


def _check_linearity_and_scaling(level: str):
    """potential_linearity and potential_scaling, from one unscaled
    potential_total per (geometry, z): c*V(atom) against V(c*atom), and V at
    a = 1 against s^4 * V at a = s and s*z."""
    zs = _grid(0.05, 0.95, 10 if level == "quick" else 25)
    atom = AtomResponse(1.0, 0.25)
    unscaled = {(geom, z): potential_total(atom, geom, z) for geom in _GEOMETRIES for z in zs}
    yield _agree([
        (c * unscaled[geom, z],
         potential_total(AtomResponse(c * atom.alpha0, c * atom.beta0), geom, z),
         c * _potential_floor(atom, geom.separation_a))
        for geom in _GEOMETRIES for c in (2.0, 3.0, 10.0, 0.5) for z in zs
    ], 1e-15)
    floor = _potential_floor(atom, 1.0)
    yield _agree([
        (unscaled[base, z],
         s ** 4 * potential_total(atom, Geometry(base.kind, s), s * z), floor)
        for base in _GEOMETRIES for s in (2.0, 3.0, 10.0, 0.5) for z in zs
    ], 1e-12)


def _check_cc_potential_reflection(level: str):
    zs = _grid(0.05, 0.45, 10 if level == "quick" else 50)
    triples = []
    for atom in _ATOMS:
        floor = _potential_floor(atom, 1.0)
        triples += [
            (potential_total(atom, _CC, z), potential_total(atom, _CC, 1.0 - z), floor)
            for z in zs
        ]
        # Conductor-permeable anti-pattern: subtracting the constant part
        # leaves the profile term p, which must be odd about the midplane:
        # p(z) against -p(1 - z).
        const = -7.0 / 8.0 * (atom.alpha0 + atom.beta0) * PI ** 3 / 360.0
        triples += [(
            potential_total(atom, _CP, z) - const,
            -(potential_total(atom, _CP, 1.0 - z) - const),
            floor,
        ) for z in zs]
    yield _agree(triples, 1e-12)


def _check_single_wall(level: str):
    a_values = [20.0, 40.0, 80.0, 160.0]
    atom = AtomResponse(1.0, 0.0)
    violations, worst = 0, 0.0
    for wall_type in ("conducting", "permeable"):
        study = limit_convergence_study(atom, wall_type, 1.0, a_values)
        errs = [row.rel_error for row in study.rows]
        violations += sum(1 for e1, e2 in zip(errs, errs[1:]) if e2 >= e1)
        exponent = study.convergence_exponent()
        if not 3.5 <= exponent <= 4.5:
            violations += 1
        worst = max(worst, errs[-1])
    yield _count_result(violations, worst, 2 * len(a_values))


def _check_force_fd(level: str):
    n = 10 if level == "quick" else 100
    rng = random.Random(90125)
    pairs = []
    atom = AtomResponse(1.0, 0.25)
    for geom in _GEOMETRIES:
        a = geom.separation_a
        h = 1e-6 * a
        for z in [rng.uniform(0.05 * a, 0.95 * a) for _ in range(n)]:
            fd = -(
                potential_total(atom, geom, z + h)
                - potential_total(atom, geom, z - h)
            ) / (2.0 * h)
            pairs.append((fd, force(atom, geom, z)))
    yield _near(pairs, 1e-6)


# (names, check) in REQUIRED_CHECK_NAMES order; check(level) yields one
# result tuple per name. Far from xi = 0 the csc expansion flips sign
# wholesale: -(3/8)w^-4 + 7/960.
_CHECKS = (
    (("cot_profile_vs_image_sum", "cot_profile_vs_hurwitz",
      "csc_profile_vs_image_sum"), _check_oracles),
    (("cot_profile_reflection",), partial(_check_reflection, cot_profile, 1.0, 0.0)),
    (("csc_profile_antisymmetry",),
     partial(_check_reflection, csc_profile, -1.0, 1.0)),
    (("near_wall_series_cot",), partial(
        _series_check, cot_profile, False, 1.0, lambda: profiles.COT_SERIES_CONST)),
    (("near_wall_series_csc",), partial(
        _series_check, csc_profile, False, 1.0, lambda: -profiles.CSC_SERIES_CONST)),
    (("far_wall_series_cot",), partial(
        _series_check, cot_profile, True, 1.0, lambda: profiles.COT_SERIES_CONST)),
    (("far_wall_series_csc",), partial(
        _series_check, csc_profile, True, -1.0, lambda: profiles.CSC_SERIES_CONST)),
    (("cot_profile_derivative_fd",),
     partial(_check_derivative_fd, cot_profile, cot_profile_deriv, 1297)),
    (("csc_profile_derivative_fd",),
     partial(_check_derivative_fd, csc_profile, csc_profile_deriv, 4021)),
    (("cot_profile_positive",), _check_cot_positive),
    (("tensor_structure",), partial(_check_matrices, lambda: (correlator_ee, correlator_bb),
                                    0.1, 0.9, _tensor_deviations)),
    (("eb_zero",), partial(_check_matrices, lambda: (correlator_eb,), 0.05, 0.95,
                           lambda t: (max(abs(x) for row in t for x in row),))),
    (("trace_sum_constant",), _check_trace_sum),
    (("correlator_scaling",), _check_correlator_scaling),
    (("cc_reflection_cp_asymmetry",), _check_reflection_asymmetry),
    (("potential_additivity", "potential_from_correlators"), _check_potentials),
    (("potential_linearity", "potential_scaling"), _check_linearity_and_scaling),
    (("cc_potential_reflection",), _check_cc_potential_reflection),
    (("single_wall_convergence",), _check_single_wall),
    (("force_fd_consistency",), _check_force_fd),
)
_table_names = tuple(name for names, _ in _CHECKS for name in names)
if _table_names != REQUIRED_CHECK_NAMES:
    raise AssertionError(
        f"verification table {_table_names} differs from REQUIRED_CHECK_NAMES"
    )


def run_verification(level: str = "quick") -> VerificationReport:
    """Run every check of the table at the given level ("quick" or "full")."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    checks = [
        CheckResult(name, *result)
        for names, check in _CHECKS
        for name, result in zip(names, check(level), strict=True)
    ]
    return VerificationReport(level=level, checks=checks)
