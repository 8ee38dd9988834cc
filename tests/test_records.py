"""The contract of the twelve public records, as callers see it.

Every expected value here (repr strings, error classes and messages, key
order) was recorded from the records as they were when they were still
dataclasses, so these tests pin what the change to named tuples kept. What
it changed on purpose is tested as such: no field may be reassigned on any
record, and two inputs that used to fail later with a bare KeyError or
TypeError are refused at construction. The last tests cover what named
tuples add: iteration, equality with the plain tuple of the fields,
_asdict, and a _replace that checks its fields as construction does.
"""

import copy
import math
import pickle
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from cpwalls.analysis import (
    LimitRow,
    LimitStudy,
    PotentialCurve,
    SweepSpec,
)
from cpwalls.correlators import CorrelatorTensor, Geometry, WallKind
from cpwalls.errors import (
    ConfigError,
    InvalidGrid,
    NegativePolarizabilityWarning,
    OutOfDomain,
)
from cpwalls.potentials import AtomResponse, PotentialSample
from cpwalls.profiles import GuardPolicy, OracleConfig
from cpwalls.verification import CheckResult, VerificationReport

CC = WallKind.CONDUCTOR_CONDUCTOR
GEOM = Geometry(CC, 2.0)
ATOM = AtomResponse(1.0, 0.0)
CHECK = CheckResult("x", 1, 2, 3, 1, 7.0)

# name -> (a factory building one record, its fields in order, its repr)
RECORDS = {
    "GuardPolicy": (
        lambda: GuardPolicy(1e-3, "asymptotic"),
        ("epsilon", "mode"),
        "GuardPolicy(epsilon=0.001, mode='asymptotic')",
    ),
    "OracleConfig": (
        lambda: OracleConfig(10, 1e-3),
        ("image_terms", "target_abs_tol"),
        "OracleConfig(image_terms=10, target_abs_tol=0.001)",
    ),
    "Geometry": (
        lambda: Geometry(CC, 2.0),
        ("kind", "separation_a"),
        "Geometry(kind=<WallKind.CONDUCTOR_CONDUCTOR: 'cc'>, separation_a=2.0)",
    ),
    "CorrelatorTensor": (
        lambda: CorrelatorTensor(1.0, 2.0, "EE"),
        ("par", "perp", "field_pair"),
        "CorrelatorTensor(par=1.0, perp=2.0, field_pair='EE')",
    ),
    "AtomResponse": (
        lambda: AtomResponse(1.0, 0.25),
        ("alpha0", "beta0"),
        "AtomResponse(alpha0=1.0, beta0=0.25)",
    ),
    "PotentialSample": (
        lambda: PotentialSample(0.5, -1.0, 2.0, "exact"),
        ("z", "V", "force_z", "regime"),
        "PotentialSample(z=0.5, V=-1.0, force_z=2.0, regime='exact')",
    ),
    "SweepSpec": (
        lambda: SweepSpec(GEOM, ATOM, [0.5, 1.0]),
        ("geometry", "atom", "z_grid", "quantities", "guard",
         "include_limit_reference"),
        "SweepSpec(geometry=Geometry(kind=<WallKind.CONDUCTOR_CONDUCTOR: 'cc'>,"
        " separation_a=2.0), atom=AtomResponse(alpha0=1.0, beta0=0.0),"
        " z_grid=(0.5, 1.0), quantities=('V', 'V_E', 'V_M', 'force'),"
        " guard=GuardPolicy(epsilon=1e-06, mode='reject'),"
        " include_limit_reference=False)",
    ),
    "PotentialCurve": (
        lambda: PotentialCurve(("z", "V"), [(0.5, 1.0)]),
        ("columns", "rows"),
        "PotentialCurve(columns=('z', 'V'), rows=[(0.5, 1.0)])",
    ),
    "LimitRow": (
        lambda: LimitRow(1.0, 2.0, 3.0, None),
        ("a", "v_exact", "v_limit", "rel_error"),
        "LimitRow(a=1.0, v_exact=2.0, v_limit=3.0, rel_error=None)",
    ),
    "LimitStudy": (
        lambda: LimitStudy("conducting", 0.5, [LimitRow(1.0, 2.0, 3.0, 0.5)], False),
        ("wall_type", "wall_distance", "rows", "degenerate"),
        "LimitStudy(wall_type='conducting', wall_distance=0.5, rows=[LimitRow(a=1.0,"
        " v_exact=2.0, v_limit=3.0, rel_error=0.5)], degenerate=False)",
    ),
    "CheckResult": (
        lambda: CheckResult("x", 1, 2, 3, 1, 7.0),
        ("name", "max_abs_error", "max_rel_error", "tolerance", "passed",
         "points_tested"),
        "CheckResult(name='x', max_abs_error=1.0, max_rel_error=2.0,"
        " tolerance=3.0, passed=True, points_tested=7)",
    ),
    "VerificationReport": (
        lambda: VerificationReport("quick", [CHECK]),
        ("level", "checks"),
        "VerificationReport(level='quick', checks=[CheckResult(name='x',"
        " max_abs_error=1.0, max_rel_error=2.0, tolerance=3.0, passed=True,"
        " points_tested=7)])",
    ),
}
# Records holding a list: unhashable, as they were.
UNHASHABLE = {"PotentialCurve", "LimitStudy", "VerificationReport"}


def test_twelve_records():
    assert len(RECORDS) == 12


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text
    assert type(make()).__name__ == name


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash(name):
    make, fields, _ = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b
    values = tuple(getattr(a, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)


@pytest.mark.parametrize(
    "one, other",
    [
        (lambda: GuardPolicy(1e-3), lambda: GuardPolicy(2e-3)),
        (lambda: OracleConfig(10), lambda: OracleConfig(11)),
        (lambda: Geometry(CC, 2.0), lambda: Geometry(WallKind.CONDUCTOR_PERMEABLE, 2.0)),
        (lambda: CorrelatorTensor(1.0, 2.0, "EE"), lambda: CorrelatorTensor(1.0, 2.0, "BB")),
        (lambda: AtomResponse(1.0, 0.0), lambda: AtomResponse(1.0, 0.5)),
        (lambda: PotentialSample(0.5, -1.0, 2.0, "exact"),
         lambda: PotentialSample(0.5, -1.0, 2.0, "asymptotic")),
        (lambda: SweepSpec(GEOM, ATOM, [0.5]), lambda: SweepSpec(GEOM, ATOM, [0.6])),
        (lambda: PotentialCurve(("z",)), lambda: PotentialCurve(("V",))),
        (lambda: LimitRow(1.0, 2.0, 3.0, None), lambda: LimitRow(1.0, 2.0, 3.0, 0.0)),
        (lambda: LimitStudy("conducting", 0.5, [], False),
         lambda: LimitStudy("conducting", 0.5, [], True)),
        (lambda: CheckResult("x", 1, 2, 3, 1, 7), lambda: CheckResult("y", 1, 2, 3, 1, 7)),
        (lambda: VerificationReport("quick", []), lambda: VerificationReport("full", [])),
    ],
)
def test_one_field_apart_is_unequal(one, other):
    assert one() != other() and not one() == other()


def test_positional_keyword_and_default_construction():
    assert GuardPolicy() == GuardPolicy(1e-6, "reject") == GuardPolicy(
        mode="reject", epsilon=1e-6
    )
    assert GuardPolicy(1e-3) == GuardPolicy(epsilon=1e-3, mode="reject")
    assert OracleConfig() == OracleConfig(1500, 1e-12) == OracleConfig(
        target_abs_tol=1e-12, image_terms=1500
    )
    assert Geometry(CC, 2.0) == Geometry(separation_a=2.0, kind=CC)
    assert CorrelatorTensor(1.0, 2.0, "BB") == CorrelatorTensor(
        field_pair="BB", perp=2.0, par=1.0
    )
    assert AtomResponse(1.0, 0.5) == AtomResponse(beta0=0.5, alpha0=1.0)
    assert PotentialSample(0.5, -1.0, 2.0, "exact") == PotentialSample(
        regime="exact", force_z=2.0, V=-1.0, z=0.5
    )
    spec = SweepSpec(GEOM, ATOM, (0.5, 1.0))
    assert spec == SweepSpec(
        geometry=GEOM, atom=ATOM, z_grid=(0.5, 1.0),
        quantities=("V", "V_E", "V_M", "force"), guard=GuardPolicy(),
        include_limit_reference=False,
    )
    assert spec == SweepSpec(
        GEOM, ATOM, (0.5, 1.0), ("V", "V_E", "V_M", "force"), GuardPolicy(), False
    )
    assert SweepSpec.from_range(GEOM, ATOM, 0.5, 1.0, 2) == spec
    ranged = SweepSpec.from_range(GEOM, ATOM, 0.5, 1.0, 3, quantities=("V",),
                                  include_limit_reference=True)
    assert ranged.z_grid == (0.5, 0.75, 1.0)
    assert ranged.quantities == ("V",) and ranged.include_limit_reference is True
    assert PotentialCurve(("z",)) == PotentialCurve(columns=("z",), rows=[])
    assert repr(PotentialCurve(("z",))) == "PotentialCurve(columns=('z',), rows=[])"
    # each default rows list is a fresh one
    assert PotentialCurve(("z",)).rows is not PotentialCurve(("z",)).rows
    assert LimitRow(1.0, 2.0, 3.0, None) == LimitRow(
        rel_error=None, v_limit=3.0, v_exact=2.0, a=1.0
    )
    assert LimitStudy("permeable", 0.5, [], True) == LimitStudy(
        degenerate=True, rows=[], wall_distance=0.5, wall_type="permeable"
    )
    assert CHECK == CheckResult(
        points_tested=7, passed=True, tolerance=3.0, max_rel_error=2.0,
        max_abs_error=1.0, name="x",
    )
    assert VerificationReport("quick", [CHECK]) == VerificationReport(
        checks=[CHECK], level="quick"
    )


def test_normalized_fields():
    spec = SweepSpec(GEOM, ATOM, np.array([0.5, 1.0]))
    assert spec.z_grid == (0.5, 1.0)
    assert [type(z) for z in spec.z_grid] == [float, float]
    check = CheckResult(
        "x", np.float64(0.5), np.float32(0.25), np.float64(1.0), np.bool_(True),
        np.int64(7),
    )
    assert [type(v) for v in (check.max_abs_error, check.max_rel_error,
                              check.tolerance, check.passed,
                              check.points_tested)] == [float, float, float, bool, int]
    assert repr(check) == (
        "CheckResult(name='x', max_abs_error=0.5, max_rel_error=0.25,"
        " tolerance=1.0, passed=True, points_tested=7)"
    )


INF, NAN = math.inf, math.nan
REFUSALS = [
    (lambda: GuardPolicy(0.0), ValueError, "guard epsilon must be positive and finite"),
    (lambda: GuardPolicy(-1e-6), ValueError, "guard epsilon must be positive and finite"),
    (lambda: GuardPolicy(INF), ValueError, "guard epsilon must be positive and finite"),
    (lambda: GuardPolicy(NAN), ValueError, "guard epsilon must be positive and finite"),
    (lambda: GuardPolicy(2.0), ValueError, "guard epsilon must be smaller than pi/2"),
    (lambda: GuardPolicy(1e-6, "exact"), ValueError, "unknown guard mode 'exact'"),
    # a field that is not a number is refused by the check that guards it
    (lambda: GuardPolicy("1e-3"), ValueError, "guard epsilon must be a number"),
    (lambda: OracleConfig(0), ValueError, "image_terms must be a positive integer"),
    (lambda: OracleConfig(-3), ValueError, "image_terms must be a positive integer"),
    # the exact image-sum extraction holds for N below 2**25 only
    (lambda: OracleConfig(2**25), ValueError,
     "image_terms must be below 2**25, got 33554432"),
    (lambda: OracleConfig(10, 0.0), ValueError, "target_abs_tol must be positive and finite"),
    (lambda: OracleConfig(10, INF), ValueError, "target_abs_tol must be positive and finite"),
    (lambda: OracleConfig(10, NAN), ValueError, "target_abs_tol must be positive and finite"),
    (lambda: OracleConfig(5, "1e-3"), ValueError, "target_abs_tol must be a number"),
    (lambda: Geometry(CC, 0.0), OutOfDomain,
     "separation_a must be positive and finite, got 0.0"),
    (lambda: Geometry(CC, -1.0), OutOfDomain,
     "separation_a must be positive and finite, got -1.0"),
    (lambda: Geometry(CC, INF), OutOfDomain,
     "separation_a must be positive and finite, got inf"),
    (lambda: Geometry(CC, NAN), OutOfDomain,
     "separation_a must be positive and finite, got nan"),
    (lambda: Geometry(CC, "2"), ValueError, "separation_a is not a number: '2'"),
    (lambda: Geometry(CC, None), ValueError, "separation_a is not a number: None"),
    (lambda: CorrelatorTensor(1.0, 2.0, "EE "), ValueError, "unknown field pair 'EE '"),
    (lambda: AtomResponse(INF, 0.0), ValueError, "polarizabilities must be finite"),
    (lambda: AtomResponse(0.0, NAN), ValueError, "polarizabilities must be finite"),
    (lambda: AtomResponse("1", 0.0), ValueError, "polarizabilities must be numbers"),
    (lambda: AtomResponse(1.0, 2j), ValueError, "polarizabilities must be numbers"),
    (lambda: SweepSpec(GEOM, ATOM, []), InvalidGrid,
     "z_grid must contain at least one point"),
    (lambda: SweepSpec(GEOM, ATOM, [0.0, 1.0]), InvalidGrid,
     "z_grid must lie strictly inside (0, 2.0)"),
    (lambda: SweepSpec(GEOM, ATOM, [0.5, 2.0]), InvalidGrid,
     "z_grid must lie strictly inside (0, 2.0)"),
    (lambda: SweepSpec(GEOM, ATOM, [0.5, 0.5, 1.0]), InvalidGrid,
     "z_grid must be strictly increasing"),
    # nan fails every comparison, so the checks are written to pass only
    # on points that are in order and inside the walls
    (lambda: SweepSpec(GEOM, ATOM, [0.1, NAN, 0.5]), InvalidGrid,
     "z_grid must be strictly increasing"),
    (lambda: SweepSpec(GEOM, ATOM, [NAN]), InvalidGrid,
     "z_grid must lie strictly inside (0, 2.0)"),
    (lambda: SweepSpec(GEOM, ATOM, [0.1, NAN]), InvalidGrid,
     "z_grid must lie strictly inside (0, 2.0)"),
    # a grid is a one-dimensional sequence of numbers
    (lambda: SweepSpec(GEOM, ATOM, [[0.1, 0.2]]), InvalidGrid,
     "z_grid must be one-dimensional, got 2 dimensions"),
    (lambda: SweepSpec(GEOM, ATOM, 0.5), InvalidGrid,
     "z_grid must be one-dimensional, got 0 dimensions"),
    (lambda: SweepSpec(GEOM, ATOM, ["a", "b"]), InvalidGrid,
     "z_grid entry 'a' is not a number"),
    # a bare str is refused whole, not named by its first letter
    (lambda: SweepSpec(GEOM, ATOM, "abc"), InvalidGrid,
     "z_grid must be a sequence of numbers"),
    (lambda: SweepSpec(GEOM, ATOM, [[0.1], [0.2, 0.3]]), InvalidGrid,
     "z_grid must be a sequence of numbers"),
    (lambda: SweepSpec(GEOM, ATOM, [0.5], ("V", "W", "A")), ConfigError,
     "unknown sweep quantities: ['A', 'W']"),
    # a bare str is refused whole, not split into its letters
    (lambda: SweepSpec(GEOM, ATOM, [0.3], quantities="force"), ConfigError,
     "sweep quantities must be names, not the str 'force'"),
    (lambda: SweepSpec(GEOM, ATOM, [0.3], quantities="V"), ConfigError,
     "sweep quantities must be names, not the str 'V'"),
    (lambda: SweepSpec.from_range(GEOM, ATOM, 0.5, 1.0, 1), InvalidGrid,
     "grid count must be >= 2, got 1"),
    (lambda: SweepSpec.from_range(GEOM, ATOM, 1.0, 0.5, 5), InvalidGrid,
     "need 0 < z_min < z_max < a, got z_min=1.0, z_max=0.5, a=2.0"),
    (lambda: SweepSpec.from_range(GEOM, ATOM, 0.5, 1.0, 3.5), InvalidGrid,
     "grid count must be an integer, got 3.5"),
    (lambda: LimitStudy("conducting", 0.5, [], True).convergence_exponent(),
     ValueError, "degenerate study (alpha0 == beta0) has no exponent"),
    (lambda: LimitStudy("conducting", 0.5, [LimitRow(1.0, 2.0, 3.0, 0.5)],
                        False).convergence_exponent(),
     ValueError, "need at least two nonzero errors to fit an exponent"),
    # log(a) of adjacent doubles near 1e300 rounds to one double: no slope
    (lambda: LimitStudy("conducting", 0.5, [LimitRow(1e300, 2.0, 3.0, 0.5),
                                            LimitRow(1.0000000000000002e300, 2.0, 3.0, 0.25)],
                        False).convergence_exponent(),
     ValueError, "the separations are too close together to fit an exponent"),
]


# Each number field -> a build from one value, the ValueError message for a
# value that is not a number, and the class and message for a number that is
# not in range. One rule decides between the two, float arithmetic's: what
# 0.0 * x < inf refuses as a type (a Decimal, a complex) is not a number, and
# an int or a Fraction beyond the double range is not finite.
NUMBER_FIELDS = {
    ("GuardPolicy", "epsilon"): (
        GuardPolicy, "guard epsilon must be a number",
        ValueError, "guard epsilon must be positive and finite"),
    ("OracleConfig", "target_abs_tol"): (
        partial(OracleConfig, 5), "target_abs_tol must be a number",
        ValueError, "target_abs_tol must be positive and finite"),
    ("Geometry", "separation_a"): (
        partial(Geometry, CC), "separation_a is not a number: {!r}",
        OutOfDomain, "separation_a must be positive and finite, got {!r}"),
    ("AtomResponse", "alpha0"): (
        lambda x: AtomResponse(x, 0.0), "polarizabilities must be numbers",
        ValueError, "polarizabilities must be finite"),
    ("AtomResponse", "beta0"): (
        lambda x: AtomResponse(1.0, x), "polarizabilities must be numbers",
        ValueError, "polarizabilities must be finite"),
}
NOT_NUMBERS = (Decimal("0.5"), 0.5j)
NOT_FINITE = (10 ** 400, -10 ** 400, Fraction(10 ** 400))
REFUSALS += [
    (partial(build, x), ValueError, not_a_number.format(x))
    for build, not_a_number, _, _ in NUMBER_FIELDS.values() for x in NOT_NUMBERS
] + [
    (partial(build, x), error, out_of_range.format(x))
    for build, _, error, out_of_range in NUMBER_FIELDS.values() for x in NOT_FINITE
]


@pytest.mark.parametrize("build, error, message", REFUSALS)
def test_validation_error_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("count", [99999999999999999, 10**20])
def test_a_grid_too_large_to_allocate_is_an_invalid_grid(count):
    # hundreds of PiB (MemoryError) and past the index range (ValueError):
    # both allocations fail at once
    with pytest.raises(InvalidGrid, match=f"^grid count {count} is too large "):
        SweepSpec.from_range(GEOM, ATOM, 0.5, 1.0, count)


def test_validation_order_is_kept():
    # the first failing check decides, as before
    with pytest.raises(ValueError, match="positive and finite"):
        GuardPolicy(INF, "exact")
    with pytest.raises(ValueError, match="image_terms"):
        OracleConfig(0, NAN)
    with pytest.raises(ValueError, match="polarizabilities"):
        AtomResponse(NAN, -1.0)
    with pytest.raises(InvalidGrid):
        SweepSpec(GEOM, ATOM, [], ("W",))


def test_negative_polarizability_warning_names_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        atom = AtomResponse(-1.0, 0.5)
    assert (atom.alpha0, atom.beta0) == (-1.0, 0.5)
    (w, *_) = caught
    assert w.category is NegativePolarizabilityWarning
    assert str(w.message) == "negative static polarizability supplied"
    assert w.filename == __file__


def test_copies_of_a_negative_atom_do_not_warn_again():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        atom = AtomResponse(-1.0, 0.5)
        twins = [copy.copy(atom), copy.deepcopy(atom), pickle.loads(pickle.dumps(atom))]
    assert [w.category for w in caught] == [NegativePolarizabilityWarning]
    assert all(type(t) is AtomResponse and t == atom for t in twins)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    make, fields, _ = RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == RECORDS[name][2]


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_round_trips(name):
    make, _, text = RECORDS[name]
    record = make()
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == text


def test_check_result_as_dict():
    data = CHECK.as_dict()
    assert list(data) == [
        "name", "max_abs_error", "max_rel_error", "tolerance", "passed",
        "points_tested",
    ]
    assert data == {
        "name": "x", "max_abs_error": 1.0, "max_rel_error": 2.0,
        "tolerance": 3.0, "passed": True, "points_tested": 7,
    }
    assert type(data) is dict
    failing = CheckResult("y", 2.0, 2.0, 1.0, False, 3)
    report = VerificationReport("full", [CHECK, failing])
    assert report.passed is False and report.failures == [failing]
    assert len(report.failures) == 1  # the failure_count of verify --format json
    assert not hasattr(report, "as_dict")


@pytest.mark.parametrize("kind", ["cp", "cc", None, 0, CC.value])
def test_geometry_refuses_a_kind_that_is_not_a_wall_kind(kind):
    with pytest.raises(ValueError) as info:
        Geometry(kind, 2.0)
    assert type(info.value) is ValueError
    assert str(info.value) == f"geometry kind must be a WallKind, got {kind!r}"


def test_geometry_checks_the_separation_before_the_kind():
    with pytest.raises(OutOfDomain, match="separation_a"):
        Geometry("cp", -1.0)


@pytest.mark.parametrize("image_terms", [1000.5, 1000.0, "5", None, 1e3j])
def test_oracle_config_refuses_image_terms_that_are_not_integers(image_terms):
    with pytest.raises(ValueError) as info:
        OracleConfig(image_terms, 1e-3)
    assert type(info.value) is ValueError
    assert str(info.value) == "image_terms must be a positive integer"


def test_oracle_config_takes_image_terms_up_to_its_bound():
    assert OracleConfig(2**25 - 1).image_terms == 2**25 - 1  # a record, never evaluated


def test_oracle_config_takes_integer_types():
    assert OracleConfig(np.int64(12), 1e-3) == OracleConfig(12, 1e-3)
    assert type(OracleConfig(np.int64(12), 1e-3).image_terms) is int


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_named_tuples(name):
    make, fields, _ = RECORDS[name]
    record = make()
    values = tuple(getattr(record, f) for f in fields)
    assert isinstance(record, tuple) and record._fields == fields
    assert tuple(record) == values and record == values
    assert list(record._asdict()) == list(fields)
    assert record._replace() == record and type(record._replace()) is type(record)


@pytest.mark.parametrize(
    "record, change, error",
    [
        (GuardPolicy(), {"mode": "exact"}, ValueError),
        (GuardPolicy(), {"epsilon": 0.0}, ValueError),
        (OracleConfig(), {"image_terms": 10.5}, ValueError),
        (GEOM, {"kind": "cc"}, ValueError),
        (GEOM, {"separation_a": -1.0}, OutOfDomain),
        (CorrelatorTensor(1.0, 2.0, "EE"), {"field_pair": "XY"}, ValueError),
        (ATOM, {"alpha0": INF}, ValueError),
        (SweepSpec(GEOM, ATOM, [0.5]), {"z_grid": [0.5, 0.4]}, InvalidGrid),
        (SweepSpec(GEOM, ATOM, [0.5]), {"quantities": ("W",)}, ConfigError),
    ],
)
def test_replace_checks_as_construction_does(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


def test_replace_normalizes_as_construction_does():
    assert type(CHECK._replace(passed=np.bool_(False)).passed) is bool
    assert SweepSpec(GEOM, ATOM, [0.5])._replace(z_grid=np.array([0.25])).z_grid == (
        0.25,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ATOM._replace(beta0=-1.0)
    assert [w.category for w in caught] == [NegativePolarizabilityWarning]
