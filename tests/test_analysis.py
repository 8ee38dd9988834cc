"""Sweeps and single-wall limit-convergence studies."""

import math
import random

import numpy as np
import pytest

from cpwalls import analysis
from cpwalls.analysis import (
    SWEEP_QUANTITIES,
    SweepSpec,
    _Linspace,
    limit_convergence_study,
    nearest_wall_reference,
    run_sweep,
)
from cpwalls.correlators import Geometry, WallKind, mean_square_e
from cpwalls.errors import ConfigError, InvalidGrid, NonFiniteResult
from cpwalls.potentials import AtomResponse, force, potential_total, single_wall_limit
from cpwalls.profiles import GuardPolicy

CC = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0)
CP = Geometry(WallKind.CONDUCTOR_PERMEABLE, 1.0)
ELECTRIC = AtomResponse(1.0, 0.0)
MIXED = AtomResponse(1.0, 0.25)


def test_sweep_spec_validation():
    with pytest.raises(InvalidGrid):
        SweepSpec(CC, MIXED, z_grid=())
    with pytest.raises(InvalidGrid):
        SweepSpec(CC, MIXED, z_grid=(0.0, 0.5))
    with pytest.raises(InvalidGrid):
        SweepSpec(CC, MIXED, z_grid=(0.2, 1.0))
    with pytest.raises(InvalidGrid):
        SweepSpec(CC, MIXED, z_grid=(0.2, 0.2, 0.4))
    with pytest.raises(InvalidGrid):
        SweepSpec(CC, MIXED, z_grid=(0.4, 0.2))
    with pytest.raises(ConfigError):
        SweepSpec(CC, MIXED, z_grid=(0.2, 0.4), quantities=("V", "entropy"))


def test_from_range_validation():
    with pytest.raises(InvalidGrid):
        SweepSpec.from_range(CC, MIXED, 0.1, 0.9, 1)
    with pytest.raises(InvalidGrid):
        SweepSpec.from_range(CC, MIXED, 0.9, 0.1, 10)
    with pytest.raises(InvalidGrid):
        SweepSpec.from_range(CC, MIXED, 0.0, 0.9, 10)
    spec = SweepSpec.from_range(CC, MIXED, 0.1, 0.9, 5)
    assert len(spec.z_grid) == 5
    assert spec.z_grid[0] == 0.1 and spec.z_grid[-1] == 0.9


def _linspace_cases():
    """(start, stop, num): seeded grids over many magnitudes, and edge counts."""
    rng = random.Random(24401)
    chunk = analysis.CHUNK_ROWS
    counts = (2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)
    cases = [(0.001, 0.999, n) for n in counts]
    for _ in range(60):
        scale = 10.0 ** rng.uniform(-300, 300)
        start = scale * rng.uniform(-1.0, 1.0)
        stop = start + scale * rng.uniform(1e-12, 2.0)
        cases.append((start, stop, rng.choice(counts + (rng.randint(2, 5000),))))
    cases.append((-1.7e308, 1.7e308, 5))  # the span overflows: nan, inf rows
    return cases


@pytest.mark.parametrize("chunk_rows", [7, analysis.CHUNK_ROWS])
def test_chunk_positions_equal_linspace_bit_for_bit(chunk_rows):
    for start, stop, num in _linspace_cases():
        grid = _Linspace(start, stop, num)
        with np.errstate(all="ignore"):  # inf * 0 where the span overflows
            got = np.concatenate([grid[i:i + chunk_rows] for i in range(0, num, chunk_rows)])
            want = np.linspace(start, stop, num)
        assert len(grid) == num
        assert got.tobytes() == want.tobytes(), (start, stop, num)
        assert got[-1] == stop, (start, stop, num)


def test_positions_whose_step_underflows_take_numpys_zero_step_branch():
    start, stop, num = 5e-324, 1e-323, 7
    assert (stop - start) / (num - 1) == 0.0
    want = np.linspace(start, stop, num)
    assert _Linspace(start, stop, num)[0:num].tobytes() == want.tobytes()
    assert want.tolist() == [5e-324, 5e-324, 5e-324, 5e-324, 1e-323, 1e-323, 1e-323]
    index_times_step = np.arange(num) * 0.0 + start  # with the last row set to stop
    assert index_times_step[1:-1].tolist() != want[1:-1].tolist()


def test_sweep_columns_follow_canonical_order():
    spec = SweepSpec(CC, MIXED, z_grid=(0.3, 0.5), quantities=("force", "V"))
    curve = run_sweep(spec)
    assert curve.columns == ("z", "V", "force")


def test_sweep_quantities_given_as_a_generator_are_all_tabulated():
    spec = SweepSpec(CC, MIXED, [0.5, 0.75], quantities=(q for q in ["V", "force"]))
    assert spec.quantities == ("V", "force")
    assert run_sweep(spec).columns == ("z", "V", "force")


@pytest.mark.parametrize("quantities", [[], (), iter([])])
def test_an_empty_sweep_selection_is_refused(quantities):
    with pytest.raises(ConfigError) as info:
        SweepSpec(CC, MIXED, [0.5, 0.75], quantities=quantities)
    assert str(info.value) == "sweep quantities must name at least one quantity"


@pytest.mark.parametrize("quantities, message", [
    ([["V"]], "unknown sweep quantities: [['V']]"),
    (5, "sweep quantities must be names, not 5"),
    (["W", "V", "W"], "unknown sweep quantities: ['W']"),
], ids=["unhashable", "not-iterable", "repeated"])
def test_malformed_sweep_quantities_are_a_config_error(quantities, message):
    with pytest.raises(ConfigError) as info:
        SweepSpec(CC, MIXED, [0.5, 0.75], quantities=quantities)
    assert str(info.value) == message


def test_sweep_values_match_direct_evaluation():
    spec = SweepSpec.from_range(
        CC, MIXED, 0.1, 0.9, 9,
        quantities=("V", "V_E", "V_M", "force", "EE_trace", "BB_trace"),
    )
    curve = run_sweep(spec)
    assert len(curve.rows) == 9
    assert curve.columns == ("z",) + SWEEP_QUANTITIES
    for row in (dict(zip(curve.columns, r)) for r in curve.rows):
        z = row["z"]
        assert row["V"] == potential_total(MIXED, CC, z)
        assert row["force"] == force(MIXED, CC, z)
        assert row["EE_trace"] == mean_square_e(CC, z)
        assert row["V_E"] + row["V_M"] == pytest.approx(row["V"], rel=1e-12)


def test_sweep_symmetric_grid_gives_symmetric_potential():
    spec = SweepSpec.from_range(CC, MIXED, 0.2, 0.8, 13)
    vs = run_sweep(spec).column("V")
    for left, right in zip(vs, reversed(vs)):
        assert left == pytest.approx(right, rel=1e-12)


def test_sweep_limit_reference_column():
    spec = SweepSpec.from_range(
        CP, ELECTRIC, 0.1, 0.9, 5, include_limit_reference=True
    )
    curve = run_sweep(spec)
    assert curve.columns[-1] == "V_wall"
    refs = dict(zip(curve.column("z"), curve.column("V_wall")))
    assert refs[0.1] == single_wall_limit(ELECTRIC, "conducting", 0.1)
    assert refs[0.5] == single_wall_limit(ELECTRIC, "conducting", 0.5)  # a tie
    assert refs[0.9] == single_wall_limit(ELECTRIC, "permeable", 1.0 - 0.9)


def test_nearest_wall_reference_sides():
    assert nearest_wall_reference(CC, ELECTRIC, 0.2) == single_wall_limit(
        ELECTRIC, "conducting", 0.2
    )
    # far wall in "cc" is also conducting
    assert nearest_wall_reference(CC, ELECTRIC, 0.8) == single_wall_limit(
        ELECTRIC, "conducting", 1.0 - 0.8
    )
    # far wall in "cp" is permeable: positive reference
    assert nearest_wall_reference(CP, ELECTRIC, 0.8) > 0.0
    assert nearest_wall_reference(CP, ELECTRIC, 0.2) < 0.0
    # a tie goes to the near wall, which is conducting in both geometries
    assert nearest_wall_reference(CP, ELECTRIC, 0.5) == single_wall_limit(
        ELECTRIC, "conducting", 0.5
    )


def test_curve_column_lookup():
    spec = SweepSpec(CC, MIXED, z_grid=(0.25, 0.5))
    curve = run_sweep(spec)
    assert curve.column("z") == [0.25, 0.5]
    with pytest.raises(ValueError):
        curve.column("missing")


def test_a_missing_curve_column_is_named_with_the_curve_columns():
    curve = run_sweep(SweepSpec(CC, MIXED, z_grid=(0.25, 0.5), quantities=("V",)))
    with pytest.raises(ValueError) as info:
        curve.column("V_total")
    assert str(info.value) == "no column 'V_total'; the curve has ('z', 'V')"


# ----------------------------------------------------------------------
# Limit-convergence studies.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("wall_type", ["conducting", "permeable"])
def test_limit_study_converges_with_fourth_power(wall_type):
    study = limit_convergence_study(
        ELECTRIC, wall_type, 1.0, [20.0, 40.0, 80.0, 160.0]
    )
    errs = [row.rel_error for row in study.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # leading deviation falls as (z/a)^4 exactly, so the fit sits at 4
    assert 3.9 < study.convergence_exponent() < 4.1


def test_convergence_exponent_agrees_with_numpys_least_squares_fit():
    # the closed-form fit on floats against np.polyfit on seeded ladders,
    # of 2 to 8 rungs, electric, magnetic and mixed atoms, both walls
    rng = random.Random(20261019)
    for i in range(200):
        atom = AtomResponse(rng.uniform(0.1, 2.0), rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        d = rng.uniform(0.1, 10.0)
        ladder = sorted(d * rng.uniform(2.0, 500.0) for _ in range(rng.randint(2, 8)))
        study = limit_convergence_study(atom, rng.choice(["conducting", "permeable"]), d, ladder)
        logs = np.log([[r.a, r.rel_error] for r in study.rows])
        want = -np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
        assert study.convergence_exponent() == pytest.approx(want, rel=1e-12, abs=0.0), i


def test_limit_study_rows_contain_exact_values():
    study = limit_convergence_study(ELECTRIC, "conducting", 1.0, [20.0, 40.0])
    for row in study.rows:
        geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, row.a)
        assert row.v_exact == potential_total(ELECTRIC, geom, 1.0)
        assert row.v_limit == single_wall_limit(ELECTRIC, "conducting", 1.0)


def test_limit_study_permeable_measures_from_far_wall():
    # at fixed distance 1 from the permeable wall the atom sits at z = a - 1
    study = limit_convergence_study(ELECTRIC, "permeable", 1.0, [20.0])
    geom = Geometry(WallKind.CONDUCTOR_PERMEABLE, 20.0)
    assert study.rows[0].v_exact == potential_total(ELECTRIC, geom, 19.0)
    assert study.rows[0].v_limit > 0.0


def test_degenerate_study():
    flat = AtomResponse(2.0, 2.0)
    study = limit_convergence_study(flat, "conducting", 1.0, [20.0, 40.0])
    assert study.degenerate
    assert all(row.rel_error is None for row in study.rows)
    with pytest.raises(ValueError):
        study.convergence_exponent()


def test_limit_study_validation():
    with pytest.raises(InvalidGrid):
        limit_convergence_study(ELECTRIC, "conducting", 1.0, [])
    with pytest.raises(InvalidGrid):
        limit_convergence_study(ELECTRIC, "conducting", 1.0, [40.0, 20.0])
    with pytest.raises(InvalidGrid):
        limit_convergence_study(ELECTRIC, "conducting", 30.0, [20.0, 40.0])
    # the refusal is single_wall_limit's own, class and message
    with pytest.raises(ValueError) as info:
        limit_convergence_study(ELECTRIC, "dielectric", 1.0, [20.0, 40.0])
    with pytest.raises(ValueError) as direct:
        single_wall_limit(ELECTRIC, "dielectric", 1.0)
    assert str(info.value) == str(direct.value) == "unknown wall_type 'dielectric'"


def test_limit_study_deviation_constant_matches_expansion():
    # the residual after removing the limit is -pi^3/(180 a^4) * alpha0 to
    # leading order: check the measured deviation against that coefficient
    z = 1.0
    a = 200.0
    geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, a)
    deviation = potential_total(ELECTRIC, geom, z) - single_wall_limit(
        ELECTRIC, "conducting", z
    )
    predicted = -math.pi ** 3 / (180.0 * a ** 4)
    assert deviation == pytest.approx(predicted, rel=1e-3)


def test_a_result_out_of_the_double_range_is_a_named_refusal_in_the_library():
    # a**4 overflows in every cell of V: named with the first row and its z
    spec = SweepSpec.from_range(Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1e100), ELECTRIC,
                                1e99, 5e99, 3, quantities=("V",))
    with pytest.raises(NonFiniteResult, match=r"\(OverflowError: .*\) in V from row 1 \(z=1e\+99\)$"):
        run_sweep(spec)
    # the near-wall series' u**-4 overflows at the second separation only
    with pytest.raises(NonFiniteResult, match=r" in V_exact in row 2 \(a=1e\+80\)$"):
        limit_convergence_study(ELECTRIC, "conducting", 1.0, [20.0, 1e80],
                                GuardPolicy(1e-6, "asymptotic"))


# V overflows (the prefactor times a near-wall profile) in every row: nan and -inf
_HUGE = (Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1e-3), AtomResponse(1e300, 0.0))


@pytest.mark.parametrize("chunk_rows", [1, 7, analysis.CHUNK_ROWS])
def test_run_sweep_refuses_a_cell_out_of_the_double_range(monkeypatch, chunk_rows):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    with pytest.raises(NonFiniteResult) as info:
        run_sweep(SweepSpec(*_HUGE, [5e-4, 6e-4]))
    assert str(info.value) == "V=nan in row 1 (z=0.0005) is not a finite normal double"
    # V falls below the normal range from row 17 on, toward the midplane: the
    # row named is the table's, whatever the chunk size
    spec = SweepSpec.from_range(CC, AtomResponse(1e-309, 0.0), 0.01, 0.5, 30)
    with pytest.raises(NonFiniteResult) as info:
        run_sweep(spec)
    assert str(info.value) == (
        "V=-1.975107362068404e-308 in row 17 (z=0.2803448275862069)"
        " is not a finite normal double")


def test_the_limit_study_refuses_a_cell_out_of_the_double_range():
    with pytest.raises(NonFiniteResult) as info:
        limit_convergence_study(_HUGE[1], "conducting", 1e-3, [1e-2])
    assert str(info.value) == "V_exact=-inf in row 1 (a=0.01) is not a finite normal double"


def test_a_zero_polarizability_tabulates_its_exact_zeros():
    zero = AtomResponse(0.0, 0.0)
    curve = run_sweep(SweepSpec(_HUGE[0], zero, [5e-4, 6e-4], SWEEP_QUANTITIES,
                                include_limit_reference=True))
    for name in ("V", "V_E", "V_M", "force", "V_wall"):
        assert curve.column(name) == [0.0, 0.0], name
    study = limit_convergence_study(zero, "conducting", 1e-3, [1e-2, 2e-2])
    assert [(r.v_exact, r.v_limit) for r in study.rows] == [(0.0, 0.0)] * 2
