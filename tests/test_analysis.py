"""Sweeps and single-wall limit-convergence studies."""

import math

import numpy as np
import pytest

from cpwalls.analysis import (
    SWEEP_QUANTITIES,
    SweepSpec,
    limit_convergence_study,
    nearest_wall_reference,
    run_sweep,
)
from cpwalls.correlators import Geometry, WallKind, mean_square_e
from cpwalls.errors import ConfigError, InvalidGrid
from cpwalls.potentials import AtomResponse, force, potential_total, single_wall_limit

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


def test_sweep_columns_follow_canonical_order():
    spec = SweepSpec(CC, MIXED, z_grid=(0.3, 0.5), quantities=("force", "V"))
    curve = run_sweep(spec)
    assert curve.columns == ("z", "V", "force")


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


def test_curve_column_lookup():
    spec = SweepSpec(CC, MIXED, z_grid=(0.25, 0.5))
    curve = run_sweep(spec)
    assert curve.column("z") == [0.25, 0.5]
    with pytest.raises(ValueError):
        curve.column("missing")


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
    with pytest.raises(ValueError):
        limit_convergence_study(ELECTRIC, "dielectric", 1.0, [20.0, 40.0])


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
