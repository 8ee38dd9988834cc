"""The self-verification table: completeness, passing runs, mutation tests.

The mutation tests perturb the near-wall expansion constants and pi's low
part PI_LO through the profiles module and the per-geometry diagonal
constants through correlators.WALL_TABLE (the documented fault-injection
surfaces) and require the suite to catch exactly the matching checks -
evidence that the checks compare genuinely independent routes rather than a
value against itself. The oracles take pi's low part from math.sin(math.pi),
which must equal PI_LO, and 3/8 from their own literal, so neither
production constant moves their bits.
The matrix tests tamper with the 3x3 matrix CorrelatorTensor._matrix
builds, leaving par and perp right, and require the matching check to fail:
the checks read the matrix, not the stored components. verify no longer
reads CorrelatorTensor.components (a NumPy array); tests/test_correlators.py
pins components.tolist() to _matrix instead.
The value-fault table gives every check on the two comparison rules
(_agree, _near) a fault it must fail by its measured error alone.
"""

import math

import pytest

import cpwalls
import cpwalls.profiles as profiles
from cpwalls import analysis, correlators, oracles, potentials, verification
from cpwalls.correlators import WALL_TABLE, CorrelatorTensor, Geometry, WallKind
from cpwalls.potentials import AtomResponse
from cpwalls.verification import (
    REQUIRED_CHECK_NAMES,
    CheckResult,
    VerificationReport,
    run_verification,
)


def test_required_names_unique():
    assert len(REQUIRED_CHECK_NAMES) == len(set(REQUIRED_CHECK_NAMES))


@pytest.mark.parametrize("level", ["quick", "full"])
def test_registry_complete_and_passing(level):
    report = run_verification(level)
    assert report.level == level
    names = [c.name for c in report.checks]
    assert names == list(REQUIRED_CHECK_NAMES)
    assert report.passed
    assert report.failures == []


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_verification("exhaustive")


def test_report_shape():
    report = run_verification("quick")
    assert report.level == "quick"
    assert report.passed is True
    assert len(report.failures) == 0
    assert len(report.checks) == len(REQUIRED_CHECK_NAMES)
    one = report.checks[0].as_dict()
    assert set(one) == {
        "name", "max_abs_error", "max_rel_error", "tolerance", "passed",
        "points_tested",
    }


def test_check_result_round_trip():
    c = CheckResult("demo", 1e-15, 2e-15, 1e-12, True, 7)
    assert c.as_dict()["points_tested"] == 7
    report = VerificationReport(level="quick", checks=[c])
    assert report.passed and report.failures == []


def test_perturbed_cot_constant_fails_exactly_the_cot_series_checks(monkeypatch):
    monkeypatch.setattr(
        profiles, "COT_SERIES_CONST", profiles.COT_SERIES_CONST + 1e-4
    )
    report = run_verification("quick")
    assert not report.passed
    assert {c.name for c in report.failures} == {
        "near_wall_series_cot",
        "far_wall_series_cot",
    }


def test_perturbed_csc_constant_fails_exactly_the_csc_series_checks(monkeypatch):
    monkeypatch.setattr(
        profiles, "CSC_SERIES_CONST", profiles.CSC_SERIES_CONST - 1e-4
    )
    report = run_verification("quick")
    assert not report.passed
    assert {c.name for c in report.failures} == {
        "near_wall_series_csc",
        "far_wall_series_csc",
    }


@pytest.mark.parametrize("kind", list(WallKind))
def test_perturbed_table_constant_fails_both_potential_checks(monkeypatch, kind):
    # V_E, V_M and the correlator traces all read K from the table, so only
    # the combined constant of potential_total and the second copy of K in
    # verification.py can expose a wrong entry.
    entry = WALL_TABLE[kind]
    monkeypatch.setitem(
        WALL_TABLE, kind, entry._replace(diag_const=entry.diag_const + 1e-4)
    )
    report = run_verification("quick")
    assert {c.name for c in report.failures} == {
        "potential_additivity",
        "potential_from_correlators",
    }


def test_image_sum_checks_recompute_on_every_run(monkeypatch):
    # The closed forms do not read the oracles' own 3/8, the image sums do:
    # a run after the perturbation must not reuse the first run's values.
    assert run_verification("full").passed
    monkeypatch.setattr(oracles, "_LEADING", oracles._LEADING * (1.0 + 1e-9))
    failed = {c.name for c in run_verification("full").failures}
    assert {"cot_profile_vs_image_sum", "csc_profile_vs_image_sum"} <= failed


# 24 points from both walls to the midplane; at each, the default
# OracleConfig's image sums run on arrays and a 1e-10 budget's in Python.
_ORACLE_POINTS = [1e-3, 0.05, 0.5 * math.pi, math.pi - 0.05, math.pi - 1e-3] + [
    0.15 * k for k in range(1, 20)]


def _oracle_values():
    values = []
    for x in _ORACLE_POINTS:
        for cfg in (cpwalls.DEFAULT_ORACLE,
                    cpwalls.OracleConfig(cpwalls.image_terms_needed(x, 1e-10), 1e-10)):
            values += [cpwalls.cot_profile_via_images(x, cfg),
                       cpwalls.csc_profile_via_images(x, cfg)]
        values += [cpwalls.cot_profile_via_hurwitz(x), cpwalls.zeta4(x)]
    return values


@pytest.mark.parametrize("name, factor", [
    ("SERIES_LEADING", 1.0 + 1e-9), ("PI_LO", 0.0), ("PI_LO", 10.0)])
def test_the_oracles_keep_their_bits_when_a_production_constant_moves(
    monkeypatch, name, factor
):
    # The oracles hold their own 3/8 and take pi's low part from sin(pi), so
    # no production constant reaches them, on either image-sum path.
    want = _oracle_values()
    monkeypatch.setattr(profiles, name, getattr(profiles, name) * factor)
    assert _oracle_values() == want


@pytest.mark.parametrize("scale", [0.0, -1.0, 10.0])
def test_perturbed_pi_low_part_fails_exactly_the_oracle_and_far_wall_series_checks(
    monkeypatch, scale
):
    # The closed forms reflect with PI_LO; the image sums, the Hurwitz route
    # and the far-wall series checks' wall distance take pi's low part from
    # sin(pi), so they do not move with it. The quick level's looser oracle
    # budget and larger series scales do not resolve the shift.
    monkeypatch.setattr(profiles, "PI_LO", profiles.PI_LO * scale)
    assert run_verification("quick").failures == []
    assert {c.name for c in run_verification("full").failures} == {
        "cot_profile_vs_image_sum",
        "cot_profile_vs_hurwitz",
        "csc_profile_vs_image_sum",
        "far_wall_series_cot",
        "far_wall_series_csc",
    }


def test_the_oracles_low_part_of_pi_equals_pi_lo():
    assert math.sin(math.pi) == profiles.PI_LO


def test_restored_constants_pass_again():
    # the monkeypatched runs above must not leak into later ones
    assert run_verification("quick").passed


def _off_diagonal(m, pair):
    if pair != "EB":
        m[0][1] = 1e-300


def _xx_not_yy(m, pair):
    if pair != "EB":
        m[1][1] = math.nextafter(m[1][1], math.inf)


def _eb_nonzero(m, pair):
    if pair == "EB":
        m[2][2] = 1e-300


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize(
    "tamper, failing",
    [(_off_diagonal, "tensor_structure"), (_xx_not_yy, "tensor_structure"),
     (_eb_nonzero, "eb_zero")],
)
def test_matrix_checks_read_the_matrix_components_builds(
    monkeypatch, level, tamper, failing
):
    # par and perp stay right; only the 3x3 matrix the checks read is off
    built = CorrelatorTensor._matrix

    def tampered(self):
        m = built(self)
        tamper(m, self.field_pair)
        return m

    monkeypatch.setattr(CorrelatorTensor, "_matrix", tampered)
    assert {c.name for c in run_verification(level).failures} == {failing}


def test_the_matrix_walk_reads_its_builders_when_it_runs(monkeypatch):
    # a builder patched after import reaches the walk: EB is now the EE tensor
    monkeypatch.setattr(verification, "correlator_eb", correlators.correlator_ee)
    assert {c.name for c in run_verification("quick").failures} == {"eb_zero"}


@pytest.mark.parametrize("level", ["quick", "full"])
def test_reflection_symmetric_cp_tensor_fails_the_asymmetry_check(
    monkeypatch, level
):
    # the cp tensor at z is made the one at the mirror point nearer z = 0
    built = verification.correlator_ee

    def mirrored(geom, z, *args):
        if geom.kind is WallKind.CONDUCTOR_PERMEABLE:
            z = min(z, geom.separation_a - z)
        return built(geom, z, *args)

    monkeypatch.setattr(verification, "correlator_ee", mirrored)
    failures = run_verification(level).failures
    assert [c.name for c in failures] == ["cc_reflection_cp_asymmetry"]
    assert failures[0].max_rel_error == math.inf


def test_a_check_that_yields_fewer_results_than_names_is_refused(monkeypatch):
    # the oracle row has three names; its check is cut to two results
    (names, check), *rest = verification._CHECKS
    assert len(names) == 3
    monkeypatch.setattr(
        verification, "_CHECKS",
        ((names, lambda level: list(check(level))[:2]), *rest),
    )
    with pytest.raises(ValueError, match="shorter"):
        run_verification("quick")


def test_an_exponent_outside_its_window_fails_the_convergence_check_alone(monkeypatch):
    # every rel_error still falls with a; only the fitted exponent is off
    monkeypatch.setattr(analysis.LimitStudy, "convergence_exponent", lambda self: 5.0)
    failures = run_verification("quick").failures
    assert [c.name for c in failures] == ["single_wall_convergence"]
    assert failures[0].max_abs_error == 2  # one violation per wall


def test_a_profile_with_no_u_squared_term_fails_its_series_check():
    # each fitted O(u^2) coefficient is exactly 0, so their mean is 0 and
    # the spread, a ratio to it, is inf
    def leading(x):
        return profiles.SERIES_LEADING * x ** -4

    (result,) = verification._series_check(leading, False, 1.0, lambda: 0.0, "quick")
    assert result == (math.inf, math.inf, 0.05, False, 2)


def _row(name):
    """The check function of the _CHECKS row that holds name."""
    return next(check for names, check in verification._CHECKS if name in names)


def _counting(fn, calls):
    def stand_in(x):
        calls.append(x)
        return fn(x)

    return stand_in


def test_the_positivity_check_evaluates_the_profile_once_per_point(monkeypatch):
    calls = []
    monkeypatch.setattr(verification, "cot_profile", _counting(profiles.cot_profile, calls))
    (result,) = _row("cot_profile_positive")("full")
    assert result[4] == len(calls) == 200


@pytest.mark.parametrize("name", ["cot_profile_reflection", "csc_profile_antisymmetry"])
def test_a_reflection_check_evaluates_its_function_twice_per_point(name):
    # fn(x) and fn(pi - x), each once: the denominator reuses fn(x)
    check, calls = _row(name), []
    fn, *rest = check.args
    (result,) = check.func(_counting(fn, calls), *rest, "full")
    assert result[3] and 2 * result[4] == len(calls) == 200


@pytest.mark.parametrize(
    "name, names, calls",
    [
        # 2 geometries x 50 z, for each of <E^2> and <B^2>
        ("potential_from_correlators", ("mean_square_e", "mean_square_b"), 200),
        # the row it shares with potential_additivity: 2 geometries x 4 atoms
        # x 50 z, for V, and for each of V_E and V_M
        ("potential_additivity", ("potential_total",), 400),
        ("potential_additivity", ("potential_electric", "potential_magnetic"), 800),
        # the row it shares with potential_scaling: 2 geometries x 25 z
        # unscaled, and 4 factors and 4 scales of each
        ("potential_linearity", ("potential_total",), 450),
        ("potential_scaling", ("potential_total",), 450),
        # 2 kinds x 20 fractions x 2 pairs at a = 1, and 3 scales of each
        ("correlator_scaling", ("correlator_ee", "correlator_bb"), 320),
    ],
)
def test_a_check_evaluates_each_value_once_at_full_level(monkeypatch, name, names, calls):
    seen = []
    for attr in names:
        fn = getattr(verification, attr)
        monkeypatch.setattr(
            verification, attr, lambda *args, fn=fn: seen.append((fn, *args)) or fn(*args))
    results = list(_row(name)("full"))
    assert all(result[3] for result in results)
    assert len(set(seen)) == len(seen) == calls


@pytest.mark.parametrize("level, points", [("quick", 10), ("full", 120)])
def test_one_image_pass_per_oracle_point(monkeypatch, level, points):
    # the oracle row hands all of its points to one pass, each point once
    passes, image_pass = [], verification._image_pass

    def counted(pairs):
        passes.append([x for x, _ in pairs])
        return image_pass(pairs)

    monkeypatch.setattr(verification, "_image_pass", counted)
    assert run_verification(level).passed
    assert len(passes) == 1 and len(set(passes[0])) == len(passes[0]) == points


# Production faults, each injected where the checks read it, and the exact
# set of checks each one fails, by value: every failing check reports a
# finite relative error above its tolerance. A check that compared a value
# with itself would pass its fault and fail its row.
def _scaled_closed_form(name, factor):
    def inject(monkeypatch):
        form = getattr(profiles, name)
        closed = form.closed
        scaled = form._replace(closed=lambda *args: closed(*args) * factor)
        monkeypatch.setattr(profiles, name, scaled)

    return inject


def _force_pi4_off(monkeypatch):
    monkeypatch.setattr(potentials, "_PI4", potentials._PI4 * (1.0 + 1e-5))


def _atom_alpha_stored_nonlinearly(monkeypatch):
    # alpha0 kept as alpha0 * (1 + 1e-12 * alpha0): V stops being linear in it
    new = AtomResponse.__new__
    monkeypatch.setattr(
        AtomResponse, "__new__",
        lambda cls, alpha0, beta0: new(cls, alpha0 * (1.0 + 1e-12 * alpha0), beta0))


def _total_power_of_a_off(monkeypatch):
    # V_total falls like a^-(4 + 1e-11); exact at a = 1
    total = potentials._total
    monkeypatch.setattr(
        potentials, "_total",
        lambda atom, geom, p: total(atom, geom, p) * geom.separation_a ** -1e-11)


def _prefactor_power_of_a_off(monkeypatch):
    # the correlator prefactor falls like a^-(4 + 1e-11); exact at a = 1
    prefactor = correlators.tensor_prefactor
    monkeypatch.setattr(
        correlators, "tensor_prefactor", lambda a: prefactor(a) * a ** -1e-11)


def _b_square_prefactor_off(monkeypatch):
    # <B^2> 1e-13 too large: the trace sum keeps its sign but varies with z
    mean_square_b = verification.mean_square_b
    monkeypatch.setattr(
        verification, "mean_square_b",
        lambda geom, z, *args: mean_square_b(geom, z, *args) * (1.0 + 1e-13))


def _profile_position_off(monkeypatch):
    # Geometry.profile reads z as z * (1 + 1e-12): the midplane moves
    profile = Geometry.profile
    monkeypatch.setattr(
        Geometry, "profile", lambda self, z, *args: profile(self, z * (1.0 + 1e-12), *args))


VALUE_FAULTS = {
    "force-pi4": (_force_pi4_off, {"force_fd_consistency"}),
    "cot-deriv-closed-form": (_scaled_closed_form("COT_PROFILE_DERIV", 1.0 + 1e-6),
                              {"cot_profile_derivative_fd"}),
    "csc-deriv-closed-form": (_scaled_closed_form("CSC_PROFILE_DERIV", 1.0 + 1e-6),
                              {"csc_profile_derivative_fd"}),
    "atom-alpha-nonlinear": (_atom_alpha_stored_nonlinearly, {"potential_linearity"}),
    "total-power-of-a": (_total_power_of_a_off, {"potential_scaling"}),
    "prefactor-power-of-a": (_prefactor_power_of_a_off, {"correlator_scaling"}),
    "b-square-prefactor": (_b_square_prefactor_off, {"trace_sum_constant"}),
    "profile-position": (_profile_position_off,
                         {"cc_potential_reflection", "cc_reflection_cp_asymmetry"}),
}


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize("fault", VALUE_FAULTS)
def test_a_production_fault_fails_exactly_its_checks_by_value(monkeypatch, fault, level):
    inject, failing = VALUE_FAULTS[fault]
    inject(monkeypatch)
    failures = run_verification(level).failures
    assert {c.name for c in failures} == failing
    assert all(c.tolerance < c.max_rel_error < math.inf for c in failures)
