"""End-to-end CLI contract: columns, formats, exit codes, config files.

Most tests drive cpwalls.cli.main in process (stdout/stderr via capsys); one
subprocess test checks the `python -m cpwalls` wiring for real.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cpwalls.analysis as analysis
import cpwalls.cli as cli
import cpwalls.profiles as profiles
from cpwalls import verification
from cpwalls.cli import CORRELATOR_COLUMNS, POTENTIAL_COLUMNS, main
from cpwalls.potentials import AtomResponse, potential_total
from cpwalls.correlators import WALL_TABLE, Geometry, WallKind
from cpwalls.units import HBAR_C_J_M
from cpwalls.verification import REQUIRED_CHECK_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        parsed = []
        for cell in cells:
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        rows.append(dict(zip(header, parsed)))
    return header, rows


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------


def test_potential_single_point_csv(capsys):
    code, out, err = run_cli(capsys, "potential", "--z", "0.5")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert tuple(header) == POTENTIAL_COLUMNS
    assert len(rows) == 1
    row = rows[0]
    assert row["z"] == 0.5
    assert row["regime"] == "exact"
    expected = potential_total(
        AtomResponse(1.0, 0.0), Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0), 0.5
    )
    assert row["V_total"] == expected  # .17g round-trips doubles losslessly
    assert row["V_E"] + row["V_M"] == pytest.approx(row["V_total"], rel=1e-12)


def test_potential_grid_and_geometry_flags(capsys):
    code, out, _ = run_cli(
        capsys, "potential", "--geometry", "cp", "--a", "2.0",
        "--alpha", "0.5", "--beta", "2.0",
        "--z-min", "0.2", "--z-max", "1.8", "--z-count", "9",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 9
    assert rows[0]["z"] == 0.2 and rows[-1]["z"] == 1.8
    atom = AtomResponse(0.5, 2.0)
    geom = Geometry(WallKind.CONDUCTOR_PERMEABLE, 2.0)
    assert rows[0]["V_total"] == potential_total(atom, geom, 0.2)


def test_potential_json_matches_csv_values(capsys):
    argv = ["potential", "--alpha", "1", "--beta", "0.25",
            "--z-min", "0.1", "--z-max", "0.9", "--z-count", "7"]
    code, csv_text, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    code, json_text, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    _, csv_rows = parse_csv(csv_text)
    json_rows = json.loads(json_text)
    assert len(json_rows) == len(csv_rows) == 7
    for c_row, j_row in zip(csv_rows, json_rows):
        for key, value in c_row.items():
            # identical doubles after the 17-digit round trip, zero ULP apart
            assert j_row[key] == value


def test_guard_mode_asymptotic_tags_regime(capsys):
    code, out, _ = run_cli(
        capsys, "potential", "--z", "1e-8", "--guard-mode", "asymptotic"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["regime"] == "asymptotic"


# ----------------------------------------------------------------------
# exit codes and error reporting
# ----------------------------------------------------------------------


def test_domain_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "potential", "--z", "1.5")
    assert code == 2 and out == ""
    assert "OutOfDomain" in err


def test_guard_rejection_exit_2(capsys):
    code, _, err = run_cli(capsys, "potential", "--z", "1e-8")
    assert code == 2
    assert "TooCloseToWall" in err


@pytest.mark.parametrize(
    "argv",
    [
        (),                                                 # no command
        ("potential",),                                     # no z at all
        ("potential", "--z", "0.5", "--z-min", "0.1"),      # both selectors
        ("potential", "--z-min", "0.1", "--z-max", "0.9"),  # missing count
        ("potential", "--z-min", "0.1", "--z-max", "0.9", "--z-count", "1"),
        ("potential", "--z-min", "0.9", "--z-max", "0.1", "--z-count", "5"),
        ("potential", "--z", "0.5", "--a", "-1.0"),
        ("potential", "--z", "0.5", "--geometry", "xx"),
        ("potential", "--z", "0.5", "--walrus"),
        ("potential", "--z", "nan"),
        ("sweep", "--z", "0.5"),                            # sweep needs a grid
        ("sweep", "--z-min", "0.1", "--z-max", "0.9", "--z-count", "3",
         "--quantities", ","),                              # no quantity named
        ("frobnicate",),
        ("limits", "--a-values", "2,nan"),
        ("limits", "--a-values", "2,inf"),
        # above 2**53, where a row's index is no longer an exact double:
        # refused before any position is made
        ("potential", "--z-min", "0.1", "--z-max", "0.9",
         "--z-count", "99999999999999999"),
        ("correlators", "--z-min", "0.1", "--z-max", "0.9",
         "--z-count", "10000000000000000000"),
    ],
)
def test_config_errors_exit_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err != ""


@pytest.mark.parametrize(
    "argv, error",
    [
        (("potential", "--a", "1e100", "--z", "5e99"), "NonFiniteResult"),
        (("potential", "--a", "1e-90", "--z", "5e-91"), "NonFiniteResult"),
        (("potential", "--z", "0.5", "--alpha=1e308", "--beta=-1e308"),
         "NonFiniteResult"),
        (("correlators", "--a", "1e80", "--z", "5e79"), "NonFiniteResult"),
        # (pi/a)^4 underflows to 0: every correlator cell would read 0
        (("correlators", "--a", "1e100", "--z", "5e99"), "NonFiniteResult"),
        (("sweep", "--a", "1e100", "--z-min", "1e99", "--z-max", "5e99",
          "--z-count", "2", "--quantities", "EE_trace"), "NonFiniteResult"),
        (("potential", "--z", "0.5", "--out", "/nonexistent/dir/x.csv"),
         "ConfigError"),
        # a profile power, not a prefactor: the near-wall series' u**-4
        # overflows in the scalar profile
        (("limits", "--z", "1", "--a-values", "1e80", "--guard-mode",
          "asymptotic"),
         "NonFiniteResult: a result is out of the double range (OverflowError"),
        # sin(u)**4 is 0 in the closed form at the smallest xi
        (("potential", "--a", "2.5", "--guard-eps", "5e-324", "--z-min",
          "5e-324", "--z-max", "1", "--z-count", "2"),
         "NonFiniteResult: a result is out of the double range"
         " (ZeroDivisionError"),
    ],
)
@pytest.mark.filterwarnings("ignore::cpwalls.errors.NegativePolarizabilityWarning")
def test_refusals_are_named_and_write_nothing(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == (1 if error.startswith("ConfigError") else 2)
    assert err.startswith(error + ": ")
    assert "Traceback" not in err
    assert out == ""


_DOUBLE_RANGE = "NonFiniteResult: a result is out of the double range"
_OVERFLOW = " (OverflowError: (34, 'Numerical result out of range')) in "
_ZERO_DIVISION = " (ZeroDivisionError: float division by zero) in "


@pytest.mark.parametrize(
    "argv, want",
    [
        # a**4 overflows: the term and the first row of its chunk are named
        (("potential", "--a", "1e100", "--z", "5e99"),
         _DOUBLE_RANGE + _OVERFLOW + "V_E from row 1 (z=5e+99)\n"),
        (("potential", "--a", "1e100", "--z-min", "1e99", "--z-max", "5e99",
          "--z-count", "3"),
         _DOUBLE_RANGE + _OVERFLOW + "V_E from row 1 (z=1e+99)\n"),
        # the single-wall law's d**4 overflows, or underflows to a 0 divisor
        (("limits", "--z", "1e306"),
         _DOUBLE_RANGE + _OVERFLOW + "V_limit in row 1 (a=2e+307)\n"),
        (("limits", "--z", "1e-320"),
         _DOUBLE_RANGE + _ZERO_DIVISION + "V_limit in row 1 (a=2e-319)\n"),
        # the exact potential's profile power, at the one separation
        (("limits", "--z", "1", "--a-values", "1e80", "--guard-mode",
          "asymptotic"),
         _DOUBLE_RANGE + _OVERFLOW + "V_exact in row 1 (a=1e+80)\n"),
        # V_limit underflows to 0: the relative error divides by it
        (("limits", "--alpha", "1e-300", "--z", "1e10"),
         _DOUBLE_RANGE + _ZERO_DIVISION + "rel_error in row 1 (a=200000000000.0)\n"),
    ],
)
def test_a_result_out_of_the_double_range_names_its_column_and_row(capsys, argv, want):
    assert run_cli(capsys, *argv) == (2, "", want)


@pytest.mark.parametrize("count", ["9007199254740993", "99999999999999999"])
def test_a_z_count_above_2_to_the_53_is_refused_at_once(capsys, count):
    code, out, err = run_cli(capsys, "potential", "--z-min", "0.1", "--z-max",
                             "0.9", "--z-count", count)
    assert (code, out) == (1, "")
    assert err == f"ConfigError: --z-count must be at most 2**53, got {count}\n"


def test_a_z_count_of_2_to_the_53_is_a_grid_of_that_length():
    args = cli._build_parser().parse_args(
        ["potential", "--z-min", "0.1", "--z-max", "0.9", "--z-count", str(2 ** 53)])
    grid = cli._grid_from(args)
    assert len(grid) == 2 ** 53
    last = grid[-2:].tolist()  # no row is made until a slice is asked for
    assert last[0] < last[1] == 0.9


# Rows 3 and 4 of this grid are equal; every other step is one ulp up.
_REPEAT_AT_ROW_3 = ("--z-min", "1", "--z-max", "1.0000000000000009", "--z-count", "6")


@pytest.mark.parametrize("a, chunk_rows, want", [
    # CHUNK_ROWS = 3 puts rows 3 and 4 in two chunks, each strictly
    # increasing on its own: the seam is checked too
    ("2", 3, "InvalidGrid: z_grid must be strictly increasing\n"),
    # the last row lies past the far wall, and the first chunk holds the
    # repeat: the ends are checked first, as for the whole grid
    ("1.0000000000000007", 4,
     "InvalidGrid: z_grid must lie strictly inside (0, 1.0000000000000007)\n"),
])
def test_sweep_checks_its_grid_chunk_by_chunk_as_a_whole(
    capsys, monkeypatch, a, chunk_rows, want
):
    z = np.linspace(1.0, 1.0000000000000009, 6)
    assert (z[1:] > z[:-1]).tolist() == [True, True, False, True, True]
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    assert run_cli(capsys, "sweep", "--a", a, *_REPEAT_AT_ROW_3) == (1, "", want)


# A grid is gated whole before any output, chunk by chunk, yet a refusal
# still names the first refused row in grid order, with the scalar path's
# message.
_TOO_CLOSE_LAST = (
    "TooCloseToWall: xi=3.141592339430528 is within 1e-06 of a wall"
    " (mode=reject)\n"
)
_TOO_CLOSE_BEFORE_OUTSIDE = (
    "TooCloseToWall: xi=3.141592025271262 is within 1e-06 of a wall"
    " (mode=reject)\n"
)
_LAST_ROW_BAD = ("--z-min", "0.5", "--z-max", "0.9999999", "--z-count", "5")
_GRID_REFUSALS = [
    (("potential",) + _LAST_ROW_BAD, _TOO_CLOSE_LAST),
    (("potential", "--geometry", "cp", "--format", "json", "--z-min", "0.5",
      "--z-max", "0.9999999", "--z-count", "100"), _TOO_CLOSE_LAST),
    (("correlators",) + _LAST_ROW_BAD, _TOO_CLOSE_LAST),
    (("sweep",) + _LAST_ROW_BAD, _TOO_CLOSE_LAST),
    (("sweep", "--quantities", "force") + _LAST_ROW_BAD, _TOO_CLOSE_LAST),
    # the guard-band row 5 comes before the rows outside the walls
    (("potential", "--z-min", "0.999999", "--z-max", "1.0000002",
      "--z-count", "7"), _TOO_CLOSE_BEFORE_OUTSIDE),
    (("correlators", "--geometry", "cp", "--z-min", "-0.5", "--z-max",
      "0.5", "--z-count", "3"),
     "OutOfDomain: z=-0.5 is not strictly between the walls (0, 1.0)\n"),
    (("potential", "--z-min", "0.5", "--z-max", "1.5", "--z-count", "3"),
     "OutOfDomain: z=1.0 is not strictly between the walls (0, 1.0)\n"),
    # the first bad cell sits after the zero columns the table never holds
    (("correlators", "--geometry", "cp", "--a", "1.598422e+69", "--units",
      "si", "--z-min", "1e68", "--z-max", "7.873522582621254e+68",
      "--z-count", "3"),
     "NonFiniteResult: EE_zz=5.21004e-318 in row 3"
     " (z=7.873522582621254e+68) is not a finite normal double\n"),
    (("correlators", "--a", "6.7e76", "--z-min", "1e75", "--z-max",
      "6e76", "--z-count", "5"),
     "NonFiniteResult: trace_EE_plus_trace_BB=-1.7096527021243107e-308"
     " in row 1 (z=1e+75) is not a finite normal double\n"),
    # one --z point whose scalar powers leave the double range (the
    # series' u**-5, the closed form's sin(u)**5 == 0) is refused with
    # the same message as a grid row
    (("potential", "--guard-mode", "asymptotic", "--z", "1e-70"),
     "NonFiniteResult: force_z=-inf in row 1 (z=1e-70) is not a finite"
     " normal double\n"),
    (("potential", "--guard-eps", "1e-300", "--z", "1e-70"),
     "NonFiniteResult: force_z=-inf in row 1 (z=1e-70) is not a finite"
     " normal double\n"),
    # pi*z/a underflows to 0.0 although 0 < z < a: the smallest xi, in the
    # band, as for a subnormal xi, on one point and on a grid
    (("potential", "--a", "1e300", "--z", "1e-30"),
     "TooCloseToWall: xi=5e-324 is within 1e-06 of a wall (mode=reject)\n"),
    (("correlators", "--a", "1e300", "--z-min", "1e-30", "--z-max", "5e299",
      "--z-count", "3"),
     "TooCloseToWall: xi=5e-324 is within 1e-06 of a wall (mode=reject)\n"),
    # the span z_max - z_min overflows: np.linspace's first row is nan
    (("potential", "--z-min=-1.7e308", "--z-max=1.7e308", "--z-count", "5"),
     "OutOfDomain: z=nan is not strictly between the walls (0, 1.0)\n"),
    (("potential", "--a", "1e30", "--z", "1e-300", "--guard-mode",
      "asymptotic"),
     "NonFiniteResult: V_E=-inf in row 1 (z=1e-300) is not a finite normal"
     " double\n"),
    (("sweep", "--a", "1e30", "--z-min", "1e-300", "--z-max", "5e29",
      "--z-count", "3", "--guard-mode", "asymptotic"),
     "NonFiniteResult: V=-inf in row 1 (z=1e-300) is not a finite normal"
     " double\n"),
]


@pytest.mark.parametrize("argv, want", _GRID_REFUSALS)
def test_grid_refusal_matches_the_row_loop(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", want)


@pytest.mark.parametrize("chunk_rows", [1, 7])
@pytest.mark.parametrize("argv, want", _GRID_REFUSALS)
def test_grid_refusal_does_not_depend_on_the_chunk_size(
    capsys, monkeypatch, argv, want, chunk_rows
):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    test_grid_refusal_matches_the_row_loop(capsys, argv, want)


# sha256 of f"{exit code}\n{stderr}" for refusals whose grid spans several
# chunks at a small chunk size. A grid is refused as a whole: the first
# domain refusal anywhere in it, in grid order, before a result out of the
# double range (a prefactor or a profile power), and that before the first
# non-finite cell in grid order.
_REFUSAL_HASHES = {
    # a**4 overflows, and row 2 lies outside the walls (OutOfDomain)
    ("potential", "--a", "1e100", "--z-min", "1e99", "--z-max", "2e100",
     "--z-count", "3"):
        "be301e983f9aa743bfd70f650854a239809cdffd1621119307d3f84782f8dd9b",
    # (pi/a)^4 underflows, and row 2 lies outside the walls (OutOfDomain)
    ("correlators", "--a", "1e100", "--z-min", "1e99", "--z-max", "2e100",
     "--z-count", "3"):
        "be301e983f9aa743bfd70f650854a239809cdffd1621119307d3f84782f8dd9b",
    # V_E is -inf from row 1 on; row 34 lies outside the walls (OutOfDomain)
    ("potential", "--alpha=1e308", "--a", "1", "--z-min", "1e-3",
     "--z-max", "1.5", "--z-count", "50"):
        "64674ccc675198582fd59f1db4d57103f23b25ef91d2cbca796205bd31834c2a",
    # rows 33 to 40 are inf: NonFiniteResult names row 33
    ("potential", "--alpha=1e300", "--z-min", "0.9", "--z-max", "0.9999",
     "--z-count", "40"):
        "1bdd0a4c40ee7d50985657d5a91342b916f605d7f75a6e639c8715e1d1cdce7f",
    # linspace repeats a value: InvalidGrid, not strictly increasing
    ("sweep", "--a", "2", "--z-min", "1", "--z-max", "1.0000000000000002",
     "--z-count", "5"):
        "835f6c0e2813d347e69e0815e8aa1b841d0caf23e328e4a38bcc33b57d08f067",
    # InvalidGrid: the grid ends past the far wall
    ("sweep", "--a", "2", "--z-min", "0.5", "--z-max", "3", "--z-count", "5"):
        "a87e19f3c81055a2d6533c5bfd57de0e3050fcb1336825cccaa09db2fbf9a8ad",
}


@pytest.mark.parametrize("chunk_rows", [1, 7, analysis.CHUNK_ROWS])
@pytest.mark.parametrize("argv", sorted(_REFUSAL_HASHES))
def test_refusal_across_chunks_is_pinned(capsys, monkeypatch, argv, chunk_rows):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    code, out, err = run_cli(capsys, *argv)
    blob = f"{code}\n{err}".encode("utf-8")
    assert out == ""
    assert hashlib.sha256(blob).hexdigest() == _REFUSAL_HASHES[argv], err


# Each argv twice, with different neighbours: the argparse tree is built once
# per process, so no flag, default or subcommand may carry over between runs.
_INTERLEAVED = (
    ("sweep", "--emit-limit-reference", "--geometry", "cp", "--z-min", "0.1",
     "--z-max", "0.9", "--z-count", "3"),
    ("sweep", "--z-min", "0.1", "--z-max", "0.9", "--z-count", "3",
     "--quantities", "force"),
    ("potential", "--z", "0.3", "--format", "json", "--units", "si"),
    ("potential", "--z", "0.3"),
    ("limits", "--wall-type", "permeable", "--z", "0.5", "--a-values", "2,4"),
    ("correlators", "--guard-mode", "asymptotic", "--z-min", "1e-9",
     "--z-max", "0.5", "--z-count", "3"),
    ("correlators", "--z", "1e-9"),
    ("potential", "--z-min", "0.9", "--z-max", "0.1", "--z-count", "5"),
    ("potential", "--bogus"),
)


def test_interleaved_in_process_runs_match_separate_processes(capsys):
    separate = {
        argv: _run_module("-m", "cpwalls", *argv) for argv in _INTERLEAVED
    }
    for argv in _INTERLEAVED + _INTERLEAVED[::-1]:
        proc = separate[argv]
        got = run_cli(capsys, *argv)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def test_refused_run_leaves_the_out_file_untouched(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_text("kept\n")
    for argv in (("--z", "1e-8"), ("--a", "1e100", "--z", "5e99")):
        code, _, _ = run_cli(capsys, "potential", *argv, "--out", str(path))
        assert code == 2
    assert path.read_text() == "kept\n"


# ----------------------------------------------------------------------
# correlators
# ----------------------------------------------------------------------


def test_correlators_columns_and_traces(capsys):
    code, out, _ = run_cli(
        capsys, "correlators", "--geometry", "cp",
        "--z-min", "0.2", "--z-max", "0.8", "--z-count", "13",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert tuple(header) == CORRELATOR_COLUMNS
    assert len(header) == 1 + 27 + 3
    for row in rows:
        for i in "xyz":
            for j in "xyz":
                assert row[f"EB_{i}{j}"] == 0.0
                if i != j:
                    assert row[f"EE_{i}{j}"] == 0.0
                    assert row[f"BB_{i}{j}"] == 0.0
        assert row["EE_xx"] == row["EE_yy"]
        assert row["trace_EE_plus_trace_BB"] == pytest.approx(
            row["trace_EE"] + row["trace_BB"], rel=1e-12
        )
    sums = [row["trace_EE_plus_trace_BB"] for row in rows]
    assert max(sums) - min(sums) <= 1e-12 * abs(sums[0])
    assert all(s > 0.0 for s in sums)  # permeable pair: positive constant


def test_correlators_cp_asymmetry(capsys):
    code, out, _ = run_cli(
        capsys, "correlators", "--geometry", "cp",
        "--z-min", "0.25", "--z-max", "0.75", "--z-count", "3",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["EE_zz"] != rows[2]["EE_zz"]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_sweep_row_count_and_quantities(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--z-min", "0.01", "--z-max", "0.99",
        "--z-count", "101", "--quantities", "V,force",
    )
    assert code == 0
    assert out.count("\n") == 102  # header + 101 rows, trailing LF
    header, rows = parse_csv(out)
    assert header == ["z", "V", "force"]
    assert len(rows) == 101


def test_sweep_limit_reference_column(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--z-min", "0.1", "--z-max", "0.9", "--z-count", "5",
        "--quantities", "V", "--emit-limit-reference",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["z", "V", "V_wall"]
    assert rows[0]["V_wall"] < 0.0


def test_sweep_bad_quantity_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--z-min", "0.1", "--z-max", "0.9", "--z-count", "5",
        "--quantities", "V,entropy",
    )
    assert code == 1 and "entropy" in err


# ----------------------------------------------------------------------
# limits
# ----------------------------------------------------------------------


def test_limits_default_separations(capsys):
    code, out, _ = run_cli(capsys, "limits", "--z", "1.0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "V_exact", "V_limit", "rel_error"]
    assert [row["a"] for row in rows] == [20.0, 40.0, 80.0, 160.0]
    errs = [row["rel_error"] for row in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_limits_degenerate_cell(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--z", "1.0", "--alpha", "1.0", "--beta", "1.0"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert all(row["rel_error"] == "limit degenerate" for row in rows)


def test_limits_permeable_wall(capsys):
    code, out, _ = run_cli(
        capsys, "limits", "--wall-type", "permeable", "--z", "1.0",
        "--a-values", "10,20,40",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(row["V_limit"] > 0.0 for row in rows)


def test_limits_names_z_where_the_default_ladder_overflows(capsys):
    """160 times z leaves the double range: the refusal names --z, not an a list."""
    assert run_cli(capsys, "limits", "--z", "1e307") == (
        1, "", "ConfigError: --z 1e+307 overflows the default a ladder"
               " (20 to 160 times z)\n")
    # the largest z whose ladder is finite passes this check
    code, _, err = run_cli(capsys, "limits", "--z", repr(sys.float_info.max / 160.0))
    assert "ladder" not in err and code == 2


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------


def test_si_units_scale_output_columns(capsys):
    argv = ["potential", "--z", "0.5", "--alpha", "1", "--beta", "0.25"]
    _, natural_out, _ = run_cli(capsys, *argv)
    _, si_out, _ = run_cli(capsys, *argv, "--units", "si")
    _, nat_rows = parse_csv(natural_out)
    _, si_rows = parse_csv(si_out)
    for key in ("V_E", "V_M", "V_total", "force_z"):
        assert si_rows[0][key] == nat_rows[0][key] * HBAR_C_J_M
    assert si_rows[0]["z"] == nat_rows[0]["z"]  # positions stay in meters
    assert si_rows[0]["regime"] == "exact"


# A nonzero natural-unit value that the factor hbar*c takes below the normal
# range, to a subnormal or to +-0, is refused as a subnormal cell is.
_SI_UNDERFLOWS = [
    (("potential", "--z", "0.5", "--alpha", "1e-301"),
     "NonFiniteResult: V_E=-0.0 in row 1 (z=0.5) is not a finite normal"
     " double\n"),
    (("limits", "--z", "1", "--alpha", "1e-300"),
     "NonFiniteResult: V_exact=-0.0 in row 1 (a=20.0) is not a finite normal"
     " double\n"),
    (("potential", "--z-min", "0.45", "--z-max", "0.55", "--z-count", "3",
      "--alpha", "1e-300"),
     "NonFiniteResult: V_E=-0.0 in row 1 (z=0.45) is not a finite normal"
     " double\n"),
    (("sweep", "--a", "2e75", "--z-min", "5e74", "--z-max", "1.5e75",
      "--z-count", "3", "--quantities", "EE_trace", "--format", "json"),
     "NonFiniteResult: EE_trace=0.0 in row 1 (z=5e+74) is not a finite normal"
     " double\n"),
]


@pytest.mark.parametrize("chunk_rows", [1, analysis.CHUNK_ROWS])
@pytest.mark.parametrize("argv, want", _SI_UNDERFLOWS)
def test_si_cell_that_underflows_is_refused(
    capsys, monkeypatch, argv, want, chunk_rows
):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    assert run_cli(capsys, *argv, "--units", "si") == (2, "", want)


def test_si_cell_that_is_zero_in_natural_units_stays_zero(capsys):
    argv = ("potential", "--z", "0.5", "--alpha", "0")
    natural = run_cli(capsys, *argv)
    assert natural == (0, "z,V_E,V_M,V_total,force_z,regime\n0.5,-0,0,0,-0,exact\n", "")
    assert run_cli(capsys, *argv, "--units", "si") == natural


# ----------------------------------------------------------------------
# streaming: one chunk at a time
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command", [("potential",), ("correlators",), ("sweep", "--emit-limit-reference")]
)
def test_no_kernel_or_format_call_covers_more_than_one_chunk(
    capsys, monkeypatch, command, fmt
):
    argv = command + ("--z-min", "0.01", "--z-max", "0.99", "--z-count", "100",
                      "--format", fmt)
    want = run_cli(capsys, *argv)
    kernel_rows, format_rows = [], []
    grid_terms, floats = Geometry._grid_terms, cli._floats

    def spy_kernel(self, z, guard):
        kernel_rows.append(len(z))
        return grid_terms(self, z, guard)

    def spy_floats(cells):  # what one %-format call of the writer formats
        format_rows.append(len(cells))
        return floats(cells)

    monkeypatch.setattr(Geometry, "_grid_terms", spy_kernel)
    monkeypatch.setattr(cli, "_floats", spy_floats)
    monkeypatch.setattr(analysis, "CHUNK_ROWS", 7)
    assert run_cli(capsys, *argv) == want
    assert max(kernel_rows) == max(format_rows) == 7
    # the gate pass and the write pass each evaluate every row once
    assert sum(kernel_rows) == 2 * sum(format_rows) == 200


@pytest.mark.parametrize("command, floats", [
    (("potential",), 5), (("correlators",), 10), (("sweep", "--emit-limit-reference"), 6),
])
def test_each_format_call_writes_one_slice_of_a_chunk(capsys, monkeypatch, command, floats):
    argv = command + ("--z-min", "0.01", "--z-max", "0.99", "--z-count", "300")
    want = run_cli(capsys, *argv)
    format_rows, floats_of = [], cli._floats

    def spy_floats(cells):
        format_rows.append(len(cells))
        return floats_of(cells)

    monkeypatch.setattr(cli, "_floats", spy_floats)
    assert run_cli(capsys, *argv) == want
    rows = 3072 // (24 * floats)  # about 3 KiB of text a call
    full, last = divmod(300, rows)
    assert format_rows == [rows] * full + [last] * (last > 0)


# Runs `python -m cpwalls ARGV` as the child of this small process, with
# stdout to /dev/null, and prints its exit code and peak RSS in KiB. Spawned
# from the test process directly, the child's ru_maxrss could also count the
# pages of the process it was forked from.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "cpwalls", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_peak_memory_does_not_grow_with_the_row_count():
    """A cp potential table peaks alike at 5e4 and 5e5 rows, within 2 MiB.

    Whole-grid positions (8 bytes a row) or one %-format string per chunk
    (about 7 bytes a row) would each add over 3 MiB between the two.
    """
    peaks_mb = []
    for rows in (50_000, 500_000):
        proc = _run_module("-c", _PEAK_RSS, "potential", "--geometry", "cp",
                           "--z-min", "0.001", "--z-max", "0.999",
                           "--z-count", str(rows))
        code, kib = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        peaks_mb.append(kib / 1024.0)
    assert abs(peaks_mb[1] - peaks_mb[0]) < 2.0, peaks_mb


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the count of the lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def _traced_peak(argv, rows):
    """The tracemalloc peak of cli.main(argv) over a grid of rows, and its line count.

    A small run first builds the parser and loads NumPy, so the peak is the
    table's own.
    """
    with contextlib.redirect_stdout(_CountingSink()):
        assert main(argv + ["--z-count", "2"]) == 0
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv + ["--z-count", str(rows)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == rows + 1
    return peak


def test_a_table_holds_one_chunk_of_its_widest_rows():
    """A 2e4-row cp correlator table, ten live float columns, peaks below 1 MiB.

    tracemalloc counts what Python and NumPy allocate while cli.main runs.
    A chunk of 2048 rows, written in slices of 34 rows, peaks at about
    0.6 MiB, its positions included; one of 8192 rows at about 2.3 MiB,
    and the table held whole at about 4.8 MiB. Formatting a 2048-row chunk
    in one %-format call peaked at about 1.9 MiB.
    """
    argv = ["correlators", "--geometry", "cp", "--z-min", "0.001", "--z-max", "0.999"]
    peak = _traced_peak(argv, 20_000)
    assert peak < 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_a_tables_traced_peak_does_not_grow_with_its_rows():
    """A cp potential table peaks alike at 2e4 and 2e5 rows, within 256 KiB.

    The positions are built a chunk at a time; np.linspace held whole would
    add 8 bytes a row, 1.4 MiB between the two.
    """
    argv = ["potential", "--geometry", "cp", "--z-min", "0.001", "--z-max", "0.999"]
    small, large = (_traced_peak(argv, rows) for rows in (20_000, 200_000))
    assert large - small < 256 * 2 ** 10, (small, large)


# ----------------------------------------------------------------------
# determinism and --out
# ----------------------------------------------------------------------


def test_rerun_is_byte_identical(tmp_path, capsys):
    path_a = tmp_path / "first.csv"
    path_b = tmp_path / "second.csv"
    argv = ["sweep", "--geometry", "cp", "--z-min", "0.05", "--z-max", "0.95",
            "--z-count", "33", "--quantities", "V,V_E,V_M,force"]
    assert main(argv + ["--out", str(path_a)]) == 0
    assert main(argv + ["--out", str(path_b)]) == 0
    capsys.readouterr()
    first = path_a.read_bytes()
    assert first == path_b.read_bytes()
    assert first.endswith(b"\n") and b"\r" not in first


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "geometry = cp\n"
        "alpha = 0.5\n"
        "z = 0.25\n"
    )
    code, out, _ = run_cli(capsys, "potential", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    atom = AtomResponse(0.5, 0.0)
    geom = Geometry(WallKind.CONDUCTOR_PERMEABLE, 1.0)
    assert rows[0]["V_total"] == potential_total(atom, geom, 0.25)


def test_explicit_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 0.25\nalpha = 0.5\n")
    code, out, _ = run_cli(
        capsys, "potential", "--config", str(cfg), "--z", "0.75"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["z"] == 0.75
    atom = AtomResponse(0.5, 0.0)  # alpha still from the file
    geom = Geometry(WallKind.CONDUCTOR_CONDUCTOR, 1.0)
    assert rows[0]["V_total"] == potential_total(atom, geom, 0.75)


def test_config_file_underscores_and_booleans(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "z_min = 0.1\n"
        "z_max = 0.9\n"
        "z_count = 5\n"
        "quantities = V\n"
        "emit_limit_reference = yes\n"
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    header, _ = parse_csv(out)
    assert header == ["z", "V", "V_wall"]


@pytest.mark.parametrize(
    "content", ["just a line\n", "= value\n", "emit-limit-reference = maybe\n"]
)
def test_malformed_config_exit_1(tmp_path, capsys, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    argv = ("sweep", "--config", str(cfg), "--z-min", "0.1", "--z-max", "0.9",
            "--z-count", "5")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "bad.cfg" in err


def test_config_as_the_last_token_exit_1(capsys):
    code, out, err = run_cli(capsys, "potential", "--z", "0.5", "--config")
    assert (code, out, err) == (
        1, "", "ConfigError: argument --config: expected one argument\n"
    )


@pytest.mark.parametrize("spelling", [
    lambda cfg: [f"--config={cfg}"],
    # argparse takes an unambiguous prefix of --config; the file is read too
    lambda cfg: ["--conf", str(cfg)],
], ids=["equals", "prefix"])
def test_config_equals_path_gives_the_same_bytes(tmp_path, capsys, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = cp\nalpha = 0.5\nz = 0.1\n")
    spaced = run_cli(capsys, "potential", "--config", str(cfg), "--z", "0.25")
    assert spaced[0] == 0 and spaced[1]
    assert run_cli(capsys, "potential", *spelling(cfg), "--z", "0.25") == spaced


@pytest.mark.parametrize("argv, want", [
    (("--config", "/no/such/file"),
     "ConfigError: cannot read config file '/no/such/file'"),
    (("--conf", "/no/such/file", "--z", "0.5"),
     "ConfigError: cannot read config file '/no/such/file'"),
    (("--z", "0.5", "--config="), "ConfigError: cannot read config file ''"),
    # the command-line flags are checked before the file is read
    (("--config", "/no/such/file", "--z", "nan"),
     "ConfigError: argument --z: value must be finite, got 'nan'\n"),
    (("--config", "/no/such/file", "--walrus"),
     "ConfigError: unrecognized arguments: --walrus\n"),
], ids=["spaced", "prefix", "empty", "bad-flag-first", "unknown-flag-first"])
def test_missing_config_exit_1(capsys, argv, want):
    code, out, err = run_cli(capsys, "potential", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(want)


def test_a_values_from_a_config_file_give_the_command_line_table(tmp_path, capsys):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text("wall_type = permeable\na_values = 4, 8,16\n")
    from_file = run_cli(capsys, "limits", "--z", "1.5", "--config", str(cfg))
    assert from_file[0] == 0 and from_file[1].count("\n") == 4
    assert from_file == run_cli(
        capsys, "limits", "--z", "1.5", "--wall-type", "permeable",
        "--a-values", "4,8,16",
    )


@pytest.mark.parametrize("argv, want", [
    (("potential", "--z", "x"),
     "ConfigError: argument --z: value must be a number, got 'x'\n"),
    (("limits", "--a-values", "2,x"),
     "ConfigError: argument --a-values: value must be a number, got 'x'\n"),
    # --a-values is checked with the other flags, before the file is read
    (("limits", "--a-values", "2,nan", "--config", "/no/such"),
     "ConfigError: argument --a-values: value must be finite, got 'nan'\n"),
], ids=["z", "a-values", "a-values-before-config"])
def test_a_bad_flag_value_is_named_with_its_flag(capsys, argv, want):
    assert run_cli(capsys, *argv) == (1, "", want)


# ----------------------------------------------------------------------
# the parser
# ----------------------------------------------------------------------

_COMMON_OPTIONS = [
    "-h", "--help", "--config", "--geometry", "--a", "--alpha", "--beta",
    "--guard-eps", "--guard-mode", "--units", "--format", "--out",
]
_COMMON_DEFAULTS = {
    "config": None, "geometry": "cc", "a": 1.0, "alpha": 1.0, "beta": 0.0,
    "guard_eps": 1e-6, "guard_mode": "reject", "units": "natural",
    "format": "csv", "out": None,
}
_GRID_OPTIONS = ["--z", "--z-min", "--z-max", "--z-count"]
_GRID_DEFAULTS = {"z": None, "z_min": None, "z_max": None, "z_count": None}

# Each subcommand's option strings, in order, and its parsed defaults.
SUBCOMMANDS = {
    "potential": (_COMMON_OPTIONS + _GRID_OPTIONS,
                  {**_COMMON_DEFAULTS, **_GRID_DEFAULTS}),
    "correlators": (_COMMON_OPTIONS + _GRID_OPTIONS,
                    {**_COMMON_DEFAULTS, **_GRID_DEFAULTS}),
    "sweep": (_COMMON_OPTIONS + _GRID_OPTIONS
              + ["--quantities", "--emit-limit-reference"],
              {**_COMMON_DEFAULTS, **_GRID_DEFAULTS,
               "quantities": "V,V_E,V_M,force", "emit_limit_reference": False}),
    "limits": (_COMMON_OPTIONS + ["--wall-type", "--z", "--a-values"],
               {**_COMMON_DEFAULTS, "wall_type": "conducting", "z": 1.0,
                "a_values": None}),
    "verify": (["-h", "--help", "--config", "--level", "--format", "--out"],
               {"config": None, "level": "quick", "format": "text", "out": None}),
}


def _subparsers() -> dict:
    top = cli._build_parser()
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_the_subcommands_are_pinned():
    assert list(_subparsers()) == list(SUBCOMMANDS)


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_each_subcommand_keeps_its_options_and_defaults(command):
    options, defaults = SUBCOMMANDS[command]
    parser = _subparsers()[command]
    assert [s for a in parser._actions for s in a.option_strings] == options
    parsed = vars(cli._build_parser().parse_args([command]))
    parsed.pop("handler", None)
    assert parsed == {"command": command, **defaults}


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_quick_json_lists_every_check_once(capsys):
    code, out, err = run_cli(capsys, "verify", "--level", "quick",
                             "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == list(REQUIRED_CHECK_NAMES)


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick",
                           "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["name", "max_abs_error", "max_rel_error", "tolerance",
                      "passed", "points_tested"]
    assert len(rows) == len(REQUIRED_CHECK_NAMES)
    assert all(row["passed"] == "true" for row in rows)


def test_verify_text_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0
    total = len(REQUIRED_CHECK_NAMES)
    assert f"quick: {total}/{total} checks passed" in out
    assert out.count("PASS ") == total


def test_fault_injected_verify_names_the_series_check(capsys, monkeypatch):
    monkeypatch.setattr(
        profiles, "COT_SERIES_CONST", profiles.COT_SERIES_CONST + 1e-4
    )
    code, out, err = run_cli(capsys, "verify", "--level", "quick")
    assert code != 0
    assert "FAIL near_wall_series_cot" in err
    assert "FAIL near_wall_series_cot" in out


def _flip_cp_diag_const(monkeypatch):
    kind = WallKind.CONDUCTOR_PERMEABLE
    entry = WALL_TABLE[kind]
    monkeypatch.setitem(WALL_TABLE, kind, entry._replace(diag_const=-entry.diag_const))


def _mirror_cp_tensor(monkeypatch):
    # the cp tensor at z is made the one at the mirror point nearer z = 0
    built = verification.correlator_ee

    def mirrored(geom, z, *args):
        if geom.kind is WallKind.CONDUCTOR_PERMEABLE:
            z = min(z, geom.separation_a - z)
        return built(geom, z, *args)

    monkeypatch.setattr(verification, "correlator_ee", mirrored)


def test_failing_verify_json_writes_null_for_a_non_finite_error(
    capsys, monkeypatch
):
    # K of the wrong sign makes trace_sum_constant's relative error inf,
    # which JSON cannot hold
    _flip_cp_diag_const(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code != 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    checks = {c["name"]: c for c in json.loads(out, parse_constant=refuse)["checks"]}
    assert checks["trace_sum_constant"]["passed"] is False
    assert checks["trace_sum_constant"]["max_rel_error"] is None


_COT_FAULT_STDERR = (
    "FAIL near_wall_series_cot: max_abs=1.7611597629792093"
    " max_rel=1.7611597629792093 tolerance=0.050000000000000003\n"
    "FAIL far_wall_series_cot: max_abs=1.7611597325560513"
    " max_rel=1.7611597325560513 tolerance=0.050000000000000003\n"
)


@pytest.mark.parametrize("fmt, stdout_sha256", [
    ("text", "14328ed23efff1963a388a05b646101577da7ac3d9c0ce923d7bcd86526e4770"),
    ("csv", "62d5f0eed87d8597e4f85cd503db51bedd49d2f0fa256a309c0e287715997e9d"),
    ("json", "a29d89c6700a133a74395f58bd80773c0ba7387c6e06b7cfc59917f7483ea71f"),
], ids=["text", "csv", "json"])
def test_verify_exit_counts_failures(capsys, monkeypatch, fmt, stdout_sha256):
    monkeypatch.setattr(
        profiles, "COT_SERIES_CONST", profiles.COT_SERIES_CONST + 1e-4
    )
    code, out, err = run_cli(capsys, "verify", "--level", "quick", "--format", fmt)
    # near- and far-wall cot expansion checks; the stderr echo of a failing
    # check has the text format's line, less points
    assert (code, err) == (2, _COT_FAULT_STDERR)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha256


_FAULTS = {"diag-sign": _flip_cp_diag_const, "mirrored-tensor": _mirror_cp_tensor}
# exit code and sha256 of stdout and stderr of verify --level full under the
# two faults a check answers with max_rel = inf: a cp K of the wrong sign
# (trace_sum_constant, with both potential checks) and a reflection-symmetric
# cp tensor (cc_reflection_cp_asymmetry alone)
_FORCED_FAILURES = {
    ("diag-sign", "text"): (
        3, "004273a48d915ba5d329b90b02396955a90f066590ab56c11335af6a5bcc720c",
        "c24051e1655e7c31d3ca668ce7868afc62fd8496aa9282505c8df2f40e6a8d12"),
    ("diag-sign", "json"): (
        3, "1fe1e3d71373dbd484424f5076803def58dda6624d7ab7f28ec5e4914acccd8e",
        "c24051e1655e7c31d3ca668ce7868afc62fd8496aa9282505c8df2f40e6a8d12"),
    ("mirrored-tensor", "text"): (
        1, "85963f62f34e9022bae2cf381452f2dd974fa371c2fa31194ce6d424c7c432df",
        "cd31cd09051acb22d2a1deaae3a9ea5d5714e8148b0e8596e9ded5aa5c1b4a30"),
    ("mirrored-tensor", "json"): (
        1, "d6e499451c4ed3ebb2c956accedb76783f8181da0a443691fe5ca5d32d6379dc",
        "cd31cd09051acb22d2a1deaae3a9ea5d5714e8148b0e8596e9ded5aa5c1b4a30"),
}


@pytest.mark.parametrize("fault, fmt", sorted(_FORCED_FAILURES))
def test_forced_verify_failures_are_pinned(capsys, monkeypatch, fault, fmt):
    _FAULTS[fault](monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--level", "full", "--format", fmt)
    digest = [hashlib.sha256(s.encode("utf-8")).hexdigest() for s in (out, err)]
    assert (code, *digest) == _FORCED_FAILURES[fault, fmt]


# ----------------------------------------------------------------------
# module entry point
# ----------------------------------------------------------------------


def test_python_dash_m_subprocess():
    proc = _run_module("-m", "cpwalls", "potential", "--z", "0.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("z,V_E,V_M,V_total,force_z,regime\n")


def _run_module(*args, env=None):
    # The package may be importable only through PYTHONPATH (a source tree
    # run), so hand the child the directory this process imported it from.
    src = str(pathlib.Path(profiles.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=env,
    )


@pytest.mark.parametrize(
    "argv", [("correlators", "--z", "0.3"), ("verify", "--level", "quick"),
             ("verify", "--level", "full")]
)
def test_optimized_interpreter_gives_the_same_output(argv):
    # python -O strips assert statements; no invariant may depend on them
    plain = _run_module("-m", "cpwalls", *argv)
    optimized = _run_module("-O", "-m", "cpwalls", *argv)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert optimized.stdout == plain.stdout


@pytest.mark.parametrize(
    "argv, code, stdout_head, stderr",
    [
        (("--z", "0.5"), 0, "z,V_E,V_M,V_total,force_z,regime\n",
         "NegativePolarizabilityWarning: negative static polarizability"
         " supplied\n"),
        (("--z", "5"), 2, "",
         "NegativePolarizabilityWarning: negative static polarizability"
         " supplied\n"
         "OutOfDomain: z=5.0 is not strictly between the walls (0, 1.0)\n"),
    ],
)
def test_cli_warning_is_one_line_without_a_source_path(
    argv, code, stdout_head, stderr
):
    proc = _run_module("-m", "cpwalls", "potential", "--beta=-1", *argv)
    assert proc.returncode == code
    assert proc.stdout.startswith(stdout_head)
    assert proc.stderr == stderr


def _avx512_targets() -> list[str]:
    core = getattr(np, "_core", None) or np.core
    dispatch = getattr(core._multiarray_umath, "__cpu_dispatch__", [])
    return [t for t in dispatch if t.startswith("AVX512") or t == "X86_V4"]


# On an AVX-512 host, d ** -4 changed the image sums at the first two points.
_ORACLE_VALUES = (
    "from cpwalls.profiles import *\n"
    "for x in (0.060290071035260816, 0.7092037689048224, 1.3, 2.2, 3.09):\n"
    "    cfg = OracleConfig(image_terms_needed(x, 1e-12), 1e-12)\n"
    "    print(repr(cot_profile_via_images(x, cfg)),"
    " repr(csc_profile_via_images(x, cfg)))\n"
)


def test_oracle_and_verify_bytes_do_not_depend_on_simd_dispatch():
    # NumPy's ** dispatches to an AVX-512 pow whose last bit differs from
    # libm's; the oracle powers through np.float_power so that a machine
    # without AVX-512 gets the same values and the same verify report.
    targets = _avx512_targets()
    if not targets:
        pytest.skip("NumPy lists no AVX-512 dispatch target")
    verify = ("-m", "cpwalls", "verify", "--level", "full", "--format", "csv")
    plain = [_run_module("-c", _ORACLE_VALUES), _run_module(*verify)]
    scalar = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    reduced = [
        _run_module("-c", _ORACLE_VALUES, env=scalar),
        _run_module(*verify, env=scalar),
    ]
    for a, b in zip(plain, reduced):
        assert a.returncode == 0 and b.returncode == 0, b.stderr
        assert b.stdout == a.stdout
    assert len(plain[0].stdout.splitlines()) == 5


def test_tensor_field_pair_checked_under_optimized_interpreter():
    code = (
        "from cpwalls.correlators import CorrelatorTensor\n"
        "try:\n"
        "    CorrelatorTensor(1.0, 1.0, 'XY')\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    proc = _run_module("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
