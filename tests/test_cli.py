"""End-to-end CLI contract: columns, formats, exit codes, config files.

Most tests drive cpwalls.cli.main in process (stdout/stderr via capsys); one
subprocess test checks the `python -m cpwalls` wiring for real.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import cpwalls.profiles as profiles
from cpwalls.cli import CORRELATOR_COLUMNS, POTENTIAL_COLUMNS, main
from cpwalls.potentials import AtomResponse, potential_total
from cpwalls.correlators import Geometry, WallKind
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
        ("frobnicate",),
        ("limits", "--a-values", "2,nan"),
        ("limits", "--a-values", "2,inf"),
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
        (("potential", "--z", "0.5", "--out", "/nonexistent/dir/x.csv"),
         "ConfigError"),
    ],
)
@pytest.mark.filterwarnings("ignore::cpwalls.errors.NegativePolarizabilityWarning")
def test_refusals_are_named_and_write_nothing(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code in (1, 2)
    assert err.startswith(error + ": ")
    assert "Traceback" not in err
    assert out == ""


# The whole grid is evaluated before any output, yet a refusal still names
# the first refused row in grid order, with the scalar path's message.
_TOO_CLOSE_LAST = (
    "TooCloseToWall: xi=3.141592339430528 is within 1e-06 of a wall"
    " (mode=reject)\n"
)
_TOO_CLOSE_BEFORE_OUTSIDE = (
    "TooCloseToWall: xi=3.141592025271262 is within 1e-06 of a wall"
    " (mode=reject)\n"
)
_LAST_ROW_BAD = ("--z-min", "0.5", "--z-max", "0.9999999", "--z-count", "5")


@pytest.mark.parametrize(
    "argv, want",
    [
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
    ],
)
def test_grid_refusal_matches_the_row_loop(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", want)


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


def test_missing_config_exit_1(capsys):
    code, _, err = run_cli(capsys, "potential", "--config", "/no/such/file")
    assert code == 1
    assert "ConfigError" in err


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


def test_verify_exit_counts_failures(capsys, monkeypatch):
    monkeypatch.setattr(
        profiles, "COT_SERIES_CONST", profiles.COT_SERIES_CONST + 1e-4
    )
    code, _, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 2  # near- and far-wall cot expansion checks


# ----------------------------------------------------------------------
# module entry point
# ----------------------------------------------------------------------


def test_python_dash_m_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cpwalls", "potential", "--z", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("z,V_E,V_M,V_total,force_z,regime\n")


def _run_module(*args):
    # The package may be importable only through PYTHONPATH (a source tree
    # run), so hand the child the directory this process imported it from.
    src = str(pathlib.Path(profiles.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=env,
    )


@pytest.mark.parametrize(
    "argv", [("correlators", "--z", "0.3"), ("verify", "--level", "quick")]
)
def test_optimized_interpreter_gives_the_same_output(argv):
    # python -O strips assert statements; no invariant may depend on them
    plain = _run_module("-m", "cpwalls", *argv)
    optimized = _run_module("-O", "-m", "cpwalls", *argv)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert optimized.stdout == plain.stdout


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
