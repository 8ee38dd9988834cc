"""The three workloads: seeded op lists and the checks every op must pass.

A workload is a fixed list of ops made from the seed; a run repeats whole
passes over it. An op either runs ``python -m cpwalls`` in a fresh process
(grid-tabulate, oneshot-cli) or sends one batch of public library calls to a
long-lived worker (library-mixed). Every op's output is checked: exit code,
no traceback, header and row count, LF endings, no inf/nan/subnormal, and
seeded sample rows against the mpmath reference. Expected refusals pass only
with their documented exit code and error class.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
import numpy as np

from common import QUANTITIES, SMALLEST_NORMAL
from reference import (
    HBAR_C,
    CheckFailure,
    Point,
    expect,
    nearest_wall,
    profile,
    profile_deriv,
    single_wall,
)

# Binary-exact polarizabilities keep V_E + V_M = V at the few-ulp level.
# Zero is left out so every cell is a full 17-digit number and the output
# size, hence peak RSS, hardly depends on the seed.
POLARIZABILITIES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
POTENTIAL_COLUMNS = ("z", "V_E", "V_M", "V_total", "force_z", "regime")
CORRELATOR_COLUMNS = (
    ("z",)
    + tuple(f"{pair}_{i}{j}" for pair in ("EE", "BB", "EB")
            for i in "xyz" for j in "xyz")
    + ("trace_EE", "trace_BB", "trace_EE_plus_trace_BB")
)
SWEEP_COLUMNS = ("z",) + QUANTITIES + ("V_wall",)
LIMIT_COLUMNS = ("a", "V_exact", "V_limit", "rel_error")
VERIFY_CHECKS = 24
PI_LO = 1.2246467991473532e-16  # pi - math.pi, where the poles really sit
SAMPLE_ROWS = 6  # reference-checked rows per op, besides the first and last


@dataclass(frozen=True)
class Sizes:
    grid_rows: int = 20_000
    big_rows: int = 200_000
    points: int = 200
    sweep_rows: int = 100
    setup_samples: int = 12  # set-up spawns per run, spread over its time


FULL = Sizes()
SMOKE = Sizes(grid_rows=200, big_rows=2_000, points=10, sweep_rows=10,
              setup_samples=2)


@dataclass
class Op:
    """One unit of load. ``check(output, rng)`` raises CheckFailure."""

    name: str
    rows: int
    check: Callable
    argv: list[str] | None = None      # CLI op: arguments after -m cpwalls
    request: dict | None = None        # library op: one worker batch
    spec: dict = field(default_factory=dict)  # what the layer probe replays


def _num(x: float) -> str:
    return repr(float(x))


def _draw_a(rng: random.Random) -> float:
    return float(f"{rng.uniform(0.5, 4.0):.6g}")


def _draw_atom(rng: random.Random) -> tuple[float, float]:
    alpha = rng.choice(POLARIZABILITIES)
    beta = rng.choice([b for b in POLARIZABILITIES if b != alpha])
    return alpha, beta


def sample_rows(rng: random.Random, n: int) -> list[int]:
    return sorted({0, n - 1, *(rng.randrange(n) for _ in range(SAMPLE_ROWS))})


# ---------------------------------------------------------------- parsing


def _fail(msg: str):
    raise CheckFailure(msg)


def _expect_success(res) -> None:
    if "Traceback" in res.stderr:
        _fail(f"traceback on stderr: {res.stderr[-300:]!r}")
    if res.returncode != 0:
        _fail(f"exit {res.returncode}: {res.stderr[-300:]!r}")


def _text(data: bytes) -> str:
    if b"\r" in data:
        _fail("output has CR line endings")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        _fail(f"output is not ASCII: {exc}")
    if not text.endswith("\n"):
        _fail("output does not end with LF")
    return text


def _all_finite_normal(arr: np.ndarray, label: str) -> None:
    if not np.isfinite(arr).all():
        _fail(f"{label}: inf or nan in output")
    mag = np.abs(arr)
    if ((mag > 0.0) & (mag < SMALLEST_NORMAL)).any():
        _fail(f"{label}: subnormal value in output")


def csv_table(data: bytes, columns, n: int, text_cols: int = 0):
    """Parse a CSV table of n rows; the last text_cols columns are words."""
    header, _, body = _text(data).partition("\n")
    if header != ",".join(columns):
        _fail(f"header {header!r}")
    if body.count("\n") != n:
        _fail(f"{body.count(chr(10))} rows, expected {n}")
    if body.count(",") != n * (len(columns) - 1):
        _fail("ragged rows")
    try:
        arr = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2,
                         usecols=range(len(columns) - text_cols))
    except ValueError as exc:
        _fail(f"unparsable cell: {exc}")
    _all_finite_normal(arr, "csv")
    return arr, body


def json_table(data: bytes, columns, n: int):
    """Parse a JSON row array into (numeric array, regimes)."""
    try:
        rows = json.loads(_text(data))
    except ValueError as exc:
        _fail(f"invalid JSON: {exc}")
    if len(rows) != n:
        _fail(f"{len(rows)} rows, expected {n}")
    if any(list(r) != list(columns) for r in rows):
        _fail("row keys differ from the column list")
    arr = np.array([[r[c] for c in columns[:-1]] for r in rows], dtype=float)
    _all_finite_normal(arr, "json")
    return arr, [r[columns[-1]] for r in rows]


def _check_grid(zs: np.ndarray, p: dict) -> None:
    if "z" in p:
        if zs.tolist() != [p["z"]]:
            _fail(f"z column {zs.tolist()} != [{p['z']!r}]")
        return
    if zs[0] != p["z_min"] or zs[-1] != p["z_max"]:
        _fail("grid ends differ from --z-min/--z-max")
    if not (np.diff(zs) > 0.0).all():
        _fail("z grid not strictly increasing")


def expected_asymptotic(zs: np.ndarray, a: float, eps: float) -> tuple[int, int]:
    """(surely, at most) rows inside the guard band, whose rule is wall
    distance in xi = pi*z/a below eps; rows within 1e-9 of the edge may go
    either way."""
    xi = np.pi * (zs / a)
    dist = np.minimum(xi, (np.pi - xi) + PI_LO)
    return (int((dist < eps * (1 - 1e-9)).sum()),
            int((dist < eps * (1 + 1e-9)).sum()))


def _check_regimes(regimes: list[str] | str, zs: np.ndarray, p: dict) -> None:
    if isinstance(regimes, str):  # CSV body: count the last cells
        asym = regimes.count(",asymptotic\n")
        exact = regimes.count(",exact\n")
    else:
        asym = regimes.count("asymptotic")
        exact = regimes.count("exact")
    if asym + exact != len(zs):
        _fail("regime column holds other words")
    eps = p.get("guard_eps", 1e-6) if p.get("guard_mode") == "asymptotic" else 0.0
    lo, hi = expected_asymptotic(zs, p["a"], eps)
    if not lo <= asym <= hi:
        _fail(f"{asym} asymptotic rows, expected {lo}..{hi}")


# ---------------------------------------------------------- row references


def check_potential_row(row, p: dict, factor=1) -> None:
    pt = Point(p["geometry"], p["a"], row[0], p["alpha"], p["beta"])
    (ve, se), (vm, sm) = pt.v_parts()
    expect("V_E", row[1], ve, se, factor)
    expect("V_M", row[2], vm, sm, factor)
    expect("V_total", row[3], ve + vm, se + sm, factor)
    expect("force_z", row[4], *pt.force(), factor)


def check_correlator_row(row, p: dict) -> None:
    pt = Point(p["geometry"], p["a"], row[0], 1.0, 0.0)
    traces = []
    for block, pair in ((1, "EE"), (10, "BB")):
        comp = row[block:block + 9]
        if any(comp[k] != 0.0 for k in (1, 2, 3, 5, 6, 7)):
            _fail(f"{pair} off-diagonal not zero")
        if comp[0] != comp[4]:
            _fail(f"{pair} xx != yy")
        (xx, sx), (zz, sz) = pt.tensor(pair)
        expect(f"{pair}_xx", comp[0], xx, sx)
        expect(f"{pair}_zz", comp[8], zz, sz)
        traces.append(pt.trace(pair))
    if any(v != 0.0 for v in row[19:28]):
        _fail("EB tensor not zero")
    expect("trace_EE", row[28], *traces[0])
    expect("trace_BB", row[29], *traces[1])
    expect("trace_sum", row[30], traces[0][0] + traces[1][0],
           traces[0][1] + traces[1][1])


def check_sweep_row(row, p: dict) -> None:
    pt = Point(p["geometry"], p["a"], row[0], p["alpha"], p["beta"])
    (ve, se), (vm, sm) = pt.v_parts()
    expect("V", row[1], ve + vm, se + sm)
    expect("V_E", row[2], ve, se)
    expect("V_M", row[3], vm, sm)
    expect("force", row[4], *pt.force())
    (ee, see), (bb, sbb) = pt.trace("EE"), pt.trace("BB")
    expect("EE_trace", row[5], ee, see)
    expect("BB_trace", row[6], bb, sbb)
    expect("V_wall", row[7], *nearest_wall(p["geometry"], p["a"], row[0],
                                           p["alpha"], p["beta"]))


def check_limit_rows(rows, p: dict) -> None:
    if [r[0] for r in rows] != p["ladder"]:
        _fail("limit rows do not follow the a ladder")
    d, wall = p["d"], p["wall"]
    v_lim, s_lim = single_wall(p["alpha"], p["beta"], wall, d)
    for a, v_exact, v_limit, rel in rows:
        if wall == "conducting":
            pt = Point("cc", a, d, p["alpha"], p["beta"])
        else:
            pt = Point("cp", a, mp.mpf(a) - mp.mpf(d), p["alpha"], p["beta"])
        v, s = pt.v_total()
        expect("V_exact", v_exact, v, s)
        expect("V_limit", v_limit, v_lim, s_lim)
        expect("rel_error", rel, abs(v / v_lim - 1), 1)


# ------------------------------------------------------------ CLI checks


def _potential_check(fmt: str, units: str):
    factor = HBAR_C if units == "si" else 1

    def check(res, rng, p):
        _expect_success(res)
        if fmt == "json":
            arr, regimes = json_table(res.stdout, POTENTIAL_COLUMNS, p["n"])
        else:
            arr, regimes = csv_table(res.stdout, POTENTIAL_COLUMNS, p["n"], 1)
        _check_grid(arr[:, 0], p)
        _check_regimes(regimes, arr[:, 0], p)
        for i in sample_rows(rng, p["n"]):
            check_potential_row(arr[i], p, factor)
    return check


def _correlator_check(res, rng, p) -> None:
    _expect_success(res)
    arr, _ = csv_table(res.stdout, CORRELATOR_COLUMNS, p["n"])
    _check_grid(arr[:, 0], p)
    for i in sample_rows(rng, p["n"]):
        check_correlator_row(arr[i], p)


def _sweep_check(res, rng, p) -> None:
    _expect_success(res)
    arr, _ = csv_table(res.stdout, SWEEP_COLUMNS, p["n"])
    _check_grid(arr[:, 0], p)
    for i in sample_rows(rng, p["n"]):
        check_sweep_row(arr[i], p)


def _limits_check(res, rng, p) -> None:
    _expect_success(res)
    arr, _ = csv_table(res.stdout, LIMIT_COLUMNS, len(p["ladder"]))
    check_limit_rows(arr.tolist(), p)


def _verify_quick_check(res, rng, p) -> None:
    _expect_success(res)
    lines = _text(res.stdout).splitlines()
    passed = [ln for ln in lines if ln.startswith("PASS ")]
    if len(passed) != VERIFY_CHECKS or lines[-1] != (
            f"quick: {VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"):
        _fail(f"verify quick: {lines[-1]!r}")


def _refusal_check(res, rng, p) -> None:
    if "Traceback" in res.stderr:
        _fail(f"traceback instead of {p['error']}: {res.stderr[-300:]!r}")
    if res.returncode != p["exit"] or not res.stderr.startswith(p["error"] + ":"):
        _fail(f"expected exit {p['exit']} {p['error']}, got exit"
              f" {res.returncode} {res.stderr[:120]!r}")
    if res.stdout:
        _fail("refused op wrote to stdout")


def _cli_op(name: str, p: dict, check, rows: int) -> Op:
    argv = [p["command"]]
    if p["command"] in ("potential", "correlators", "sweep"):
        argv += ["--geometry", p["geometry"], "--a", _num(p["a"])]
    if p["command"] in ("potential", "sweep", "limits"):
        argv += ["--alpha", _num(p["alpha"]), "--beta", _num(p["beta"])]
    if "z" in p:
        argv += ["--z", _num(p["z"])]
    elif "n" in p:
        argv += ["--z-min", _num(p["z_min"]), "--z-max", _num(p["z_max"]),
                 "--z-count", str(p["n"])]
    argv += p.get("extra", [])
    return Op(name, rows, lambda out, rng: check(out, rng, p), argv=argv,
              spec=p)


# -------------------------------------------------------------- workloads


def grid_tabulate(rng: random.Random, sizes: Sizes) -> list[Op]:
    """Large tables: per-row physics and serialization dominate."""
    a = _draw_a(rng)
    alpha, beta = _draw_atom(rng)
    base = {"a": a, "alpha": alpha, "beta": beta, "n": sizes.grid_rows,
            "z_min": a * rng.uniform(0.005, 0.05),
            "z_max": a * rng.uniform(0.95, 0.995)}
    eps = rng.choice((1e-4, 3e-4, 1e-3))
    band = eps * a / math.pi  # guard band edge in z
    asym = dict(base, command="potential", geometry="cc",
                z_min=band * rng.uniform(0.1, 0.3),
                z_max=band * rng.uniform(4.0, 8.0), guard_eps=eps,
                guard_mode="asymptotic",
                extra=["--guard-mode", "asymptotic", "--guard-eps", _num(eps)])
    n, big = sizes.grid_rows, sizes.big_rows
    return [
        _cli_op("pot_cc_csv", dict(base, command="potential", geometry="cc"),
                _potential_check("csv", "natural"), n),
        _cli_op("pot_cp_json_si",
                dict(base, command="potential", geometry="cp",
                     format="json", units="si",
                     extra=["--format", "json", "--units", "si"]),
                _potential_check("json", "si"), n),
        _cli_op("corr_cp_csv", dict(base, command="correlators", geometry="cp"),
                _correlator_check, n),
        _cli_op("sweep_cc_csv",
                dict(base, command="sweep", geometry="cc",
                     extra=["--quantities", ",".join(QUANTITIES),
                            "--emit-limit-reference"]),
                _sweep_check, n),
        _cli_op("pot_cc_asym", asym, _potential_check("csv", "natural"), n),
        _cli_op("pot_cp_big",
                dict(base, command="potential", geometry="cp", n=big),
                _potential_check("csv", "natural"), big),
    ]


def _ladder(rng: random.Random, d: float) -> list[float]:
    scale = rng.uniform(1.0, 2.0)
    return [float(f"{d * m * scale:.6g}") for m in (20, 40, 80, 160)]


def oneshot_cli(rng: random.Random, sizes: Sizes) -> list[Op]:
    """Short invocations, where start-up and error paths dominate."""
    a = _draw_a(rng)
    alpha, beta = _draw_atom(rng)
    base = {"a": a, "alpha": alpha, "beta": beta, "n": 1}
    ops = []
    for g in ("cc", "cp"):
        z = a * rng.uniform(0.02, 0.98)
        ops.append(_cli_op(f"pot_{g}", dict(base, command="potential",
                                            geometry=g, z=z),
                           _potential_check("csv", "natural"), 1))
    for g in ("cc", "cp"):
        z = a * rng.uniform(0.02, 0.98)
        ops.append(_cli_op(f"corr_{g}", dict(base, command="correlators",
                                             geometry=g, z=z),
                           _correlator_check, 1))
    for wall in ("conducting", "permeable"):
        d = float(f"{rng.uniform(0.5, 2.0):.6g}")
        ladder = _ladder(rng, d)
        p = {"command": "limits", "alpha": alpha, "beta": beta, "d": d,
             "wall": wall, "ladder": ladder,
             "extra": ["--wall-type", wall, "--z", _num(d),
                       "--a-values", ",".join(_num(x) for x in ladder)]}
        ops.append(_cli_op(f"limits_{wall}", p, _limits_check, len(ladder)))
    ops.append(_cli_op("verify_quick",
                       {"command": "verify", "extra": ["--level", "quick"]},
                       _verify_quick_check, VERIFY_CHECKS))
    lo, hi = sorted(a * rng.uniform(0.05, 0.95) for _ in range(2))
    refusals = [
        ("refuse_outside", dict(base, command="potential", geometry="cc",
                                z=a * rng.uniform(1.01, 3.0)),
         "OutOfDomain", 2),
        # default guard band: xi = pi*z/a below 1e-6 is rejected
        ("refuse_guard", dict(base, command="potential", geometry="cp",
                              z=a * 1e-6 * rng.uniform(0.01, 0.9) / math.pi),
         "TooCloseToWall", 2),
        ("refuse_grid", dict(base, command="potential", geometry="cc",
                             z_min=hi, z_max=lo, n=rng.randint(2, 50)),
         "ConfigError", 1),
    ]
    for name, p, error, code in refusals:
        p.update(error=error, exit=code)
        ops.append(_cli_op(name, p, _refusal_check, 0))
    return ops


# ------------------------------------------------------ library batches


def _points_check(reply, rng, p) -> None:
    if reply["calls"] != 26 * len(p["zs"]):
        _fail(f"{reply['calls']} library calls, expected {26 * len(p['zs'])}")
    if reply["bad"]:
        _fail(f"{reply['bad']} non-finite or subnormal library results")
    for s in reply["samples"]:
        for kind, key in (("cc", "cot"), ("cp", "csc")):
            xi = mp.mpf(s["xi"])
            pv, dv = profile(kind, xi), profile_deriv(kind, xi)
            expect(f"{key}_profile", s[key], pv, abs(pv))
            expect(f"{key}_profile_deriv", s["d" + key], dv, abs(dv) + abs(pv))
            gv = profile(kind, mp.mpf(s["gxi"]))
            expect(f"{key}_profile_series", s["s" + key], gv, abs(gv))
        for g in ("cc", "cp"):
            r = s[g]
            q = dict(p, geometry=g)
            check_potential_row([s["z"], r["V_E"], r["V_M"], r["V"], r["F"]], q)
            v, f, regime = r["sample"]
            check_potential_row([s["z"], r["V_E"], r["V_M"], v, f], q)
            if regime != "exact":
                _fail(f"potential_sample regime {regime!r}")
            row = [s["z"]] + r["EE"] + r["BB"] + r["EB"] + [
                r["E2"], r["B2"], r["E2"] + r["B2"]]
            check_correlator_row(row, q)


def _stationary_check(reply, rng, p) -> None:
    a = p["a"]
    for (g, alpha, beta), roots in zip(p["cases"], reply["roots"]):
        if g == "cp":
            want = []
        else:
            want = ["max" if alpha > beta else "min"]
        if [kind for _, kind in roots] != want:
            _fail(f"{g} atom ({alpha}, {beta}): stationary points {roots}")
        for z, _ in roots:
            if abs(z - 0.5 * a) > 1e-9 * a:
                _fail(f"{g} stationary point {z!r} is not a/2 = {0.5 * a!r}")


def _analysis_check(reply, rng, p) -> None:
    if reply["bad"]:
        _fail(f"{reply['bad']} non-finite or subnormal library results")
    for wall, rows in reply["limits"].items():
        for row in rows:
            if row[3] is None:
                _fail("limit study reported degenerate for alpha != beta")
        check_limit_rows(rows, dict(p, wall=wall))
    for g, rows in reply["sweep"].items():
        for row in rows:
            check_sweep_row(row, dict(p, geometry=g))


def _verify_full_check(reply, rng) -> None:
    checks = reply["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    if len(checks) != VERIFY_CHECKS or failed:
        _fail(f"verify full: {len(checks)} checks, failing {failed}")


def library_mixed(rng: random.Random, sizes: Sizes) -> list[Op]:
    """Batches of scalar public calls in one long-lived process."""
    a = _draw_a(rng)
    alpha, beta = _draw_atom(rng)
    base = {"a": a, "alpha": alpha, "beta": beta}

    def points_op(k: int) -> Op:
        n = sizes.points
        zs = [a * rng.uniform(0.02, 0.98) for _ in range(n)]
        xis = [rng.uniform(0.02, math.pi - 0.02) for _ in range(n)]
        gxis = [u if rng.random() < 0.5 else math.pi - u
                for u in (rng.uniform(1e-9, 5e-7) for _ in range(n))]
        req = dict(base, kind="points", zs=zs, xis=xis, gxis=gxis,
                   sample=[rng.randrange(n)])
        # six profile calls per point, ten potential and ten correlator
        # calls per point across the two geometries
        return Op(f"points{k}", 26 * n,
                  lambda out, r: _points_check(out, r, req), request=req)

    mixed = _draw_atom(rng)
    cases = [(g, *atom) for g in ("cc", "cp")
             for atom in ((1.0, 0.0), (0.0, 1.0), mixed)]
    stationary = dict(base, kind="stationary", cases=cases,
                      z_lo=a * rng.uniform(0.05, 0.3),
                      z_hi=a * rng.uniform(0.7, 0.95))
    d = float(f"{rng.uniform(0.5, 2.0):.6g}")
    ladder = _ladder(rng, d)
    analysis = dict(base, kind="analysis", d=d, ladder=ladder,
                    n=sizes.sweep_rows, z_min=a * rng.uniform(0.01, 0.1),
                    z_max=a * rng.uniform(0.9, 0.99),
                    sample=sample_rows(rng, sizes.sweep_rows))

    def stationary_op(k: int) -> Op:
        return Op(f"stationary{k}", len(cases),
                  lambda out, r: _stationary_check(out, r, stationary),
                  request=stationary)

    def verify_op(k: int) -> Op:
        return Op(f"verify_full{k}", VERIFY_CHECKS, _verify_full_check,
                  request={"kind": "verify", "level": "full"})

    # Two of ten batches are the oracle-heavy verify run, so op_p90_s lands
    # inside that group rather than on its edge.
    return [
        points_op(0), points_op(1), stationary_op(0), points_op(2),
        Op("analysis", 2 * len(ladder) + 2 * sizes.sweep_rows,
           lambda out, r: _analysis_check(out, r, analysis), request=analysis),
        points_op(3), verify_op(0), points_op(4), stationary_op(1),
        verify_op(1),
    ]


WORKLOADS = {
    "grid-tabulate": grid_tabulate,
    "oneshot-cli": oneshot_cli,
    "library-mixed": library_mixed,
}
