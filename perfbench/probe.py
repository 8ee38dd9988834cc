"""Per-layer timings, taken by calling each module's public functions.

    PYTHONPATH=src python3 perfbench/probe.py lib '<json params>'
    PYTHONPATH=src python3 perfbench/probe.py cli '<json op spec>'

``lib`` times the profiles, potentials, correlators, analysis and
verification layers in one process and prints one JSON object of metrics.
``cli`` replays one grid-tabulate op in a fresh process: ``cli.main(argv)``
writing into a counting sink, then the library calls that produce the same
rows. Nothing in the package is patched or instrumented. Every time is
scaled to reference host speed with the calibration loop run around it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import numpy as np
from common import CAL_REF_S, QUANTITIES, calibrate

import cpwalls.cli as cli
from cpwalls import (
    AtomResponse,
    Geometry,
    GuardPolicy,
    SweepSpec,
    WallKind,
    correlator_bb,
    correlator_eb,
    correlator_ee,
    cot_profile,
    cot_profile_deriv,
    cot_profile_series,
    cot_profile_via_hurwitz,
    cot_profile_via_images,
    csc_profile,
    csc_profile_deriv,
    csc_profile_series,
    force,
    limit_convergence_study,
    mean_square_e,
    potential_electric,
    potential_magnetic,
    potential_sample,
    potential_total,
    run_sweep,
    run_verification,
    stationary_points,
)

REPEATS = 5
KINDS = {"cc": WallKind.CONDUCTOR_CONDUCTOR, "cp": WallKind.CONDUCTOR_PERMEABLE}
# Checks that pass or fail on their absolute error; all others use the
# relative one, except count checks, whose tolerance is zero.
ABSOLUTE_CHECKS = {"cot_profile_vs_image_sum", "cot_profile_vs_hurwitz",
                   "csc_profile_vs_image_sum"}


def timed(fn, *args):
    """(scaled seconds, result) of one call of fn(*args)."""
    cal = calibrate()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return seconds * CAL_REF_S / (0.5 * (cal + calibrate())), result


def per_call(fn, args_list, repeats: int = REPEATS) -> float:
    """Median over repeats of scaled seconds per call of fn(*args)."""
    def loop():
        for args in args_list:
            fn(*args)
    return statistics.median(
        timed(loop)[0] for _ in range(repeats)) / len(args_list)


def once(fn, *args, repeats: int = REPEATS):
    """(median scaled seconds, last result) of fn(*args)."""
    runs = [timed(fn, *args) for _ in range(repeats)]
    return statistics.median(t for t, _ in runs), runs[-1][1]


def worst_margin(report) -> float:
    """Largest deciding error / tolerance over the checks (0 for counts)."""
    margins = []
    for c in report.checks:
        if c.tolerance == 0.0:
            margins.append(0.0 if c.passed else float(c.max_abs_error))
        elif c.name in ABSOLUTE_CHECKS:
            margins.append(c.max_abs_error / c.tolerance)
        else:
            margins.append(c.max_rel_error / c.tolerance)
    return max(margins)


def probe_lib(p: dict) -> dict:
    n = p["n"]
    xis = [(x,) for x in np.linspace(0.03, np.pi - 0.03, n).tolist()]
    gxis = [(x,) for x in np.linspace(1e-9, 5e-7, n).tolist()]
    a = p["a"]
    cc, cp = Geometry(KINDS["cc"], a), Geometry(KINDS["cp"], a)
    atom = AtomResponse(p["alpha"], p["beta"])
    zs = np.linspace(0.02 * a, 0.98 * a, n).tolist()
    geo_z = [(g, z) for z in zs for g in (cc, cp)]
    atom_z = [(atom, g, z) for g, z in geo_z]
    m = {}
    m["profiles.cot_ns"] = per_call(cot_profile, xis) * 1e9
    m["profiles.csc_ns"] = per_call(csc_profile, xis) * 1e9
    m["profiles.deriv_ns"] = statistics.mean(
        [per_call(cot_profile_deriv, xis), per_call(csc_profile_deriv, xis)]) * 1e9
    m["profiles.series_ns"] = statistics.mean(
        [per_call(cot_profile_series, gxis),
         per_call(csc_profile_series, gxis)]) * 1e9
    few = xis[:: max(1, n // 50)]
    m["profiles.images_us"] = per_call(cot_profile_via_images, few, 3) * 1e6
    m["profiles.hurwitz_us"] = per_call(cot_profile_via_hurwitz, few, 3) * 1e6
    m["potentials.total_ns"] = per_call(potential_total, atom_z) * 1e9
    m["potentials.parts_ns"] = statistics.mean(
        [per_call(potential_electric, atom_z),
         per_call(potential_magnetic, atom_z)]) * 1e9
    m["potentials.force_ns"] = per_call(force, atom_z) * 1e9
    m["potentials.sample_ns"] = per_call(potential_sample, atom_z) * 1e9
    cases = [(AtomResponse(*ab), g, 0.2 * a, 0.8 * a)
             for g in (cc, cp) for ab in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.25))]
    m["potentials.stationary_ms"] = per_call(stationary_points, cases, 3) * 1e3
    m["correlators.tensor_ns"] = statistics.mean(
        [per_call(correlator_ee, geo_z), per_call(correlator_bb, geo_z),
         per_call(correlator_eb, geo_z)]) * 1e9
    m["correlators.trace_ns"] = per_call(mean_square_e, geo_z) * 1e9
    spec = SweepSpec.from_range(cc, atom, 0.02 * a, 0.98 * a, n,
                                quantities=QUANTITIES,
                                include_limit_reference=True)
    t, curve = once(run_sweep, spec, repeats=3)
    m["analysis.sweep_ns_per_cell"] = t / (n * (len(curve.columns) - 1)) * 1e9
    ladder = [p["d"] * k for k in (20.0, 40.0, 80.0, 160.0, 320.0, 640.0)]
    t = per_call(limit_convergence_study,
                 [(atom, w, p["d"], ladder) for w in ("conducting", "permeable")]
                 * 20, 3)
    m["analysis.limit_us_per_row"] = t / len(ladder) * 1e6
    t, report = once(run_verification, "full", repeats=3)
    m["verification.full_s"] = t
    m["verification.checks_passed"] = sum(c.passed for c in report.checks)
    m["verification.worst_margin"] = worst_margin(report)
    m["verification.quick_s"], _ = once(run_verification, "quick")
    return m


class CountingSink:
    """Stands in for stdout: keeps counts, not text."""

    def __init__(self):
        self.bytes = 0
        self.lines = 0
        self.exact = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        self.lines += text.count("\n")
        self.exact += text.count("exact")  # "exact" rows; JSON or CSV
        return len(text)

    def flush(self) -> None:
        pass


def library_rows(spec: dict):
    """The public calls that give the op's rows, without the CLI around them."""
    geom = Geometry(KINDS[spec["geometry"]], spec["a"])
    atom = AtomResponse(spec["alpha"], spec["beta"])
    guard = GuardPolicy(spec.get("guard_eps", 1e-6),
                        spec.get("guard_mode", "reject"))
    zs = np.linspace(spec["z_min"], spec["z_max"], spec["n"]).tolist()
    if spec["command"] == "potential":
        return [(potential_electric(atom, geom, z, guard),
                 potential_magnetic(atom, geom, z, guard),
                 potential_sample(atom, geom, z, guard)) for z in zs]
    if spec["command"] == "correlators":
        return [(correlator_ee(geom, z, guard), correlator_bb(geom, z, guard),
                 correlator_eb(geom, z)) for z in zs]
    return run_sweep(SweepSpec(geom, atom, tuple(zs), QUANTITIES, guard,
                               True)).rows


def probe_cli(spec: dict) -> dict:
    sink, stdout = CountingSink(), sys.stdout
    sys.stdout = sink
    try:
        main_s, rc = timed(cli.main, spec["argv"])
    finally:
        sys.stdout = stdout
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lib_s, _ = timed(library_rows, spec)
    header_lines = 2 if spec.get("format") == "json" else 1
    return {"rc": rc, "main_s": main_s, "lib_s": lib_s, "rss_mb": rss_mb,
            "rows": sink.lines - header_lines, "bytes": sink.bytes,
            "exact": sink.exact}


if __name__ == "__main__":
    mode, arg = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(probe_lib(arg) if mode == "lib" else probe_cli(arg)))
