"""Long-lived worker for the library-mixed workload.

Reads one JSON request per line on stdin, runs that batch of public cpwalls
calls and answers with one JSON line: the call count, how many results were
non-finite or subnormal, the values at the requested sample points, and,
when asked, the spans of each group of calls, and the speed calibration
taken before and after the batch. The first line it writes,
after importing the package, says it is ready. It exits at end of input.

    PYTHONPATH=src python3 perfbench/libworker.py
"""

from __future__ import annotations

import json
import math
import sys

from common import (
    QUANTITIES,
    SMALLEST_NORMAL,
    Tracer,
    calibrate,
    pin_to_one_cpu,
)

from cpwalls import (
    AtomResponse,
    Geometry,
    SweepSpec,
    WallKind,
    correlator_bb,
    correlator_eb,
    correlator_ee,
    cot_profile,
    cot_profile_deriv,
    cot_profile_series,
    csc_profile,
    csc_profile_deriv,
    csc_profile_series,
    force,
    limit_convergence_study,
    mean_square_b,
    mean_square_e,
    potential_electric,
    potential_magnetic,
    potential_sample,
    potential_total,
    run_sweep,
    run_verification,
    stationary_points,
)

KINDS = {"cc": WallKind.CONDUCTOR_CONDUCTOR, "cp": WallKind.CONDUCTOR_PERMEABLE}


def _bad(values) -> int:
    return sum(1 for x in values
               if not math.isfinite(x) or (x != 0.0 and abs(x) < SMALLEST_NORMAL))


def points(req: dict, tr: Tracer) -> dict:
    a, zs, xis, gxis = req["a"], req["zs"], req["xis"], req["gxis"]
    atom = AtomResponse(req["alpha"], req["beta"])
    out: dict = {}
    for key, fn, args in (("cot", cot_profile, xis), ("csc", csc_profile, xis),
                          ("dcot", cot_profile_deriv, xis),
                          ("dcsc", csc_profile_deriv, xis),
                          ("scot", cot_profile_series, gxis),
                          ("scsc", csc_profile_series, gxis)):
        with tr.span(f"profiles.{fn.__name__}", 0):
            out[key] = [fn(x) for x in args]
    per_geom = {}
    for g, kind in KINDS.items():
        geom = Geometry(kind, a)
        r: dict = {}
        for key, fn in (("V", potential_total), ("V_E", potential_electric),
                        ("V_M", potential_magnetic), ("F", force),
                        ("sample", potential_sample)):
            with tr.span(f"potentials.{fn.__name__}", 0):
                r[key] = [fn(atom, geom, z) for z in zs]
        for key, fn in (("EE", correlator_ee), ("BB", correlator_bb),
                        ("EB", correlator_eb), ("E2", mean_square_e),
                        ("B2", mean_square_b)):
            with tr.span(f"correlators.{fn.__name__}", 0):
                r[key] = [fn(geom, z) for z in zs]
        per_geom[g] = r
    with tr.span("bench.scan", 0):
        bad = sum(_bad(v) for v in out.values())
        for r in per_geom.values():
            bad += sum(_bad(r[k]) for k in ("V", "V_E", "V_M", "F", "E2", "B2"))
            bad += _bad(x for s in r["sample"] for x in (s.V, s.force_z))
            bad += sum(_bad(t.components.ravel().tolist())
                       for k in ("EE", "BB", "EB") for t in r[k])
    samples = []
    for i in req["sample"]:
        s = {"z": zs[i], "xi": xis[i], "gxi": gxis[i]}
        s.update({k: v[i] for k, v in out.items()})
        for g, r in per_geom.items():
            smp = r["sample"][i]
            s[g] = {"V": r["V"][i], "V_E": r["V_E"][i], "V_M": r["V_M"][i],
                    "F": r["F"][i], "sample": [smp.V, smp.force_z, smp.regime],
                    "EE": r["EE"][i].components.ravel().tolist(),
                    "BB": r["BB"][i].components.ravel().tolist(),
                    "EB": r["EB"][i].components.ravel().tolist(),
                    "E2": r["E2"][i], "B2": r["B2"][i]}
        samples.append(s)
    calls = sum(len(v) for v in out.values()) + sum(
        len(v) for r in per_geom.values() for v in r.values())
    return {"calls": calls, "bad": bad, "samples": samples}


def stationary(req: dict, tr: Tracer) -> dict:
    roots = []
    for g, alpha, beta in req["cases"]:
        geom = Geometry(KINDS[g], req["a"])
        with tr.span("potentials.stationary_points", 0):
            found = stationary_points(AtomResponse(alpha, beta), geom,
                                      req["z_lo"], req["z_hi"])
        roots.append([[z, kind] for z, kind in found])
    return {"roots": roots}


def analysis(req: dict, tr: Tracer) -> dict:
    atom = AtomResponse(req["alpha"], req["beta"])
    limits, sweep, bad = {}, {}, 0
    for wall in ("conducting", "permeable"):
        with tr.span("analysis.limit_convergence_study", 0):
            study = limit_convergence_study(atom, wall, req["d"], req["ladder"])
        limits[wall] = [[r.a, r.v_exact, r.v_limit, r.rel_error]
                        for r in study.rows]
    for g, kind in KINDS.items():
        spec = SweepSpec.from_range(Geometry(kind, req["a"]), atom,
                                    req["z_min"], req["z_max"], req["n"],
                                    quantities=QUANTITIES,
                                    include_limit_reference=True)
        with tr.span("analysis.run_sweep", 0):
            curve = run_sweep(spec)
        with tr.span("bench.scan", 0):
            bad += sum(_bad(row) for row in curve.rows)
        sweep[g] = [list(curve.rows[i]) for i in req["sample"]]
    return {"limits": limits, "sweep": sweep, "bad": bad}


def verify(req: dict, tr: Tracer) -> dict:
    with tr.span("verification.run_verification", 0):
        report = run_verification(req["level"])
    return {"checks": [c.as_dict() for c in report.checks]}


HANDLERS = {"points": points, "stationary": stationary, "analysis": analysis,
            "verify": verify}


def main() -> None:
    pin_to_one_cpu()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        tr = Tracer(req.get("trace", False))
        cal_before = calibrate()
        reply = HANDLERS[req["kind"]](req, tr)
        reply["cal"] = [cal_before, calibrate()]
        reply["spans"] = [s[:5] for s in tr.spans]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
