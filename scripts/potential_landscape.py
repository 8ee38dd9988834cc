#!/usr/bin/env python3
"""Map the Casimir-Polder landscape between the two wall pairs.

For a grid of positions between the walls, tabulate the potential of three
reference atoms (purely electric, purely magnetic, mixed) in both the
conductor-conductor and conductor-permeable geometries, locate any trapping
points, and print a compact report. Optionally dump the full curves as CSV.

Usage:
    python scripts/potential_landscape.py [--a 1.0] [--count 201] [--csv-dir out/]
"""

import argparse
import pathlib

from cpwalls import (
    AtomResponse,
    Geometry,
    SweepSpec,
    WallKind,
    run_sweep,
    stationary_points,
)
from cpwalls.cli import _emit_csv

ATOMS = {
    "electric (alpha=1, beta=0)": AtomResponse(1.0, 0.0),
    "magnetic (alpha=0, beta=1)": AtomResponse(0.0, 1.0),
    "mixed    (alpha=1, beta=1/4)": AtomResponse(1.0, 0.25),
}


def describe(geom: Geometry, atom: AtomResponse, count: int) -> dict:
    a = geom.separation_a
    spec = SweepSpec.from_range(
        geom, atom, 0.02 * a, 0.98 * a, count, quantities=("V", "force")
    )
    curve = run_sweep(spec)
    vs = curve.column("V")
    zs = curve.column("z")
    i_min = min(range(len(vs)), key=vs.__getitem__)
    traps = stationary_points(atom, geom, 0.02 * a, 0.98 * a)
    return {
        "curve": curve,
        "v_mid": vs[len(vs) // 2],
        "v_min": vs[i_min],
        "z_min": zs[i_min],
        "repulsive_near_far_wall": vs[-1] > 0.0,
        "traps": traps,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=1.0, help="wall separation")
    ap.add_argument("--count", type=int, default=201, help="grid points")
    ap.add_argument("--csv-dir", help="directory for per-case CSV dumps")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.csv_dir) if args.csv_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    for kind in (WallKind.CONDUCTOR_CONDUCTOR, WallKind.CONDUCTOR_PERMEABLE):
        geom = Geometry(kind, args.a)
        print(f"\n=== geometry {kind.value}  (a = {args.a}) ===")
        for label, atom in ATOMS.items():
            if atom.alpha0 == atom.beta0:
                print(f"{label}: flat potential, nothing to map")
                continue
            d = describe(geom, atom, args.count)
            print(f"{label}:")
            print(f"    V(a/2)      = {d['v_mid']: .6e}")
            print(f"    min V       = {d['v_min']: .6e} at z = {d['z_min']:.4f}")
            print(f"    repulsive near z=a: {d['repulsive_near_far_wall']}")
            if d["traps"]:
                for z_star, flavor in d["traps"]:
                    print(f"    stationary point: z = {z_star:.12f} ({flavor})")
            else:
                print("    no interior stationary point")
            if out_dir:
                name = f"landscape_{kind.value}_{atom.alpha0}_{atom.beta0}.csv"
                path = out_dir / name
                with open(path, "w", newline="") as fh:
                    fh.write(_emit_csv(d["curve"].columns, d["curve"].rows))
                print(f"    wrote {path}")


if __name__ == "__main__":
    main()
