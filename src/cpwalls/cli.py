"""Command-line interface.

Subcommands: potential, correlators, sweep, limits, verify. Exit status is
0 on success, 1 for a malformed configuration (bad flags, config file, or
grid), 2 when the physics domain rejects an evaluation point; the error
class name goes to stderr.

Output is CSV (comma separated, header row, LF endings) or JSON (array of
row objects). Floats are serialized with 17 significant digits in both
formats, which round-trips IEEE doubles losslessly, so re-running a command
reproduces its output byte for byte.

An optional config file (--config PATH) holds flat key=value lines naming
the long flags (e.g. "geometry=cp", "z-min=0.1"); explicit flags override
file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import SweepSpec, limit_convergence_study, run_sweep
from .correlators import Geometry, WallKind, _tensor, correlator_eb
from .errors import ConfigError, DomainError
from .potentials import AtomResponse, _potential_row
from .profiles import GuardPolicy
from .units import HBAR_C_J_M
from .verification import run_verification

POTENTIAL_COLUMNS = ("z", "V_E", "V_M", "V_total", "force_z", "regime")

_AXES = "xyz"
CORRELATOR_COLUMNS = (
    ("z",)
    + tuple(f"{pair}_{i}{j}" for pair in ("EE", "BB", "EB") for i in _AXES for j in _AXES)
    + ("trace_EE", "trace_BB", "trace_EE_plus_trace_BB")
)

_BOOLEAN_KEYS = {"emit-limit-reference"}
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as ConfigError (exit 1, not 2)."""

    def error(self, message):
        raise ConfigError(message)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


def _common_flags(parser: _Parser) -> None:
    parser.add_argument("--config", help="key=value file mirroring the flags")
    parser.add_argument("--geometry", choices=["cc", "cp"], default="cc",
                        help="wall pair: cc (two conductors) or cp (conductor + permeable)")
    parser.add_argument("--a", type=_finite_float, default=1.0,
                        help="wall separation (length)")
    parser.add_argument("--alpha", type=_finite_float, default=1.0,
                        help="static electric polarizability (length^3)")
    parser.add_argument("--beta", type=_finite_float, default=0.0,
                        help="static magnetic polarizability (length^3)")
    parser.add_argument("--guard-eps", type=_finite_float, default=1e-6,
                        help="guard band half-width around the walls (in xi)")
    parser.add_argument("--guard-mode", choices=["reject", "asymptotic"],
                        default="reject")
    parser.add_argument("--units", choices=["natural", "si"], default="natural",
                        help="si multiplies output energies/forces/densities by hbar*c")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", help="output path (default: stdout)")


def _grid_flags(parser: _Parser) -> None:
    parser.add_argument("--z", type=_finite_float, help="single evaluation position")
    parser.add_argument("--z-min", type=_finite_float)
    parser.add_argument("--z-max", type=_finite_float)
    parser.add_argument("--z-count", type=int)


def _build_parser() -> _Parser:
    top = _Parser(prog="cpwalls", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("potential",
                       help="potential, parts, and force at one or many z")
    _common_flags(p)
    _grid_flags(p)

    p = sub.add_parser("correlators",
                       help="vacuum correlator tensors at one or many z")
    _common_flags(p)
    _grid_flags(p)

    p = sub.add_parser("sweep",
                       help="tabulate requested quantities over a z grid")
    _common_flags(p)
    _grid_flags(p)
    p.add_argument("--quantities", default="V,V_E,V_M,force",
                   help="comma list from: V,V_E,V_M,force,EE_trace,BB_trace")
    p.add_argument("--emit-limit-reference", action="store_true",
                   help="append the nearest-wall single-wall limit column V_wall")

    p = sub.add_parser("limits",
                       help="convergence of the two-wall potential to the single-wall limit")
    _common_flags(p)
    p.add_argument("--wall-type", choices=["conducting", "permeable"],
                   default="conducting")
    p.add_argument("--z", type=_finite_float, default=1.0,
                   help="fixed distance from the named wall")
    p.add_argument("--a-values",
                   help="comma list of separations (default: 20,40,80,160 times z)")

    p = sub.add_parser("verify",
                       help="run the built-in verification suite")
    p.add_argument("--config", help="key=value file mirroring the flags")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", help="output path (default: stdout)")

    return top


def _parse_config_file(path: str) -> list[str]:
    """Translate key=value lines into a flag list (inserted before user flags)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    flags: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-").lower()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in _BOOLEAN_KEYS:
            word = value.lower()
            if word in _TRUE_WORDS:
                flags.append(f"--{key}")
            elif word not in _FALSE_WORDS:
                raise ConfigError(f"{path}:{lineno}: bad boolean {value!r}")
        else:
            flags.extend([f"--{key}", value])
    return flags


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config into flags placed before the user's own flags."""
    if not argv:
        return argv
    path = None
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config requires a path")
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    # argv[0] is the subcommand; later duplicates win, so user flags override.
    return [argv[0]] + _parse_config_file(path) + argv[1:]


def _format_float(x: float) -> str:
    return format(x, ".17g")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def _emit_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(
            f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items()
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit_json_rows(columns, rows) -> str:
    body = ",\n".join(
        "  " + _json_value(dict(zip(columns, row))) for row in rows
    )
    return "[\n" + body + "\n]\n"


def _write_output(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _convertible(column: str) -> bool:
    """Columns carrying length^-n dimensions that scale by hbar*c in SI."""
    return column.startswith(("V", "force", "EE", "BB", "EB", "trace"))


def _apply_units(columns, rows, units: str):
    if units == "natural":
        return rows
    converted = []
    for row in rows:
        converted.append(tuple(
            value * HBAR_C_J_M
            if _convertible(col) and isinstance(value, float)
            else value
            for col, value in zip(columns, row)
        ))
    return converted


def _emit(columns, rows, args) -> None:
    rows = _apply_units(columns, rows, args.units)
    if args.format == "json":
        text = _emit_json_rows(columns, rows)
    else:
        text = _emit_csv(columns, rows)
    _write_output(text, args.out)


def _guard_from(args) -> GuardPolicy:
    try:
        return GuardPolicy(epsilon=args.guard_eps, mode=args.guard_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _geometry_from(args) -> Geometry:
    if not args.a > 0.0:
        raise ConfigError(f"--a must be positive, got {args.a!r}")
    return Geometry(WallKind(args.geometry), args.a)


def _atom_from(args) -> AtomResponse:
    return AtomResponse(args.alpha, args.beta)


def _grid_from(args) -> list[float]:
    grid_flags = (args.z_min, args.z_max, args.z_count)
    has_grid = any(v is not None for v in grid_flags)
    if args.z is not None and has_grid:
        raise ConfigError("provide either --z or --z-min/--z-max/--z-count, not both")
    if args.z is not None:
        return [args.z]
    if not has_grid:
        raise ConfigError("provide --z or a full --z-min/--z-max/--z-count grid")
    if any(v is None for v in grid_flags):
        raise ConfigError("--z-min, --z-max, and --z-count are all required for a grid")
    if args.z_count < 2:
        raise ConfigError(f"--z-count must be >= 2, got {args.z_count}")
    if not args.z_min < args.z_max:
        raise ConfigError("--z-min must be smaller than --z-max")
    return np.linspace(args.z_min, args.z_max, args.z_count).tolist()


def _cmd_potential(args) -> int:
    geom = _geometry_from(args)
    atom = _atom_from(args)
    guard = _guard_from(args)
    rows = [(z,) + _potential_row(atom, geom, z, guard) for z in _grid_from(args)]
    _emit(POTENTIAL_COLUMNS, rows, args)
    return 0


def _cmd_correlators(args) -> int:
    geom = _geometry_from(args)
    guard = _guard_from(args)
    rows = []
    for z in _grid_from(args):
        p = geom.profile(z, guard)
        ee = _tensor(geom, p, "EE")
        bb = _tensor(geom, -p, "BB")
        eb = correlator_eb(geom, z)
        cells = [z]
        for tensor in (ee, bb, eb):
            cells.extend(tensor.components.ravel().tolist())
        cells.extend([ee.trace(), bb.trace(), ee.trace() + bb.trace()])
        rows.append(tuple(cells))
    _emit(CORRELATOR_COLUMNS, rows, args)
    return 0


def _cmd_sweep(args) -> int:
    geom = _geometry_from(args)
    atom = _atom_from(args)
    guard = _guard_from(args)
    if args.z is not None:
        raise ConfigError("sweep needs a grid: --z-min/--z-max/--z-count")
    grid = _grid_from(args)
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    if not quantities:
        raise ConfigError("--quantities must name at least one quantity")
    spec = SweepSpec(
        geometry=geom,
        atom=atom,
        z_grid=tuple(grid),
        quantities=quantities,
        guard=guard,
        include_limit_reference=args.emit_limit_reference,
    )
    curve = run_sweep(spec)
    _emit(curve.columns, curve.rows, args)
    return 0


def _cmd_limits(args) -> int:
    atom = _atom_from(args)
    guard = _guard_from(args)
    if not args.z > 0.0:
        raise ConfigError(f"--z must be positive, got {args.z!r}")
    if args.a_values is None:
        a_values = [m * args.z for m in (20.0, 40.0, 80.0, 160.0)]
    else:
        try:
            a_values = [
                _finite_float(tok) for tok in args.a_values.split(",") if tok.strip()
            ]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"bad --a-values: {exc}") from exc
    study = limit_convergence_study(atom, args.wall_type, args.z, a_values, guard)
    columns = ("a", "V_exact", "V_limit", "rel_error")
    rows = [
        (
            row.a,
            row.v_exact,
            row.v_limit,
            "limit degenerate" if row.rel_error is None else row.rel_error,
        )
        for row in study.rows
    ]
    _emit(columns, rows, args)
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(args.level)
    for check in report.failures:
        sys.stderr.write(
            f"FAIL {check.name}: max_abs={_format_float(check.max_abs_error)}"
            f" max_rel={_format_float(check.max_rel_error)}"
            f" tolerance={_format_float(check.tolerance)}\n"
        )
    if args.format == "json":
        text = _json_value(report.as_dict()) + "\n"
    elif args.format == "csv":
        columns = ("name", "max_abs_error", "max_rel_error", "tolerance",
                   "passed", "points_tested")
        rows = [
            (c.name, c.max_abs_error, c.max_rel_error, c.tolerance, c.passed,
             c.points_tested)
            for c in report.checks
        ]
        text = _emit_csv(columns, rows)
    else:
        lines = []
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status} {c.name}: max_abs={_format_float(c.max_abs_error)}"
                f" max_rel={_format_float(c.max_rel_error)}"
                f" tolerance={_format_float(c.tolerance)}"
                f" points={c.points_tested}"
            )
        n_fail = len(report.failures)
        lines.append(
            f"{report.level}: {len(report.checks) - n_fail}/{len(report.checks)}"
            f" checks passed"
        )
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return len(report.failures)


_HANDLERS = {
    "potential": _cmd_potential,
    "correlators": _cmd_correlators,
    "sweep": _cmd_sweep,
    "limits": _cmd_limits,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _inject_config(argv)
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except DomainError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
