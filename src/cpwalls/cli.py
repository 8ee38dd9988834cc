"""Command-line interface.

Subcommands: potential, correlators, sweep, limits, verify. Exit status is
0 on success, 1 for a malformed configuration (bad flags, config file, grid,
or an --out path that cannot be opened), 2 when the physics domain rejects
an evaluation point or a table cell would be inf, nan or subnormal, or an
--units si cell underflows to zero from a nonzero value (NonFiniteResult);
the error class name goes to stderr.

Output is CSV (comma separated, header row, LF endings) or JSON (array of
row objects). Floats are serialized with 17 significant digits in both
formats, which round-trips IEEE doubles losslessly, so re-running a command
reproduces its output byte for byte. No command loads the json module: a
JSON table, like verify's JSON, is written from %-templates, its column
names and words quoted as '"%s"' (they are fixed ASCII names and need no
escaping). The CLI evaluates no physics itself: it parses, gates and
writes. A table goes out in two passes over chunks of rows, which
analysis._table_chunks evaluates for potential, correlators and sweep: a
grid on arrays, analysis.CHUNK_ROWS rows at a time, and a single --z point
as one chunk of floats through the scalar forms, which gives the same bits
and does not load NumPy. A grid is an analysis._Linspace: its positions
are built a chunk at a time, equal to np.linspace's bit for bit, and a
--z-count above 2**53 is refused. The limits ladder is one chunk of floats
from analysis.limit_convergence_study. Pass 1 evaluates, converts and gates
every chunk and keeps none; a refusal names the first domain error in grid
order, else a result out of the double range (an OverflowError or
ZeroDivisionError of a prefactor or a profile power, named with its term
and row where the table's evaluator catches it), else the first non-finite
cell in grid order, and writes nothing. Pass 2 opens the output, then
evaluates each chunk again and writes it in slices of about 3 KiB of
text, one %-format call each. A run holds one chunk at a time (2048 rows; the
widest, a correlators chunk, peaks at about 0.6 MiB under tracemalloc),
and its peak RSS does not grow with the rows (README, "Output contract").

An optional config file (--config PATH) holds flat key=value lines naming
the long flags (e.g. "geometry=cp", "z-min=0.1"). argparse reads the option,
so every spelling it accepts names the file (--config=PATH, a prefix such as
--conf PATH). The user's flags, --a-values among them, are parsed, and so
checked, before the file is read; the file's flags are then parsed again
ahead of the user's own, so explicit flags override file values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import operator
import sys
import warnings

from .analysis import SWEEP_QUANTITIES, _checked_grid, _Linspace, _sweep_columns
from .analysis import _table_chunks, limit_convergence_study
from .correlators import Geometry, WallKind
from .errors import ConfigError, DomainError, NonFiniteResult
from .potentials import _REGIME, AtomResponse
from .profiles import GuardPolicy
from .units import HBAR_C_J_M

POTENTIAL_COLUMNS = ("z", "V_E", "V_M", "V_total", "force_z", "regime")
# The analysis._table_chunks term behind each float column of POTENTIAL_COLUMNS.
_POTENTIAL_CELLS = ("z", "V_E", "V_M", "V", "force")

_AXES = "xyz"
CORRELATOR_COLUMNS = (
    ("z",)
    + tuple(f"{pair}_{i}{j}" for pair in ("EE", "BB", "EB") for i in _AXES for j in _AXES)
    + ("trace_EE", "trace_BB", "trace_EE_plus_trace_BB")
)
# Off-diagonal and EB cells vanish identically: written as a literal 0 (what
# %.17g prints for +0.0, in either unit system), held in no array.
_CORRELATOR_ZEROS = frozenset(
    f"{pair}_{i}{j}" for pair in ("EE", "BB", "EB") for i in _AXES for j in _AXES
    if pair == "EB" or i != j
)
# The analysis._table_chunks term behind each other column of CORRELATOR_COLUMNS.
_CORRELATOR_CELLS = ("z", "EE_par", "EE_par", "EE_perp", "BB_par", "BB_par",
                     "BB_perp", "EE_trace", "BB_trace", "trace_sum")

_BOOLS = ("false", "true")  # a bool as JSON and verify's CSV write it
_BOOLEAN_KEYS = {"emit-limit-reference"}
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as ConfigError (exit 1, not 2)."""

    def error(self, message):
        raise ConfigError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


def _finite_floats(text: str) -> list[float]:
    """A comma list of finite floats; empty entries are skipped."""
    return [_finite_float(tok) for tok in text.split(",") if tok.strip()]


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


@functools.cache  # once per process: parse_args leaves the tree unchanged
def _build_parser() -> _Parser:
    top = _Parser(prog="cpwalls", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, summary, handler in (
        ("potential", "potential, parts, and force at one or many z", _cmd_potential),
        ("correlators", "vacuum correlator tensors at one or many z", _cmd_correlators),
        ("sweep", "tabulate requested quantities over a z grid", _cmd_sweep),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        _common_flags(p)
        p.add_argument("--z", type=_finite_float, help="single evaluation position")
        p.add_argument("--z-min", type=_finite_float)
        p.add_argument("--z-max", type=_finite_float)
        p.add_argument("--z-count", type=int)
    sweep = sub.choices["sweep"]
    sweep.add_argument("--quantities", default="V,V_E,V_M,force",
                       help="comma list from: " + ",".join(SWEEP_QUANTITIES))
    sweep.add_argument("--emit-limit-reference", action="store_true",
                       help="append the nearest-wall single-wall limit column V_wall")

    p = sub.add_parser("limits",
                       help="convergence of the two-wall potential to the single-wall limit")
    p.set_defaults(handler=_cmd_limits)
    _common_flags(p)
    p.add_argument("--wall-type", choices=["conducting", "permeable"],
                   default="conducting")
    p.add_argument("--z", type=_finite_float, default=1.0,
                   help="fixed distance from the named wall")
    p.add_argument("--a-values", type=_finite_floats,
                   help="comma list of separations (default: 20,40,80,160 times z)")

    p = sub.add_parser("verify",
                       help="run the built-in verification suite")
    p.set_defaults(handler=_cmd_verify)
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


def _output(out_path):
    """The --out file opened for writing, or stdout when there is none."""
    if not out_path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out_path!r}: {exc}") from exc


def _row_templates(fmt: str, columns, fields, words) -> list[str]:
    """One %-template per word: the float fields, then the word baked in.

    A JSON row starts with the ",\n" that ends the row before it, which the
    writer drops from the first row.
    """
    baked = ['"%s"' % w if fmt == "json" else w for w in words]
    variants = [fields + [w] for w in baked] or [fields]
    if fmt == "json":  # the column names and words need no escaping
        return [
            ",\n  {" + ", ".join(f'"{k}": {v}' for k, v in zip(columns, cells)) + "}"
            for cells in variants
        ]
    return [",".join(cells) + "\n" for cells in variants]


def _floats(block) -> list:
    """Rows of a table chunk as one flat list of Python floats, row after row.

    A chunk is a list of float tuples (rows from the scalar forms) or a
    (rows, columns) float64 array (a grid).
    """
    if isinstance(block, list):
        return [x for row in block for x in row]
    return block.ravel().tolist()


# Float cells per %-format call of the writer (about 24 bytes of text each):
# rows * floats per row stays near this, at least one row a call. Slices of
# about 3 KiB leave the heap as they found it, whatever the row count; one
# string per 2048-row chunk left a 1e6-row potential table 7 MiB larger,
# and 8 KiB slices a correlators table 1 MiB larger. The bytes do not
# depend on the slice size.
_SLICE_CELLS = 3072 // 24


def _write_table(fh, fmt: str, columns, chunks, words, zeros) -> None:
    """Write a table chunk by chunk, in slices of rows, one %-format call each.

    chunks yields (cells, asymptotic): the float columns not named in zeros,
    one row per table row, and one flag per row. A column in zeros is
    written as 0 on every row. If words is not empty, a last word column
    takes words[flag] (words[0] if words has one entry). "%.17g" formats a
    float exactly as format(x, ".17g"), so the bytes depend neither on the
    chunk size nor on the slice size.
    """
    n_floats = len(columns) - (1 if words else 0)
    fields = ["0" if c in zeros else "%.17g" for c in columns[:n_floats]]
    # a flag picks its row's template; with one word or none, both flags pick the one
    templates = _row_templates(fmt, columns, fields, words) * 2
    rows = max(1, _SLICE_CELLS // fields.count("%.17g"))
    whole = [t * rows for t in templates[:2]]  # a full slice whose rows share one flag
    fh.write("[" if fmt == "json" else ",".join(columns) + "\n")
    skip = 1 if fmt == "json" else 0  # "[" and the first row's ",\n" make "[\n"
    for cells, asymptotic in chunks:
        if not isinstance(asymptotic, list):
            asymptotic = asymptotic.tolist()
        for i in range(0, len(cells), rows):
            flags = asymptotic[i:i + rows]
            template = whole[flags[0]] if flags.count(flags[0]) == rows else "".join(
                [templates[flag] for flag in flags])
            fh.write((template % tuple(_floats(cells[i:i + rows])))[skip:])
            skip = 0
    if fmt == "json":
        fh.write("\n]\n")


def _convertible(column: str) -> bool:
    """Columns carrying length^-n dimensions that scale by hbar*c in SI."""
    return column.startswith(("V", "force", "EE", "BB", "EB", "trace"))


def _first_bad(cells, natural) -> tuple[int, int] | None:
    """(row, column) of the first cell that is not a finite normal double.

    cells is a chunk in the output units and natural the same chunk in
    natural units. A cell is refused if it is inf or nan, or below the
    normal range (subnormal or zero) while its natural-unit value is not
    zero: an SI value that underflowed is refused as a subnormal natural
    one is. In natural units (natural is cells) that is: inf, nan or
    subnormal.
    """
    lo, hi = sys.float_info.min, sys.float_info.max
    if isinstance(cells, list):
        for row, (values, nat) in enumerate(zip(cells, natural)):
            for col, (x, n) in enumerate(zip(values, nat)):
                if not (lo <= abs(x) <= hi or (x == 0.0 and n == 0.0)):
                    return row, col
        return None
    mag = abs(cells)
    if mag.max() <= hi and mag.min() >= lo:  # all normal (a nan max fails)
        return None
    bad = ~(mag <= hi) | ((mag < lo) & (natural != 0.0))
    if not bad.any():
        return None
    return divmod(int(bad.argmax()), cells.shape[1])


def _emit(args, columns, chunks, words=(), zeros=frozenset()) -> None:
    """Gate every cell of the table, then write it: two passes over chunks().

    chunks() yields the table as (cells, asymptotic) chunks, the same ones
    on every call; cells holds the float columns, in order, that are not
    named in zeros, which are identically zero and written as 0. Pass 1
    converts units and gates each chunk, then drops it; it ends with the
    refusal of the whole table: a domain or double-range error chunks()
    raises anywhere, else the first cell _first_bad refuses, in table order.
    Only then is the output file opened, so a refused run writes nothing and
    leaves an existing file untouched. Pass 2 converts, formats and writes
    each chunk again, so memory holds one chunk at a time, however long the
    table.
    """
    live = [c for c in columns if c not in zeros]
    floats = live[: len(live) - (1 if words else 0)]
    factors = [HBAR_C_J_M if _convertible(c) else 1.0 for c in floats]

    def converted(cells):
        if args.units != "si":
            return cells
        if isinstance(cells, list):
            return [tuple(map(operator.mul, row, factors)) for row in cells]
        return cells * factors  # NumPy broadcasts the list over the rows

    refusal, seen = None, 0
    for natural, _ in chunks():
        cells = converted(natural)
        bad = None if refusal else _first_bad(cells, natural)
        if bad is not None:
            row, col = bad
            refusal = NonFiniteResult(
                f"{floats[col]}={float(cells[row][col])!r} in row {seen + row + 1}"
                f" ({floats[0]}={float(cells[row][0])!r}) is not a finite normal double"
            )
        seen += len(cells)
    if refusal is not None:
        raise refusal
    with _output(args.out) as fh:
        table = ((converted(cells), flags) for cells, flags in chunks())
        _write_table(fh, args.format, columns, table, words, zeros)


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


def _grid_from(args):
    """The --z point as a float, or the checked grid as an analysis._Linspace.

    No grid position is made here: _table_chunks builds them a chunk at a
    time. A --z-count above 2**53, where a row's index is no longer an
    exact double, is refused.
    """
    grid_flags = (args.z_min, args.z_max, args.z_count)
    has_grid = any(v is not None for v in grid_flags)
    if args.z is not None and has_grid:
        raise ConfigError("provide either --z or --z-min/--z-max/--z-count, not both")
    if args.z is not None:
        return args.z
    if not has_grid:
        raise ConfigError("provide --z or a full --z-min/--z-max/--z-count grid")
    if any(v is None for v in grid_flags):
        raise ConfigError("--z-min, --z-max, and --z-count are all required for a grid")
    if args.z_count < 2:
        raise ConfigError(f"--z-count must be >= 2, got {args.z_count}")
    if args.z_count > 2 ** 53:
        raise ConfigError(f"--z-count must be at most 2**53, got {args.z_count}")
    if not args.z_min < args.z_max:
        raise ConfigError("--z-min must be smaller than --z-max")
    return _Linspace(args.z_min, args.z_max, args.z_count)


def _cmd_potential(args) -> int:
    geom = _geometry_from(args)
    atom = _atom_from(args)
    guard = _guard_from(args)
    z = _grid_from(args)
    _emit(args, POTENTIAL_COLUMNS,
          lambda: _table_chunks(geom, atom, z, _POTENTIAL_CELLS, guard), _REGIME)
    return 0


def _cmd_correlators(args) -> int:
    geom = _geometry_from(args)
    guard = _guard_from(args)
    z = _grid_from(args)
    _emit(args, CORRELATOR_COLUMNS,
          lambda: _table_chunks(geom, None, z, _CORRELATOR_CELLS, guard),
          zeros=_CORRELATOR_ZEROS)
    return 0


def _cmd_sweep(args) -> int:
    geom = _geometry_from(args)
    atom = _atom_from(args)
    guard = _guard_from(args)
    if args.z is not None:
        raise ConfigError("sweep needs a grid: --z-min/--z-max/--z-count")
    z = _grid_from(args)
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    _checked_grid(z, geom.separation_a)
    columns = _sweep_columns(quantities, args.emit_limit_reference)
    _emit(args, columns, lambda: _table_chunks(geom, atom, z, columns, guard))
    return 0


def _cmd_limits(args) -> int:
    atom = _atom_from(args)
    guard = _guard_from(args)
    if not args.z > 0.0:
        raise ConfigError(f"--z must be positive, got {args.z!r}")
    ladder = [m * args.z for m in (20.0, 40.0, 80.0, 160.0)]
    if args.a_values is None and ladder[-1] == math.inf:
        raise ConfigError(f"--z {args.z!r} overflows the default a ladder (20 to 160 times z)")
    a_values = ladder if args.a_values is None else args.a_values
    study = limit_convergence_study(atom, args.wall_type, args.z, a_values, guard)
    # rel_error is None on every row of a degenerate study, and a word there
    words = ("limit degenerate",) if study.degenerate else ()
    rows = [
        (row.a, row.v_exact, row.v_limit) + ((row.rel_error,) if not words else ())
        for row in study.rows
    ]
    flags = [False] * len(rows)
    _emit(args, ("a", "V_exact", "V_limit", "rel_error"), lambda: [(rows, flags)], words)
    return 0


def _cmd_verify(args) -> int:
    from .verification import CheckResult, run_verification

    report = run_verification(args.level)

    def line(c) -> str:  # a text line, and the stderr echo of a failure
        return "%s %s: max_abs=%.17g max_rel=%.17g tolerance=%.17g" % (
            "PASS" if c.passed else "FAIL", *c[:4])

    def number(x: float) -> str:  # JSON has no inf or nan
        return "%.17g" % x if math.isfinite(x) else "null"

    for check in report.failures:
        sys.stderr.write(line(check) + "\n")
    if args.format == "json":  # the level and check names need no escaping
        row = "{%s}" % ", ".join('"%s": %%s' % f for f in CheckResult._fields)
        checks = ", ".join(
            row % ('"%s"' % c.name, *map(number, c[1:4]), _BOOLS[c.passed], c.points_tested)
            for c in report.checks
        )
        text = '{"level": "%s", "passed": %s, "failure_count": %d, "checks": [%s]}\n' % (
            report.level, _BOOLS[report.passed], len(report.failures), checks)
    elif args.format == "csv":
        text = ",".join(CheckResult._fields) + "\n" + "".join(
            "%s,%.17g,%.17g,%.17g,%s,%d\n" % (*c[:4], _BOOLS[c.passed], c.points_tested)
            for c in report.checks
        )
    else:
        text = "".join(f"{line(c)} points={c.points_tested}\n" for c in report.checks)
        n_pass = len(report.checks) - len(report.failures)
        text += f"{report.level}: {n_pass}/{len(report.checks)} checks passed\n"
    with _output(args.out) as fh:
        fh.write(text)
    return len(report.failures)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One stderr line per warning: the class name and the message."""
    sys.stderr.write(f"{category.__name__}: {message}\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = _build_parser().parse_args(argv)
            if args.config is not None:  # the file's flags first: the user's win
                config = _parse_config_file(args.config)
                args = _build_parser().parse_args(argv[:1] + config + argv[1:])
            try:
                return args.handler(args)
            except (OverflowError, ZeroDivisionError) as exc:  # a**4, u**-4 ...
                raise NonFiniteResult(
                    "a result is out of the double range"
                    f" ({type(exc).__name__}: {exc})"
                ) from exc
        except (ConfigError, DomainError) as exc:
            sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
            return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
