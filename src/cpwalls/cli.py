"""Command-line interface.

Subcommands: potential, correlators, sweep, limits, verify. Exit status is
0 on success, 1 for a malformed configuration (bad flags, config file, grid)
or output that cannot be written (an --out path that cannot be opened, a
full disk, a closed pipe, a stdout closed at start; what was written
before the failure stays written), 2 when the physics domain rejects an
evaluation point or a table cell would be inf, nan or subnormal, or an
--units si cell underflows to zero from a nonzero value (NonFiniteResult);
the error class name and message go to stderr as one line.

Output is CSV (comma separated, header row, LF endings) or JSON (array of
row objects). Floats are serialized with 17 significant digits in both
formats, which round-trips IEEE doubles losslessly, so re-running a command
reproduces its output byte for byte. No command loads the json module: a
JSON table, like verify's JSON, is written from %-templates, its column
names and words quoted as '"%s"' (they are fixed ASCII names and need no
escaping). The CLI evaluates and judges nothing itself: it parses and
writes. A table command is its tuple of column names plus its word column
(_TABLES); every numeric column is described once, in the one column table
analysis._COLUMNS, which gives the term it is evaluated as, its --units si
factor and whether it is identically zero (written as 0, held in no array).
potential, correlators and sweep are one handler, _cmd_table; each takes
one --z or a grid by the flag rules of _grid_from, and no position rule of
its own: the z step of _table_chunks judges every row, so a grid whose step
underflows prints np.linspace's repeated positions. limits takes neither
--geometry nor --a: its walls are --wall-type and --a-values. A table goes
out in two passes over chunks of rows, which analysis._table_chunks makes:
a grid on arrays, analysis.CHUNK_ROWS rows at a time, and a single --z
point as one chunk of floats through the scalar forms, which gives the same
bits and does not load NumPy. A grid is an analysis._Linspace: its
positions are built a chunk at a time, equal to np.linspace's bit for bit,
and a --z-count above 2**53 is refused. The limits ladder is one chunk of
floats from the body of analysis.limit_convergence_study. The producer
converts and judges every chunk by the one judge, analysis._judged, given
the output's column names and whether --units is si: a refusal names the
first domain error in grid order, else the first chunk's result out of the
double range (an OverflowError or ZeroDivisionError of a prefactor or a
profile power, named with its term and row) or its first non-finite cell.
Pass 1 drains the chunks and keeps none, so a refused run writes nothing.
Pass 2 opens the output, then has each chunk made again and writes it in
slices of about 3 KiB of text, one %-format call each. A run holds one
chunk at a time (2048 rows; the widest, a correlators chunk, peaks at about
0.6 MiB under tracemalloc), and its peak RSS does not grow with the rows
(README, "Output contract").

An optional config file (--config PATH) holds flat key=value lines naming
the long flags (e.g. "geometry=cp", "z-min=0.1"). argparse reads the option,
so every spelling it accepts names the file (--config=PATH, a prefix such as
--conf PATH). The user's flags, --a-values among them, are parsed, and so
checked, before the file is read; the file's flags are then parsed again
ahead of the user's own, so explicit flags override file values.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import math
import os
import sys
import warnings

from .analysis import _COLUMNS, _LIMIT_COLUMNS, _TENSOR_CELLS, SWEEP_QUANTITIES, _judged
from .analysis import _limit_cells, _limit_ladder, _Linspace, _sweep_columns, _table_chunks
from .correlators import Geometry, WallKind
from .errors import ConfigError, DomainError
from .potentials import _REGIME, AtomResponse
from .profiles import GuardPolicy

POTENTIAL_COLUMNS = ("z", "V_E", "V_M", "V_total", "force_z", "regime")
CORRELATOR_COLUMNS = ("z", *_TENSOR_CELLS, "trace_EE", "trace_BB", "trace_EE_plus_trace_BB")
# (columns, words) of each table command, as _emit takes them: where there
# are words, the last column is a word column. Every other column is an entry
# of analysis._COLUMNS. sweep's columns come from --quantities.
_TABLES = {"potential": (POTENTIAL_COLUMNS, _REGIME),
           "correlators": (CORRELATOR_COLUMNS, ()), "sweep": (None, ())}

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


def _common_flags(parser: _Parser, walls: bool) -> None:
    """The flags of potential, correlators, sweep and limits; --geometry and
    --a only where walls (limits takes its walls from --wall-type and
    --a-values)."""
    parser.add_argument("--config", help="key=value file mirroring the flags")
    if walls:
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

    for name, summary in (
        ("potential", "potential, parts, and force at one or many z"),
        ("correlators", "vacuum correlator tensors at one or many z"),
        ("sweep", "tabulate requested quantities at one or many z"),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=_cmd_table)
        _common_flags(p, True)
        p.add_argument("--z", type=_finite_float, help="single evaluation position")
        p.add_argument("--z-min", type=_finite_float)
        p.add_argument("--z-max", type=_finite_float)
        p.add_argument("--z-count", type=int)
    sweep = sub.choices["sweep"]
    sweep.add_argument("--quantities", default=",".join(SWEEP_QUANTITIES[:4]),
                       help="comma list from: " + ",".join(SWEEP_QUANTITIES))
    sweep.add_argument("--emit-limit-reference", action="store_true",
                       help="append the nearest-wall single-wall limit column V_wall")

    p = sub.add_parser("limits",
                       help="convergence of the two-wall potential to the single-wall limit")
    p.set_defaults(handler=_cmd_limits)
    _common_flags(p, False)
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _output(out_path, write) -> None:
    """write(fh) on the --out file, or on stdout when there is none.

    Opening, writing, flushing and closing are all here: an OSError in any
    of them (a full disk, a closed pipe) is a ConfigError naming the
    target. What was written before it stays written.
    """
    try:
        if not out_path:
            if sys.stdout is None:  # fd 1 was closed when the process started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            write(sys.stdout)
            sys.stdout.flush()
            return
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        target = f"--out {out_path!r}" if out_path else "stdout"
        raise ConfigError(f"cannot write {target}: {exc}") from exc


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


def _write_table(fh, fmt: str, columns, chunks, words) -> None:
    """Write a table chunk by chunk, in slices of rows, one %-format call each.

    chunks yields (cells, asymptotic): the float columns that are not
    identically zero, one row per table row, and one flag per row. A column
    whose analysis._COLUMNS entry is zero is written as 0 on every row. If
    words is not empty, a last word column takes words[flag] (words[0] if
    words has one entry). "%.17g" formats a float exactly as format(x,
    ".17g"), so the bytes depend neither on the chunk size nor on the slice
    size.
    """
    n_floats = len(columns) - (1 if words else 0)
    fields = ["0" if _COLUMNS[c][2] else "%.17g" for c in columns[:n_floats]]
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


def _emit(args, columns, chunks, words) -> None:
    """Write the table that chunks() makes once every chunk of it is made.

    chunks() yields the table as (cells, asymptotic) chunks, the same ones
    on every call, already converted and judged by the producer
    (analysis._table_chunks, or analysis._judged for the limits ladder);
    cells holds the float columns, in order, that are not identically zero
    (_write_table writes those as 0). Pass 1 drains chunks() and keeps
    nothing, so the producer's refusal of the whole table comes before the
    output file is opened: a refused run writes nothing and leaves an
    existing file untouched. Pass 2 makes each chunk again and writes it, so
    memory holds one chunk at a time, however long the table.
    """
    for _ in chunks():
        pass
    _output(args.out, lambda fh: _write_table(fh, args.format, columns, chunks(), words))


def _guard_from(args) -> GuardPolicy:
    try:
        return GuardPolicy(epsilon=args.guard_eps, mode=args.guard_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _geometry_from(args) -> Geometry:
    if not args.a > 0.0:
        raise ConfigError(f"--a must be positive, got {args.a!r}")
    return Geometry(WallKind(args.geometry), args.a)


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


def _cmd_table(args) -> int:
    """potential, correlators and sweep: one table of _TABLES over z.

    Geometry, atom (correlators builds none), guard and positions (one
    --z or a grid, by _grid_from) are read in that order, so the first bad
    flag names the refusal. sweep takes its columns from --quantities. No
    command judges a position here: the z step of _table_chunks refuses
    each row, in grid order, for all three.
    """
    columns, words = _TABLES[args.command]
    geom = _geometry_from(args)
    atom = None if args.command == "correlators" else AtomResponse(args.alpha, args.beta)
    guard = _guard_from(args)
    z = _grid_from(args)
    if args.command == "sweep":
        quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
        columns = _sweep_columns(quantities, args.emit_limit_reference)
    names = [c for c in columns[:len(columns) - bool(words)] if not _COLUMNS[c][2]]
    _emit(args, columns, lambda: _table_chunks(geom, atom, z, names, guard, args.units == "si"),
          words)
    return 0


def _cmd_limits(args) -> int:
    atom = AtomResponse(args.alpha, args.beta)
    guard = _guard_from(args)
    if not args.z > 0.0:
        raise ConfigError(f"--z must be positive, got {args.z!r}")
    ladder = [m * args.z for m in (20.0, 40.0, 80.0, 160.0)]
    if args.a_values is None and ladder[-1] == math.inf:
        raise ConfigError(f"--z {args.z!r} overflows the default a ladder (20 to 160 times z)")
    a_values = ladder if args.a_values is None else args.a_values
    study = _limit_ladder(atom, args.wall_type, args.z, a_values, guard)
    # rel_error is None on every row of a degenerate study, and a word there
    words = ("limit degenerate",) if study.degenerate else ()
    rows = _judged(_limit_cells(study), _LIMIT_COLUMNS, 0, args.units == "si")
    flags = [False] * len(rows)
    _emit(args, _LIMIT_COLUMNS, lambda: [(rows, flags)], words)
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
        _stderr_line(line(check))
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
    _output(args.out, lambda fh: fh.write(text))
    return len(report.failures)


def _stderr_line(text: str) -> None:
    """text and LF on stderr. Where stderr is closed (None) or refuses writes
    (an fd open read-only) the line is lost, and the run keeps the exit
    status and stdout of a run with stderr open."""
    try:
        sys.stderr.write(text + "\n")
    except (AttributeError, OSError):
        pass


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One stderr line per warning: the class name and the message."""
    _stderr_line(f"{category.__name__}: {message}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = _build_parser().parse_args(argv)
            if args.config is not None:  # the file's flags first: the user's win
                config = _parse_config_file(args.config)
                args = _build_parser().parse_args(argv[:1] + config + argv[1:])
            return args.handler(args)
        except (ConfigError, DomainError) as exc:
            _stderr_line(f"{type(exc).__name__}: {exc}")
            return 1 if isinstance(exc, ConfigError) else 2


def run() -> int:
    """main on sys.argv, as a process: python -m cpwalls and the cpwalls script.

    A command leaves the same few unreachable objects however many rows it
    writes, so the cyclic collector is off while it runs, and every object
    is frozen before it returns, which keeps the interpreter's final
    collection from walking NumPy's objects and the package's. An
    in-process main leaves the collector as it found it. Where stdout
    failed (a closed pipe, a full disk), main has named the error, and
    stdout is pointed at os.devnull, so that the interpreter's last flush
    of what is left in its buffer prints nothing more. A stderr closed at
    start (None) or open read-only loses its lines (_stderr_line), and the
    exit status and stdout are those of a run with stderr open.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(run())
