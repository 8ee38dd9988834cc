"""Parameter sweeps and single-wall limit-convergence studies.

Everything here is a pure tabulation layer over the correlator and potential
modules: build a grid, evaluate the requested quantities per point, and hand
back plain column/row containers the CLI can serialize. _COLUMNS is the one
column table: every numeric column of the potential, correlators, sweep and
limits tables is described there once, with its expression (or the shared
term it takes), whether --units si multiplies it by hbar*c, and whether it
is identically zero; a table is then its tuple of column names
(SWEEP_QUANTITIES, _LIMIT_COLUMNS, the CLI's POTENTIAL_COLUMNS and
CORRELATOR_COLUMNS). _table_chunks is the one evaluator of a table's
columns, for run_sweep, a CLI grid and a CLI --z point alike, and _judged
the one judge of a table's cells: it converts a chunk to the output's units
and refuses a cell that is inf, nan or subnormal, for _table_chunks,
limit_convergence_study and the CLI's limits table, so the library's tables
refuse what the CLI refuses and the CLI only parses and writes. A CLI grid
is a _Linspace, which builds np.linspace's positions one chunk at a time, so
a CLI table holds one chunk whatever its length. The containers (SweepSpec,
PotentialCurve, LimitRow, LimitStudy) are immutable named tuples;
SweepSpec.__new__ checks the grid and the quantities and keeps the grid as a
tuple of floats, and PotentialCurve and LimitStudy hold their rows in a list.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from .correlators import _SMALLEST_NORMAL, Geometry, WallKind, _par_perp, _trace
from .errors import ConfigError, InvalidGrid, NonFiniteResult
from .potentials import (
    AtomResponse,
    _electric,
    _force,
    _magnetic,
    _single_wall,
    _total,
    potential_total,
    single_wall_limit,
)
from .profiles import DEFAULT_GUARD, GuardPolicy, _finite, _inside, _pow
from .units import HBAR_C_J_M

if TYPE_CHECKING:
    import numpy as np

# Canonical column order for sweep quantities.
SWEEP_QUANTITIES = ("V", "V_E", "V_M", "force", "EE_trace", "BB_trace")


class SweepSpec(
    namedtuple(
        "SweepSpec",
        "geometry atom z_grid quantities guard include_limit_reference",
    )
):
    """A z-grid sweep request over one geometry and atom.

    z_grid is kept as a tuple of floats, checked strictly increasing inside
    (0, a); quantities, kept as a tuple, are one or more names from
    SWEEP_QUANTITIES.
    """

    __slots__ = ()

    def __new__(
        cls,
        geometry: Geometry,
        atom: AtomResponse,
        z_grid,
        quantities: tuple[str, ...] = SWEEP_QUANTITIES[:4],  # V, V_E, V_M and force
        guard: GuardPolicy = DEFAULT_GUARD,
        include_limit_reference: bool = False,
    ):
        z_grid = tuple(_checked_grid(z_grid, geometry.separation_a).tolist())
        if not isinstance(quantities, str):  # _sweep_columns refuses a str whole
            try:
                quantities = tuple(quantities)  # so a generator is kept, not run dry
            except TypeError as exc:
                raise ConfigError(f"sweep quantities must be names, not {quantities!r}") from exc
        _sweep_columns(quantities, include_limit_reference)
        return tuple.__new__(
            cls,
            (geometry, atom, z_grid, quantities, guard, include_limit_reference),
        )

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @classmethod
    def from_range(
        cls,
        geometry: Geometry,
        atom: AtomResponse,
        z_min: float,
        z_max: float,
        count: int,
        **kwargs,
    ) -> "SweepSpec":
        try:
            count = operator.index(count)
        except TypeError as exc:
            raise InvalidGrid(f"grid count must be an integer, got {count!r}") from exc
        if count < 2:
            raise InvalidGrid(f"grid count must be >= 2, got {count!r}")
        if not (_inside(z_min, z_max) and _inside(z_max, geometry.separation_a)):
            raise InvalidGrid(
                f"need 0 < z_min < z_max < a, got z_min={z_min!r},"
                f" z_max={z_max!r}, a={geometry.separation_a!r}"
            )
        import numpy as np

        try:
            grid = np.linspace(z_min, z_max, count)
        except (MemoryError, ValueError) as exc:  # ValueError past the index range
            raise InvalidGrid(f"grid count {count} is too large ({exc})") from exc
        return cls(geometry=geometry, atom=atom, z_grid=grid, **kwargs)


def _checked_grid(z_grid, a: float) -> np.ndarray:
    """z_grid as 1-D float64; InvalidGrid unless strictly increasing inside (0, a).

    Each entry is a number by the one rule, profiles._finite, whatever
    NumPy makes of it. NumPy converts a str, a Decimal and None, which float
    arithmetic refuses, so each entry of anything but a float, int or bool
    array is tried on its own. Where NumPy refuses the grid, the first
    scalar entry that is not a number is named; only a grid whose scalar
    entries are all numbers (a ragged or nested one), or a bare str, is not
    a sequence of numbers. An int or a Fraction beyond the double range
    lies outside, as inf does.

    This is SweepSpec's rule for the sequences a library caller passes. A
    CLI grid, a _Linspace, is not checked here: the z step of _table_chunks
    judges each of its rows, as it judges a --z point.
    """
    import numpy as np

    try:
        z = np.asarray(z_grid, dtype=np.float64)
    except OverflowError as exc:
        raise InvalidGrid(f"z_grid must lie strictly inside (0, {a})") from exc
    except (TypeError, ValueError) as exc:  # a complex, "x", a ragged list ...
        if np.iterable(z_grid) and not isinstance(z_grid, str):
            _check_numbers([x for x in z_grid if np.ndim(x) == 0])
        raise InvalidGrid("z_grid must be a sequence of numbers") from exc
    if z.ndim != 1:
        raise InvalidGrid(f"z_grid must be one-dimensional, got {z.ndim} dimensions")
    if len(z) < 1:
        raise InvalidGrid("z_grid must contain at least one point")
    if not (isinstance(z_grid, np.ndarray) and z_grid.dtype.kind in "biuf"):
        _check_numbers(z_grid)
    if not (z[0] > 0.0 and z[-1] < a):  # negated, so that nan is refused
        raise InvalidGrid(f"z_grid must lie strictly inside (0, {a})")
    if not (z[1:] > z[:-1]).all():
        raise InvalidGrid("z_grid must be strictly increasing")
    return z


def _check_numbers(entries) -> None:
    """InvalidGrid naming the first of the grid entries that is not a number."""
    try:
        for x in entries:
            _finite(x, "z_grid entry {!r} is not a number")
    except ValueError as exc:
        raise InvalidGrid(str(exc)) from None


def _sweep_columns(quantities, include_limit_reference: bool) -> tuple[str, ...]:
    """The sweep table's columns: z, the quantities in canonical order, V_wall."""
    if isinstance(quantities, str):  # set("force") would be its letters
        raise ConfigError(f"sweep quantities must be names, not the str {quantities!r}")
    # entries are compared by ==, so one need not be hashable; each is named once
    unknown = {repr(q) for q in quantities if q not in SWEEP_QUANTITIES}
    if unknown:
        raise ConfigError("unknown sweep quantities: [%s]" % ", ".join(sorted(unknown)))
    ordered = tuple(q for q in SWEEP_QUANTITIES if q in quantities)
    if not ordered:
        raise ConfigError("sweep quantities must name at least one quantity")
    return ("z",) + ordered + (("V_wall",) if include_limit_reference else ())


class PotentialCurve(namedtuple("PotentialCurve", "columns rows")):
    """Column-named rows in ascending z, ready for serialization.

    rows is a list of float tuples, a new empty one by default.
    """

    __slots__ = ()

    def __new__(cls, columns: tuple[str, ...], rows: list | None = None):
        return tuple.__new__(cls, (columns, [] if rows is None else rows))

    def column(self, name: str) -> list[float]:
        if name not in self.columns:
            raise ValueError(f"no column {name!r}; the curve has {self.columns}")
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def nearest_wall_reference(geom: Geometry, atom: AtomResponse, z: float) -> float:
    """Single-wall limit value for the wall nearest to z.

    For "cc" both walls are conducting; for "cp" the far wall (z = a) is
    permeable. The reference uses the distance to whichever wall is closer.
    """
    geom.xi(z)  # refuses a z outside the walls
    return _nearest_wall(geom, atom, z, *_FLOAT_OPS)


def _nearest_wall(geom: Geometry, atom: AtomResponse, z, pow, minimum):
    """The single-wall law of the wall nearer to z, on floats or arrays.

    pow and minimum are operator.pow and min for one z, np.float_power and
    np.minimum for a grid. A tie goes to the near wall, z = 0, which is
    conducting; only the far wall of "cp" repels.
    """
    d_far = geom.separation_a - z
    repels = (z > d_far) & (geom.kind is WallKind.CONDUCTOR_PERMEABLE)
    return _single_wall(atom, minimum(z, d_far), repels, pow)


# (pow, minimum) of the float path; a grid chunk's are np.float_power, np.minimum
_FLOAT_OPS = (_pow, min)


class _Terms(dict):
    """The terms of a table at z: one float (a CLI point) or a grid chunk.

    Built from z and the profile values p and slopes dp there, and the
    (pow, minimum) pair of z's path, _FLOAT_OPS or NumPy's, which V_wall
    takes. Any other name is the expression of its _COLUMNS entry,
    evaluated when it is first asked for and then kept, so each term is
    computed once per chunk however many columns read it.
    """

    __slots__ = ("atom", "geom", "ops")

    def __init__(self, atom, geom: Geometry, z, p, dp, ops=_FLOAT_OPS):
        super().__init__(z=z, p=p, dp=dp)
        self.atom, self.geom, self.ops = atom, geom, ops

    def __missing__(self, name: str):
        value = self[name] = _COLUMNS[name][0](self)
        return value


# The nine cells of each correlator tensor, row-major, as _COLUMNS entries:
# a diagonal EE or BB cell takes its pair's par (xx, yy) or perp (zz) term;
# the off-diagonal and EB cells are zero.
_TENSOR_CELLS = {
    f"{pair}_{i}{j}": (f"{pair}_{'perp' if i == 'z' else 'par'}", True, False)
    if i == j and pair != "EB" else (None, True, True)
    for pair in ("EE", "BB", "EB") for i in "xyz" for j in "xyz"
}

# The one column table: every numeric column of the potential, correlators,
# sweep and limits tables, and every term they share, by name, as
# (term, si, zero):
# - term: the entry's expression in the _Terms t, on floats (one CLI point)
#   or arrays (a grid chunk) alike, in the scalar functions' own
#   expressions; or the name of the shared term the column takes, which is
#   what a refusal names (V_total is V); or None where no _Terms evaluates
#   it: z, which _Terms holds, the limits columns, which a LimitRow holds,
#   and the zero cells;
# - si: --units si multiplies it by hbar*c (its dimension is length^-n);
# - zero: it vanishes identically, so it is held in no array and written as
#   a literal 0, what %.17g prints for +0.0, in either unit system.
# EE and BB are the (par, perp) pairs of _par_perp: the BB tensor is the EE
# one at -p.
_COLUMNS = {
    "z": (None, False, False),
    "V": (lambda t: _total(t.atom, t.geom, t["p"]), True, False),
    "V_E": (lambda t: _electric(t.atom, t.geom, t["p"]), True, False),
    "V_M": (lambda t: _magnetic(t.atom, t.geom, t["p"]), True, False),
    "force": (lambda t: _force(t.atom, t.geom, t["dp"]), True, False),
    "V_wall": (lambda t: _nearest_wall(t.geom, t.atom, t["z"], *t.ops), True, False),
    "EE": (lambda t: _par_perp(t.geom, t["p"]), True, False),
    "BB": (lambda t: _par_perp(t.geom, -t["p"]), True, False),
    "EE_par": (lambda t: t["EE"][0], True, False),
    "EE_perp": (lambda t: t["EE"][1], True, False),
    "BB_par": (lambda t: t["BB"][0], True, False),
    "BB_perp": (lambda t: t["BB"][1], True, False),
    "EE_trace": (lambda t: _trace(*t["EE"]), True, False),
    "BB_trace": (lambda t: _trace(*t["BB"]), True, False),
    "trace_sum": (lambda t: t["EE_trace"] + t["BB_trace"], True, False),
    "V_total": ("V", True, False),
    "force_z": ("force", True, False),
    **_TENSOR_CELLS,
    "trace_EE": ("EE_trace", True, False),
    "trace_BB": ("BB_trace", True, False),
    "trace_EE_plus_trace_BB": ("trace_sum", True, False),
    "a": (None, False, False),
    "V_exact": (None, True, False),
    "V_limit": (None, True, False),
    "rel_error": (None, False, False),
}

# Rows per chunk of a table: what _table_chunks evaluates and judges, and the
# CLI formats, at once. It bounds a table's working set, whatever its
# length. A chunk of the widest table, the ten float columns of the CLI
# correlator table, peaks at about 0.6 MiB under tracemalloc, its positions
# and its formatted slices included (2.3 MiB at 8192 rows). A CLI grid is a
# _Linspace, whose positions are built a chunk at a time, so nothing else
# grows with the rows: a cp potential or correlators table peaks at about
# 29 MiB RSS at 2e4 and at 1e6 rows alike (README, "Output contract").
CHUNK_ROWS = 1 << 11


class _Linspace:
    """np.linspace(start, stop, num), held as its ends; a slice is built on demand.

    z[i0:i1] is an array of rows i0 to i1 of the grid, made by NumPy's own
    rule, so it equals the same slice of np.linspace bit for bit: each
    index times the step, plus start, or (index / (num - 1)) * (stop -
    start) where the step underflows to 0, and the last row set to stop. A
    span that overflows gives inf and nan rows, as np.linspace does, in
    the caller's NumPy error state. num is at most 2**53, below which every
    index is an exact double; the CLI refuses a larger --z-count.
    """

    __slots__ = ("start", "stop", "num")

    def __init__(self, start: float, stop: float, num: int):
        self.start, self.stop, self.num = start, stop, num

    def __len__(self) -> int:
        return self.num

    def __getitem__(self, rows: slice) -> np.ndarray:
        import numpy as np

        i0, i1, _ = rows.indices(self.num)
        div, delta = self.num - 1, self.stop - self.start
        z = np.arange(i0, i1, dtype=np.float64)
        z = (z * (delta / div) if delta / div != 0.0 else z / div * delta) + self.start
        if i0 < i1 == self.num:
            z[-1] = self.stop
        return z


def _table_chunks(geom: Geometry, atom, z, names, guard: GuardPolicy, si=False):
    """The named columns over a grid z, CHUNK_ROWS rows at a time, each chunk judged.

    z is a float, a _Linspace or a sequence of floats. names are the
    output's column names, each an entry of _COLUMNS, evaluated as the term
    its entry names (itself where its term is an expression). Yields (cells,
    asymptotic) per chunk: a (rows, columns) float64 array and the rows'
    asymptotic mask. One Geometry._grid_terms call covers a chunk, each
    distinct term is then one array expression, and every cell equals the
    scalar public function at that z bit for bit; NumPy is quiet, so an
    overflow gives inf, not a warning. Each chunk then goes through _judged,
    under names and in si units if si (the CLI's --units si; natural units
    by default), and is yielded as _judged returns it. Refusals come as for
    the whole grid at once: the first domain refusal in grid order
    (OutOfDomain, TooCloseToWall) wins over a result out of the double
    range, which is raised only once every chunk has passed the domain
    check. That is a NonFiniteResult: _judged's, the correlator prefactor's
    own, or, where a prefactor raises OverflowError or ZeroDivisionError,
    one that names the error, the term and the chunk's first row and z. atom
    may be None where no column needs one.

    A float z (the CLI's --z point) is one chunk of one row: a list of one
    float tuple and a list of one flag, from one Geometry.point_terms call
    and the columns on floats, with the same bits and without NumPy. Where
    a power in its terms or its columns leaves the double range on floats
    (OverflowError, ZeroDivisionError), the point goes through the array
    pass instead, as a grid of one row, which names it as it names a grid
    row: _judged its inf or nan cell, or the term of a prefactor.
    """
    columns = [_COLUMNS[n][0] if isinstance(_COLUMNS[n][0], str) else n for n in names]
    if isinstance(z, float):
        try:
            p, dp, asymptotic = geom.point_terms(z, guard)
            terms = _Terms(atom, geom, z, p, dp)
            row = tuple([terms[c] for c in columns])
        except (OverflowError, ZeroDivisionError):
            z = [z]
        else:
            yield _judged([row], names, 0, si), [asymptotic]
            return
    import numpy as np

    if not isinstance(z, _Linspace):
        z = np.asarray(z, dtype=np.float64)
    for start in range(0, len(z), CHUNK_ROWS):
        with np.errstate(all="ignore"):  # for the positions, kernel and columns alike
            zc = z[start:start + CHUNK_ROWS]
            try:
                p, dp, asymptotic = geom._grid_terms(zc, guard)
                terms = _Terms(atom, geom, zc, p, dp, (np.float_power, np.minimum))
                cells = np.empty((len(zc), len(columns)))
                for i, c in enumerate(columns):
                    cells[:, i] = terms[c]
                cells = _judged(cells, names, start, si)
            except (OverflowError, ZeroDivisionError, NonFiniteResult) as exc:
                for rest in range(start + CHUNK_ROWS, len(z), CHUNK_ROWS):
                    geom._grid_terms(z[rest:rest + CHUNK_ROWS], guard)  # domain first
                if isinstance(exc, NonFiniteResult):
                    raise
                where = f"{c} from row {start + 1} (z={float(zc[0])!r})"
                raise _out_of_range(exc, where) from exc
        yield cells, asymptotic


def _judged(cells, names, start=0, si=False):
    """A table chunk in its units, refused unless every cell is a finite normal double.

    The one judge of a table's cells, for _table_chunks, the limits ladder
    and the CLI's --units si. cells is a chunk in natural units: a list of
    float tuples or a (rows, columns) float64 array; names are its column
    names, entries of _COLUMNS, and start the table row before its first. If
    si, each column whose entry says so is multiplied by hbar*c; else the
    chunk keeps natural units. Returns the converted chunk. A cell is
    refused if it is inf or nan, or below the normal range (subnormal or
    zero) while its natural value is not zero, so a converted value that
    underflowed is refused as a subnormal natural one is. The
    NonFiniteResult names the first refused cell in row order, its table row
    and that row's first cell.
    """
    natural = cells
    factors = [HBAR_C_J_M if _COLUMNS[c][1] else 1.0 for c in names] if si else None
    if isinstance(cells, list):
        if factors is not None:
            cells = [tuple(map(operator.mul, row, factors)) for row in cells]
        bad = next(((row, col) for row, (values, nat) in enumerate(zip(cells, natural))
                    for col, (x, n) in enumerate(zip(values, nat))
                    if not (_SMALLEST_NORMAL <= abs(x) < math.inf or x == n == 0.0)), None)
    else:
        if factors is not None:
            cells = cells * factors  # NumPy broadcasts the list over the rows
        mag, bad = abs(cells), None
        if not (mag.max() < math.inf and mag.min() >= _SMALLEST_NORMAL):  # nan fails
            refused = ~(mag < math.inf) | ((mag < _SMALLEST_NORMAL) & (natural != 0.0))
            if refused.any():
                bad = divmod(int(refused.argmax()), cells.shape[1])
    if bad is None:
        return cells
    row, col = bad
    raise NonFiniteResult(
        f"{names[col]}={float(cells[row][col])!r} in row {start + row + 1}"
        f" ({names[0]}={float(cells[row][0])!r}) is not a finite normal double"
    )


def _out_of_range(exc: ArithmeticError, where: str) -> NonFiniteResult:
    """The NonFiniteResult for an OverflowError or ZeroDivisionError in where."""
    return NonFiniteResult(
        f"a result is out of the double range ({type(exc).__name__}: {exc}) in {where}"
    )


def run_sweep(spec: SweepSpec) -> PotentialCurve:
    """Evaluate the requested quantities on the grid, one row per point.

    The rows are _table_chunks' chunks, judged as a CLI table's are: a cell
    that is inf, nan or subnormal is a NonFiniteResult naming it, its row
    and the row's z.
    """
    columns = _sweep_columns(spec.quantities, spec.include_limit_reference)
    rows = []
    for cells, _ in _table_chunks(
        spec.geometry, spec.atom, spec.z_grid, columns, spec.guard
    ):
        rows += map(tuple, cells.tolist())
    return PotentialCurve(columns, rows)


class LimitRow(NamedTuple):
    """One separation in a convergence study; rel_error is None if degenerate."""

    a: float
    v_exact: float
    v_limit: float
    rel_error: float | None


class LimitStudy(NamedTuple):
    """Convergence of the two-wall potential toward its single-wall limit."""

    wall_type: str
    wall_distance: float
    rows: list[LimitRow]
    degenerate: bool

    def convergence_exponent(self) -> float:
        """Least-squares slope of -log(rel_error) against log(a).

        The deviation falls like (d/a)^4 to leading order, so a correct
        implementation lands near 4. The slope is the closed-form fit
        sum(dx*dy) / sum(dx*dx) about the means, each sum a math.fsum.
        """
        if self.degenerate:
            raise ValueError("degenerate study (alpha0 == beta0) has no exponent")
        xs = [math.log(r.a) for r in self.rows if r.rel_error and r.rel_error > 0.0]
        ys = [math.log(r.rel_error) for r in self.rows if r.rel_error and r.rel_error > 0.0]
        if len(xs) < 2:
            raise ValueError("need at least two nonzero errors to fit an exponent")
        x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
        dx = [x - x_mean for x in xs]
        sxx = math.fsum(d * d for d in dx)
        if sxx == 0.0:  # every log(a) rounds to one double
            raise ValueError("the separations are too close together to fit an exponent")
        return -math.fsum(d * (y - y_mean) for d, y in zip(dx, ys)) / sxx


# The columns of a limits table, _COLUMNS entries: a row's a, v_exact, v_limit
# and rel_error.
_LIMIT_COLUMNS = ("a", "V_exact", "V_limit", "rel_error")


def limit_convergence_study(
    atom: AtomResponse,
    wall_type: str,
    z: float,
    a_values,
    guard: GuardPolicy = DEFAULT_GUARD,
) -> LimitStudy:
    """Tabulate V_exact vs the single-wall limit at fixed wall distance z.

    z is measured from the named wall: from z=0 for "conducting", from z=a
    for "permeable" (the atom sits at position a - z in that geometry).
    Every a_values entry must be a positive finite number, by
    profiles._inside; one that is not is an InvalidGrid before any row. A
    result out of the double range (a power or a quotient that raises
    OverflowError or ZeroDivisionError) is a NonFiniteResult naming the
    error, the column (V_limit, V_exact or rel_error) and the row's a. The
    ladder is then one table chunk, _limit_cells, which _judged refuses as
    it refuses a sweep's: a cell that is inf, nan or subnormal is a
    NonFiniteResult naming it, its row and the row's a.
    """
    study = _limit_ladder(atom, wall_type, z, a_values, guard)
    _judged(_limit_cells(study), _LIMIT_COLUMNS)
    return study


def _limit_cells(study: LimitStudy) -> list[tuple]:
    """The study's rows as float tuples of _LIMIT_COLUMNS, rel_error dropped if degenerate."""
    return [row[:3] if study.degenerate else tuple(row) for row in study.rows]


def _limit_ladder(atom, wall_type, z, a_values, guard) -> LimitStudy:
    """limit_convergence_study's rows, their cells not yet judged.

    The CLI's limits command judges them itself, once, in the units it
    writes, so that an --units si cell that underflows is named before a
    later subnormal natural one.
    """
    try:
        a_list = list(a_values)
    except TypeError as exc:
        raise InvalidGrid("a_values must be a sequence of numbers") from exc
    for a in a_list:
        if not _inside(a, math.inf):
            raise InvalidGrid(f"a_values entry {a!r} is not a positive finite number")
    a_list = [float(a) for a in a_list]
    if not a_list:
        raise InvalidGrid("a_values must be non-empty")
    if any(b <= a for a, b in zip(a_list, a_list[1:])):
        raise InvalidGrid("a_values must be strictly increasing")
    if not _inside(z, min(a_list)):
        raise InvalidGrid(f"need 0 < z < min(a_values), got z={z!r}")

    degenerate = atom.alpha0 == atom.beta0
    conducting = wall_type == "conducting"
    kind = WallKind.CONDUCTOR_CONDUCTOR if conducting else WallKind.CONDUCTOR_PERMEABLE
    rows, column = [], "V_limit"
    try:
        v_limit = single_wall_limit(atom, wall_type, z)  # refuses a bad wall_type
        for a in a_list:
            column, position = "V_exact", z if conducting else a - z
            v_exact = potential_total(atom, Geometry(kind, a), position, guard)
            column = "rel_error"
            rel = None if degenerate else abs(v_exact / v_limit - 1.0)
            rows.append(LimitRow(a=a, v_exact=v_exact, v_limit=v_limit, rel_error=rel))
    except (OverflowError, ZeroDivisionError) as exc:
        where = f"{column} in row {len(rows) + 1} (a={a_list[len(rows)]!r})"
        raise _out_of_range(exc, where) from exc
    return LimitStudy(
        wall_type=wall_type, wall_distance=z, rows=rows, degenerate=degenerate
    )
