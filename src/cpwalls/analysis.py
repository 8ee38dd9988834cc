"""Parameter sweeps and single-wall limit-convergence studies.

Everything here is a pure tabulation layer over the correlator and potential
modules: build a grid, evaluate the requested quantities per point, and hand
back plain column/row containers the CLI can serialize. _table_chunks is
the one evaluator of a table's columns, for run_sweep, a CLI grid and a
CLI --z point alike. A CLI grid is a _Linspace, which builds np.linspace's
positions one chunk at a time, so a CLI table holds one chunk whatever its
length. The containers
(SweepSpec, PotentialCurve, LimitRow, LimitStudy) are immutable named
tuples; SweepSpec.__new__ checks the grid and the quantities and keeps the
grid as a tuple of floats, and PotentialCurve and LimitStudy hold their
rows in a list.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from .correlators import Geometry, WallKind, _par_perp, _trace
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
        quantities: tuple[str, ...] = ("V", "V_E", "V_M", "force"),
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

    A _Linspace is checked without being held whole, and returned as it
    is: its ends first, as a whole grid's are below, then each CHUNK_ROWS
    chunk with the row before it, so a position repeated across a seam is
    refused too.
    """
    import numpy as np

    if isinstance(z_grid, _Linspace):
        with np.errstate(all="ignore"):  # a span that overflows makes nan and inf rows
            _checked_grid(np.append(z_grid[:1], z_grid.stop), a)
            for i in range(0, len(z_grid), CHUNK_ROWS):
                _checked_grid(z_grid[max(i - 1, 0):i + CHUNK_ROWS], a)
        return z_grid
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
    return _nearest_wall(geom, atom, z, _pow, min)


def _nearest_wall(geom: Geometry, atom: AtomResponse, z, pow, minimum):
    """The single-wall law of the wall nearer to z, on floats or arrays.

    pow and minimum are operator.pow and min for one z, np.float_power and
    np.minimum for a grid. A tie goes to the near wall, z = 0, which is
    conducting; only the far wall of "cp" repels.
    """
    d_far = geom.separation_a - z
    repels = (z > d_far) & (geom.kind is WallKind.CONDUCTOR_PERMEABLE)
    return _single_wall(atom, minimum(z, d_far), repels, pow)


def _nearest_wall_column(geom: Geometry, atom: AtomResponse, z: np.ndarray):
    """_nearest_wall over a grid of z, equal to nearest_wall_reference bit for bit."""
    import numpy as np

    return _nearest_wall(geom, atom, z, np.float_power, np.minimum)


class _Terms(dict):
    """The terms of a table at z: one float (a CLI point) or a grid chunk.

    Built from z and the profile values p and slopes dp there. Any other
    name is the _COLUMN expression of that name, evaluated when it is first
    asked for and then kept, so each term is computed once per chunk
    however many columns read it.
    """

    __slots__ = ("atom", "geom")

    def __init__(self, atom, geom: Geometry, z, p, dp):
        super().__init__(z=z, p=p, dp=dp)
        self.atom, self.geom = atom, geom

    def __missing__(self, name: str):
        value = self[name] = _COLUMN[name](self)
        return value


# Every table column as one expression in the _Terms t, in the scalar
# functions' own expressions: the sweep quantities, V_wall, and the live
# cells of the CLI correlator table, which read the EE and BB pairs of
# _par_perp (the BB tensor is the EE one at -p). Each takes floats (one CLI
# point) or arrays (a grid chunk) alike, except V_wall, which takes arrays
# only.
_COLUMN = {
    "V": lambda t: _total(t.atom, t.geom, t["p"]),
    "V_E": lambda t: _electric(t.atom, t.geom, t["p"]),
    "V_M": lambda t: _magnetic(t.atom, t.geom, t["p"]),
    "force": lambda t: _force(t.atom, t.geom, t["dp"]),
    "V_wall": lambda t: _nearest_wall_column(t.geom, t.atom, t["z"]),
    "EE": lambda t: _par_perp(t.geom, t["p"]),
    "BB": lambda t: _par_perp(t.geom, -t["p"]),
    "EE_par": lambda t: t["EE"][0],
    "EE_perp": lambda t: t["EE"][1],
    "BB_par": lambda t: t["BB"][0],
    "BB_perp": lambda t: t["BB"][1],
    "EE_trace": lambda t: _trace(*t["EE"]),
    "BB_trace": lambda t: _trace(*t["BB"]),
    "trace_sum": lambda t: t["EE_trace"] + t["BB_trace"],
}

# Rows per chunk of a table: what _table_chunks evaluates, and the CLI gates
# and formats, at once. It bounds a table's working set, whatever its
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


def _table_chunks(geom: Geometry, atom, z, columns, guard: GuardPolicy):
    """The named _Terms over a grid z, CHUNK_ROWS rows at a time.

    z is a float, a _Linspace or a sequence of floats. Yields (cells,
    asymptotic) per chunk: a (rows, columns) float64 array and the rows'
    asymptotic mask. One Geometry._grid_terms call covers a chunk, each
    distinct term is then one array expression, and every cell equals the
    scalar public function at that z bit for bit; NumPy is quiet, so an
    overflow gives inf, not a warning. Refusals come as for the whole grid
    at once: the first domain refusal in grid order (OutOfDomain,
    TooCloseToWall) wins over a result out of the double range, which is
    raised only once every chunk has passed the domain check. That is a
    NonFiniteResult: the correlator prefactor's own, or, where a prefactor
    or a profile power raises OverflowError or ZeroDivisionError, one that
    names the error, the term and the chunk's first row and z. atom may be
    None where no column needs one.

    A float z (the CLI's --z point) is one chunk of one row: a list of one
    float tuple and a list of one flag, from one Geometry.point_terms call
    and the columns on floats, with the same bits and without NumPy. Where
    a power in the scalar forms leaves the double range (OverflowError,
    ZeroDivisionError), the point goes through the array kernel instead, so
    that the finite gate names its inf or nan cell as it does in a grid.
    """
    if isinstance(z, float):
        try:
            p, dp, asymptotic = geom.point_terms(z, guard)
        except (OverflowError, ZeroDivisionError):
            z = [z]
        else:
            terms, row = _Terms(atom, geom, z, p, dp), []
            try:
                for c in columns:
                    row.append(terms[c])
            except (OverflowError, ZeroDivisionError) as exc:
                raise _out_of_range(exc, f"{c} from row 1 (z={z!r})") from exc
            yield [tuple(row)], [asymptotic]
            return
    import numpy as np

    if not isinstance(z, _Linspace):
        z = np.asarray(z, dtype=np.float64)
    for start in range(0, len(z), CHUNK_ROWS):
        with np.errstate(all="ignore"):  # for the positions, kernel and columns alike
            zc = z[start:start + CHUNK_ROWS]
            p, dp, asymptotic = geom._grid_terms(zc, guard)
            terms = _Terms(atom, geom, zc, p, dp)
            cells = np.empty((len(zc), len(columns)))
            try:
                for i, c in enumerate(columns):
                    cells[:, i] = terms[c]
            except (OverflowError, ZeroDivisionError, NonFiniteResult) as exc:
                for rest in range(start + CHUNK_ROWS, len(z), CHUNK_ROWS):
                    geom._grid_terms(z[rest:rest + CHUNK_ROWS], guard)  # domain first
                if isinstance(exc, NonFiniteResult):
                    raise
                where = f"{c} from row {start + 1} (z={float(zc[0])!r})"
                raise _out_of_range(exc, where) from exc
        yield cells, asymptotic


def _out_of_range(exc: ArithmeticError, where: str) -> NonFiniteResult:
    """The NonFiniteResult for an OverflowError or ZeroDivisionError in where."""
    return NonFiniteResult(
        f"a result is out of the double range ({type(exc).__name__}: {exc}) in {where}"
    )


def run_sweep(spec: SweepSpec) -> PotentialCurve:
    """Evaluate the requested quantities on the grid, one row per point."""
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
    error, the column (V_limit, V_exact or rel_error) and the row's a.
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
