"""Parameter sweeps and single-wall limit-convergence studies.

Everything here is a pure tabulation layer over the correlator and potential
modules: build a grid, evaluate the requested quantities per point, and hand
back plain column/row containers the CLI can serialize. The containers
(SweepSpec, PotentialCurve, LimitRow, LimitStudy) are immutable named
tuples; SweepSpec.__new__ checks the grid and the quantities and keeps the
grid as a tuple of floats, and PotentialCurve and LimitStudy hold their
rows in a list.
"""

from __future__ import annotations

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
from .profiles import DEFAULT_GUARD, GuardPolicy, _inside, _pow

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
    (0, a); quantities are names from SWEEP_QUANTITIES.
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
    """z_grid as 1-D float64; InvalidGrid unless strictly increasing inside (0, a)."""
    import numpy as np

    try:
        z = np.asarray(z_grid, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a str, a ragged list ...
        raise InvalidGrid("z_grid must be a sequence of numbers") from exc
    if z.ndim != 1:
        raise InvalidGrid(f"z_grid must be one-dimensional, got {z.ndim} dimensions")
    if len(z) < 1:
        raise InvalidGrid("z_grid must contain at least one point")
    if not (z[0] > 0.0 and z[-1] < a):  # negated, so that nan is refused
        raise InvalidGrid(f"z_grid must lie strictly inside (0, {a})")
    if not (z[1:] > z[:-1]).all():
        raise InvalidGrid("z_grid must be strictly increasing")
    return z


def _sweep_columns(quantities, include_limit_reference: bool) -> tuple[str, ...]:
    """The sweep table's columns: z, the quantities in canonical order, V_wall."""
    if isinstance(quantities, str):  # set("force") would be its letters
        raise ConfigError(f"sweep quantities must be names, not the str {quantities!r}")
    unknown = set(quantities) - set(SWEEP_QUANTITIES)
    if unknown:
        raise ConfigError(f"unknown sweep quantities: {sorted(unknown)}")
    ordered = tuple(q for q in SWEEP_QUANTITIES if q in quantities)
    return ("z",) + ordered + (("V_wall",) if include_limit_reference else ())


class PotentialCurve(namedtuple("PotentialCurve", "columns rows")):
    """Column-named rows in ascending z, ready for serialization.

    rows is a list of float tuples, a new empty one by default.
    """

    __slots__ = ()

    def __new__(cls, columns: tuple[str, ...], rows: list | None = None):
        return tuple.__new__(cls, (columns, [] if rows is None else rows))

    def column(self, name: str) -> list[float]:
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


# Every table column as one expression in the position(s) z and the profile
# values p and slopes dp there, in the scalar functions' own expressions: the
# sweep quantities, V_wall, and the live cells of the CLI correlator table
# (the BB tensor is the EE one at -p). Each takes floats (one CLI point) or
# arrays (a grid chunk) alike, except V_wall, which takes arrays only.
_COLUMN = {
    "z": lambda atom, geom, z, p, dp: z,
    "V": lambda atom, geom, z, p, dp: _total(atom, geom, p),
    "V_E": lambda atom, geom, z, p, dp: _electric(atom, geom, p),
    "V_M": lambda atom, geom, z, p, dp: _magnetic(atom, geom, p),
    "force": lambda atom, geom, z, p, dp: _force(atom, geom, dp),
    "EE_trace": lambda atom, geom, z, p, dp: _trace(geom, p),
    "BB_trace": lambda atom, geom, z, p, dp: _trace(geom, -p),
    "V_wall": lambda atom, geom, z, p, dp: _nearest_wall_column(geom, atom, z),
    "EE_par": lambda atom, geom, z, p, dp: _par_perp(geom, p)[0],
    "EE_perp": lambda atom, geom, z, p, dp: _par_perp(geom, p)[1],
    "BB_par": lambda atom, geom, z, p, dp: _par_perp(geom, -p)[0],
    "BB_perp": lambda atom, geom, z, p, dp: _par_perp(geom, -p)[1],
    "trace_sum": lambda atom, geom, z, p, dp: _trace(geom, p) + _trace(geom, -p),
}

# Rows per chunk of a table: what _table_chunks evaluates, and the CLI gates
# and formats, at once. It bounds a table's memory, whatever its length.
CHUNK_ROWS = 1 << 13


def _table_chunks(geom: Geometry, atom, z, columns, guard: GuardPolicy = DEFAULT_GUARD):
    """The named _COLUMN cells over a grid z, CHUNK_ROWS rows at a time.

    Yields (cells, asymptotic) per chunk: a (rows, columns) float64 array and
    the rows' asymptotic mask. One profile_terms call covers a chunk, each
    column is then one array expression, and every cell equals the scalar
    public function at that z bit for bit; NumPy is quiet, so an overflow
    gives inf, not a warning. Refusals come as for the whole grid at once:
    the first domain refusal in grid order (OutOfDomain, TooCloseToWall)
    wins over a result out of the double range (a prefactor or a profile
    power: OverflowError, ZeroDivisionError or NonFiniteResult), which is
    raised only once every chunk has passed the domain check. atom may be
    None where no column needs one.
    """
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    expressions = [_COLUMN[c] for c in columns]
    for start in range(0, len(z), CHUNK_ROWS):
        zc = z[start:start + CHUNK_ROWS]
        p, dp, asymptotic = geom.profile_terms(zc, guard)
        try:
            with np.errstate(all="ignore"):
                cells = np.column_stack([f(atom, geom, zc, p, dp) for f in expressions])
        except (OverflowError, ZeroDivisionError, NonFiniteResult):
            for rest in range(start + CHUNK_ROWS, len(z), CHUNK_ROWS):
                geom.profile_terms(z[rest:rest + CHUNK_ROWS], guard)  # domain first
            raise
        yield cells, asymptotic


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
        implementation lands near 4.
        """
        if self.degenerate:
            raise ValueError("degenerate study (alpha0 == beta0) has no exponent")
        errs = [r.rel_error for r in self.rows if r.rel_error and r.rel_error > 0.0]
        a_vals = [r.a for r in self.rows if r.rel_error and r.rel_error > 0.0]
        if len(errs) < 2:
            raise ValueError("need at least two nonzero errors to fit an exponent")
        import numpy as np

        slope = np.polyfit(np.log(a_vals), np.log(errs), 1)[0]
        return float(-slope)


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
    """
    try:
        a_list = [float(a) for a in a_values]
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: 10**400
        raise InvalidGrid("a_values must be a sequence of numbers") from exc
    if not a_list:
        raise InvalidGrid("a_values must be non-empty")
    if any(b <= a for a, b in zip(a_list, a_list[1:])):
        raise InvalidGrid("a_values must be strictly increasing")
    if not _inside(z, min(a_list)):
        raise InvalidGrid(f"need 0 < z < min(a_values), got z={z!r}")

    degenerate = atom.alpha0 == atom.beta0
    v_limit = single_wall_limit(atom, wall_type, z)  # refuses a bad wall_type
    conducting = wall_type == "conducting"
    kind = WallKind.CONDUCTOR_CONDUCTOR if conducting else WallKind.CONDUCTOR_PERMEABLE
    rows = []
    for a in a_list:
        position = z if conducting else a - z
        v_exact = potential_total(atom, Geometry(kind, a), position, guard)
        rel = None if degenerate else abs(v_exact / v_limit - 1.0)
        rows.append(LimitRow(a=a, v_exact=v_exact, v_limit=v_limit, rel_error=rel))
    return LimitStudy(
        wall_type=wall_type, wall_distance=z, rows=rows, degenerate=degenerate
    )
