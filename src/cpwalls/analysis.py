"""Parameter sweeps and single-wall limit-convergence studies.

Everything here is a pure tabulation layer over the correlator and potential
modules: build a grid, evaluate the requested quantities per point, and hand
back plain column/row containers the CLI can serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .correlators import Geometry, WallKind, _tensor
from .errors import ConfigError, InvalidGrid
from .potentials import (
    AtomResponse,
    _electric,
    _force,
    _magnetic,
    _single_wall_magnitude,
    _total,
    potential_total,
    single_wall_limit,
)
from .profiles import DEFAULT_GUARD, GuardPolicy

if TYPE_CHECKING:
    import numpy as np

# Canonical column order for sweep quantities.
SWEEP_QUANTITIES = ("V", "V_E", "V_M", "force", "EE_trace", "BB_trace")


@dataclass(frozen=True)
class SweepSpec:
    """A z-grid sweep request over one geometry and atom."""

    geometry: Geometry
    atom: AtomResponse
    z_grid: tuple[float, ...]
    quantities: tuple[str, ...] = ("V", "V_E", "V_M", "force")
    guard: GuardPolicy = DEFAULT_GUARD
    include_limit_reference: bool = False

    def __post_init__(self) -> None:
        grid = tuple(float(z) for z in self.z_grid)
        object.__setattr__(self, "z_grid", grid)
        if len(grid) < 1:
            raise InvalidGrid("z_grid must contain at least one point")
        if grid[0] <= 0.0 or grid[-1] >= self.geometry.separation_a:
            raise InvalidGrid(
                f"z_grid must lie strictly inside (0, {self.geometry.separation_a})"
            )
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidGrid("z_grid must be strictly increasing")
        unknown = set(self.quantities) - set(SWEEP_QUANTITIES)
        if unknown:
            raise ConfigError(f"unknown sweep quantities: {sorted(unknown)}")

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
        if count < 2:
            raise InvalidGrid(f"grid count must be >= 2, got {count!r}")
        if not (0.0 < z_min < z_max < geometry.separation_a):
            raise InvalidGrid(
                f"need 0 < z_min < z_max < a, got z_min={z_min!r},"
                f" z_max={z_max!r}, a={geometry.separation_a!r}"
            )
        import numpy as np

        grid = tuple(np.linspace(z_min, z_max, count).tolist())
        return cls(geometry=geometry, atom=atom, z_grid=grid, **kwargs)


@dataclass
class PotentialCurve:
    """Column-named rows in ascending z, ready for serialization."""

    columns: tuple[str, ...]
    rows: list[tuple[float, ...]] = field(default_factory=list)

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def nearest_wall_reference(geom: Geometry, atom: AtomResponse, z: float) -> float:
    """Single-wall limit value for the wall nearest to z.

    For "cc" both walls are conducting; for "cp" the far wall (z = a) is
    permeable. The reference uses the distance to whichever wall is closer.
    """
    a = geom.separation_a
    d_near, d_far = z, a - z
    if d_near <= d_far:
        return single_wall_limit(atom, "conducting", d_near)
    far_type = (
        "conducting" if geom.kind is WallKind.CONDUCTOR_CONDUCTOR else "permeable"
    )
    return single_wall_limit(atom, far_type, d_far)


# Each sweep quantity as a column of the grid's profile values p and slopes
# dp, in the scalar functions' own expressions; CLI potential takes its value
# columns from here too.
_SWEEP_COLUMN = {
    "V": lambda atom, geom, p, dp: _total(atom, geom, p),
    "V_E": lambda atom, geom, p, dp: _electric(atom, geom, p),
    "V_M": lambda atom, geom, p, dp: _magnetic(atom, geom, p),
    "force": lambda atom, geom, p, dp: _force(atom, geom, dp),
    "EE_trace": lambda atom, geom, p, dp: _tensor(geom, p, "EE").trace(),
    "BB_trace": lambda atom, geom, p, dp: _tensor(geom, -p, "BB").trace(),
}


def _nearest_wall_column(geom: Geometry, atom: AtomResponse, z: np.ndarray):
    """nearest_wall_reference over a grid of z, equal to it bit for bit."""
    import numpy as np

    d_far = geom.separation_a - z
    far = z > d_far  # a tie goes to the near wall
    magnitude = _single_wall_magnitude(
        atom, np.float_power(np.where(far, d_far, z), 4)
    )
    repelled = far & (geom.kind is WallKind.CONDUCTOR_PERMEABLE)
    return np.where(repelled, magnitude, -magnitude)


def _sweep_table(spec: SweepSpec) -> tuple[tuple[str, ...], np.ndarray]:
    """The sweep's column names and its (rows, columns) float64 table.

    One profiles.profile_terms call covers the grid, and each requested
    quantity is then one array expression; every cell equals the scalar
    public function at that z bit for bit.
    """
    import numpy as np

    atom, geom = spec.atom, spec.geometry
    ordered = [q for q in SWEEP_QUANTITIES if q in spec.quantities]
    z = np.array(spec.z_grid)
    cells = [z]
    if ordered:
        p, dp, _ = geom.profile_terms(z, spec.guard)
        cells += [_SWEEP_COLUMN[q](atom, geom, p, dp) for q in ordered]
    columns = ["z"] + ordered
    if spec.include_limit_reference:
        columns.append("V_wall")
        cells.append(_nearest_wall_column(geom, atom, z))
    return tuple(columns), np.column_stack(cells)


def run_sweep(spec: SweepSpec) -> PotentialCurve:
    """Evaluate the requested quantities on the grid, one row per point."""
    columns, cells = _sweep_table(spec)
    return PotentialCurve(columns, list(map(tuple, cells.tolist())))


@dataclass(frozen=True)
class LimitRow:
    """One separation in a convergence study; rel_error is None if degenerate."""

    a: float
    v_exact: float
    v_limit: float
    rel_error: float | None


@dataclass
class LimitStudy:
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
    a_list = [float(a) for a in a_values]
    if not a_list:
        raise InvalidGrid("a_values must be non-empty")
    if any(b <= a for a, b in zip(a_list, a_list[1:])):
        raise InvalidGrid("a_values must be strictly increasing")
    if not (z > 0.0 and z < min(a_list)):
        raise InvalidGrid(f"need 0 < z < min(a_values), got z={z!r}")
    if wall_type not in ("conducting", "permeable"):
        raise ValueError(f"unknown wall_type {wall_type!r}")

    degenerate = atom.alpha0 == atom.beta0
    v_limit = single_wall_limit(atom, wall_type, z)
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
