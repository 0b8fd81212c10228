"""Pre-computation of single-entry and double-entry position tables.

The compiler evaluates the direct chain at every grid point, so stored values
are exactly what direct mode would produce there; all approximation happens
later, at interpolation time.
"""

import math
from dataclasses import dataclass, field

from .angles import wrap_diff_deg
from .errors import DomainError
from .geocentric import geocentric_reduce
from .kepler import (
    OrbitalElements,
    heliocentric_state_elapsed,
    position_since_aphelion,
    validate_elements,
)

__all__ = [
    "TableRow",
    "PlanetTable",
    "DoubleEntryTable",
    "build_planet_table",
    "build_double_entry",
    "row_count",
    "CensusReport",
    "calculation_census",
    "MOTION_STENCIL_DAYS",
    "SOLVES_PER_ROW",
    "SOLVES_PER_CELL",
]

# Half-day stencil: the motion column stores a centred daily rate.
MOTION_STENCIL_DAYS = 0.5

# Kepler solves per single-entry row: anomaly at t-h, t, t+h. A double-entry
# table of shape n_u x n_v needs n_u + n_v solves, one per grid line, because
# each body's state is shared along its axis.
SOLVES_PER_ROW = 3


@dataclass(frozen=True)
class TableRow:
    """One single-entry table row.

    t: days since aphelion; nu_aph: true anomaly from aphelion (degrees);
    r: radius (AU); motion per day and per hour in degrees.
    """

    t: float
    nu_aph: float
    r: float
    motion_per_day: float
    motion_per_hour: float


@dataclass
class PlanetTable:
    """Single-entry table: time since aphelion -> (nu_aph, r, motion columns)."""

    elements: OrbitalElements
    step: float
    rows: list[TableRow]


@dataclass
class DoubleEntryTable:
    """Grid over (planet phase, Earth phase) -> geocentric (lambda, beta, delta).

    Cell (iu, iv) is evaluated with the planet iu*P_planet/n_u days past its
    aphelion and the Earth iv*P_earth/n_v days past its own; both axes are
    logically periodic.
    """

    planet: OrbitalElements
    earth: OrbitalElements
    n_u: int
    n_v: int
    cells: list[list[tuple[float, float, float]]] = field(repr=False)


def row_count(P: float, step: float) -> int:
    """Number of rows covering [0, P) at the given spacing."""
    n = math.ceil(P / step)
    while (n - 1) * step >= P:  # fp guard: ceil can overshoot by one
        n -= 1
    return n


def build_planet_table(el: OrbitalElements, step: float) -> PlanetTable:
    """Compile the single-entry table for one body.

    Rows sit at t = 0, step, 2*step, ... < P (the last interval may be
    shorter). Motion columns come from a wrap-aware central difference of the
    direct chain, so the compiler and the evaluator stay independent.
    """
    validate_elements(el)
    if not (math.isfinite(step) and 0.0 < step <= el.P / 8.0):
        raise DomainError(f"{el.name}: step must satisfy 0 < step <= P/8, got {step!r}")

    h = MOTION_STENCIL_DAYS
    rows = []
    n = row_count(el.P, step)
    for k in range(n):
        t = k * step
        if t >= el.P:
            break
        nu, r = position_since_aphelion(el, t)
        nu_after, _ = position_since_aphelion(el, t + h)
        nu_before, _ = position_since_aphelion(el, t - h)
        per_day = wrap_diff_deg(nu_after, nu_before) / (2.0 * h)
        if per_day <= 0.0:
            raise DomainError(
                f"{el.name}: non-positive daily motion {per_day!r} at t={t!r}; "
                "correction terms overwhelm the mean motion"
            )
        rows.append(
            TableRow(t=t, nu_aph=nu, r=r, motion_per_day=per_day, motion_per_hour=per_day / 24.0)
        )

    _check_monotone_rows(el.name, rows)
    return PlanetTable(elements=el, step=step, rows=rows)


def _check_monotone_rows(name: str, rows: list[TableRow]) -> None:
    unwrapped = rows[0].nu_aph
    for prev, cur in zip(rows, rows[1:]):
        advance = wrap_diff_deg(cur.nu_aph, prev.nu_aph)
        if advance <= 0.0:
            raise DomainError(
                f"{name}: true anomaly not strictly increasing between "
                f"t={prev.t!r} and t={cur.t!r}"
            )
        unwrapped += advance
    if unwrapped >= rows[0].nu_aph + 360.0:
        raise DomainError(f"{name}: unwrapped true anomaly spans a full revolution")


def build_double_entry(
    planet_el: OrbitalElements, earth_el: OrbitalElements, n_u: int, n_v: int
) -> DoubleEntryTable:
    """Compile the double-entry geocentric table for a planet/Earth pair."""
    validate_elements(planet_el)
    validate_elements(earth_el)
    if n_u < 8 or n_v < 8:
        raise DomainError(f"double-entry grid must be at least 8x8, got {n_u}x{n_v}")

    du = planet_el.P / n_u
    dv = earth_el.P / n_v
    earth_states = [heliocentric_state_elapsed(earth_el, iv * dv) for iv in range(n_v)]
    cells = []
    for iu in range(n_u):
        planet_state = heliocentric_state_elapsed(planet_el, iu * du)
        col = []
        for iv in range(n_v):
            g = geocentric_reduce(planet_state, earth_states[iv])
            col.append((g.lam, g.beta, g.delta))
        cells.append(col)
    return DoubleEntryTable(planet=planet_el, earth=earth_el, n_u=n_u, n_v=n_v, cells=cells)


@dataclass
class CensusReport:
    """Tally of the work a table-compilation configuration implies.

    Three readings of "how many calculations": table entries written, Kepler
    solver evaluations, and (optionally, measured elsewhere) arithmetic ops.
    """

    step_days: float
    double_shape: tuple[int, int] | None
    single_rows: dict[str, int]
    double_cells: dict[str, int]

    @property
    def total_rows(self) -> int:
        return sum(self.single_rows.values())

    @property
    def total_cells(self) -> int:
        return sum(self.double_cells.values())

    @property
    def total_entries(self) -> int:
        return self.total_rows + self.total_cells

    @property
    def solver_calls(self) -> int:
        per_pair = 0
        if self.double_shape is not None:
            per_pair = (self.double_shape[0] + self.double_shape[1]) * len(self.double_cells)
        return SOLVES_PER_ROW * self.total_rows + per_pair

    def summary_line(self) -> str:
        return (
            f"census: rows={self.total_rows} cells={self.total_cells} "
            f"entries={self.total_entries} solver_calls={self.solver_calls}"
        )


def calculation_census(
    bodies: dict[str, OrbitalElements],
    step_days: float = 1.0,
    double_shape: tuple[int, int] | None = (64, 64),
    earth_name: str = "earth",
) -> CensusReport:
    """Count rows, cells and solver calls for compiling ``bodies``.

    Single-entry tables are counted for every body; double-entry tables for
    every body paired with ``earth_name`` (when present and a shape is given).
    """
    if not (math.isfinite(step_days) and step_days > 0.0):
        raise DomainError(f"step_days must be > 0, got {step_days!r}")
    single = {}
    for name, el in bodies.items():
        if step_days > el.P / 8.0:
            raise DomainError(f"{name}: step {step_days!r} exceeds P/8")
        single[name] = row_count(el.P, step_days)
    double = {}
    if double_shape is not None and earth_name in bodies:
        n_u, n_v = double_shape
        if n_u < 8 or n_v < 8:
            raise DomainError(f"double-entry grid must be at least 8x8, got {n_u}x{n_v}")
        for name in bodies:
            if name != earth_name:
                double[f"{name}*{earth_name}"] = n_u * n_v
    return CensusReport(
        step_days=step_days,
        double_shape=double_shape,
        single_rows=single,
        double_cells=double,
    )
