"""Pre-computation of single-entry and double-entry position tables.

The compiler evaluates the direct chain at every grid point, so stored values
are exactly what direct mode would produce there; all approximation happens
later, at interpolation time. It does no step of that chain twice: a
single-entry table solves Kepler's equation once per row, and derives each
row's daily motion from its knots (``planet_rows``), and a double-entry table
computes each body's orbit frame once, places each grid line's body in it
once (``kepler.heliocentric_xyz``), then reduces each cell from the two
rectangular positions (``geocentric.reduce_rect``). A double-entry table
holds those knots; each row's coefficient cells, the knots with their forward
differences, are derived from them the first time a query reads the row
(``coefficient_row``), and kept.

A configuration is known here alone: ``parse_shape`` reads its grid, the
step and grid checks serve the table reader too, and ``compile_plan`` returns
the checked list of (builder, args) pairs that ``urania gen`` builds and
writes, that ``opcount.measure_compile_ops`` runs counted, and that
``calculation_census`` counts into the record the CLI prints: its Kepler
solves are the builders' rows and grid lines, so they are the solves
``urania gen`` makes.
"""

import math
import re
from array import array
from collections.abc import Callable
from typing import NamedTuple

from .angles import wrap_diff_deg
from .errors import DomainError
from .geocentric import reduce_rect
from .kepler import (
    MAX_ELAPSED_DAYS,
    OrbitalElements,
    heliocentric_xyz,
    orbit_frame,
    position_since_aphelion,
    time_since_aphelion,
    validate_elements,
)

__all__ = [
    "TableRow",
    "PlanetTable",
    "DoubleEntryTable",
    "build_planet_table",
    "build_double_entry",
    "coefficient_row",
    "compile_plan",
    "parse_shape",
    "planet_rows",
    "row_count",
    "calculation_census",
    "census_line",
]


class TableRow(NamedTuple):
    """One single-entry table row.

    t: days since aphelion; nu_aph: true anomaly from aphelion (degrees);
    r: radius (AU); motion per day and per hour in degrees, the anomaly's
    advance to the next row spread evenly over the days between them.
    """

    t: float
    nu_aph: float
    r: float
    motion_per_day: float
    motion_per_hour: float


class PlanetTable(NamedTuple):
    """Single-entry table: time since aphelion -> (nu_aph, r, motion columns)."""

    elements: OrbitalElements
    step: float
    rows: list[TableRow]


class DoubleEntryTable:
    """Grid over (planet phase, Earth phase) -> geocentric (lambda, beta, delta).

    Cell (iu, iv) is evaluated with the planet iu*du days past its aphelion
    and the Earth iv*dv days past its own, where du = P_planet/n_u and dv =
    P_earth/n_v are computed once, by the builder or the reader; both axes
    are logically periodic. ``knots`` holds the cells' (lambda, beta, delta),
    row-major, as the table file's payload does. ``cells[iu]`` is row iu's
    coefficient cells (see ``coefficient_row``), derived on its first read;
    two tables are equal when all but their cells are, since equal knots
    derive equal cells.
    """

    __slots__ = ("planet", "earth", "n_u", "n_v", "du", "dv", "knots", "cells")

    def __init__(self, planet: OrbitalElements, earth: OrbitalElements, n_u: int, n_v: int,
                 du: float, dv: float, knots: array):
        self.planet, self.earth, self.n_u, self.n_v = planet, earth, n_u, n_v
        self.du, self.dv, self.knots = du, dv, knots
        self.cells = CoefficientRows(knots, n_u, n_v)

    def __eq__(self, other):
        if not isinstance(other, DoubleEntryTable):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__[:-1])

    def knot(self, iu: int, iv: int) -> tuple[float, float, float]:
        """The stored (lambda, beta, delta) of cell (iu, iv)."""
        k = 3 * (iu * self.n_v + iv)
        return tuple(self.knots[k:k + 3])

    def __repr__(self) -> str:
        # The knots are 3 * n_u * n_v floats: too many to print.
        return (f"DoubleEntryTable(planet={self.planet!r}, earth={self.earth!r}, "
                f"n_u={self.n_u!r}, n_v={self.n_v!r})")


class CoefficientRows(dict):
    """Row index -> that row of a double-entry table's coefficient cells.

    A row is derived from the knots by ``coefficient_row`` when it is first
    read, and kept: so a lookup fetches its row with one subscript, and a
    table read for one query derives one row, not all of them.
    """

    __slots__ = ("knots", "n_u", "n_v")

    def __init__(self, knots: array, n_u: int, n_v: int):
        super().__init__()
        self.knots, self.n_u, self.n_v = knots, n_u, n_v

    def __missing__(self, iu: int) -> array:
        row = self[iu] = coefficient_row(*self.knot_rows(iu), self.n_v)
        return row

    def knot_rows(self, iu: int) -> tuple[array, array]:
        """The knots of row ``iu`` and of the row after it (row 0 after the last)."""
        if not 0 <= iu < self.n_u:
            raise KeyError(iu)
        width = 3 * self.n_v
        start = width * iu
        after = start + width if iu + 1 < self.n_u else 0
        return self.knots[start:start + width], self.knots[after:after + width]


def row_count(P: float, step: float) -> int:
    """Number of rows covering [0, P) at the given spacing."""
    n = math.ceil(P / step)
    last = (n - 1) * step
    while last >= P:  # fp guard: ceil can overshoot by one
        n -= 1
        last = (n - 1) * step
    return n


def parse_shape(text: str) -> tuple[int, int]:
    """The grid ``(n_u, n_v)`` that ``text`` spells ``<n_u>x<n_v>``: ASCII
    digits either side of an ``x`` or ``X``, and nothing else."""
    match = re.fullmatch(r"([0-9]+)[xX]([0-9]+)", text)
    if match is None:
        raise DomainError(f"grid shape must read <n_u>x<n_v> (e.g. 64x64), got {text!r}")
    return int(match[1]), int(match[2])


def _check_periodic(el: OrbitalElements) -> None:
    # A table answers from the phase modulo P; a correction term has its own period.
    validate_elements(el)
    if el.corrections:
        raise DomainError(f"{el.name}: a table cannot hold correction terms; use direct mode")


def _check_single_body(el: OrbitalElements) -> None:
    _check_periodic(el)
    # Every row then lies in the direct chain's domain.
    if not el.P < MAX_ELAPSED_DAYS:
        raise DomainError(f"{el.name}: a single-entry table needs P < 2**36 days, got {el.P!r}")


def _check_single(el: OrbitalElements, step: float) -> None:
    _check_single_body(el)
    max_step = el.P / 8.0
    # At most 2**20 rows, which bounds the compiler's loops and the reader's
    # payload. An int-literal divisor is free in the tally, as bookkeeping is.
    min_step = el.P / 1048576
    if not (math.isfinite(step) and 0.0 < step <= max_step and step >= min_step):
        raise DomainError(f"{el.name}: step must satisfy P/2**20 <= step <= P/8, got {step!r}")
    # A row's motion is the wrap-aware anomaly advance to the next row, so the
    # body must sweep less than 180 degrees in a step. It sweeps fastest across
    # perihelion: 180 degrees, from a true anomaly of -90 to +90, in twice the
    # time from perihelion (nu_aph 180, at t = P/2) to +90 (nu_aph 270). The
    # inversion is a call outside opcount's chain, so no tally counts it.
    to_quadrature = time_since_aphelion(el, 270.0) - el.P / 2
    if to_quadrature <= step / 2:
        raise DomainError(
            f"{el.name}: sweeps 180 degrees or more within a {step:g}-day row interval "
            f"around perihelion ({to_quadrature!r} days from perihelion to a true anomaly of "
            f"90 degrees; a single-entry table at this step needs more than {step / 2:g})"
        )


def _check_double(
    planet_el: OrbitalElements, earth_el: OrbitalElements, n_u: int, n_v: int
) -> None:
    _check_periodic(planet_el)
    _check_periodic(earth_el)
    if n_u < 8 or n_v < 8 or n_u * n_v > 1048576:  # as a single-entry table's 2**20 rows
        raise DomainError(f"grid must be at least 8x8 and at most 2**20 cells, got {n_u}x{n_v}")


def build_planet_table(el: OrbitalElements, step: float) -> PlanetTable:
    """Compile the single-entry table for one body.

    Rows sit at t = 0, step, 2*step, ... < P (the last interval may be
    shorter), each solved once by the direct chain; ``planet_rows`` derives
    their motion columns from those knots, as the table reader does.
    """
    _check_single(el, step)
    knots = []
    for k in range(row_count(el.P, step)):
        knots.append(position_since_aphelion(el, k * step))
    return PlanetTable(elements=el, step=step, rows=planet_rows(el, step, knots))


def planet_rows(el: OrbitalElements, step: float, knots) -> list[TableRow]:
    """The rows of ``el``'s single-entry table at ``step`` whose (nu_aph, r)
    knots are ``knots``: row k sits at t = k * step, and its motion per day
    is the wrap-aware anomaly advance to the next row over the days between
    them (the last row's to row 0, one period on), per hour a 24th of it.

    Raises DomainError unless every advance is positive and the rows before
    the last sweep less than a full turn: then the advances add up to one
    revolution, and between rows a lookup interpolates to the next row.
    """
    n = len(knots)
    swept = 0.0
    rows = []
    t = 0.0
    nu, r = knots[0]
    for k in range(1, n + 1):
        if k < n:
            t_next = k * step
            nu_next, r_next = knots[k]
        else:  # the last row's next is row 0, one period on
            if swept >= 360.0:
                raise DomainError(f"{el.name}: unwrapped true anomaly spans a full revolution")
            t_next = el.P
            nu_next, r_next = knots[0]
        advance = wrap_diff_deg(nu_next, nu)
        if advance <= 0.0:
            raise DomainError(
                f"{el.name}: true anomaly not strictly increasing between "
                f"t={t!r} and t={t_next!r}"
            )
        swept += advance
        per_day = advance / (t_next - t)
        rows.append(TableRow(t, nu, r, per_day, per_day / 24.0))
        t, nu, r = t_next, nu_next, r_next
    return rows


def build_double_entry(
    planet_el: OrbitalElements, earth_el: OrbitalElements, n_u: int, n_v: int
) -> DoubleEntryTable:
    """Compile the double-entry geocentric table for a planet/Earth pair.

    Each body's orbit frame is computed once and each grid line's position
    once, so the knots cost 2 frames, n_u + n_v positions and n_u * n_v
    ``reduce_rect`` calls. No row of coefficient cells is derived here: a
    query derives each on its first read.
    """
    _check_double(planet_el, earth_el, n_u, n_v)
    du = planet_el.P / n_u
    dv = earth_el.P / n_v
    planet_frame = orbit_frame(planet_el)
    earth_frame = orbit_frame(earth_el)
    earth_vecs = []
    for iv in range(n_v):
        earth_vecs.append(heliocentric_xyz(earth_el, earth_frame, iv * dv))
    knots = array("d")
    for iu in range(n_u):
        planet_vec = heliocentric_xyz(planet_el, planet_frame, iu * du)
        for earth_vec in earth_vecs:
            knots.extend(reduce_rect(planet_vec, earth_vec))
    return DoubleEntryTable(
        planet=planet_el, earth=earth_el, n_u=n_u, n_v=n_v, du=du, dv=dv, knots=knots
    )


def coefficient_row(near: array, far: array, n_v: int) -> array:
    """The coefficient cells of a double-entry table's row iu, from ``near``,
    the knots of row iu (lambda, beta, delta per cell), and ``far``, those of
    row iu + 1 (row 0 after the last).

    Cell iv holds, for each of lambda, beta and delta, its knot f00 and three
    forward differences: fu = f10 - f00, fv = f01 - f00 and
    fuv = (f11 - f00) - fu - fv, where f10 is the knot one row on, f01 one
    column on (column 0 after the last) and f11 both. Then
    f00 + x*fu + y*(fv + x*fuv) is the bilinear interpolant at fractions
    (x, y) of the cell (Abramowitz & Stegun 1964, section 25.2). The
    longitude's offsets f10 - f00, f01 - f00 and f11 - f00 are folded into
    (-180, 180], so a cell across the 360 -> 0 seam interpolates through 0,
    never through 180.

    The row is one array of 12 * n_v floats in blocks of n_v, one per
    coefficient, [lambda, lambda_u, lambda_v, lambda_uv, beta, ..., delta_uv],
    so cell iv is ``row[iv::n_v]``.
    """
    row = near * 4  # 12 * n_v floats, each overwritten below, in an exact-size array
    for iv in range(n_v):
        k = 3 * iv
        j = k + 3
        if iv + 1 == n_v:
            j = 0
        lam_u = wrap_diff_deg(far[k], near[k])
        lam_v = wrap_diff_deg(near[j], near[k])
        beta_u = far[k + 1] - near[k + 1]
        beta_v = near[j + 1] - near[k + 1]
        delta_u = far[k + 2] - near[k + 2]
        delta_v = near[j + 2] - near[k + 2]
        row[iv::n_v] = array("d", (
            near[k], lam_u, lam_v, wrap_diff_deg(far[j], near[k]) - lam_u - lam_v,
            near[k + 1], beta_u, beta_v, far[j + 1] - near[k + 1] - beta_u - beta_v,
            near[k + 2], delta_u, delta_v, far[j + 2] - near[k + 2] - delta_u - delta_v,
        ))
    return row


def compile_plan(
    bodies, names, step_days: float, double_shape: tuple[int, int] | None
) -> list[tuple[Callable, tuple]]:
    """The tables that compiling ``names`` from ``bodies`` (a mapping of name
    to OrbitalElements) makes, as (builder, args) pairs in build order: a
    single-entry table per body, then, given a shape, a double-entry table
    for every body but the Earth, paired with ``bodies["earth"]``.

    Every builder's argument checks run here, so a bad configuration raises
    (DomainError, or KeyError for a missing body) before anything is built.
    """
    names = list(dict.fromkeys(names))
    plan = []
    for name in names:
        args = (bodies[name], step_days)
        _check_single(*args)
        plan.append((build_planet_table, args))
    if double_shape is not None:
        earth = bodies["earth"]
        for name in names:
            if name != "earth":
                args = (bodies[name], earth, *double_shape)
                _check_double(*args)
                plan.append((build_double_entry, args))
    return plan


def calculation_census(plan: list[tuple[Callable, tuple]]) -> dict:
    """The record ``urania census`` and ``urania gen`` print for a
    ``compile_plan``: rows and cells per table, their totals, and Kepler
    solves, one per single-entry row and per grid line. It builds nothing."""
    single, double, solves = {}, {}, 0
    for builder, args in plan:
        if builder is build_planet_table:
            el, step = args
            single[el.name] = row_count(el.P, step)
            solves += single[el.name]
        else:
            planet_el, earth_el, n_u, n_v = args
            double[f"{planet_el.name}*{earth_el.name}"] = n_u * n_v
            solves += n_u + n_v
    rows, cells = sum(single.values()), sum(double.values())
    return {"single_rows": single, "double_cells": double, "rows": rows, "cells": cells,
            "entries": rows + cells, "solver_calls": solves}


def census_line(census: dict) -> str:
    """The one-line summary of a ``calculation_census`` record."""
    return (
        "census: rows={rows} cells={cells} entries={entries} solver_calls={solver_calls}"
    ).format(**census)
