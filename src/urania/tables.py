"""Pre-computation of single-entry and double-entry position tables.

The compiler evaluates the direct chain at every grid point, so stored values
are exactly what direct mode would produce there; all approximation happens
later, at interpolation time. It does no step of that chain twice: a
single-entry table solves Kepler's equation once per row, and derives each
row's daily motion from its knots (``planet_rows``), and a double-entry table
computes each body's orbit frame once, places each grid line's body in it
once (``kepler.heliocentric_xyz``), then reduces each cell from the two
rectangular positions (``geocentric.reduce_rect``).

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


class DoubleEntryTable(NamedTuple):
    """Grid over (planet phase, Earth phase) -> geocentric (lambda, beta, delta).

    Cell (iu, iv) is evaluated with the planet iu*du days past its aphelion
    and the Earth iv*dv days past its own, where du = P_planet/n_u and dv =
    P_earth/n_v are computed once, by the builder or the reader; both axes
    are logically periodic.
    """

    planet: OrbitalElements
    earth: OrbitalElements
    n_u: int
    n_v: int
    du: float
    dv: float
    cells: list[list[tuple[float, float, float]]]

    def __repr__(self) -> str:
        # The cells are n_u * n_v triples: too many to print.
        return (f"DoubleEntryTable(planet={self.planet!r}, earth={self.earth!r}, "
                f"n_u={self.n_u!r}, n_v={self.n_v!r})")


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
    once, so the cells cost 2 frames, n_u + n_v positions and n_u * n_v
    ``reduce_rect`` calls.
    """
    _check_double(planet_el, earth_el, n_u, n_v)
    du = planet_el.P / n_u
    dv = earth_el.P / n_v
    planet_frame = orbit_frame(planet_el)
    earth_frame = orbit_frame(earth_el)
    earth_vecs = []
    for iv in range(n_v):
        earth_vecs.append(heliocentric_xyz(earth_el, earth_frame, iv * dv))
    cells = []
    for iu in range(n_u):
        planet_vec = heliocentric_xyz(planet_el, planet_frame, iu * du)
        col = []
        for earth_vec in earth_vecs:
            g = reduce_rect(planet_vec, earth_vec)
            col.append((g.lam, g.beta, g.delta))
        cells.append(col)
    return DoubleEntryTable(
        planet=planet_el, earth=earth_el, n_u=n_u, n_v=n_v, du=du, dv=dv, cells=cells
    )


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
