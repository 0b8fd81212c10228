"""Pre-computation of single-entry and double-entry position tables.

The compiler evaluates the direct chain at every grid point, so stored values
are exactly what direct mode would produce there; all approximation happens
later, at interpolation time. It does no step of that chain twice: a
single-entry table solves Kepler's equation once per distinct abscissa of its
rows' motion stencils (``stencil_points``), and a double-entry table computes
each body's orbit frame once, places each grid line's body in it once
(``kepler.heliocentric_xyz``), then reduces each cell from the two
rectangular positions (``geocentric.reduce_rect``).

A configuration is known here alone: ``parse_shape`` reads its grid, the
step and grid checks serve the table reader too, and ``compile_plan`` returns
the checked list of (builder, args) pairs that ``urania gen`` builds and
writes, that ``opcount.measure_compile_ops`` runs counted, and that
``calculation_census`` counts into the record the CLI prints: its Kepler
solves come from the builders' own ``stencil_points`` and grid lines, so they
are the solves ``urania gen`` makes.
"""

import math
import re
from collections.abc import Callable
from typing import NamedTuple

from .angles import wrap_diff_deg
from .errors import DomainError
from .geocentric import reduce_rect
from .kepler import (
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
    "row_count",
    "stencil_points",
    "calculation_census",
    "census_line",
    "MOTION_STENCIL_DAYS",
]

# Half-day stencil: the motion column stores a centred daily rate, from the
# anomaly at t - h and t + h. At the default 1-day step a row's t - h is the
# previous row's t + h, so n rows need 2n + 1 Kepler solves, not 3n.
MOTION_STENCIL_DAYS = 0.5


class TableRow(NamedTuple):
    """One single-entry table row.

    t: days since aphelion; nu_aph: true anomaly from aphelion (degrees);
    r: radius (AU); motion per day and per hour in degrees.
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


def stencil_points(P: float, step: float) -> tuple[list[float], list[int]]:
    """The abscissae a single-entry table of period ``P`` solves at, each
    once, and the index among them of each row's own abscissa.

    Row k sits at t = k*step, at ``points[j]`` for ``j = centres[k]``; its
    motion stencil t - h and t + h is ``points[j - 1]`` and ``points[j + 1]``.
    A row whose t - h equals the previous row's t + h exactly shares that
    point, as every row after the first does at the default 1-day step.
    """
    h = MOTION_STENCIL_DAYS
    points, centres = [], []
    for k in range(row_count(P, step)):
        t = k * step
        before = t - h
        if not points or points[-1] != before:
            points.append(before)
        centres.append(len(points))
        points.append(t)
        points.append(t + h)
    return points, centres


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


def _check_stencil(el: OrbitalElements) -> None:
    # A row's motion is the wrap-aware anomaly difference across its stencil,
    # so the body must sweep less than 180 degrees in 2*h days. It sweeps
    # fastest across perihelion: 180 degrees, from a true anomaly of -90 to
    # +90, in twice the time from perihelion (nu_aph 180, at t = P/2) to +90
    # (nu_aph 270). Outside opcount's chain, so no tally counts the inversion.
    h = MOTION_STENCIL_DAYS
    to_quadrature = time_since_aphelion(el, 270.0) - el.P / 2
    if to_quadrature <= h:
        raise DomainError(
            f"{el.name}: sweeps 180 degrees or more within the {2 * h:g}-day motion stencil "
            f"around perihelion ({to_quadrature!r} days from perihelion to a true anomaly of "
            f"90 degrees; a single-entry table needs more than {h:g})"
        )


def _check_single(el: OrbitalElements, step: float) -> None:
    _check_periodic(el)
    _check_stencil(el)
    max_step = el.P / 8.0
    # At most 2**20 rows, which bounds the compiler's loops and the reader's
    # payload. An int-literal divisor is free in the tally, as bookkeeping is.
    min_step = el.P / 1048576
    if not (math.isfinite(step) and 0.0 < step <= max_step and step >= min_step):
        raise DomainError(f"{el.name}: step must satisfy P/2**20 <= step <= P/8, got {step!r}")


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
    shorter). Motion columns come from a wrap-aware central difference of the
    direct chain, so the compiler and the evaluator stay independent; each
    distinct abscissa of ``stencil_points`` is solved once.
    """
    _check_single(el, step)
    points, centres = stencil_points(el.P, step)
    solved = []
    for x in points:
        solved.append(position_since_aphelion(el, x))
    rows = []
    for j in centres:
        t = points[j]
        nu, r = solved[j]
        per_day = wrap_diff_deg(solved[j + 1][0], solved[j - 1][0]) / (2.0 * MOTION_STENCIL_DAYS)
        if per_day <= 0.0:
            raise DomainError(
                f"{el.name}: non-positive daily motion {per_day!r} at t={t!r}; the body "
                "sweeps 180 degrees or more within the motion stencil"
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
    ``compile_plan``: rows and cells per table, their totals, Kepler solves.
    It builds nothing, so ``gen`` runs each single-entry table's
    ``stencil_points`` twice, here and in the builder: a few milliseconds
    over the default set, with no Kepler solve."""
    single, double, solves = {}, {}, 0
    for builder, args in plan:
        if builder is build_planet_table:
            el, step = args
            points, centres = stencil_points(el.P, step)
            single[el.name] = len(centres)
            solves += len(points)
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
