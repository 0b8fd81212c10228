"""The table compiler: single-entry and double-entry position tables.

The compiler evaluates the direct chain at every grid point, so stored values
are exactly what direct mode would produce there; all approximation happens
later, at interpolation time. It does no step of that chain twice: a
single-entry table solves Kepler's equation once per row, and derives its
coefficient cells from those knots (``tableio.planet_cells``), and a
double-entry table computes each body's orbit frame once, places each grid
line's body in it once (``kepler.heliocentric_xyz``), then reduces each cell
from the two rectangular positions (``geocentric.reduce_rect``). The table
records, and the cell derivations a reader shares, are ``tableio``'s.

``_check_perihelion`` is here, not with the reader's checks, because it
inverts Kepler's equation: a reader loads this module only for a
single-entry table. ``compile_plan`` returns the checked list of (builder,
args) pairs that ``urania gen`` builds and writes, that
``opcount.measure_compile_ops`` runs counted, and that ``calculation_census``
counts into the record the CLI prints: its Kepler solves are the builders'
rows and grid lines, so they are the solves ``urania gen`` makes.
"""

import math
from array import array
from collections.abc import Callable

from .dataset import OrbitalElements, validate_elements
from .errors import DomainError
from .geocentric import reduce_rect
from .kepler import heliocentric_xyz, orbit_frame, position_since_aphelion, time_since_aphelion
from .tableio import DoubleEntryTable, PlanetTable, _check_double, _check_period, planet_cells

__all__ = [
    "build_planet_table",
    "build_double_entry",
    "row_count",
    "compile_plan",
    "calculation_census",
    "census_line",
]


def row_count(P: float, step: float) -> int:
    """Rows of a single-entry table over one period P at most ``step`` apart."""
    return math.ceil(P / step)


def _check_single(el: OrbitalElements, step: float) -> None:
    validate_elements(el)
    _check_period(el)
    max_step = el.P / 8.0
    # At most 2**20 rows, which bounds the compiler's loops and the reader's
    # payload. An int-literal divisor is free in the tally, as bookkeeping is.
    min_step = el.P / 1048576
    if not (math.isfinite(step) and 0.0 < step <= max_step and step >= min_step):
        raise DomainError(f"{el.name}: step must satisfy P/2**20 <= step <= P/8, got {step!r}")
    # The rows are P / row_count(P, step) <= step apart, so a step that
    # passes here passes the reader's check of the spacing.
    _check_perihelion(el, step)


def _check_perihelion(el: OrbitalElements, spacing: float) -> None:
    # A cell's nu_u is the anomaly's advance to the next row folded into
    # (-180, 180], so the body must sweep less than 180 degrees between rows.
    # It sweeps fastest across perihelion: 180 degrees, from a true anomaly of
    # -90 to +90, in twice the time from perihelion (nu_aph 180, at t = P/2)
    # to +90 (nu_aph 270). The inversion is a call outside opcount's chain, so
    # no tally counts it.
    to_quadrature = time_since_aphelion(el, 270.0) - el.P / 2
    if to_quadrature <= spacing / 2:
        raise DomainError(
            f"{el.name}: sweeps 180 degrees or more within a {spacing:g}-day row interval "
            f"around perihelion ({to_quadrature!r} days from perihelion to a true anomaly of "
            f"90 degrees; a single-entry table at this spacing needs more than {spacing / 2:g})"
        )


def build_planet_table(el: OrbitalElements, step: float) -> PlanetTable:
    """Compile the single-entry table for one body.

    Its n = ``row_count(P, step)`` rows sit du = P / n <= step days apart,
    at t = 0, du, 2*du, ..., so the last interval ends at P like the others;
    each is solved once by the direct chain, and ``planet_cells`` derives
    the coefficient cells from those knots, as the table reader does.
    """
    _check_single(el, step)
    n = row_count(el.P, step)
    du = el.P / n
    knots = array("d")
    for k in range(n):
        knots.extend(position_since_aphelion(el, k * du))
    return PlanetTable(elements=el, n=n, du=du, cells=planet_cells(el, knots))


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
