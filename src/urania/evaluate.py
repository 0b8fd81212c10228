"""Table-mode queries: interpolation with nothing but +, -, *, / and row fetches.

The table path is written once, as plain float code. An entry point given a
counter runs the counted twin opcount derives from this source, so the
zero-transcendental property of the table path is measured on every counted
query rather than merely claimed; without one, nothing is counted or derived.
"""

import math
from pathlib import Path

from .errors import DomainError, TableNotFoundError
from .geocentric import GeocentricPosition
from .kepler import OrbitalElements
from .opcount import OpCounter, _twins, counted_direct
from .tableio import read_named_table
from .tables import DoubleEntryTable, PlanetTable

__all__ = [
    "TableSet",
    "load_tables",
    "lookup_planet",
    "lookup_double",
    "geocentric_at_table",
    "heliocentric_at_table",
    "phase_days",
    "counted_query",
]


class TableSet:
    """Compiled tables for querying, keyed by body name.

    ``single`` and ``double`` hold the tables loaded so far. A set bound to a
    directory (see ``load_tables``) reads a table on its first use: only
    ``<planet>.earth.double.tbl`` for a geocentric query, and
    ``<name>.single.tbl`` for a heliocentric one. A file whose header does
    not match its file name is rejected with TableParseError. A set made
    with no directory holds only what ``add`` puts in, one table per key.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self.single: dict[str, PlanetTable] = {}
        self.double: dict[str, DoubleEntryTable] = {}

    def add(self, table) -> None:
        if isinstance(table, PlanetTable):
            held, key = self.single, table.elements.name
        elif isinstance(table, DoubleEntryTable):
            held, key = self.double, table.planet.name
        else:
            raise TypeError(f"cannot hold {type(table).__name__}")
        if key in held:
            raise DomainError(f"a {type(table).__name__} for {key!r} is already held")
        held[key] = table

    def single_for(self, name: str) -> PlanetTable:
        return self.single.get(name) or self._read("single", name)

    def double_for(self, planet: str) -> DoubleEntryTable:
        return self.double.get(planet) or self._read("double", planet)

    def _read(self, kind: str, name: str):
        table = None
        if self.directory is not None:
            table = read_named_table(self.directory, kind, name)
        if table is None:
            raise TableNotFoundError(
                f"no single-entry table loaded for {name!r}; run 'urania gen'"
                if kind == "single" else
                f"no double-entry table loaded for the pair {name}*earth; "
                "run 'urania gen --double'"
            )
        self.add(table)
        return table


def load_tables(directory) -> TableSet:
    """A TableSet bound to the table directory ``directory``.

    Nothing is parsed here: each table file is read on the first query that
    needs it, so a geocentric table query parses one file. ``urania
    validate`` still parses every ``*.tbl`` file in the directory.
    """
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"table directory {root} does not exist")
    return TableSet(root)


def _locate(x: float, dx: float, n: int):
    """Index and left knot of the interval containing x on a uniform grid.

    The raw floor of x/dx can land one interval off when x is itself a
    rounded knot product, so nudge against the exact knot values; this is
    what makes interpolation at a knot reproduce the stored entry bit for
    bit.
    """
    i = int(x / dx)
    if i >= n:
        i = n - 1
    x0 = i * dx
    if x < x0:
        i -= 1
        x0 = i * dx
    elif i + 1 < n:
        x1 = (i + 1) * dx
        if x >= x1:
            i += 1
            x0 = x1
    return i, x0


def _wrap180(d: float) -> float:
    """Fold a difference of two normalized angles into (-180, 180]."""
    if d > 180.0:
        d -= 360.0
    elif d <= -180.0:
        d += 360.0
    return d


def _renormalize(angle: float) -> float:
    """Bounded arithmetic normalization for interpolation results."""
    while angle < 0.0:
        angle += 360.0
    while angle >= 360.0:  # after the fold up: -1e-15 + 360.0 rounds to 360.0
        angle -= 360.0
    return angle


def lookup_planet(table: PlanetTable, t: float, counter: OpCounter | None = None):
    """(true anomaly from aphelion deg, radius AU) at ``t`` days past aphelion.

    The anomaly is advanced from the located row by whole leftover days at
    the row's motion-per-day plus remaining hours at motion-per-hour; the
    radius is linearly interpolated between the bracketing rows. A query at
    a row's own abscissa returns the stored values unchanged.
    """
    if counter is not None:
        return _twins("evaluate")["lookup_planet"](counter, table, t)
    el = table.elements
    if not (math.isfinite(t) and 0.0 <= t < el.P):
        raise DomainError(f"t={t!r} outside [0, {el.P!r}); reduce time modulo the period first")
    n = len(table.rows)
    idx, t0 = _locate(t, table.step, n)

    dt = t - t0
    whole_days = float(math.floor(dt))
    hours = (dt - whole_days) * 24.0

    row = table.rows[idx]
    nu = _renormalize(row.nu_aph + (whole_days * row.motion_per_day + hours * row.motion_per_hour))
    if idx + 1 < n:
        nxt = table.rows[idx + 1]
        gap = nxt.t - row.t
    else:
        nxt = table.rows[0]  # wraps: next knot is the aphelion one period on
        gap = el.P - row.t
    return nu, row.r + dt / gap * (nxt.r - row.r)


def lookup_double(table: DoubleEntryTable, u: float, v: float, counter: OpCounter | None = None):
    """Bilinear (lambda, beta, delta) at planet phase ``u``, Earth phase ``v``.

    Longitudes interpolate through wrap-aware offsets from the corner cell,
    so a 359 -> 1 degree seam interpolates through 0, never through 180.
    """
    if counter is not None:
        return _twins("evaluate")["lookup_double"](counter, table, u, v)
    if not (math.isfinite(u) and 0.0 <= u < table.planet.P):
        raise DomainError(f"u={u!r} outside [0, {table.planet.P!r})")
    if not (math.isfinite(v) and 0.0 <= v < table.earth.P):
        raise DomainError(f"v={v!r} outside [0, {table.earth.P!r})")

    du = table.planet.P / table.n_u
    dv = table.earth.P / table.n_v
    iu, u0 = _locate(u, du, table.n_u)
    iv, v0 = _locate(v, dv, table.n_v)
    fu = (u - u0) / du
    fv = (v - v0) / dv
    iu1 = iu + 1 if iu + 1 < table.n_u else 0
    iv1 = iv + 1 if iv + 1 < table.n_v else 0

    c00 = table.cells[iu][iv]
    c10 = table.cells[iu1][iv]
    c01 = table.cells[iu][iv1]
    c11 = table.cells[iu1][iv1]

    gu = 1.0 - fu
    gv = 1.0 - fv
    w00 = gu * gv
    w10 = fu * gv
    w01 = gu * fv
    w11 = fu * fv

    d10 = _wrap180(c10[0] - c00[0])
    d01 = _wrap180(c01[0] - c00[0])
    d11 = _wrap180(c11[0] - c00[0])
    lam = _renormalize(c00[0] + (w10 * d10 + w01 * d01 + w11 * d11))
    beta = (w00 * c00[1] + w10 * c10[1]) + (w01 * c01[1] + w11 * c11[1])
    delta = (w00 * c00[2] + w10 * c10[2]) + (w01 * c01[2] + w11 * c11[2])
    return lam, beta, delta


def phase_days(counter: OpCounter | None, jd: float, t_aph: float, period: float) -> float:
    """Time since the last aphelion passage, in [0, period), by plain arithmetic.

    Counted into ``counter`` unless it is None.
    """
    if counter is not None:
        return _twins("evaluate")["phase_days"](counter, None, jd, t_aph, period)
    if not math.isfinite(jd):
        raise DomainError(f"jd must be finite, got {jd!r}")
    dt = jd - t_aph
    k = math.floor(dt / period)
    u = dt - k * period
    if u < 0.0:
        u += period
    if u >= period:
        u -= period
    return u


def geocentric_at_table(
    tables: TableSet, planet: str, jd: float, counter: OpCounter | None = None
) -> GeocentricPosition:
    """Table-mode geocentric position at ``jd``: phase reduction plus one
    double-entry lookup, no transcendental calls anywhere on the path."""
    if counter is not None:
        return _twins("evaluate")["geocentric_at_table"](counter, tables, planet, jd)
    table = tables.double_for(planet)
    u = phase_days(None, jd, table.planet.T_aph, table.planet.P)
    v = phase_days(None, jd, table.earth.T_aph, table.earth.P)
    return GeocentricPosition(*lookup_double(table, u, v))


def heliocentric_at_table(
    tables: TableSet, planet: str, jd: float, counter: OpCounter | None = None
):
    """(nu_aph, r) from the single-entry table at ``jd``."""
    if counter is not None:
        return _twins("evaluate")["heliocentric_at_table"](counter, tables, planet, jd)
    table = tables.single_for(planet)
    return lookup_planet(table, phase_days(None, jd, table.elements.T_aph, table.elements.P))


def counted_query(
    mode: str,
    planet: str,
    jd: float,
    dataset=None,
    tables: TableSet | None = None,
):
    """Run one geocentric query in either mode with a fresh counter: the
    counted query of ``urania query --count-ops``, ``bench`` and ``validate``.

    Returns (GeocentricPosition, OpCounter). ``dataset`` (a mapping of name
    to OrbitalElements) backs direct mode; ``tables`` backs table mode.
    """
    c = OpCounter()
    if mode == "table":
        if tables is None:
            raise DomainError("table mode requires loaded tables")
        return geocentric_at_table(tables, planet, jd, counter=c), c
    if mode == "direct":
        if dataset is None:
            raise DomainError("direct mode requires an elements dataset")
        planet_el: OrbitalElements = dataset[planet]
        earth_el: OrbitalElements = dataset["earth"]
        return counted_direct(c, planet_el, earth_el, jd), c
    raise DomainError(f"unknown mode {mode!r}; expected 'direct' or 'table'")
