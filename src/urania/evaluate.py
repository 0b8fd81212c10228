"""Table-mode queries: interpolation with nothing but +, -, *, / and fetches.

Every function here threads its arithmetic through an OpCounter, so the
zero-transcendental property of the table path is measured on every call
rather than merely claimed. Queries never share counters; a fresh throwaway
is made when the caller does not supply one.
"""

import math
from pathlib import Path

from .errors import DomainError, TableNotFoundError
from .geocentric import GeocentricPosition
from .kepler import OrbitalElements
from .opcount import OpCounter, counted_direct
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

    def _read(self, kind: str, name: str, missing: str):
        table = None
        if self.directory is not None:
            table = read_named_table(self.directory, kind, name)
        if table is None:
            raise TableNotFoundError(missing)
        self.add(table)
        return table

    def single_for(self, name: str) -> PlanetTable:
        try:
            return self.single[name]
        except KeyError:
            pass
        return self._read(
            "single", name, f"no single-entry table loaded for {name!r}; run 'urania gen'"
        )

    def double_for(self, planet: str) -> DoubleEntryTable:
        try:
            return self.double[planet]
        except KeyError:
            pass
        return self._read(
            "double",
            planet,
            f"no double-entry table loaded for the pair {planet}*earth; "
            "run 'urania gen --double'",
        )


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


def _locate(c: OpCounter, x: float, dx: float, n: int):
    """Index and left knot of the interval containing x on a uniform grid.

    The raw floor of x/dx can land one interval off when x is itself a
    rounded knot product, so nudge against the exact knot values; this is
    what makes interpolation at a knot reproduce the stored entry bit for
    bit.
    """
    i = int(c.div(x, dx))
    if i >= n:
        i = n - 1
    x0 = c.mul(i, dx)
    if x < x0:
        i -= 1
        x0 = c.mul(i, dx)
    elif i + 1 < n:
        x1 = c.mul(i + 1, dx)
        if x >= x1:
            i += 1
            x0 = x1
    return i, x0


def _wrap180(c: OpCounter, d: float) -> float:
    """Fold a difference of two normalized angles into (-180, 180]."""
    if d > 180.0:
        d = c.sub(d, 360.0)
    elif d <= -180.0:
        d = c.add(d, 360.0)
    return d


def _renormalize(c: OpCounter, angle: float) -> float:
    """Bounded arithmetic normalization for interpolation results."""
    while angle >= 360.0:
        angle = c.sub(angle, 360.0)
    while angle < 0.0:
        angle = c.add(angle, 360.0)
    return angle


def lookup_planet(table: PlanetTable, t: float, counter: OpCounter | None = None):
    """(true anomaly from aphelion deg, radius AU) at ``t`` days past aphelion.

    The anomaly is advanced from the located row by whole leftover days at
    the row's motion-per-day plus remaining hours at motion-per-hour; the
    radius is linearly interpolated between the bracketing rows. A query at
    a row's own abscissa returns the stored values unchanged.
    """
    c = counter if counter is not None else OpCounter()
    el = table.elements
    if not (math.isfinite(t) and 0.0 <= t < el.P):
        raise DomainError(f"t={t!r} outside [0, {el.P!r}); reduce time modulo the period first")
    rows = table.rows
    n = len(rows)
    idx, t0 = _locate(c, t, table.step, n)

    dt = c.sub(t, t0)
    whole_days = float(math.floor(dt))
    hours = c.mul(c.sub(dt, whole_days), 24.0)

    row = c.row(rows[idx])
    nu = c.add(
        row.nu_aph,
        c.add(c.mul(whole_days, row.motion_per_day), c.mul(hours, row.motion_per_hour)),
    )
    nu = _renormalize(c, nu)

    if idx + 1 < n:
        nxt = c.row(rows[idx + 1])
        gap = c.sub(nxt.t, row.t)
        r_next = nxt.r
    else:
        nxt = c.row(rows[0])  # wraps: next knot is the aphelion one period on
        gap = c.sub(el.P, row.t)
        r_next = nxt.r
    r = c.add(row.r, c.mul(c.div(dt, gap), c.sub(r_next, row.r)))
    return nu, r


def lookup_double(table: DoubleEntryTable, u: float, v: float, counter: OpCounter | None = None):
    """Bilinear (lambda, beta, delta) at planet phase ``u``, Earth phase ``v``.

    Longitudes interpolate through wrap-aware offsets from the corner cell,
    so a 359 -> 1 degree seam interpolates through 0, never through 180.
    """
    c = counter if counter is not None else OpCounter()
    if not (math.isfinite(u) and 0.0 <= u < table.planet.P):
        raise DomainError(f"u={u!r} outside [0, {table.planet.P!r})")
    if not (math.isfinite(v) and 0.0 <= v < table.earth.P):
        raise DomainError(f"v={v!r} outside [0, {table.earth.P!r})")

    du = c.div(table.planet.P, table.n_u)
    dv = c.div(table.earth.P, table.n_v)
    iu, u0 = _locate(c, u, du, table.n_u)
    iv, v0 = _locate(c, v, dv, table.n_v)
    fu = c.div(c.sub(u, u0), du)
    fv = c.div(c.sub(v, v0), dv)
    iu1 = iu + 1 if iu + 1 < table.n_u else 0
    iv1 = iv + 1 if iv + 1 < table.n_v else 0

    c00 = c.row(table.cells[iu][iv])
    c10 = c.row(table.cells[iu1][iv])
    c01 = c.row(table.cells[iu][iv1])
    c11 = c.row(table.cells[iu1][iv1])

    gu = c.sub(1.0, fu)
    gv = c.sub(1.0, fv)
    w00 = c.mul(gu, gv)
    w10 = c.mul(fu, gv)
    w01 = c.mul(gu, fv)
    w11 = c.mul(fu, fv)

    d10 = _wrap180(c, c.sub(c10[0], c00[0]))
    d01 = _wrap180(c, c.sub(c01[0], c00[0]))
    d11 = _wrap180(c, c.sub(c11[0], c00[0]))
    lam = c.add(
        c00[0],
        c.add(c.add(c.mul(w10, d10), c.mul(w01, d01)), c.mul(w11, d11)),
    )
    lam = _renormalize(c, lam)

    beta = c.add(
        c.add(c.mul(w00, c00[1]), c.mul(w10, c10[1])),
        c.add(c.mul(w01, c01[1]), c.mul(w11, c11[1])),
    )
    delta = c.add(
        c.add(c.mul(w00, c00[2]), c.mul(w10, c10[2])),
        c.add(c.mul(w01, c01[2]), c.mul(w11, c11[2])),
    )
    return lam, beta, delta


def phase_days(c: OpCounter, jd: float, t_aph: float, period: float) -> float:
    """Time since the last aphelion passage, in [0, period), by plain arithmetic."""
    if not math.isfinite(jd):
        raise DomainError(f"jd must be finite, got {jd!r}")
    dt = c.sub(jd, t_aph)
    k = math.floor(c.div(dt, period))
    u = c.sub(dt, c.mul(k, period))
    if u < 0.0:
        u = c.add(u, period)
    if u >= period:
        u = c.sub(u, period)
    return u


def geocentric_at_table(
    tables: TableSet, planet: str, jd: float, counter: OpCounter | None = None
) -> GeocentricPosition:
    """Table-mode geocentric position at ``jd``: phase reduction plus one
    double-entry lookup, no transcendental calls anywhere on the path."""
    c = counter if counter is not None else OpCounter()
    table = tables.double_for(planet)
    u = phase_days(c, jd, table.planet.T_aph, table.planet.P)
    v = phase_days(c, jd, table.earth.T_aph, table.earth.P)
    lam, beta, delta = lookup_double(table, u, v, counter=c)
    return GeocentricPosition(lam=lam, beta=beta, delta=delta)


def heliocentric_at_table(
    tables: TableSet, planet: str, jd: float, counter: OpCounter | None = None
):
    """(nu_aph, r) from the single-entry table at ``jd``."""
    c = counter if counter is not None else OpCounter()
    table = tables.single_for(planet)
    t = phase_days(c, jd, table.elements.T_aph, table.elements.P)
    return lookup_planet(table, t, counter=c)


def counted_query(
    mode: str,
    planet: str,
    jd: float,
    dataset=None,
    tables: TableSet | None = None,
    earth_name: str = "earth",
):
    """Run one geocentric query in either mode with a fresh counter.

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
        earth_el: OrbitalElements = dataset[earth_name]
        return counted_direct(c, planet_el, earth_el, jd), c
    raise DomainError(f"unknown mode {mode!r}; expected 'direct' or 'table'")
