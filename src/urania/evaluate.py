"""Table-mode queries: interpolation with nothing but +, -, *, / and row fetches.

The table path is written once, as plain float code that does not count.
``counted_query`` runs the counted twin ``opcount.twin`` derives from this
source, so the zero-transcendental property of the table path is measured on
every counted query rather than merely claimed; a plain query derives
nothing and does not import opcount. Its constant and record come from
``dataset`` and ``angles``, so a table query loads no module of the direct
chain; and tableio is imported only to read or hold a table, so a counted
direct query loads no table module. So the ``OpCounter`` and table
annotations are strings: these names are bound neither here nor where the
twins are compiled, a copy of this module's namespace.
"""

import functools
import math
from pathlib import Path

from .angles import GeocentricPosition, _new_tuple, normalize_deg
from .dataset import MAX_ELAPSED_DAYS
from .errors import DomainError, TableNotFoundError

__all__ = [
    "TableSet",
    "load_tables",
    "lookup_planet",
    "lookup_double",
    "lookup_grid",
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
    not match its file name is rejected with TableParseError, and so is a
    query that reads a double-entry row holding or bordering a non-finite or
    out-of-range knot, which the reader leaves to that row's first read
    (see ``tableio.CoefficientRows``). A set made
    with no directory holds only what ``add`` puts in, one table per key.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self.single: "dict[str, PlanetTable]" = {}
        self.double: "dict[str, DoubleEntryTable]" = {}

    def add(self, table) -> None:
        from .tableio import DoubleEntryTable, PlanetTable

        if isinstance(table, PlanetTable):
            held, key = self.single, table.elements.name
        elif isinstance(table, DoubleEntryTable):
            held, key = self.double, table.planet.name
        else:
            raise TypeError(f"cannot hold {type(table).__name__}")
        if key in held:
            raise DomainError(f"a {type(table).__name__} for {key!r} is already held")
        held[key] = table

    def single_for(self, name: str) -> "PlanetTable":
        return self.single.get(name) or self._read("single", name)

    def double_for(self, planet: str) -> "DoubleEntryTable":
        return self.double.get(planet) or self._read("double", planet)

    def _read(self, kind: str, name: str):
        table = None
        if self.directory is not None:
            from .tableio import read_named_table

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
        if root.exists():
            raise NotADirectoryError(f"table directory {root} is not a directory")
        raise FileNotFoundError(f"table directory {root} does not exist")
    return TableSet(root)


@functools.cache
def _opcount():
    """The opcount module, imported on the first counted call. The import
    sits outside opcount's chain, since a chain function cannot hold an
    import statement, and runs once: one per counted query made a counted
    table query half as slow again."""
    from . import opcount

    return opcount


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


def lookup_planet(table: "PlanetTable", t: float):
    """(true anomaly from aphelion deg, radius AU) at ``t`` days past aphelion.

    The anomaly is advanced from the located row by whole leftover days at
    the row's motion-per-day plus remaining hours at motion-per-hour; the
    radius is linearly interpolated between the bracketing rows. A query at
    a row's own abscissa returns the stored values unchanged.
    """
    el = table.elements
    if not (math.isfinite(t) and 0.0 <= t < el.P):
        raise DomainError(f"t={t!r} outside [0, {el.P!r}); reduce time modulo the period first")
    n = len(table.rows)
    idx, t0 = _locate(t, table.step, n)

    dt = t - t0
    whole_days = float(math.floor(dt))
    hours = (dt - whole_days) * 24.0

    row = table.rows[idx]
    nu = normalize_deg(row.nu_aph + (whole_days * row.motion_per_day + hours * row.motion_per_hour))
    if idx + 1 < n:
        nxt = table.rows[idx + 1]
        gap = nxt.t - row.t
    else:
        nxt = table.rows[0]  # wraps: next knot is the aphelion one period on
        gap = el.P - row.t
    return nu, row.r + dt / gap * (nxt.r - row.r)


def lookup_double(
    table: "DoubleEntryTable", u: float, v: float, counter: "OpCounter | None" = None
) -> GeocentricPosition:
    """Bilinear (lambda, beta, delta) at planet phase ``u``, Earth phase ``v``.

    Takes phases in days past each body's aphelion, ``0 <= u < P_planet``
    and ``0 <= v < P_earth``, and returns ``lookup_grid`` at the grid
    coordinates ``u / du``, ``v / dv``. A knot is exact in grid coordinates,
    not here: ``(iu * du) / du`` can round below ``iu``, and the answer is
    then interpolated from the interval below, at a weight an ulp short of 1.
    ``counter`` stays only because the perfbench harness's composed pass
    passes one; others use opcount.twin.
    """
    if counter is not None:
        return _opcount().twin("lookup_double")(counter, table, u, v)
    # a NaN or an infinity fails these comparisons too
    if not 0.0 <= u < table.planet.P:
        raise DomainError(f"u={u!r} outside [0, {table.planet.P!r})")
    if not 0.0 <= v < table.earth.P:
        raise DomainError(f"v={v!r} outside [0, {table.earth.P!r})")
    return lookup_grid(table, u / table.du, v / table.dv)


def lookup_grid(table: "DoubleEntryTable", x: float, y: float) -> GeocentricPosition:
    """Bilinear (lambda, beta, delta) at grid coordinates ``x``, ``y``.

    ``x`` in [0, n_u] and ``y`` in [0, n_v] count grid intervals from the
    two aphelia, so cell (iu, iv) sits at (iu, iv), where it comes back bit
    for bit, a -0.0 latitude too. ``x = n_u`` (a phase just below the period
    can divide to it) is the wrap column's knot, interpolated from the last
    interval at weight 1, and so ``y = n_v``.

    One row fetch: ``table.cells[iu]`` is row iu's coefficient cells
    (``tableio.coefficient_row``), and its cell ``[iv::n_v]`` holds each
    component's knot f00 and forward differences f_u, f_v, f_uv, so at the
    fractions fu = x - iu, fv = y - iv the bilinear interpolant is
    f00 + fu*f_u + fv*(f_v + fu*f_uv): no other corner to read, and no
    offset to fold, since the longitude's differences were folded into
    (-180, 180] when the row was derived and a 359 -> 1 degree seam
    interpolates through 0. The longitude is renormalized into [0, 360)
    inline; the tests hold this body to a reference lookup that derives the
    cell with ``angles.wrap_diff_deg`` and calls ``angles.normalize_deg``
    (tests/oracles.py): the same bits and the same tally.
    """
    n_u = table.n_u
    n_v = table.n_v
    # a NaN fails these comparisons too
    if not 0.0 <= x <= n_u:
        raise DomainError(f"grid coordinate x={x!r} outside [0, {n_u}]")
    if not 0.0 <= y <= n_v:
        raise DomainError(f"grid coordinate y={y!r} outside [0, {n_v}]")
    iu = int(x)
    if iu >= n_u:
        iu = n_u - 1
    iv = int(y)
    if iv >= n_v:
        iv = n_v - 1
    fu = x - iu
    fv = y - iv
    (lam, lam_u, lam_v, lam_uv, beta, beta_u, beta_v, beta_uv,
     delta, delta_u, delta_v, delta_uv) = table.cells[iu][iv::n_v]
    if fu == 0.0 and fv == 0.0:
        # the knot as stored: the sums below turn a stored -0.0 into +0.0
        return _new_tuple(GeocentricPosition, (lam, beta, delta))
    lam = lam + fu * lam_u + fv * (lam_v + fu * lam_uv)
    while lam < 0.0:
        lam += 360.0
    while lam >= 360.0:  # after the fold up: -1e-15 + 360.0 rounds to 360.0
        lam -= 360.0
    beta = beta + fu * beta_u + fv * (beta_v + fu * beta_uv)
    delta = delta + fu * delta_u + fv * (delta_v + fu * delta_uv)
    return _new_tuple(GeocentricPosition, (lam, beta, delta))


def phase_days(counter: "OpCounter | None", jd: float, t_aph: float, period: float) -> float:
    """Time since the last aphelion passage, in [0, period), by plain arithmetic.

    Counted into ``counter`` unless it is None, a parameter that stays only
    because the perfbench harness's composed pass passes one. Defined for
    |jd - t_aph| < MAX_ELAPSED_DAYS, the domain direct mode accepts too, and
    a finite period long enough to reduce jd - t_aph into [0, period).
    """
    if counter is not None:
        return _opcount().twin("phase_days")(counter, None, jd, t_aph, period)
    if not 0.0 < period < math.inf:
        raise DomainError(f"period must be finite and > 0, got {period!r}")
    dt = jd - t_aph
    # a NaN or an infinite jd or t_aph fails this comparison too
    if not abs(dt) < MAX_ELAPSED_DAYS:
        raise DomainError(
            f"jd={jd!r} is {dt!r} days from the aphelion epoch {t_aph!r}, outside the "
            f"valid domain |jd - T_aph| < {MAX_ELAPSED_DAYS:.0f} days"
        )
    q = dt / period
    if not math.isfinite(q):
        raise DomainError(f"{dt!r} days / period {period!r} overflows")
    k = math.floor(q)
    u = dt - k * period
    if u < 0.0:
        u += period
    if u >= period:
        u -= period
    if not 0.0 <= u < period:
        raise DomainError(f"period {period!r} is too short to reduce {dt!r} days into it")
    return u


def geocentric_at_table(
    tables: TableSet, planet: str, jd: float, counter: None = None
) -> GeocentricPosition:
    """Table-mode geocentric position at ``jd``: phase reduction plus one
    double-entry lookup, no transcendental calls anywhere on the path.
    ``counter`` must be None; a perfbench test's wrapper passes it on.
    """
    if counter is not None:
        raise TypeError("geocentric_at_table counts nothing; use counted_query")
    table = tables.double_for(planet)
    u = phase_days(None, jd, table.planet.T_aph, table.planet.P)
    v = phase_days(None, jd, table.earth.T_aph, table.earth.P)
    return lookup_grid(table, u / table.du, v / table.dv)


def heliocentric_at_table(tables: TableSet, planet: str, jd: float):
    """(nu_aph, r) from the single-entry table at ``jd``."""
    table = tables.single_for(planet)
    return lookup_planet(table, phase_days(None, jd, table.elements.T_aph, table.elements.P))


def counted_query(mode: str, planet: str, jd: float, dataset=None,
                  tables: TableSet | None = None):
    """Run one geocentric query in either mode with a fresh counter: the
    counted query of ``urania query --count-ops`` and ``bench``.

    Returns (GeocentricPosition, OpCounter). ``dataset`` (a mapping of name
    to OrbitalElements) backs direct mode; ``tables`` backs table mode.
    """
    opcount = _opcount()
    c = opcount.OpCounter()
    if mode == "table":
        if tables is None:
            raise DomainError("table mode requires loaded tables")
        return opcount.twin("geocentric_at_table")(c, tables, planet, jd), c
    if mode == "direct":
        if dataset is None:
            raise DomainError("direct mode requires an elements dataset")
        return opcount.twin("geocentric_at")(c, dataset[planet], dataset["earth"], jd), c
    raise DomainError(f"unknown mode {mode!r}; expected 'direct' or 'table'")
