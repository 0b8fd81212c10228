"""Compiled tables: their records, the checks and row derivations that the
compiler and the reader share, and the table files. Reading a double-entry
file loads neither the compiler (``tables``) nor the direct chain; a
single-entry step is checked by the compiler's ``_check_single``.

Format v4 is a UTF-8 text header followed by a binary payload. The header is
``# key: value`` lines: the magic ``# urania-table v4``, then ``kind``
(``single`` or ``double``), ``step`` for a single-entry table or
``shape: <n_u>x<n_v>`` for a double-entry one, and ``body``, plus ``earth`` for
a double-entry table, each holding that body's eight-column row of the
elements CSV (see ``dataset.elements_row``), so the elements round-trip bit
for bit through the dataset's own codec. Unknown keys are ignored; a key
given twice is refused. The header closes with
``# payload: floats=N crc32=XXXXXXXX``, whose CRC-32 (``zlib.crc32``, 8
lowercase hex digits) covers every byte of the file but those 8 digits. The
payload follows that line's newline: N little-endian float64 values. For a
double-entry table they are its ``knots``, ``lambda, beta, delta`` per cell,
row-major, written and read as one array; the reader derives nothing from
them, and a query derives each row's coefficient cells on its first read,
checking first that the knots it derives them from are finite and in range.
For a single-entry table they are the knots ``nu_aph, r`` per row, whose rows
``planet_rows`` rebuilds from them as the compiler does, so the reader checks
every value. No value goes through decimal text, so the round trip is
bit-exact. A corrupt, truncated or out-of-range file, one whose step or grid
fails the compiler's checks, whose anomaly does not increase row by row or
whose header does not describe the table its file name names raises
TableParseError: at read, or, for a non-finite or out-of-range double-entry
knot, at the first lookup in a row that holds or borders it; a file of
another format version (v1 was all text, v2 wrote its own key=value element
header, v3 stored a daily motion beside each knot) raises TableVersionError,
and ``urania gen`` rebuilds the tables.
"""

import math
import re
import sys
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .angles import wrap_diff_deg
from .dataset import MAX_ELAPSED_DAYS, OrbitalElements, elements_from_row, elements_row
from .dataset import validate_elements
from .errors import DomainError, TableParseError, TableVersionError

__all__ = [
    "TableRow",
    "PlanetTable",
    "DoubleEntryTable",
    "coefficient_row",
    "parse_shape",
    "planet_rows",
    "row_count",
    "FORMAT_VERSION",
    "write_table",
    "read_table",
    "read_named_table",
    "table_filename",
    "table_paths",
    "double_planets",
]

FORMAT_VERSION = 4
_MAGIC = re.compile(rb"# urania-table v(\d+)\n")
_PAYLOAD = re.compile(rb"# payload: floats=(\d+) crc32=(\S*)")
# Payload columns, interleaved per row or cell: name, range, test of one value.
_SINGLE_COLUMNS = (
    ("nu_aph", "in [0, 360)", lambda x: 0.0 <= x < 360.0),
    ("r", "positive", lambda x: x > 0.0),
)
_DOUBLE_COLUMNS = (
    ("lambda", "in [0, 360)", lambda x: 0.0 <= x < 360.0),
    ("beta", "in [-90, 90]", lambda x: -90.0 <= x <= 90.0),
    ("delta", "positive", lambda x: x > 0.0),
)


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
    coefficient cells (see ``coefficient_row``), derived and checked on its
    first read; ``path``, the file the knots were read from, is held by the
    cells, for the TableParseError of a bad knot. Two tables are equal when
    all but their cells are, since equal knots derive equal cells: so a
    table read back equals the one built.
    """

    __slots__ = ("planet", "earth", "n_u", "n_v", "du", "dv", "knots", "cells")

    def __init__(self, planet: OrbitalElements, earth: OrbitalElements, n_u: int, n_v: int,
                 du: float, dv: float, knots: array, path=None):
        self.planet, self.earth, self.n_u, self.n_v = planet, earth, n_u, n_v
        self.du, self.dv, self.knots = du, dv, knots
        self.cells = CoefficientRows(knots, n_u, n_v, path)

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
    table read for one query derives one row, not all of them. The knots of
    the two rows it derives from are checked first, as the reader checks a
    single-entry payload, so a non-finite or out-of-range knot raises
    TableParseError naming ``path`` (None for a table built in-process) and
    leaves the row underived: every later read of it raises again. A knot
    row that a derived neighbour also derives from passed that neighbour's
    check and is not checked again, so deriving every row checks each knot
    row once.
    """

    __slots__ = ("knots", "n_u", "n_v", "path")

    def __init__(self, knots: array, n_u: int, n_v: int, path=None):
        super().__init__()
        self.knots, self.n_u, self.n_v, self.path = knots, n_u, n_v, path

    def __missing__(self, iu: int) -> array:
        rows = near, far = self.knot_rows(iu)
        # a derived neighbour checked the knot row it shares with this one
        if (iu - 1) % self.n_u not in self:
            _check_values(near, _DOUBLE_COLUMNS, self.path)
        if (iu + 1) % self.n_u not in self:
            _check_values(far, _DOUBLE_COLUMNS, self.path)
        row = self[iu] = coefficient_row(*rows, self.n_v)
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


def _check_single_body(el: OrbitalElements) -> None:
    validate_elements(el)
    # Every row then lies in the direct chain's domain.
    if not el.P < MAX_ELAPSED_DAYS:
        raise DomainError(f"{el.name}: a single-entry table needs P < 2**36 days, got {el.P!r}")


def _check_double(
    planet_el: OrbitalElements, earth_el: OrbitalElements, n_u: int, n_v: int
) -> None:
    validate_elements(planet_el)
    validate_elements(earth_el)
    _check_grid(n_u, n_v)


def _check_grid(n_u: int, n_v: int) -> None:
    if n_u < 8 or n_v < 8 or n_u * n_v > 1048576:  # as a single-entry table's 2**20 rows
        raise DomainError(f"grid must be at least 8x8 and at most 2**20 cells, got {n_u}x{n_v}")


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


def _filename(kind: str, name: str, earth: str = "earth") -> str:
    if kind == "single":
        return f"{name}.single.tbl"
    return f"{name}.{earth}.double.tbl"


def table_filename(table) -> str:
    """Canonical file name for a compiled table."""
    if isinstance(table, PlanetTable):
        return _filename("single", table.elements.name)
    return _filename("double", table.planet.name, table.earth.name)


def table_paths(directory) -> list[Path]:
    """Every table file in ``directory``, sorted; empty if it does not exist."""
    return sorted(Path(directory).glob("*.tbl"))


def double_planets(directory) -> list[str]:
    """Planets whose double-entry table against the Earth is in ``directory``, sorted."""
    suffix = _filename("double", "")
    return sorted(p.name[: -len(suffix)] for p in Path(directory).glob("*" + suffix))


def read_named_table(directory, kind: str, name: str):
    """Read the ``kind`` ("single" or "double") table of body ``name`` from
    ``directory``: ``<name>.single.tbl`` or ``<name>.earth.double.tbl``.

    Returns None when the directory holds no such file; ``read_table``
    refuses a renamed one, so it is never answered under the name asked for.
    """
    root = Path(directory)
    path = root / _filename(kind, name)
    # a name holding a path separator names no file of this directory
    if path.parent != root or not path.is_file():
        return None
    return read_table(path)


def write_table(table, destination) -> None:
    """Serialize a PlanetTable or DoubleEntryTable to ``destination``."""
    if isinstance(table, PlanetTable):
        header = {"kind": "single", "step": repr(table.step), "body": elements_row(table.elements)}
        values = [x for row in table.rows for x in (row.nu_aph, row.r)]
    elif isinstance(table, DoubleEntryTable):
        header = {
            "kind": "double",
            "shape": f"{table.n_u}x{table.n_v}",
            "body": elements_row(table.planet),
            "earth": elements_row(table.earth),
        }
        values = table.knots
    else:
        raise TypeError(f"cannot serialize {type(table).__name__}")
    payload = array("d", values)
    if sys.byteorder == "big":
        payload.byteswap()
    lines = [f"urania-table v{FORMAT_VERSION}", *(f"{k}: {v}" for k, v in header.items())]
    head = "".join(f"# {line}\n" for line in lines) + f"# payload: floats={len(payload)} crc32="
    head, body = head.encode("utf-8"), b"\n" + payload.tobytes()
    crc = zlib.crc32(body, zlib.crc32(head))
    Path(destination).write_bytes(head + b"%08x" % crc + body)


def read_table(source):
    """Parse a table file, returning a PlanetTable or DoubleEntryTable; a
    file whose header does not match its file name raises TableParseError."""
    path = Path(source)
    data = path.read_bytes()
    magic = _MAGIC.match(data)
    if magic is None:
        raise TableParseError(
            f"first line must be the format magic '# urania-table v{FORMAT_VERSION}'",
            path=path,
            line=1,
        )
    version = int(magic.group(1))
    if version != FORMAT_VERSION:
        raise TableVersionError(
            f"{path}: table format v{version} is not supported (this build reads "
            f"v{FORMAT_VERSION}); re-run `urania gen` to rebuild the tables"
        )

    headers: dict[str, tuple[str, int]] = {}
    pos, line = magic.end(), 1
    while True:
        line += 1
        end = data.find(b"\n", pos)
        if end < 0:
            raise TableParseError(
                "header ends without its '# payload:' line (truncated file)", path=path, line=line
            )
        closing = _PAYLOAD.fullmatch(data, pos, end)
        if closing is not None:
            break
        _parse_header_line(data[pos:end], headers, path, line)
        pos = end + 1

    floats, digits = int(closing.group(1)), closing.span(2)
    size = len(data) - end - 1
    if size != 8 * floats:
        raise TableParseError(
            f"payload holds {size} bytes, not the {floats} float64 values its header "
            "declares (truncated or padded file)",
            path=path,
        )
    view = memoryview(data)
    crc = b"%08x" % zlib.crc32(view[digits[1]:], zlib.crc32(view[: digits[0]]))
    if closing.group(2) != crc:
        raise TableParseError(
            f"crc32 field {closing.group(2).decode('latin-1')!r} does not match the "
            f"file's content ({crc.decode()}): the file is corrupt",
            path=path,
            line=line,
        )
    values = array("d")
    values.frombytes(view[end + 1:])
    if sys.byteorder == "big":
        values.byteswap()

    kind, line = _require(headers, "kind", path)
    if kind == "single":
        table = _read_single(path, headers, values)
    elif kind == "double":
        table = _read_double(path, headers, values)
    else:
        raise TableParseError(f"unknown table kind {kind!r}", path=path, line=line)
    if table_filename(table) != path.name:
        raise TableParseError(
            f"header describes the table {table_filename(table)!r}, not this file's", path=path
        )
    return table


def _parse_header_line(raw, headers, path, line):
    """Add the ``# key: value`` header line ``raw`` (bytes) to ``headers`` as
    ``key -> (value, line)``; a key seen before is refused."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise TableParseError("header line is not UTF-8 text", path=path, line=line) from None
    if text.startswith("# payload:"):
        raise TableParseError(f"malformed payload line {text!r}", path=path, line=line)
    key, sep, value = text.partition(":")
    if not (key.startswith("#") and sep):
        raise TableParseError(
            f"header line {text!r} does not read '# key: value'", path=path, line=line
        )
    key = key[1:].strip()
    if key in headers:
        raise TableParseError(
            f"header key {key!r} repeats the one on line {headers[key][1]}", path=path, line=line
        )
    headers[key] = (value.strip(), line)


def _require(headers, key, path):
    """The ``(value, line)`` of header ``key``."""
    if key not in headers:
        raise TableParseError(f"missing mandatory header key {key!r}", path=path)
    return headers[key]


@contextmanager
def _invalid(what, path, line=None):
    """Re-raise the block's ValueError (DomainError is one) as a TableParseError."""
    try:
        yield
    except ValueError as exc:
        raise TableParseError(f"invalid {what}: {exc}", path=path, line=line) from None


def _elements(headers, key, path, check=None):
    """The elements of the body whose CSV row is header ``key``: eight
    columns that ``elements_from_row`` validates, refused at that line if
    they or ``check`` fail."""
    row, line = _require(headers, key, path)
    with _invalid(f"{key} header", path, line):
        el = elements_from_row(row.split(","))
        if check is not None:
            check(el)
    return el


def _check_count(values, count, what, columns, path) -> None:
    """Refuse the payload unless it holds ``count`` records of one value per
    column of ``columns``."""
    width = len(columns)
    if len(values) != width * count:
        raise TableParseError(
            f"expected {count} {what} ({width * count} floats), the payload holds {len(values)}",
            path=path,
        )


def _check_values(values, columns, path) -> None:
    """Refuse ``values``, records of one value per column of ``columns``,
    unless each is finite and passes its column's test; ``path`` names the
    file they were read from (None for a table built in-process)."""
    width = len(columns)
    if not all(map(math.isfinite, values)):
        raise TableParseError("non-finite value in the payload", path=path)
    for j, (name, bounds, ok) in enumerate(columns):
        column = values[j::width]
        for x in (min(column), max(column)):
            if not ok(x):
                raise TableParseError(f"{name} {x!r} is not {bounds}", path=path)


def _read_single(path, headers, values):
    from .tables import _check_single  # the step check inverts Kepler's equation

    el = _elements(headers, "body", path, _check_single_body)
    text, line = _require(headers, "step", path)
    with _invalid("step header", path, line):
        step = float(text)
        _check_single(el, step)

    what = f"rows for P={el.P!r} step={step!r}"
    _check_count(values, row_count(el.P, step), what, _SINGLE_COLUMNS, path)
    _check_values(values, _SINGLE_COLUMNS, path)  # planet_rows derives every row now
    with _invalid("payload", path):
        rows = planet_rows(el, step, list(zip(values[0::2], values[1::2])))
    return PlanetTable(elements=el, step=step, rows=rows)


def _read_double(path, headers, values):
    planet, earth = _elements(headers, "body", path), _elements(headers, "earth", path)
    text, line = _require(headers, "shape", path)
    with _invalid("shape header", path, line):
        n_u, n_v = parse_shape(text)
        _check_grid(n_u, n_v)  # elements_from_row has validated both bodies

    # a row's values are checked when a query first derives it (CoefficientRows)
    _check_count(values, n_u * n_v, f"cells for {n_u}x{n_v}", _DOUBLE_COLUMNS, path)
    # held as an exact-size copy: frombytes leaves a 16th of the array spare
    return DoubleEntryTable(planet=planet, earth=earth, n_u=n_u, n_v=n_v,
                            du=planet.P / n_u, dv=earth.P / n_v, knots=values[:], path=path)
