"""Reading and writing compiled table files.

Format v3 is a UTF-8 text header followed by a binary payload. The header is
``# key: value`` lines: the magic ``# urania-table v3``, then ``kind``
(``single`` or ``double``), ``step`` for a single-entry table or
``shape: <n_u>x<n_v>`` for a double-entry one, and ``body``, plus ``earth`` for
a double-entry table, each holding that body's row of the elements CSV (see
``dataset.elements_row``), so the elements round-trip bit for bit through the
dataset's own codec. Unknown keys are ignored. The header closes with
``# payload: floats=N crc32=XXXXXXXX``, whose CRC-32 (``zlib.crc32``, 8
lowercase hex digits) covers every byte of the file but those 8 digits. The
payload follows that line's newline: N little-endian float64 values,
``lambda, beta, delta`` per cell, row-major, for a double-entry table, and
``nu_aph, r, motion_day`` per row for a single-entry one, whose ``t = k * step``
and ``motion_hour = motion_day / 24`` are rebuilt on read as the compiler
computes them. No value goes through decimal text, so the round trip is
bit-exact. A corrupt, truncated or out-of-range file, one whose step or grid
fails the compiler's checks, whose anomaly does not increase row by row or
whose header does not describe the table its file name names raises
TableParseError; a file of another format version (v1 was all text, v2
wrote its own key=value element header) raises TableVersionError, and
``urania gen`` rebuilds the tables.
"""

import math
import re
import sys
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path

from .dataset import elements_from_row, elements_row
from .errors import TableParseError, TableVersionError
from .tables import DoubleEntryTable, PlanetTable, TableRow, parse_shape, row_count
from .tables import _check_double, _check_monotone_rows, _check_periodic, _check_single

__all__ = [
    "FORMAT_VERSION",
    "write_table",
    "read_table",
    "read_named_table",
    "table_filename",
    "table_paths",
    "double_planets",
]

FORMAT_VERSION = 3
_MAGIC = re.compile(rb"# urania-table v(\d+)\n")
_PAYLOAD = re.compile(rb"# payload: floats=(\d+) crc32=(\S*)")
# Payload columns, interleaved per row or cell: name, range, test of one value.
_SINGLE_COLUMNS = (
    ("nu_aph", "in [0, 360)", lambda x: 0.0 <= x < 360.0),
    ("r", "positive", lambda x: x > 0.0),
    ("motion_day", "positive", lambda x: x > 0.0),
)
_DOUBLE_COLUMNS = (
    ("lambda", "in [0, 360)", lambda x: 0.0 <= x < 360.0),
    ("beta", "in [-90, 90]", lambda x: -90.0 <= x <= 90.0),
    ("delta", "positive", lambda x: x > 0.0),
)


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
        values = [x for row in table.rows for x in (row.nu_aph, row.r, row.motion_per_day)]
    elif isinstance(table, DoubleEntryTable):
        header = {
            "kind": "double",
            "shape": f"{table.n_u}x{table.n_v}",
            "body": elements_row(table.planet),
            "earth": elements_row(table.earth),
        }
        values = [x for col in table.cells for cell in col for x in cell]
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
    ``key -> (value, line)``."""
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
    headers[key[1:].strip()] = (value.strip(), line)


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


def _elements(headers, key, path):
    """The elements of the body whose CSV row is header ``key``, refused
    if a table cannot hold them."""
    row, line = _require(headers, key, path)
    with _invalid(f"{key} header", path, line):
        el = elements_from_row(row.split(","))
        _check_periodic(el)
    return el


def _triples(values, count, what, columns, path):
    """The payload as ``count`` 3-tuples, each of its ``columns`` checked."""
    if len(values) != 3 * count:
        raise TableParseError(
            f"expected {count} {what} ({3 * count} floats), the payload holds {len(values)}",
            path=path,
        )
    if not all(map(math.isfinite, values)):
        raise TableParseError("non-finite value in the payload", path=path)
    for j, (name, bounds, ok) in enumerate(columns):
        column = values[j::3]
        for x in (min(column), max(column)):
            if not ok(x):
                raise TableParseError(f"{name} {x!r} is not {bounds}", path=path)
    it = iter(values)
    return list(zip(it, it, it))


def _read_single(path, headers, values):
    el = _elements(headers, "body", path)
    text, line = _require(headers, "step", path)
    with _invalid("step header", path, line):
        step = float(text)
        _check_single(el, step)

    what = f"rows for P={el.P!r} step={step!r}"
    triples = _triples(values, row_count(el.P, step), what, _SINGLE_COLUMNS, path)
    rows = [
        TableRow(k * step, nu, r, mday, mday / 24.0) for k, (nu, r, mday) in enumerate(triples)
    ]
    with _invalid("payload", path):
        _check_monotone_rows(el.name, rows)
    return PlanetTable(elements=el, step=step, rows=rows)


def _read_double(path, headers, values):
    planet, earth = _elements(headers, "body", path), _elements(headers, "earth", path)
    text, line = _require(headers, "shape", path)
    with _invalid("shape header", path, line):
        n_u, n_v = parse_shape(text)
        _check_double(planet, earth, n_u, n_v)

    triples = _triples(values, n_u * n_v, f"cells for {n_u}x{n_v}", _DOUBLE_COLUMNS, path)
    cells = [triples[iu * n_v:(iu + 1) * n_v] for iu in range(n_u)]
    return DoubleEntryTable(planet=planet, earth=earth, n_u=n_u, n_v=n_v,
                            du=planet.P / n_u, dv=earth.P / n_v, cells=cells)
