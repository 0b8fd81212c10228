"""Reading and writing compiled table files.

Format v2 is a UTF-8 text header followed by a binary payload. The header is
``#`` lines: the magic ``# urania-table v2``, ``kind``, ``name``, the
``elements`` (and ``corrections``) of each body, then ``step`` for a
single-entry table or ``n_u``/``n_v`` for a double-entry one; unknown keys are
ignored. It closes with ``# payload: floats=N crc32=XXXXXXXX``, whose CRC-32
(``zlib.crc32``, 8 lowercase hex digits) covers every byte of the file but
those 8 digits. The payload follows that line's newline: N little-endian
float64 values, ``lambda, beta, delta`` per cell, row-major, for a double-entry
table, and ``nu_aph, r, motion_day`` per row for a single-entry one, whose
``t = k * step`` and ``motion_hour = motion_day / 24`` are rebuilt on read as
the compiler computes them. No value goes through decimal text, so the round
trip is bit-exact. A corrupt, truncated or out-of-range file raises
TableParseError; a file of another format version (v1 was all text) raises
TableVersionError, and ``urania gen`` rebuilds the tables.
"""

import math
import re
import sys
import zlib
from array import array
from pathlib import Path

from .errors import TableParseError, TableVersionError
from .kepler import CorrectionTerm, OrbitalElements, validate_elements
from .tables import DoubleEntryTable, PlanetTable, TableRow, row_count

__all__ = [
    "FORMAT_VERSION",
    "write_table",
    "read_table",
    "read_named_table",
    "read_table_file",
    "table_filename",
    "table_paths",
    "double_planets",
]

FORMAT_VERSION = 2
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


def _f(x: float) -> str:
    return "%.17g" % x


def _elements_header(el: OrbitalElements, key: str = "elements") -> str:
    return (
        f"{key}: a={_f(el.a)} e={_f(el.e)} i={_f(el.i)} Omega={_f(el.Omega)} "
        f"omega={_f(el.omega)} P={_f(el.P)} T_aph={_f(el.T_aph)}"
    )


def _corrections_header(el: OrbitalElements, key: str = "corrections") -> str | None:
    if not el.corrections:
        return None
    parts = [f"{key}: k={len(el.corrections)};"]
    for j, c in enumerate(el.corrections, start=1):
        parts.append(f"amp_{j}={_f(c.amplitude)} per_{j}={_f(c.period)} ph_{j}={_f(c.phase)}")
    return " ".join(parts)


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

    Returns None when the directory holds no such file. A file whose header
    describes another table (another body, another Earth or the other kind)
    raises TableParseError, so a renamed file is never answered under the
    name it was asked for.
    """
    root = Path(directory)
    path = root / _filename(kind, name)
    # a name holding a path separator names no file of this directory
    if path.parent != root or not path.is_file():
        return None
    return read_table_file(path)


def read_table_file(path):
    """Read the table file ``path``, whose header must describe the table its
    file name names (see ``table_filename``); TableParseError otherwise."""
    table = read_table(path)
    if table_filename(table) != Path(path).name:
        raise TableParseError(
            f"header describes the table {table_filename(table)!r}, not this file's", path=path
        )
    return table


def write_table(table, destination) -> None:
    """Serialize a PlanetTable or DoubleEntryTable to ``destination``."""
    if isinstance(table, PlanetTable):
        el = table.elements
        header = ["kind=single", f"name={el.name}", _elements_header(el),
                  _corrections_header(el), f"step={_f(table.step)}"]
        values = [x for row in table.rows for x in (row.nu_aph, row.r, row.motion_per_day)]
    elif isinstance(table, DoubleEntryTable):
        header = [
            "kind=double",
            f"name={table.planet.name},earth={table.earth.name}",
            _elements_header(table.planet),
            _elements_header(table.earth, key="earth-elements"),
            _corrections_header(table.planet),
            _corrections_header(table.earth, key="earth-corrections"),
            f"n_u={table.n_u} n_v={table.n_v}",
        ]
        values = [x for col in table.cells for cell in col for x in cell]
    else:
        raise TypeError(f"cannot serialize {type(table).__name__}")
    payload = array("d", values)
    if sys.byteorder == "big":
        payload.byteswap()
    lines = [f"urania-table v{FORMAT_VERSION}", *filter(None, header)]
    head = "".join(f"# {line}\n" for line in lines) + f"# payload: floats={len(payload)} crc32="
    head, body = head.encode("utf-8"), b"\n" + payload.tobytes()
    crc = zlib.crc32(body, zlib.crc32(head))
    Path(destination).write_bytes(head + b"%08x" % crc + body)


def read_table(source):
    """Parse a table file, returning a PlanetTable or DoubleEntryTable."""
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

    headers: dict[str, str] = {}
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

    kind = headers.get("kind")
    if kind is None:
        raise TableParseError("missing mandatory header key 'kind'", path=path)
    if kind == "single":
        return _read_single(path, headers, values)
    if kind == "double":
        return _read_double(path, headers, values)
    raise TableParseError(f"unknown table kind {kind!r}", path=path)


def _parse_header_line(raw, headers, path, line):
    """Add the keys of the header line ``raw`` (bytes) to ``headers``."""
    try:
        body = raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        raise TableParseError("header line is not UTF-8 text", path=path, line=line) from None
    if body.startswith("# payload:"):
        raise TableParseError(f"malformed payload line {body!r}", path=path, line=line)
    if not body.startswith("#"):
        raise TableParseError("header line does not start with '#'", path=path, line=line)
    body = body[1:].strip()
    if ":" in body and ("=" not in body or body.index(":") < body.index("=")):
        key, _, value = body.partition(":")
        headers[key.strip()] = value.strip()
    else:
        # one or more key=value pairs on the line
        for token in body.split():
            if "=" in token:
                key, _, value = token.partition("=")
                headers[key] = value


def _require(headers, key, path):
    if key not in headers:
        raise TableParseError(f"missing mandatory header key {key!r}", path=path)
    return headers[key]


def _parse_float(token, what, path):
    try:
        value = float(token)
    except ValueError:
        raise TableParseError(f"bad {what}: {token!r}", path=path) from None
    if not math.isfinite(value):
        raise TableParseError(f"non-finite {what}: {token!r}", path=path)
    return value


def _parse_kv_floats(text, what, path):
    out = {}
    for token in text.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise TableParseError(f"malformed {what} token {token!r}", path=path)
        out[key] = _parse_float(value, f"{what} field {key}", path)
    return out


def _parse_elements(name, headers, path, key="elements", corr_key="corrections"):
    fields = _parse_kv_floats(_require(headers, key, path), key, path)
    keys = ("a", "e", "i", "Omega", "omega", "P", "T_aph")
    missing = set(keys) - set(fields)
    if missing:
        raise TableParseError(f"{key} header lacks {sorted(missing)}", path=path)
    corrections = ()
    if corr_key in headers:
        corrections = _parse_corrections(headers[corr_key], path)
    el = OrbitalElements(name, *(fields[k] for k in keys), corrections=corrections)
    try:
        validate_elements(el)
    except Exception as exc:
        raise TableParseError(f"invalid {key} header: {exc}", path=path) from None
    return el


def _parse_corrections(text, path) -> tuple[CorrectionTerm, ...]:
    head, semi, rest = text.partition(";")
    if not semi or not head.strip().startswith("k="):
        raise TableParseError(f"malformed corrections header {text!r}", path=path)
    try:
        k = int(head.strip()[2:])
    except ValueError:
        raise TableParseError(f"bad corrections count in {text!r}", path=path) from None
    fields = _parse_kv_floats(rest, "corrections", path)
    terms = []
    for j in range(1, k + 1):
        try:
            terms.append(
                CorrectionTerm(
                    amplitude=fields[f"amp_{j}"],
                    period=fields[f"per_{j}"],
                    phase=fields[f"ph_{j}"],
                )
            )
        except KeyError as exc:
            raise TableParseError(f"corrections header lacks {exc}", path=path) from None
    return tuple(terms)


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
    name = _require(headers, "name", path)
    el = _parse_elements(name, headers, path)
    step = _parse_float(_require(headers, "step", path), "step", path)
    if not (0.0 < step <= el.P / 8.0):
        raise TableParseError(f"step {step!r} out of range for P={el.P!r}", path=path)

    what = f"rows for P={el.P!r} step={step!r}"
    triples = _triples(values, row_count(el.P, step), what, _SINGLE_COLUMNS, path)
    rows = [
        TableRow(t=k * step, nu_aph=nu, r=r, motion_per_day=mday, motion_per_hour=mday / 24.0)
        for k, (nu, r, mday) in enumerate(triples)
    ]
    return PlanetTable(elements=el, step=step, rows=rows)


def _read_double(path, headers, values):
    name = _require(headers, "name", path)
    planet_name, sep, earth_part = name.partition(",earth=")
    if not sep:
        raise TableParseError(
            f"double-entry name header must read 'name=<planet>,earth=<earth>', got {name!r}",
            path=path,
        )
    planet = _parse_elements(planet_name, headers, path)
    earth = _parse_elements(
        earth_part, headers, path, key="earth-elements", corr_key="earth-corrections"
    )
    try:
        n_u = int(_require(headers, "n_u", path))
        n_v = int(_require(headers, "n_v", path))
    except ValueError:
        raise TableParseError("n_u / n_v must be integers", path=path) from None
    if n_u < 8 or n_v < 8:
        raise TableParseError(f"grid {n_u}x{n_v} is below the 8x8 minimum", path=path)

    triples = _triples(values, n_u * n_v, f"cells for {n_u}x{n_v}", _DOUBLE_COLUMNS, path)
    cells = [triples[iu * n_v:(iu + 1) * n_v] for iu in range(n_u)]
    return DoubleEntryTable(planet=planet, earth=earth, n_u=n_u, n_v=n_v, cells=cells)
