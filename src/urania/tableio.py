"""Reading and writing compiled table files.

Format v1 is UTF-8 and line-oriented: ``#`` header lines followed by
comma-separated data rows printed with 17 significant digits, which makes the
write/read round trip bit-exact. Unknown header keys are ignored; missing
mandatory keys, truncation, or malformed numbers are parse errors carrying
the 1-based line number.
"""

import math
import re
from pathlib import Path

from .errors import TableParseError, TableVersionError
from .kepler import CorrectionTerm, OrbitalElements, validate_elements
from .tables import DoubleEntryTable, PlanetTable, TableRow, row_count

__all__ = [
    "FORMAT_VERSION",
    "write_table",
    "read_table",
    "read_named_table",
    "table_filename",
    "table_paths",
    "double_planets",
]

FORMAT_VERSION = 1
_MAGIC_RE = re.compile(r"^# urania-table v(\d+)\s*$")


def _f(x: float) -> str:
    return "%.17g" % x


def _elements_header(el: OrbitalElements, key: str = "elements") -> str:
    return (
        f"# {key}: a={_f(el.a)} e={_f(el.e)} i={_f(el.i)} Omega={_f(el.Omega)} "
        f"omega={_f(el.omega)} P={_f(el.P)} T_aph={_f(el.T_aph)}"
    )


def _corrections_header(el: OrbitalElements, key: str = "corrections") -> str | None:
    if not el.corrections:
        return None
    parts = [f"# {key}: k={len(el.corrections)};"]
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
    table = read_table(path)
    if table_filename(table) != path.name:
        raise TableParseError(
            f"header describes the table {table_filename(table)!r}, not this file's", path=path
        )
    return table


def write_table(table, destination) -> None:
    """Serialize a PlanetTable or DoubleEntryTable to ``destination``."""
    lines = [f"# urania-table v{FORMAT_VERSION}"]
    if isinstance(table, PlanetTable):
        el = table.elements
        lines.append("# kind=single")
        lines.append(f"# name={el.name}")
        lines.append(_elements_header(el))
        corr = _corrections_header(el)
        if corr:
            lines.append(corr)
        lines.append(f"# step={_f(table.step)}")
        lines.append("# columns: t,nu_aph,r,motion_day,motion_hour")
        for row in table.rows:
            lines.append(
                f"{_f(row.t)},{_f(row.nu_aph)},{_f(row.r)},"
                f"{_f(row.motion_per_day)},{_f(row.motion_per_hour)}"
            )
    elif isinstance(table, DoubleEntryTable):
        lines.append("# kind=double")
        lines.append(f"# name={table.planet.name},earth={table.earth.name}")
        lines.append(_elements_header(table.planet))
        lines.append(_elements_header(table.earth, key="earth-elements"))
        corr = _corrections_header(table.planet)
        if corr:
            lines.append(corr)
        corr = _corrections_header(table.earth, key="earth-corrections")
        if corr:
            lines.append(corr)
        lines.append(f"# n_u={table.n_u} n_v={table.n_v}")
        lines.append("# columns: iu,iv,lambda,beta,delta")
        for iu in range(table.n_u):
            for iv in range(table.n_v):
                lam, beta, delta = table.cells[iu][iv]
                lines.append(f"{iu},{iv},{_f(lam)},{_f(beta)},{_f(delta)}")
    else:
        raise TypeError(f"cannot serialize {type(table).__name__}")
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(source):
    """Parse a table file, returning a PlanetTable or DoubleEntryTable."""
    path = Path(source)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise TableParseError("empty file", path=path, line=1)

    m = _MAGIC_RE.match(lines[0])
    if m is None:
        raise TableParseError(
            "first line must be the format magic '# urania-table v1'", path=path, line=1
        )
    version = int(m.group(1))
    if version != FORMAT_VERSION:
        raise TableVersionError(
            f"{path}: table format v{version} is not supported (this build reads v{FORMAT_VERSION})"
        )

    headers: dict[str, str] = {}
    data_start = len(lines)  # 0-based index of the first data line
    for pos in range(1, len(lines)):
        line = lines[pos].strip()
        if not line:
            continue
        if not line.startswith("#"):
            data_start = pos
            break
        body = line[1:].strip()
        if ":" in body and ("=" not in body or body.index(":") < body.index("=")):
            key, _, value = body.partition(":")
            headers[key.strip()] = value.strip()
        else:
            # one or more key=value pairs on the line
            for token in body.split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    headers[key] = value

    kind = headers.get("kind")
    if kind is None:
        raise TableParseError("missing mandatory header key 'kind'", path=path)
    if kind == "single":
        return _read_single(path, headers, lines, data_start)
    if kind == "double":
        return _read_double(path, headers, lines, data_start)
    raise TableParseError(f"unknown table kind {kind!r}", path=path)


def _require(headers, key, path):
    if key not in headers:
        raise TableParseError(f"missing mandatory header key {key!r}", path=path)
    return headers[key]


def _parse_float(token, what, path, line):
    try:
        value = float(token)
    except ValueError:
        raise TableParseError(f"bad {what}: {token!r}", path=path, line=line) from None
    if not math.isfinite(value):
        raise TableParseError(f"non-finite {what}: {token!r}", path=path, line=line)
    return value


def _parse_kv_floats(text, what, path):
    out = {}
    for token in text.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise TableParseError(f"malformed {what} token {token!r}", path=path)
        out[key] = _parse_float(value, f"{what} field {key}", path, None)
    return out

def _parse_elements(name, headers, path, key="elements", corr_key="corrections"):
    fields = _parse_kv_floats(_require(headers, key, path), key, path)
    missing = {"a", "e", "i", "Omega", "omega", "P", "T_aph"} - set(fields)
    if missing:
        raise TableParseError(f"{key} header lacks {sorted(missing)}", path=path)
    corrections = ()
    if corr_key in headers:
        corrections = _parse_corrections(headers[corr_key], path)
    el = OrbitalElements(
        name=name,
        a=fields["a"],
        e=fields["e"],
        i=fields["i"],
        Omega=fields["Omega"],
        omega=fields["omega"],
        P=fields["P"],
        T_aph=fields["T_aph"],
        corrections=corrections,
    )
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


def _read_single(path, headers, lines, data_start):
    name = _require(headers, "name", path)
    el = _parse_elements(name, headers, path)
    step = _parse_float(_require(headers, "step", path), "step", path, None)
    if not (0.0 < step <= el.P / 8.0):
        raise TableParseError(f"step {step!r} out of range for P={el.P!r}", path=path)

    expected = row_count(el.P, step)
    rows = []
    for idx in range(data_start, len(lines)):
        line = lines[idx].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TableParseError(
                f"expected 5 comma-separated values, got {len(parts)}", path=path, line=idx + 1
            )
        t, nu, r, mday, mhour = (
            _parse_float(p, col, path, idx + 1)
            for p, col in zip(parts, ("t", "nu_aph", "r", "motion_day", "motion_hour"))
        )
        k = len(rows)
        if t != k * step:
            raise TableParseError(
                f"row abscissa {t!r} is not {k} * step", path=path, line=idx + 1
            )
        if not (0.0 <= nu < 360.0):
            raise TableParseError(f"nu_aph {nu!r} not normalized", path=path, line=idx + 1)
        if r <= 0.0:
            raise TableParseError(f"non-positive radius {r!r}", path=path, line=idx + 1)
        if mday <= 0.0:
            raise TableParseError(f"non-positive motion_day {mday!r}", path=path, line=idx + 1)
        if mhour != mday / 24.0:
            raise TableParseError(
                "motion_hour is not motion_day / 24", path=path, line=idx + 1
            )
        rows.append(TableRow(t=t, nu_aph=nu, r=r, motion_per_day=mday, motion_per_hour=mhour))

    if len(rows) != expected:
        raise TableParseError(
            f"expected {expected} rows for P={el.P!r} step={step!r}, found {len(rows)} "
            "(truncated or padded file)",
            path=path,
            line=len(lines),
        )
    return PlanetTable(elements=el, step=step, rows=rows)


def _read_double(path, headers, lines, data_start):
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

    cells = [[None] * n_v for _ in range(n_u)]
    count = 0
    for idx in range(data_start, len(lines)):
        line = lines[idx].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TableParseError(
                f"expected 5 comma-separated values, got {len(parts)}", path=path, line=idx + 1
            )
        try:
            iu, iv = int(parts[0]), int(parts[1])
        except ValueError:
            raise TableParseError(
                f"bad cell indices {parts[0]!r},{parts[1]!r}", path=path, line=idx + 1
            ) from None
        if not (0 <= iu < n_u and 0 <= iv < n_v):
            raise TableParseError(f"cell ({iu},{iv}) outside grid", path=path, line=idx + 1)
        lam = _parse_float(parts[2], "lambda", path, idx + 1)
        beta = _parse_float(parts[3], "beta", path, idx + 1)
        delta = _parse_float(parts[4], "delta", path, idx + 1)
        if not (0.0 <= lam < 360.0):
            raise TableParseError(f"lambda {lam!r} not normalized", path=path, line=idx + 1)
        if not (-90.0 <= beta <= 90.0):
            raise TableParseError(f"beta {beta!r} outside [-90, 90]", path=path, line=idx + 1)
        if delta <= 0.0:
            raise TableParseError(f"non-positive delta {delta!r}", path=path, line=idx + 1)
        if cells[iu][iv] is not None:
            raise TableParseError(f"duplicate cell ({iu},{iv})", path=path, line=idx + 1)
        cells[iu][iv] = (lam, beta, delta)
        count += 1

    if count != n_u * n_v:
        raise TableParseError(
            f"expected {n_u * n_v} cells, found {count} (truncated file)",
            path=path,
            line=len(lines),
        )
    return DoubleEntryTable(planet=planet, earth=earth, n_u=n_u, n_v=n_v, cells=cells)
