"""Loading orbital-element datasets from CSV.

The file is plain UTF-8 CSV with a fixed header
``name,a_au,e,i_deg,Omega_deg,omega_deg,P_days,T_aph_jd`` optionally followed
by correction-term triples (``ampK_deg,perK_days,phK_deg``). ``#`` lines are
comments. Node and perihelion angles are normalized on ingest; everything
else must already satisfy the element invariants.
"""

import math
import re
from pathlib import Path

from .angles import normalize_deg
from .errors import DomainError, ParseError
from .kepler import CorrectionTerm, OrbitalElements, validate_elements

__all__ = [
    "ElementsDataset",
    "load_elements",
    "elements_from_row",
    "elements_row",
    "default_elements_path",
    "REQUIRED_COLUMNS",
]

REQUIRED_COLUMNS = ("name", "a_au", "e", "i_deg", "Omega_deg", "omega_deg", "P_days", "T_aph_jd")

_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def default_elements_path() -> Path:
    """The dataset shipped with the package."""
    return Path(__file__).parent / "data" / "elements.csv"


class ElementsDataset:
    """Validated orbital elements keyed by unique body name."""

    def __init__(self, bodies: dict[str, OrbitalElements]):
        self.bodies = bodies

    def __getitem__(self, name: str) -> OrbitalElements:
        try:
            return self.bodies[name]
        except KeyError:
            raise KeyError(
                f"no body named {name!r} in dataset (have: {', '.join(self.bodies)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.bodies

    def __iter__(self):
        return iter(self.bodies.values())

    def __len__(self) -> int:
        return len(self.bodies)

    @property
    def names(self) -> list[str]:
        return list(self.bodies)


def _parse_header(parts: list[str], path) -> int:
    """Validate the header row; returns the number of correction triples."""
    if tuple(parts[: len(REQUIRED_COLUMNS)]) != REQUIRED_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(REQUIRED_COLUMNS)}; got {','.join(parts)!r}",
            path=path,
            line=1,
        )
    extra = parts[len(REQUIRED_COLUMNS):]
    if len(extra) % 3 != 0:
        raise ParseError(
            "correction columns must come in amp/per/ph triples", path=path, line=1
        )
    for k in range(0, len(extra), 3):
        amp, per, ph = extra[k : k + 3]
        if not (amp.startswith("amp") and per.startswith("per") and ph.startswith("ph")):
            raise ParseError(
                f"unexpected correction columns {extra[k:k + 3]!r} "
                "(expected ampK_deg,perK_days,phK_deg)",
                path=path,
                line=1,
            )
    return len(extra) // 3


def _parse_float(token: str, column: str, body: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DomainError(f"{body}: column {column} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{body}: column {column} must be finite, got {token!r}")
    return value


def elements_from_row(parts: list[str]) -> OrbitalElements:
    """The validated elements of one CSV row, split into its columns: name,
    the seven element columns, then any correction-term triples. Node and
    perihelion angles are normalized; DomainError names what is wrong."""
    name = parts[0]
    if not _NAME_RE.fullmatch(name):
        raise DomainError(f"invalid body name {name!r}")
    if len(parts) < len(REQUIRED_COLUMNS):
        raise DomainError(f"{name}: row is missing element columns")
    a, e, i, Omega, omega, P, T_aph = (
        _parse_float(tok, col, name) for tok, col in zip(parts[1:8], REQUIRED_COLUMNS[1:])
    )
    corrections = []
    extras = parts[8:]
    for k in range(0, len(extras), 3):
        triple = extras[k : k + 3]
        if all(tok == "" for tok in triple):
            continue
        if len(triple) != 3 or any(tok == "" for tok in triple):
            raise DomainError(
                f"{name}: correction term {k // 3 + 1} must set amp, per and ph together"
            )
        amp, per, ph = (_parse_float(tok, f"{col}{k // 3 + 1}", name)
                        for tok, col in zip(triple, ("amp", "per", "ph")))
        corrections.append(CorrectionTerm(amplitude=amp, period=per, phase=ph))

    el = OrbitalElements(name, a, e, i, normalize_deg(Omega), normalize_deg(omega), P, T_aph,
                         corrections=tuple(corrections))
    validate_elements(el)
    return el


def elements_row(el: OrbitalElements) -> str:
    """The CSV row of ``el``, which ``elements_from_row`` reads back bit for
    bit (floats are written with ``repr``). DomainError if the CSV cannot
    hold the body's name."""
    if not _NAME_RE.fullmatch(el.name):
        raise DomainError(f"invalid body name {el.name!r}")
    terms = [x for c in el.corrections for x in (c.amplitude, c.period, c.phase)]
    values = (el.a, el.e, el.i, el.Omega, el.omega, el.P, el.T_aph, *terms)
    return ",".join([el.name, *map(repr, values)])


def load_elements(path) -> ElementsDataset:
    """Parse and validate an elements CSV, with line-level diagnostics."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            "not UTF-8 text", path=path, line=data.count(b"\n", 0, exc.start) + 1
        ) from None

    bodies: dict[str, OrbitalElements] = {}
    header_triples = None
    # Lines end at "\n" only, as the error above counts them: splitlines()
    # would also break at form feeds, U+0085 and U+2028 inside a comment.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if header_triples is None:
            header_triples = _parse_header(parts, path)
            continue

        expected = len(REQUIRED_COLUMNS) + 3 * header_triples
        if not (len(REQUIRED_COLUMNS) <= len(parts) <= expected):
            raise ParseError(
                f"expected {len(REQUIRED_COLUMNS)} to {expected} columns, got {len(parts)}",
                path=path,
                line=lineno,
            )
        try:
            el = elements_from_row(parts)
        except DomainError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        if el.name in bodies:
            raise ParseError(f"duplicate body name {el.name!r}", path=path, line=lineno)
        bodies[el.name] = el

    if header_triples is None:
        raise ParseError("file contains no header row", path=path, line=1)
    if not bodies:
        raise ParseError("file contains no element rows", path=path, line=1)
    return ElementsDataset(bodies=bodies)
