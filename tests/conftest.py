import json
import math
import zlib
from pathlib import Path

import pytest
from hypothesis import strategies as st

from urania import (
    CorrectionTerm,
    OrbitalElements,
    TableSet,
    compile_plan,
    default_elements_path,
    load_elements,
)

DATA_DIR = Path(__file__).parent / "data"


def make_el(**overrides) -> OrbitalElements:
    """Synthetic element record with sane defaults, overridable per test."""
    fields = dict(
        name="body",
        a=1.5,
        e=0.2,
        i=3.0,
        Omega=40.0,
        omega=110.0,
        P=500.0,
        T_aph=2451545.0,
        corrections=(),
    )
    fields.update(overrides)
    return OrbitalElements(**fields)


def valid_elements(name, corrected=True):
    """Hypothesis strategy: an OrbitalElements record named ``name`` that
    passes validate_elements, with up to three correction terms, or with
    none unless ``corrected``: the elements a table can hold."""
    angle = st.floats(0.0, 360.0, exclude_max=True)
    correction = st.builds(
        CorrectionTerm, st.floats(0.0, 2.0), st.floats(1.0, 1e4), st.floats(0.0, 360.0)
    )
    return st.builds(
        OrbitalElements,
        name=st.just(name),
        a=st.floats(0.1, 50.0),
        e=st.floats(0.0, 0.999),
        i=st.floats(0.0, 180.0, exclude_max=True),
        Omega=angle,
        omega=angle,
        P=st.floats(10.0, 1e5),
        T_aph=st.floats(2.4e6, 2.5e6),
        corrections=st.lists(correction, max_size=3 if corrected else 0).map(tuple),
    )


def helio_state(l, b, r) -> tuple:
    """The heliocentric ``(x, y, z)`` at ecliptic longitude ``l`` and
    latitude ``b`` (degrees) and radius ``r``, as ``heliocentric_xyz`` has it."""
    lam = math.radians(l)
    bet = math.radians(b)
    r_cos_b = r * math.cos(bet)
    return (r_cos_b * math.cos(lam), r_cos_b * math.sin(lam), r * math.sin(bet))


def reseal(data: bytes) -> bytes:
    """The table file ``data`` with its crc32 field recomputed over its
    current bytes, as ``write_table`` computes it."""
    head, sep, rest = data.partition(b" crc32=")
    head, body = head + sep, rest[8:]
    return head + b"%08x" % zlib.crc32(body, zlib.crc32(head)) + body


def edit_header(path, edit) -> None:
    """Rewrite the table file ``path`` with ``edit`` (str -> str) applied to
    its header lines before the payload line, and its crc32 re-sealed. The
    edit must change the header: one that matches nothing fails here."""
    data = path.read_bytes()
    cut = data.index(b"# payload:")
    header = data[:cut].decode()
    edited = edit(header)
    assert edited != header, "the header edit changed nothing"
    path.write_bytes(reseal(edited.encode() + data[cut:]))


@pytest.fixture(scope="session")
def dataset():
    return load_elements(default_elements_path())


@pytest.fixture(scope="session")
def default_tables(dataset) -> TableSet:
    """The default fidelity configuration, compiled once per session."""
    tables = TableSet()
    for builder, args in compile_plan(dataset, dataset.names, 1.0, (64, 64)):
        tables.add(builder(*args))
    return tables


@pytest.fixture(scope="session")
def frozen_bounds() -> dict:
    with open(DATA_DIR / "frozen_bounds.json") as fh:
        return json.load(fh)
