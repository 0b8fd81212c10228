import json
import zlib
from pathlib import Path

import pytest

from urania import (
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
