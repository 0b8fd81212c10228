import math
import re
import sys
from array import array

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import edit_header, make_el, reseal, valid_elements
from urania import (
    DegenerateGeometryError,
    DomainError,
    DoubleEntryTable,
    OrbitalElements,
    TableParseError,
    TableVersionError,
    build_double_entry,
    build_planet_table,
    lookup_grid,
    read_table,
    table_filename,
    write_table,
)
from urania import tableio
from urania.dataset import elements_from_row, elements_row

# The opening lines of a format v1 file: all text, one data row per line.
V1_TEXT = (
    "# urania-table v1\n# kind=single\n# name=proto\n"
    "# elements: a=1.5 e=0.34999999999999998 i=3 Omega=40 omega=110 P=96 T_aph=2451545\n"
    "# step=4\n# columns: t,nu_aph,r,motion_day,motion_hour\n"
    "0,0,2.0249999999999999,1.5466823237497036,0.064445096822904318\n"
)
# The header of a format v2 file: key=value pairs and a float64 payload.
V2_TEXT = (
    "# urania-table v2\n# kind=single\n# name=proto\n"
    "# elements: a=1.5 e=0.34999999999999998 i=3 Omega=40 omega=110 P=96 T_aph=2451545\n"
    "# step=4\n# payload: floats=72 crc32=00000000\n"
)
# The header of a format v3 file: v4's, with nu_aph, r, motion_day per row.
V3_TEXT = (
    "# urania-table v3\n# kind: single\n# step: 4.0\n"
    "# body: proto,1.5,0.35,3.0,40.0,110.0,96.0,2451545.0\n"
    "# payload: floats=72 crc32=00000000\n"
)
# The header of a format v4 file: rows a step apart, the last interval shorter.
V4_TEXT = V3_TEXT.replace("v3", "v4").replace("floats=72", "floats=48")


def single_table(**overrides):
    el = make_el(**{"name": "proto", "e": 0.35, "P": 96.0, **overrides})
    return build_planet_table(el, 4.0)


def double_table(**overrides):
    planet = make_el(**{"name": "proto", "a": 2.4, "e": 0.2, "i": 2.5, "P": 700.0, **overrides})
    earth = make_el(name="earth", a=1.0, e=0.03, i=0.0, Omega=0.0, omega=70.0, P=300.0)
    return build_double_entry(planet, earth, 8, 8)


def written(tmp_path, table):
    path = tmp_path / table_filename(table)
    write_table(table, path)
    return path


def _bits(table):
    """Every float of ``table``'s cells or knots as hex, so -0.0 != 0.0."""
    return [float.hex(x) for x in getattr(table, "knots", None) or table.cells]


# a coplanar pair's cells hold signed zero latitudes, which must come back as stored
@pytest.mark.parametrize("overrides", [{}, {"i": 0.0}], ids=["plain", "coplanar"])
@pytest.mark.parametrize("build", [single_table, double_table])
def test_round_trip_bits(tmp_path, build, overrides):
    table = build(**overrides)
    again = read_table(written(tmp_path, table))
    assert again == table
    assert _bits(again) == _bits(table)


def test_a_read_grid_and_its_rows_hold_no_spare_capacity(tmp_path):
    # resident size: an array grown by frombytes or extend keeps a 16th spare
    table = read_table(written(tmp_path, double_table()))
    for held in (table.knots, table.cells[0], table.cells[7]):
        assert sys.getsizeof(held) == sys.getsizeof(held[:])


@settings(max_examples=25, deadline=None)
@given(valid_elements("planet"), valid_elements("earth"),
       st.integers(8, 12), st.integers(8, 12))
def test_grid_spacing_is_the_period_over_the_shape_from_builder_and_reader(
    tmp_path_factory, planet, earth, n_u, n_v
):
    try:
        table = build_double_entry(planet, earth, n_u, n_v)
    except DegenerateGeometryError:
        assume(False)
    want = [(planet.P / n_u).hex(), (earth.P / n_v).hex()]
    assert [table.du.hex(), table.dv.hex()] == want
    again = read_table(written(tmp_path_factory.mktemp("grid"), table))
    assert [again.du.hex(), again.dv.hex()] == want
    assert again == table


def test_write_is_deterministic(tmp_path):
    for table in (single_table(), double_table()):
        first, second = tmp_path / "first.tbl", tmp_path / "second.tbl"
        write_table(table, first)
        write_table(table, second)
        assert first.read_bytes() == second.read_bytes()
        assert str(tmp_path).encode() not in first.read_bytes()
    with pytest.raises(TypeError, match="cannot serialize str"):
        write_table("proto", tmp_path / "proto.single.tbl")


def test_version_mismatch(tmp_path):
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: text.replace("# urania-table v5\n", "# urania-table v99\n"))
    with pytest.raises(TableVersionError):
        read_table(path)


def test_v1_file_asks_for_gen(tmp_path):
    path = tmp_path / "proto.single.tbl"
    for text in (V1_TEXT, V2_TEXT, V3_TEXT, V4_TEXT):
        path.write_text(text)
        with pytest.raises(TableVersionError, match="urania gen"):
            read_table(path)


def test_missing_magic(tmp_path):
    path = tmp_path / "t.tbl"
    path.write_text("# kind=single\n")
    with pytest.raises(TableParseError) as err:
        read_table(path)
    assert err.value.line == 1


def test_truncated_single_table(tmp_path):
    path = written(tmp_path, single_table())
    path.write_bytes(path.read_bytes()[: -3 * 16])  # drop the last three rows
    with pytest.raises(TableParseError, match="truncated"):
        read_table(path)
    path.write_bytes(path.read_bytes()[:40])  # within the header
    with pytest.raises(TableParseError, match="without its '# payload:' line"):
        read_table(path)


def test_truncated_double_table(tmp_path):
    path = written(tmp_path, double_table())
    path.write_bytes(path.read_bytes()[:-24])  # drop the final cell
    with pytest.raises(TableParseError, match="truncated"):
        read_table(path)


def _resized(path, width, grow):
    """Repeat (grow) or drop the file's final row or cell of ``width``
    floats, with the payload line's float count and the crc32 made to match."""
    data = path.read_bytes()
    floats = int(data.split(b"floats=")[1].split(b" ")[0])
    data = data + data[-8 * width:] if grow else data[:-8 * width]
    new = floats + width if grow else floats - width
    path.write_bytes(reseal(data.replace(b"floats=%d " % floats, b"floats=%d " % new, 1)))


def test_payload_of_wrong_length_rejected(tmp_path):
    for table, width, what in ((single_table(), 2, "rows"), (double_table(), 3, "cells")):
        for grow in (False, True):
            path = written(tmp_path, table)
            _resized(path, width, grow)
            with pytest.raises(TableParseError, match=rf"expected \d+ {what}.* \(\d+ floats\)"):
                read_table(path)


def test_out_of_range_value_rejected(tmp_path):
    # A double-entry file reads whole; the first lookup in a row that holds
    # or borders the bad knot (row 0, and the last row, whose next is row 0)
    # raises, naming the file, and so does every later one.
    bad_cells = {
        (400.0, 0.0, 1.0): "lambda 400.0 is not in",
        (360.0, 0.0, 1.0): "lambda 360.0 is not in",
        (-1e-300, 0.0, 1.0): "lambda -1e-300 is not in",
        (10.0, 90.5, 1.0): "beta 90.5 is not in",
        (10.0, -90.5, 1.0): "beta -90.5 is not in",
        (10.0, 0.0, 0.0): "delta 0.0 is not positive",
        (10.0, math.nan, 1.0): "non-finite",
        (10.0, 0.0, math.inf): "non-finite",
    }
    for cell, message in bad_cells.items():
        table = double_table()
        table.knots[0:3] = array("d", cell)
        path = written(tmp_path, table)
        read = read_table(path)
        for iu in (0, 7, 0, 7):
            with pytest.raises(TableParseError, match=message) as exc:
                lookup_grid(read, float(iu), 3.5)
            assert exc.value.path == path
            assert str(exc.value).startswith(f"{path}: ")
        assert lookup_grid(read, 3.0, 0.0) == table.knot(3, 0)
    bad_rows = [
        (0, 360.0, "nu_aph 360.0 is not in"),
        (2, -1.0, "r -1.0 is not positive"),
        (2, math.nan, "non-finite"),
    ]
    for block, value, message in bad_rows:
        table = single_table()
        table.cells[block * table.n + 5] = value  # row 5's nu_aph or r
        with pytest.raises(TableParseError, match=message):
            read_table(written(tmp_path, table))


@pytest.fixture(scope="module")
def clean_grid(tmp_path_factory):
    """The 8x8 ``double_table()``, its knot lookups as bits at every integer
    cell, and a directory to write its corrupted copies to."""
    table = double_table()
    bits = {(iu, iv): [x.hex() for x in lookup_grid(table, float(iu), float(iv))]
            for iu in range(8) for iv in range(8)}
    return table, bits, tmp_path_factory.mktemp("grid")


# (column, value): a value each column's test refuses, and the non-finite ones
_BAD_KNOTS = [
    (column, value)
    for column, refused in enumerate(((360.0, 400.0, -1e-300, -5.0), (90.5, -90.5, 1e6),
                                      (0.0, -0.0, -1.0)))
    for value in (*refused, math.nan, math.inf, -math.inf)
]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 7), j=st.integers(0, 7), bad_knot=st.sampled_from(_BAD_KNOTS))
def test_a_bad_knot_refuses_exactly_the_rows_that_read_it(clean_grid, k, j, bad_knot):
    table, bits, directory = clean_grid
    column, value = bad_knot
    bad = DoubleEntryTable(table.planet, table.earth, 8, 8, table.du, table.dv, table.knots[:])
    bad.knots[3 * (8 * k + j) + column] = value
    path = written(directory, bad)  # write_table seals a valid crc32
    read = read_table(path)
    refused = {k, (k - 1) % 8}
    for (iu, iv), clean in bits.items():
        if iu in refused:
            with pytest.raises(TableParseError) as exc:
                lookup_grid(read, float(iu), float(iv))
            assert exc.value.path == path
        else:
            assert [x.hex() for x in lookup_grid(read, float(iu), float(iv))] == clean


@pytest.mark.parametrize("order", [range(8), range(7, -1, -1), (3, 0, 6, 1, 7, 2, 5, 4)])
def test_deriving_every_row_checks_each_knot_row_once(clean_grid, monkeypatch, order):
    table, _, directory = clean_grid
    read = read_table(written(directory, table))
    knot_rows = [bytes(read.knots[24 * k:24 * (k + 1)]) for k in range(8)]
    checked = []
    real = tableio._check_values

    def counted_check(values, *args):
        checked.append(knot_rows.index(bytes(values)))
        return real(values, *args)

    monkeypatch.setattr(tableio, "_check_values", counted_check)
    for iu in order:
        lookup_grid(read, float(iu), 0.5)
    assert sorted(checked) == list(range(8))


def test_period_beyond_the_direct_chains_domain_is_rejected(tmp_path):
    # A row's knot is a direct-chain solve, defined below 2**36 days.
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: text.replace(",96.0,", ",1e307,"))
    with pytest.raises(TableParseError, match=r"invalid body header: .*P < 2\*\*36") as err:
        read_table(path)
    assert err.value.line == 4
    with pytest.raises(DomainError, match=r"P < 2\*\*36"):
        build_planet_table(make_el(P=2.0**36), 2.0**33)


def test_anomaly_that_does_not_increase_is_rejected(tmp_path):
    table = single_table()
    nu = table.cells  # its first block is each row's nu_aph
    nu[5], nu[6] = nu[6], nu[5]
    with pytest.raises(TableParseError, match="not strictly increasing between rows 5 and 6"):
        read_table(written(tmp_path, table))
    # every row a little ahead, and half a degree past a turn in all
    nu[:24] = array("d", (k * 360.5 / 23 % 360.0 for k in range(24)))
    with pytest.raises(TableParseError, match="spans a full revolution"):
        read_table(written(tmp_path, table))
    # every row a little ahead, and a quarter turn in all: the last row's
    # advance to row 0, one period on, runs backwards
    nu[:24] = array("d", (k * 90.0 / 24 for k in range(24)))
    with pytest.raises(TableParseError, match="not strictly increasing between rows 23 and 0"):
        read_table(written(tmp_path, table))


@pytest.mark.parametrize("rows", ["7", "1048577", "0", "+24", "2_4", "24.0", "\u0662\u0664"])
def test_a_rows_header_the_compiler_cannot_give_is_refused(tmp_path, rows):
    # a step within [P/2**20, P/8] gives 8 to 2**20 rows, spelt in ASCII digits
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: text.replace("# rows: 24\n", f"# rows: {rows}\n"))
    with pytest.raises(TableParseError, match=r"invalid rows header: .*8 to 2\*\*20 rows") as err:
        read_table(path)
    assert err.value.line == 3


@pytest.mark.parametrize("build", [single_table, double_table], ids=["single", "double"])
def test_a_body_row_with_extra_columns_is_refused_at_read(tmp_path, build):
    # a body row is the elements CSV's eight columns; three more are refused, not ignored
    table = build()
    row = elements_row(table.elements if build is single_table else table.planet)
    path = written(tmp_path, table)
    edit_header(path, lambda text: text.replace(row, row + ",0.125,4000.0,12.5"))
    with pytest.raises(TableParseError, match="invalid body header: proto: expected 8 columns, "
                       "got 11") as err:
        read_table(path)
    assert err.value.line == 4


@pytest.mark.parametrize("key, first", [("kind", 2), ("rows", 3), ("body", 4)])
def test_a_repeated_header_key_is_refused(tmp_path, key, first):
    # a key given twice is refused, even with the same value
    path = written(tmp_path, single_table())

    def repeat(text):
        return text + next(line for line in text.splitlines(True) if line.startswith(f"# {key}:"))

    edit_header(path, repeat)
    with pytest.raises(TableParseError, match=f"header key '{key}' repeats the one on line "
                       f"{first}") as err:
        read_table(path)
    assert err.value.line == 5


def test_a_body_too_fast_for_the_motion_stencil_is_refused_at_read(tmp_path):
    # at e = 0.9 the body sweeps 180 degrees in 1.8 days around perihelion,
    # under the 4-day spacing of its 24 rows, so the rows line is at fault
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: text.replace("proto,1.5,0.35,", "proto,1.5,0.9,"))
    with pytest.raises(TableParseError, match="invalid rows header: proto: sweeps 180") as err:
        read_table(path)
    assert err.value.line == 3


def test_shape_header_over_the_cell_bound_is_a_parse_error(tmp_path):
    path = written(tmp_path, double_table())
    edit_header(path, lambda text: text.replace("# shape: 8x8\n", "# shape: 2048x1024\n"))
    with pytest.raises(TableParseError, match=re.escape("at most 2**20 cells, got 2048x1024")):
        read_table(path)


def test_crc_mismatch_rejected(tmp_path):
    path = written(tmp_path, double_table())
    data = bytearray(path.read_bytes())
    data[-100] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(TableParseError, match="crc32"):
        read_table(path)


def test_crc_field_compared_as_text(tmp_path):
    path = written(tmp_path, single_table())
    data = path.read_bytes()
    head, sep, rest = data.partition(b" crc32=")
    assert rest[:8] != rest[:8].upper()  # this table's crc32 holds a hex letter
    path.write_bytes(head + sep + rest[:8].upper() + rest[8:])
    with pytest.raises(TableParseError, match="crc32"):
        read_table(path)
    path.write_bytes(reseal(data.replace(b"# payload: floats=", b"# payload: floats=+")))
    with pytest.raises(TableParseError, match="malformed payload line"):
        read_table(path)


def test_unknown_header_keys_ignored(tmp_path):
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: text.replace(
        "# kind: single\n", "# kind: single\n# compiled-by: unit-test\n# note: free text header\n"
    ))
    table = read_table(path)
    assert table.elements.name == "proto"


def test_missing_mandatory_key(tmp_path):
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: "".join(
        line for line in text.splitlines(True) if not line.startswith("# rows:")
    ))
    with pytest.raises(TableParseError, match="missing mandatory header key 'rows'"):
        read_table(path)
    edit_header(path, lambda text: text.replace("# kind: single", "# kind: triple"))
    with pytest.raises(TableParseError, match="unknown table kind 'triple'"):
        read_table(path)


def test_invalid_elements_header_rejected(tmp_path):
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: text.replace("proto,1.5,0.35,", "proto,1.5,1.5,"))
    with pytest.raises(TableParseError, match="eccentricity") as err:
        read_table(path)
    assert err.value.line == 4
    edit_header(path, lambda text: text.replace("proto,1.5,1.5,", "proto,1.5,"))
    with pytest.raises(TableParseError, match="proto: row is missing element columns"):
        read_table(path)


def test_header_line_without_key_rejected(tmp_path):
    path = written(tmp_path, single_table())
    edit_header(path, lambda text: text.replace("# kind: single\n", "# kind: single\n# note\n"))
    with pytest.raises(TableParseError, match="key: value") as err:
        read_table(path)
    assert err.value.line == 3


@pytest.mark.parametrize("name", ["a,b", "a\nb", ".hidden"])
def test_name_the_csv_cannot_hold_is_not_written(tmp_path, name):
    table = build_planet_table(make_el(name=name, P=96.0), 4.0)
    path = tmp_path / "t.tbl"
    with pytest.raises(DomainError, match="name"):
        write_table(table, path)
    assert not path.exists()


def _positive():
    return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _angle(top):
    return st.floats(min_value=0.0, max_value=top, exclude_max=True)


_ELEMENTS = st.builds(
    OrbitalElements,
    name=st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_.-]*", fullmatch=True),
    a=st.floats(min_value=0.0, max_value=1e100, exclude_min=True, exclude_max=True),
    e=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    i=_angle(180.0),
    Omega=_angle(360.0),
    omega=_angle(360.0),
    P=_positive(),
    T_aph=st.floats(allow_nan=False, allow_infinity=False),
)


def _element_bits(el):
    return el.name, [float.hex(x) for x in el[1:]]


@settings(max_examples=300, deadline=None)
@given(el=_ELEMENTS)
def test_elements_row_round_trip_is_bit_exact(el):
    again = elements_from_row(elements_row(el).split(","))
    assert again == el
    assert _element_bits(again) == _element_bits(el)


def test_filenames():
    assert table_filename(single_table()) == "proto.single.tbl"
    assert table_filename(double_table()) == "proto.earth.double.tbl"


@pytest.mark.parametrize("build", [single_table, double_table], ids=["single", "double"])
def test_a_renamed_file_is_refused(tmp_path, build):
    path = written(tmp_path, build())
    renamed = path.rename(tmp_path / "venus.single.tbl")
    with pytest.raises(TableParseError, match=re.escape(path.name)):
        read_table(renamed)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small valid single-entry and double-entry file, as bytes by file
    name, and the directory to write mutants to under that name."""
    directory = tmp_path_factory.mktemp("fuzz")
    files = {}
    for table in (single_table(), double_table()):
        path = written(directory, table)
        assert read_table(path) == table
        files[table_filename(table)] = path.read_bytes()
    return files, directory


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_byte_mutation_or_truncation_is_rejected(valid_files, data):
    files, directory = valid_files
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    valid, path = files[name], directory / name
    if data.draw(st.booleans(), label="truncate"):
        mutant = valid[: data.draw(st.integers(0, len(valid) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(valid) - 1), label="position")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != valid[pos]), label="byte")
        mutant = valid[:pos] + bytes([byte]) + valid[pos + 1:]
    path.write_bytes(mutant)
    with pytest.raises((TableParseError, TableVersionError)):
        read_table(path)
