import pytest
from hypothesis import given, settings, strategies as st

from urania import DomainError, ParseError, default_elements_path, load_elements

HEADER = "name,a_au,e,i_deg,Omega_deg,omega_deg,P_days,T_aph_jd"


def write(tmp_path, body_lines, header=HEADER):
    path = tmp_path / "elements.csv"
    path.write_text("\n".join(["# test data", header, *body_lines]) + "\n")
    return path


def test_shipped_dataset_loads(dataset):
    assert dataset.names == ["mercury", "venus", "earth", "mars", "jupiter", "saturn"]
    assert "earth" in dataset
    for el in dataset:
        assert 0.0 <= el.Omega < 360.0
        assert 0.0 <= el.omega < 360.0
        assert len(el) == 8
    assert dataset["earth"].i == 0.0


def test_default_path_exists():
    assert default_elements_path().is_file()


def test_unknown_body_lookup(dataset):
    with pytest.raises(KeyError, match="pluto"):
        dataset["pluto"]


def test_eccentricity_invariant_names_field_and_line(tmp_path):
    path = write(tmp_path, ["good,1.0,0.1,1.0,0,0,365,2451545", "bad,1.0,1.2,1.0,0,0,365,2451545"])
    with pytest.raises(ParseError, match="eccentricity") as err:
        load_elements(path)
    assert err.value.line == 4
    assert "bad" in str(err.value)


def test_duplicate_name_rejected(tmp_path):
    path = write(tmp_path, ["mars,1.5,0.1,1.0,0,0,687,2451545", "mars,1.5,0.1,1.0,0,0,687,2451545"])
    with pytest.raises(ParseError, match="duplicate"):
        load_elements(path)


def test_bad_header_rejected(tmp_path):
    path = write(tmp_path, ["mars,1.5,0.1,1.0,0,0,687,2451545"], header="name,a,e")
    with pytest.raises(ParseError) as err:
        load_elements(path)
    assert err.value.line == 2  # the header's line, after the comment line


def test_non_numeric_field_names_line(tmp_path):
    path = write(tmp_path, ["mars,1.5,zero,1.0,0,0,687,2451545"])
    with pytest.raises(ParseError, match="not a number") as err:
        load_elements(path)
    assert err.value.line == 3


def test_node_angles_normalized_on_load(tmp_path):
    path = write(tmp_path, ["x,1.5,0.1,1.0,370,-10,687,2451545"])
    el = load_elements(path)["x"]
    assert el.Omega == pytest.approx(10.0, abs=1e-12)
    assert el.omega == pytest.approx(350.0, abs=1e-12)


def test_invalid_name_rejected(tmp_path):
    path = write(tmp_path, ["bad name!,1.5,0.1,1.0,0,0,687,2451545"])
    with pytest.raises(ParseError, match="name"):
        load_elements(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing\n")
    with pytest.raises(ParseError, match="no header row"):
        load_elements(path)
    with pytest.raises(ParseError, match="no element rows"):
        load_elements(write(tmp_path, []))


ROW = "mars,1.5,0.1,1.0,0,0,687,2451545"


@pytest.mark.parametrize("header, row, line, message", [
    (HEADER + ",amp1_deg,per1_days,ph1_deg", ROW + ",0.25,4000,30", 2,
     "extra columns 'amp1_deg,per1_days,ph1_deg'"),
    (HEADER, ROW + ",0.25,4000,30", 3, "mars: expected 8 columns, got 11"),
    (HEADER, "mars,1.5,0.1,1.0,inf,0,687,2451545", 3, "column Omega_deg must be finite"),
])
def test_a_malformed_row_or_header_names_its_fault(tmp_path, header, row, line, message):
    with pytest.raises(ParseError, match=message) as err:
        load_elements(write(tmp_path, [row], header=header))
    assert err.value.line == line


def test_text_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{HEADER}\n".encode() + b"m\xe9rs,1.5,0.09,1.8,49.5,286.4,686.98,2451164.5\n")
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        load_elements(path)
    assert err.value.line == 2


# Characters that str.splitlines() takes for line ends and "\n" splitting does not.
_LINE_BREAKS_IN_TEXT = ["\f", "\v", "\x1c", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _LINE_BREAKS_IN_TEXT, ids=lambda c: f"U+{ord(c):04X}")
def test_a_line_break_character_in_a_comment_stays_in_the_comment(tmp_path, sep):
    path = tmp_path / "elements.csv"
    comment, good = f"# note{sep}continued", "good,1.0,0.1,1.0,0,0,365,2451545"
    path.write_bytes("\n".join([HEADER, comment, good]).encode("utf-8"))
    assert load_elements(path).names == ["good"]
    bad = "bad,1.0,1.2,1.0,0,0,365,2451545"
    path.write_bytes("\n".join([HEADER, comment, good, bad]).encode("utf-8"))
    with pytest.raises(ParseError, match="eccentricity") as err:
        load_elements(path)
    assert err.value.line == 4


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "elements.csv"


_INSERTS = [b",", b"\n", b"\r", b"#", b" ", b"\x00", b"\xff", *(c.encode() for c in _LINE_BREAKS_IN_TEXT)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_elements_bytes_load_or_raise_a_package_error(mutant_path, data):
    # Bit flips, truncations and inserted separators of the shipped file:
    # each mutant loads or raises ParseError or DomainError, never a bare
    # ValueError, IndexError or UnicodeError.
    mutant = default_elements_path().read_bytes()
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(["flip", "truncate", "insert"]), label="kind")
        pos = data.draw(st.integers(0, len(mutant)), label="position")
        if kind == "truncate":
            mutant = mutant[:pos]
        elif kind == "insert":
            mutant = mutant[:pos] + data.draw(st.sampled_from(_INSERTS), label="insert") + mutant[pos:]
        elif pos < len(mutant):
            bit = data.draw(st.integers(0, 7), label="bit")
            mutant = mutant[:pos] + bytes([mutant[pos] ^ (1 << bit)]) + mutant[pos + 1:]
    mutant_path.write_bytes(mutant)
    try:
        load_elements(mutant_path)
    except (ParseError, DomainError):
        pass
