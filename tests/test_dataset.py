import pytest

from urania import ParseError, default_elements_path, load_elements

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
        assert el.corrections == ()
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
    assert err.value.line == 1


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


def test_correction_columns(tmp_path):
    header = HEADER + ",amp1_deg,per1_days,ph1_deg"
    path = write(
        tmp_path,
        ["plain,1.5,0.1,1.0,0,0,687,2451545,,,",
         "wavy,5.2,0.05,1.3,100,274,4333,2449142,0.25,4000,30"],
        header=header,
    )
    ds = load_elements(path)
    assert ds["plain"].corrections == ()
    (term,) = ds["wavy"].corrections
    assert (term.amplitude, term.period, term.phase) == (0.25, 4000.0, 30.0)


def test_partial_correction_triple_rejected(tmp_path):
    header = HEADER + ",amp1_deg,per1_days,ph1_deg"
    path = write(tmp_path, ["wavy,5.2,0.05,1.3,100,274,4333,2449142,0.25,,30"], header=header)
    with pytest.raises(ParseError, match="together"):
        load_elements(path)


def test_invalid_name_rejected(tmp_path):
    path = write(tmp_path, ["bad name!,1.5,0.1,1.0,0,0,687,2451545"])
    with pytest.raises(ParseError, match="name"):
        load_elements(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing\n")
    with pytest.raises(ParseError):
        load_elements(path)


def test_text_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{HEADER}\n".encode() + b"m\xe9rs,1.5,0.09,1.8,49.5,286.4,686.98,2451164.5\n")
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        load_elements(path)
    assert err.value.line == 2
