import math
import random
import re

import pytest

from conftest import make_el
from oracles import wrap_abs_deg
from urania import (
    DomainError,
    DoubleEntryTable,
    OpCounter,
    TableNotFoundError,
    TableParseError,
    TableSet,
    build_double_entry,
    build_planet_table,
    counted_direct,
    counted_query,
    geocentric_at,
    geocentric_at_table,
    heliocentric_at_table,
    heliocentric_state,
    load_tables,
    lookup_double,
    lookup_planet,
    position_since_aphelion,
    write_table,
)
from urania import tableio
from urania.evaluate import phase_days


# ---------------------------------------------------------------------------
# lookup_planet
# ---------------------------------------------------------------------------


def test_knot_identity_single(dataset):
    table = build_planet_table(dataset["mars"], 1.0)
    for row in table.rows:
        nu, r = lookup_planet(table, row.t)
        assert nu == row.nu_aph
        assert r == row.r


def test_circular_lookup_is_linear():
    el = make_el(e=0.0, P=128.0)
    table = build_planet_table(el, 2.0)
    rng = random.Random(4)
    for _ in range(300):
        t = rng.uniform(0.0, el.P - 1e-9)
        nu, r = lookup_planet(table, t)
        assert wrap_abs_deg(nu, 360.0 * t / el.P) < 1e-9
        assert r == pytest.approx(el.a, rel=1e-12)


def test_midrow_accuracy_within_frozen_bound(dataset, frozen_bounds):
    table = build_planet_table(dataset["mars"], 1.0)
    bound = frozen_bounds["mars_single_step1_max_nu_deg"] * 1.1
    for k in range(0, len(table.rows) - 1, 13):
        t = table.rows[k].t + 0.5
        nu_t, _ = lookup_planet(table, t)
        nu_d, _ = position_since_aphelion(dataset["mars"], t)
        assert wrap_abs_deg(nu_t, nu_d) <= bound


def test_lookup_planet_counts_no_transcendental(dataset):
    table = build_planet_table(dataset["venus"], 1.0)
    c = OpCounter()
    lookup_planet(table, 101.7, counter=c)
    assert c.transcendental_calls == 0
    assert c.row_accesses == 2
    assert c.adds > 0 and c.muls > 0


def test_lookup_planet_rejects_out_of_range(dataset):
    table = build_planet_table(dataset["venus"], 1.0)
    P = dataset["venus"].P
    for t in (-0.1, P, P + 5.0, math.nan):
        with pytest.raises(DomainError):
            lookup_planet(table, t)


def test_last_interval_interpolates_radius_to_wrap():
    el = make_el(e=0.3, P=100.0)
    table = build_planet_table(el, 3.0)  # last row at 99, interval shrinks to 1 day
    t_last = table.rows[-1].t
    nu, r = lookup_planet(table, t_last + 0.5)
    r_direct = position_since_aphelion(el, t_last + 0.5)[1]
    # bracketed by the last row and the wrapped aphelion row, close to direct
    lo = min(table.rows[-1].r, table.rows[0].r)
    hi = max(table.rows[-1].r, table.rows[0].r)
    assert lo <= r <= hi
    assert r == pytest.approx(r_direct, rel=1e-3)
    assert 0.0 <= nu < 360.0


# ---------------------------------------------------------------------------
# lookup_double
# ---------------------------------------------------------------------------


def test_knot_identity_double(dataset):
    table = build_double_entry(dataset["jupiter"], dataset["earth"], 16, 16)
    du = table.planet.P / table.n_u
    dv = table.earth.P / table.n_v
    for iu in range(table.n_u):
        for iv in range(table.n_v):
            assert lookup_double(table, iu * du, iv * dv) == table.cells[iu][iv]


def wrap_seam_table():
    """Hand-built grid whose longitudes straddle the 0/360 seam."""
    planet = make_el(name="outer", P=800.0)
    earth = make_el(name="earth", a=1.0, e=0.0, i=0.0, Omega=0.0, omega=0.0, P=320.0)
    n = 8
    cells = []
    for iu in range(n):
        col = []
        for iv in range(n):
            lam = 359.0 if iu % 2 == 0 else 1.0
            col.append((lam, 0.5, 2.0))
        cells.append(col)
    return DoubleEntryTable(planet=planet, earth=earth, n_u=n, n_v=n, cells=cells)


def test_wrap_aware_longitude_midpoint():
    table = wrap_seam_table()
    du = table.planet.P / table.n_u
    lam, beta, delta = lookup_double(table, 0.5 * du, 0.0)
    assert lam == 0.0  # 359 -> 1 interpolates through 0, not through 180
    assert beta == 0.5
    assert delta == 2.0


def test_longitude_just_below_the_seam_folds_to_zero():
    # lambda = 0 - 1e-15 folds up to 360.0 exactly, which must fold on to 0.0
    table = wrap_seam_table()
    for col in table.cells:
        col[:] = [(0.0, 0.0, 1.0)] * table.n_v
    table.cells[1][0] = (359.9, 0.0, 1.0)
    lam, beta, delta = lookup_double(table, 1e-12, 0.0)
    assert 0.0 <= lam < 360.0
    assert (lam, beta, delta) == (0.0, 0.0, 1.0)


def test_double_lookup_matches_direct_between_knots(dataset):
    jupiter, earth = dataset["jupiter"], dataset["earth"]
    table = build_double_entry(jupiter, earth, 64, 64)
    tables = TableSet()
    tables.add(table)
    rng = random.Random(31)
    for _ in range(200):
        jd = 2451545.0 + rng.uniform(0.0, 4000.0)
        got = geocentric_at_table(tables, "jupiter", jd)
        want = geocentric_at(jupiter, earth, jd)
        assert wrap_abs_deg(got.lam, want.lam) < 0.1
        assert abs(got.beta - want.beta) < 0.01
        assert abs(got.delta - want.delta) < 0.01


def test_lookup_double_rejects_out_of_range(dataset):
    table = build_double_entry(dataset["mars"], dataset["earth"], 8, 8)
    with pytest.raises(DomainError):
        lookup_double(table, -1.0, 0.0)
    with pytest.raises(DomainError):
        lookup_double(table, 0.0, dataset["earth"].P)


def test_longitude_continuity_across_cells(dataset):
    jupiter, earth = dataset["jupiter"], dataset["earth"]
    table = build_double_entry(jupiter, earth, 64, 64)
    tables = TableSet()
    tables.add(table)
    jd0 = 2451545.0
    prev = geocentric_at_table(tables, "jupiter", jd0).lam
    for k in range(1, 2000):
        cur = geocentric_at_table(tables, "jupiter", jd0 + 0.25 * k).lam
        assert wrap_abs_deg(cur, prev) < 0.2  # no seam artifacts near 0/360
        prev = cur


# ---------------------------------------------------------------------------
# composite queries and counting
# ---------------------------------------------------------------------------


def test_grid_node_jd_returns_cell_verbatim():
    planet = make_el(name="outer", a=2.0, e=0.1, i=1.0, P=800.0, T_aph=2451545.0)
    earth = make_el(name="earth", a=1.0, e=0.05, i=0.0, Omega=0.0, omega=30.0, P=320.0, T_aph=2451545.0)
    tables = TableSet()
    tables.add(build_double_entry(planet, earth, 8, 8))
    pos = geocentric_at_table(tables, "outer", 2451545.0)  # phases (0, 0)
    assert (pos.lam, pos.beta, pos.delta) == tables.double["outer"].cells[0][0]


def test_determinism_same_query_same_counts(default_tables):
    jd = 2451823.625
    a, ca = counted_query("table", "saturn", jd, tables=default_tables)
    b, cb = counted_query("table", "saturn", jd, tables=default_tables)
    assert a == b
    assert ca.as_dict() == cb.as_dict()


def test_counted_direct_matches_pure_chain(dataset):
    rng = random.Random(77)
    bodies = [n for n in dataset.names if n != "earth"]
    earth = dataset["earth"]
    for _ in range(300):
        planet = dataset[rng.choice(bodies)]
        jd = 2451545.0 + rng.uniform(-40000.0, 40000.0)
        pure = geocentric_at(planet, earth, jd)
        counted = counted_direct(OpCounter(), planet, earth, jd)
        assert counted == pure  # bit-identical: the counted chain is derived from this one


def test_table_mode_counts(default_tables, dataset):
    jd = 2451545.0 + 1234.5
    pos_t, ct = counted_query("table", "mars", jd, tables=default_tables)
    pos_d, cd = counted_query("direct", "mars", jd, dataset=dataset)
    assert ct.transcendental_calls == 0
    assert cd.transcendental_calls >= 6
    assert ct.total_ops() < cd.total_ops()
    assert ct.row_accesses == 4
    assert wrap_abs_deg(pos_t.lam, pos_d.lam) < 0.2


def test_missing_table_names_pair(default_tables):
    with pytest.raises(TableNotFoundError, match="pluto"):
        geocentric_at_table(default_tables, "pluto", 2451545.0)


def test_counted_query_rejects_unknown_mode(dataset):
    with pytest.raises(DomainError):
        counted_query("hybrid", "mars", 2451545.0, dataset=dataset)


def test_heliocentric_at_table_hits_knots(dataset):
    mars = dataset["mars"]
    table = build_planet_table(mars, 1.0)
    tables = TableSet()
    tables.add(table)
    jd = mars.T_aph  # phase 0
    nu, r = heliocentric_at_table(tables, "mars", jd)
    assert nu == table.rows[0].nu_aph
    assert r == table.rows[0].r


def test_phase_days_reduces_into_period():
    c = OpCounter()
    rng = random.Random(6)
    for _ in range(500):
        P = rng.uniform(10.0, 1e4)
        T = 2451545.0 + rng.uniform(-1e6, 1e6)
        jd = 2451545.0 + rng.uniform(-1e6, 1e6)
        u = phase_days(c, jd, T, P)
        assert 0.0 <= u < P
    assert c.transcendental_calls == 0


@pytest.mark.parametrize("jd", [math.nan, math.inf, -math.inf])
def test_non_finite_jd_is_a_domain_error_in_both_modes(dataset, jd):
    mars, earth = dataset["mars"], dataset["earth"]
    tables = TableSet()
    tables.add(build_planet_table(mars, 1.0))
    tables.add(build_double_entry(mars, earth, 8, 8))
    with pytest.raises(DomainError):
        geocentric_at_table(tables, "mars", jd)
    with pytest.raises(DomainError):
        heliocentric_at_table(tables, "mars", jd)
    with pytest.raises(DomainError):
        geocentric_at(mars, earth, jd)
    with pytest.raises(DomainError):
        heliocentric_state(mars, jd)


def test_table_set_rejects_a_second_table_for_a_key(dataset):
    tables = TableSet()
    tables.add(build_planet_table(dataset["mars"], 1.0))
    tables.add(build_double_entry(dataset["mars"], dataset["earth"], 8, 8))
    with pytest.raises(DomainError, match="mars"):
        tables.add(build_planet_table(dataset["mars"], 2.0))
    with pytest.raises(DomainError, match="mars"):
        tables.add(build_double_entry(dataset["mars"], dataset["earth"], 8, 8))


def write_pairs(directory, dataset, planets):
    for name in planets:
        for table in (
            build_planet_table(dataset[name], 10.0),
            build_double_entry(dataset[name], dataset["earth"], 8, 8),
        ):
            write_table(table, directory / tableio.table_filename(table))


def test_load_tables_reads_one_file_per_table_used(tmp_path, dataset, monkeypatch):
    write_pairs(tmp_path, dataset, ("mars", "venus"))
    read = []
    real = tableio.read_table

    def counted_read(path):
        read.append(path.name)
        return real(path)

    monkeypatch.setattr(tableio, "read_table", counted_read)
    tables = load_tables(tmp_path)
    assert read == [] and tables.double == {} and tables.single == {}
    geocentric_at_table(tables, "mars", 2451545.0)
    geocentric_at_table(tables, "mars", 2451600.0)
    assert read == ["mars.earth.double.tbl"]
    heliocentric_at_table(tables, "mars", 2451545.0)
    assert read == ["mars.earth.double.tbl", "mars.single.tbl"]
    assert list(tables.double) == ["mars"] and list(tables.single) == ["mars"]
    with pytest.raises(TableNotFoundError, match="jupiter"):
        tables.double_for("jupiter")
    (tmp_path / "sub").mkdir()
    with pytest.raises(TableNotFoundError):
        load_tables(tmp_path / "sub").double_for("../mars")
    assert len(read) == 2


@pytest.mark.parametrize(
    "source, target",
    [
        ("venus.earth.double.tbl", "mars.earth.double.tbl"),
        ("venus.single.tbl", "mars.single.tbl"),
        ("mars.single.tbl", "mercury.earth.double.tbl"),
    ],
)
def test_renamed_table_file_is_rejected(tmp_path, dataset, source, target):
    write_pairs(tmp_path, dataset, ("mars", "venus"))
    (tmp_path / target).write_bytes((tmp_path / source).read_bytes())
    tables = load_tables(tmp_path)
    lookup = tables.double_for if target.endswith(".double.tbl") else tables.single_for
    with pytest.raises(TableParseError, match=re.escape(source)):
        lookup(target.split(".")[0])
    assert tables.double == {} and tables.single == {}
