import functools
import inspect
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import make_el, valid_elements
from oracles import wrap_abs_deg
from urania import (
    DegenerateGeometryError,
    DomainError,
    DoubleEntryTable,
    OpCounter,
    TableNotFoundError,
    TableParseError,
    TableSet,
    build_double_entry,
    build_planet_table,
    counted_query,
    geocentric_at,
    geocentric_at_table,
    heliocentric_at_table,
    load_tables,
    lookup_double,
    lookup_planet,
    position_since_aphelion,
    write_table,
)
from urania import evaluate, tableio
from urania.evaluate import phase_days
from urania.geocentric import reduce_rect
from urania.kepler import MAX_ELAPSED_DAYS, cached_frame, heliocentric_xyz, orbit_frame
from urania.opcount import derive_counted, twin


# ---------------------------------------------------------------------------
# lookup_planet
# ---------------------------------------------------------------------------


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
    twin("lookup_planet")(c, table, 101.7)
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


def _hex(values):
    return [float(x).hex() for x in values]


def test_knot_identity_double(dataset):
    table = build_double_entry(dataset["jupiter"], dataset["earth"], 16, 16)
    for iu in range(table.n_u):
        for iv in range(table.n_v):
            got = lookup_double(table, iu * table.du, iv * table.dv)
            assert _hex(got) == _hex(table.cells[iu][iv])


@settings(max_examples=40, deadline=None)
@given(valid_elements("planet", corrected=False), valid_elements("earth", corrected=False),
       st.integers(8, 20), st.integers(8, 20))
def test_knots_return_the_rectangular_chain_bit_for_bit(planet, earth, n_u, n_v):
    try:
        table = build_double_entry(planet, earth, n_u, n_v)
    except DegenerateGeometryError:
        assume(False)
    du = planet.P / n_u
    dv = earth.P / n_v
    planet_frame, earth_frame = orbit_frame(planet), orbit_frame(earth)
    for iu in range(n_u):
        for iv in range(n_v):
            cell = table.cells[iu][iv]
            assert _hex(lookup_double(table, iu * du, iv * dv)) == _hex(cell)
            want = reduce_rect(heliocentric_xyz(planet, planet_frame, iu * du),
                               heliocentric_xyz(earth, earth_frame, iv * dv))
            assert _hex(cell) == _hex(want)


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
    return DoubleEntryTable(planet=planet, earth=earth, n_u=n, n_v=n,
                            du=planet.P / n, dv=earth.P / n, cells=cells)


def test_knot_returns_a_stored_negative_zero_latitude():
    # -0.0 * 1.0 + 0.0 * x rounds to +0.0: the sum alone loses the sign
    table = wrap_seam_table()
    table.cells[3][5] = (10.0, -0.0, 1.5)
    u, v = 3 * table.du, 5 * table.dv
    assert _hex(lookup_double(table, u, v)) == _hex((10.0, -0.0, 1.5))
    assert _hex(twin("lookup_double")(OpCounter(), table, u, v)) == _hex((10.0, -0.0, 1.5))


@functools.cache
def _counted_reference():
    """The counted twin of the reference lookup, derived as the engine's are,
    calling the counted twins of the engine's _locate and _renormalize."""
    namespace = dict(vars(oracles), _locate=twin("_locate"), _renormalize=twin("_renormalize"))
    derive_counted(inspect.getsource(oracles), ("ref_wrap180", "ref_lookup_double"), namespace,
                   ("ref_wrap180", "_locate", "_renormalize"))
    return namespace["ref_lookup_double"]


def assert_flat_lookup_is_the_reference(table, u, v):
    """lookup_double at (u, v), plain and counted, against the lookup as it
    was written before it became one body: the same bits, and the same
    tally less the 2 muls of the grid spacing it now reads from the table."""
    got = lookup_double(table, u, v)
    counter, ref_counter = OpCounter(), OpCounter()
    assert _hex(twin("lookup_double")(counter, table, u, v)) == _hex(got)
    want = _counted_reference()(ref_counter, table, u, v)
    assert _hex(want) == _hex(oracles.ref_lookup_double(table, u, v))
    iu, u0 = evaluate._locate(u, table.du, table.n_u)
    iv, v0 = evaluate._locate(v, table.dv, table.n_v)
    if (u - u0) / table.du == 0.0 and (v - v0) / table.dv == 0.0:
        # weights (1, 0, 0, 0), at a knot or a fraction that underflows: the
        # stored cell, where the reference may turn -0.0 into +0.0
        assert want == table.cells[iu][iv]
        want = table.cells[iu][iv]
    assert _hex(got) == _hex(want), (u, v)
    ref_counter.muls -= 2
    assert counter == ref_counter


@st.composite
def grid_phase(draw, n, period):
    """A phase in [0, period) at a knot k*period/n or between two knots, or
    a few ulps either side of either; one that falls outside is 0.0 or the
    largest float below the period."""
    step = period / n
    x = draw(st.integers(0, n)) * step
    if draw(st.booleans()):
        x += draw(st.floats(0.0, 1.0)) * step
    k = draw(st.integers(-3, 3))
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    if x < 0.0:
        return 0.0
    return x if x < period else math.nextafter(period, 0.0)


@settings(max_examples=60, deadline=None)
@given(valid_elements("planet", corrected=False), valid_elements("earth", corrected=False),
       st.integers(8, 12), st.integers(8, 12), st.data())
def test_flat_lookup_is_the_reference_on_drawn_grids(planet, earth, n_u, n_v, data):
    try:
        table = build_double_entry(planet, earth, n_u, n_v)
    except DegenerateGeometryError:
        assume(False)
    for _ in range(20):
        u = data.draw(grid_phase(n_u, planet.P))
        v = data.draw(grid_phase(n_v, earth.P))
        assert_flat_lookup_is_the_reference(table, u, v)


# Longitudes either side of the 0/360 seam, and offsets of exactly +-180.
seam_lam = st.one_of(st.floats(359.0, 360.0, exclude_max=True), st.floats(0.0, 1.0),
                     st.sampled_from([0.0, 180.0, 179.99999999999997]))
seam_cell = st.tuples(seam_lam, st.one_of(st.just(-0.0), st.floats(-90.0, 90.0)),
                      st.floats(0.1, 50.0))


def tiled_seam_table(corners):
    """The seam table with the four ``corners`` tiled over it, so that every
    lookup interpolates between all four, in some arrangement."""
    table = wrap_seam_table()
    for iu, col in enumerate(table.cells):
        col[:] = [corners[2 * (iu % 2) + iv % 2] for iv in range(table.n_v)]
    return table


@settings(max_examples=100, deadline=None)
@given(st.lists(seam_cell, min_size=4, max_size=4), st.data())
def test_flat_lookup_is_the_reference_on_the_seam_table(corners, data):
    table = tiled_seam_table(corners)
    for _ in range(20):
        u = data.draw(grid_phase(table.n_u, table.planet.P))
        v = data.draw(grid_phase(table.n_v, table.earth.P))
        assert_flat_lookup_is_the_reference(table, u, v)


def test_flat_lookup_folds_offsets_of_exactly_180_as_the_reference():
    for lams in itertools.product([0.0, 180.0], repeat=4):
        table = tiled_seam_table([(lam, 0.5, 2.0) for lam in lams])
        for fu, fv in ((0.5, 0.5), (0.25, 0.75), (1.5, 0.0)):
            assert_flat_lookup_is_the_reference(table, fu * table.du, fv * table.dv)


def test_wrap_aware_longitude_midpoint():
    table = wrap_seam_table()
    lam, beta, delta = lookup_double(table, 0.5 * table.du, 0.0)
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


@settings(max_examples=300, deadline=None)
@given(
    lam0=st.floats(300.0, 360.0, exclude_max=True),
    slope_u=st.floats(-20.0, 20.0),
    slope_v=st.floats(-20.0, 20.0),
    fu=st.floats(0.0, 7.0, exclude_max=True),
    fv=st.floats(0.0, 7.0, exclude_max=True),
)
def test_lookup_double_is_continuous_across_the_seam(lam0, slope_u, slope_v, fu, fv):
    # Cells hold the plane lam0 + iu*slope_u + iv*slope_v folded into
    # [0, 360), so neighbouring cells straddle the 359 -> 0 edge wherever the
    # plane crosses it. Bilinear interpolation reproduces a plane, so away
    # from the periodic last interval the lookup follows it across the seam.
    table = wrap_seam_table()
    for iu, col in enumerate(table.cells):
        for iv in range(table.n_v):
            col[iv] = ((lam0 + iu * slope_u + iv * slope_v) % 360.0, 0.5, 2.0)
    lam, beta, delta = lookup_double(table, fu * table.du, fv * table.dv)
    assert 0.0 <= lam < 360.0
    assert wrap_abs_deg(lam, lam0 + fu * slope_u + fv * slope_v) < 1e-9
    assert abs(beta - 0.5) < 1e-15 and abs(delta - 2.0) < 1e-15


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lookup_double(table, bad, 0.0)
        with pytest.raises(DomainError):
            lookup_double(table, 0.0, bad)


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
        counted, _ = counted_query("direct", planet.name, jd, dataset=dataset)
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
        u = twin("phase_days")(c, None, jd, T, P)
        assert 0.0 <= u < P
    assert c.transcendental_calls == 0


@settings(max_examples=500, deadline=None)
@given(
    t_aph=st.floats(2.3e6, 2.6e6),
    period=st.floats(10.0, 1e5),
    dt=st.floats(-MAX_ELAPSED_DAYS, MAX_ELAPSED_DAYS, exclude_min=True, exclude_max=True),
)
def test_phase_days_lands_in_the_period_over_the_whole_domain(t_aph, period, dt):
    jd = t_aph + dt
    assume(abs(jd - t_aph) < MAX_ELAPSED_DAYS)
    u = phase_days(None, jd, t_aph, period)
    assert 0.0 <= u < period
    # Within a few ulps of the elapsed time of the exact reduction, around the circle.
    exact = float((Fraction(jd) - Fraction(t_aph)) % Fraction(period))
    gap = abs(u - exact)
    assert min(gap, period - gap) <= 2.0**-15


def test_phase_days_refuses_jds_beyond_the_elapsed_bound():
    below = math.nextafter(MAX_ELAPSED_DAYS, 0.0)
    for jd in (below, -below):
        assert 0.0 <= twin("phase_days")(OpCounter(), None, jd, 0.0, 687.0) < 687.0
    for jd in (MAX_ELAPSED_DAYS, -MAX_ELAPSED_DAYS, 1e20, 1e300):
        with pytest.raises(DomainError, match=re.escape(f"jd={jd!r} ") + ".*outside"):
            phase_days(None, jd, 0.0, 687.0)
        with pytest.raises(DomainError, match="outside the valid domain"):
            twin("phase_days")(OpCounter(), None, jd, 0.0, 687.0)


@pytest.mark.parametrize(
    "jd, period",
    [
        (2451545.0, math.inf),
        (2451545.0, -3.0),
        (2451545.0, 0.0),
        (2451545.0, math.nan),
        (2451545.0, 1e-320),  # the quotient overflows
        (-199470144.623703, 2.071047546834055e-30),  # too short to reduce into
    ],
)
def test_phase_days_refuses_a_period_it_cannot_reduce_by(jd, period):
    with pytest.raises(DomainError):
        phase_days(None, jd, 0.0, period)
    with pytest.raises(DomainError):
        twin("phase_days")(OpCounter(), None, jd, 0.0, period)


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
        heliocentric_xyz(mars, cached_frame(mars), jd - mars.T_aph)


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


# ---------------------------------------------------------------------------
# Kept only for perfbench: the counter parameters of phase_days, lookup_double
# and geocentric_at_table. The harness's composed table pass counts through
# the first two, and a perfbench test's wrapper passes counter=None on to the
# third. Delete this section with them (ROADMAP item 1).
# ---------------------------------------------------------------------------


def test_only_the_perfbench_steps_take_a_counter():
    taking = sorted(name for name, fn in inspect.getmembers(evaluate, inspect.isfunction)
                    if fn.__module__ == evaluate.__name__
                    and "counter" in inspect.signature(fn).parameters)
    assert taking == ["geocentric_at_table", "lookup_double", "phase_days"]


def test_a_counter_passed_in_counts_as_the_twin_does(default_tables):
    for planet, jd in (("mars", 2451545.0), ("jupiter", 2460000.25), ("venus", 2440000.5)):
        table, c, want = default_tables.double_for(planet), OpCounter(), OpCounter()
        phases = []
        for el in (table.planet, table.earth):
            phases.append(phase_days(c, jd, el.T_aph, el.P))
            assert phases[-1] == twin("phase_days")(want, None, jd, el.T_aph, el.P)
        out = lookup_double(table, *phases, counter=c)
        assert _hex(out) == _hex(twin("lookup_double")(want, table, *phases))
        assert c == want
        assert out == geocentric_at_table(default_tables, planet, jd, counter=None)
    with pytest.raises(DomainError, match="outside the valid domain"):
        phase_days(OpCounter(), 1e20, 0.0, 687.0)
    with pytest.raises(TypeError, match="counted_query"):
        geocentric_at_table(default_tables, "mars", 2451545.0, counter=OpCounter())
