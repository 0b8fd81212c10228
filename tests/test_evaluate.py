import functools
import inspect
import itertools
import math
import random
import re
from array import array
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
    lookup_grid,
    lookup_planet,
    position_since_aphelion,
    wrap_diff_deg,
    write_table,
)
from urania import evaluate, tableio
from urania.evaluate import phase_days
from urania.dataset import MAX_ELAPSED_DAYS
from urania.geocentric import reduce_rect
from urania.kepler import cached_frame, heliocentric_xyz, orbit_frame
from urania.opcount import derive_counted, twin
from urania.tableio import coefficient_row


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


@pytest.mark.parametrize("step", [0.7, 1.3])
def test_rows_whose_quotient_rounds_a_row_off_return_their_values(step):
    # At these steps int((k*step)/step) is k - 1 at some rows, and the float
    # just below k*step divides to k at others: _locate nudges both into the
    # interval that holds them, so each row's own abscissa returns its values.
    table = build_planet_table(make_el(P=50.0), step)
    n = len(table.rows)
    rounded_low = rounded_up = 0
    for k, row in enumerate(table.rows):
        assert _hex(lookup_planet(table, row.t)) == _hex((row.nu_aph, row.r))
        assert evaluate._locate(row.t, step, n) == (k, row.t)
        rounded_low += int(row.t / step) == k - 1
        below = math.nextafter(row.t, 0.0)
        if k and below / step >= k:
            assert evaluate._locate(below, step, n) == (k - 1, table.rows[k - 1].t)
            rounded_up += 1
    assert rounded_low >= 3 and rounded_up >= 3
    # the last phase below P can divide to n itself, which is clamped to the last row
    assert evaluate._locate(math.nextafter(10.0, 0.0), 10.0 / 39, 39) == (38, 38 * (10.0 / 39))


def test_each_interval_ends_at_the_next_rows_anomaly(default_tables):
    # A row's motion carries the anomaly to the next row's, the last row's to
    # row 0 one period on, so the interpolant is continuous across each row.
    for table in default_tables.single.values():
        rows, P = table.rows, table.elements.P
        for k in range(1, len(rows) + 1):
            below = math.nextafter(rows[k].t if k < len(rows) else P, 0.0)
            nu, _ = lookup_planet(table, below)
            assert wrap_abs_deg(nu, rows[k % len(rows)].nu_aph) < 1e-9, (table.elements.name, k)


@settings(max_examples=100, deadline=None)
@given(valid_elements("planet"), st.integers(8, 400),
       st.floats(0.0, 1.0, exclude_max=True))
def test_between_two_rows_the_anomaly_lies_between_theirs(el, per_period, fraction):
    try:
        table = build_planet_table(el, el.P / per_period)
    except DomainError:  # too fast for this step
        assume(False)
    rows = table.rows
    for k, row in enumerate(rows):
        t_next = rows[k + 1].t if k + 1 < len(rows) else el.P
        t = row.t + fraction * (t_next - row.t)
        if t < t_next:
            nu, _ = lookup_planet(table, t)
            assert wrap_diff_deg(nu, row.nu_aph) >= -1e-9, (k, t)
            assert wrap_diff_deg(rows[(k + 1) % len(rows)].nu_aph, nu) >= -1e-9, (k, t)


# ---------------------------------------------------------------------------
# lookup_double
# ---------------------------------------------------------------------------


def _hex(values):
    return [float(x).hex() for x in values]


def test_knot_identity_double(dataset):
    table = build_double_entry(dataset["jupiter"], dataset["earth"], 16, 16)
    for iu in range(table.n_u):
        for iv in range(table.n_v):
            got = lookup_grid(table, float(iu), float(iv))
            assert _hex(got) == _hex(table.knot(iu, iv))


@settings(max_examples=40, deadline=None)
@given(valid_elements("planet"), valid_elements("earth"),
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
            cell = table.knot(iu, iv)
            assert _hex(lookup_grid(table, float(iu), float(iv))) == _hex(cell)
            want = reduce_rect(heliocentric_xyz(planet, planet_frame, iu * du),
                               heliocentric_xyz(earth, earth_frame, iv * dv))
            assert _hex(cell) == _hex(want)


def seam_knot(iu, iv):
    """Longitudes either side of the 0/360 seam, alternating row by row."""
    return (359.0 if iu % 2 == 0 else 1.0, 0.5, 2.0)


def wrap_seam_table(knot=seam_knot):
    """Hand-built 8x8 grid whose cell (iu, iv) holds ``knot(iu, iv)``."""
    planet = make_el(name="outer", P=800.0)
    earth = make_el(name="earth", a=1.0, e=0.0, i=0.0, Omega=0.0, omega=0.0, P=320.0)
    knots = array("d", [x for iu in range(8) for iv in range(8) for x in knot(iu, iv)])
    return DoubleEntryTable(planet, earth, 8, 8, planet.P / 8, earth.P / 8, knots)


def test_knot_returns_a_stored_negative_zero_latitude(tmp_path):
    # -0.0 * 1.0 + 0.0 * x rounds to +0.0: the sum alone loses the sign
    stored = (10.0, -0.0, 1.5)
    table = wrap_seam_table(lambda iu, iv: stored if (iu, iv) == (3, 5) else seam_knot(iu, iv))
    tables = TableSet(tmp_path)
    write_table(table, tmp_path / tableio.table_filename(table))
    for held in (table, tables.double_for("outer")):  # as built, and as read back
        assert _hex(lookup_grid(held, 3.0, 5.0)) == _hex(stored)
        assert _hex(twin("lookup_grid")(OpCounter(), held, 3.0, 5.0)) == _hex(stored)


@functools.cache
def _counted_reference():
    """The counted twin of the reference lookup, derived as the engine's are,
    calling the counted twin of the engine's normalize_deg."""
    namespace = dict(vars(oracles), normalize_deg=twin("normalize_deg"))
    derive_counted(inspect.getsource(oracles), ("ref_bilinear", "ref_lookup_double"), namespace,
                   ("ref_bilinear", "normalize_deg"))
    return namespace["ref_lookup_double"]


def assert_flat_lookup_is_the_reference(table, u, v):
    """lookup_double at (u, v), plain and counted, against the reference
    lookup factored into calls: the same bits, and the same tally less the 2
    muls of the grid spacing the engine reads from the table, and plus the
    one row fetch that stands in the engine for the reference's plain call
    to ref_cell. The tally holds whether the engine derived the row in this
    call or an earlier one."""
    got = lookup_double(table, u, v)
    counter, ref_counter = OpCounter(), OpCounter()
    assert _hex(twin("lookup_double")(counter, table, u, v)) == _hex(got)
    want = _counted_reference()(ref_counter, table, u, v)
    assert _hex(want) == _hex(oracles.ref_lookup_double(table, u, v))
    assert _hex(got) == _hex(want), (u, v)
    ref_counter.muls -= 2
    ref_counter.row_accesses += 1
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
@given(valid_elements("planet"), valid_elements("earth"),
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
    return wrap_seam_table(lambda iu, iv: corners[2 * (iu % 2) + iv % 2])


@settings(max_examples=100, deadline=None)
@given(st.lists(seam_cell, min_size=4, max_size=4), st.data())
def test_flat_lookup_is_the_reference_on_the_seam_table(corners, data):
    table = tiled_seam_table(corners)
    for _ in range(20):
        u = data.draw(grid_phase(table.n_u, table.planet.P))
        v = data.draw(grid_phase(table.n_v, table.earth.P))
        assert_flat_lookup_is_the_reference(table, u, v)


def test_flat_lookup_folds_offsets_of_exactly_180_as_the_reference():
    # and offsets just past 180, which fold
    for lams in itertools.product([0.0, 180.0, 180.5], repeat=4):
        table = tiled_seam_table([(lam, 0.5, 2.0) for lam in lams])
        for fu, fv in ((0.5, 0.5), (0.25, 0.75), (1.5, 0.0)):
            assert_flat_lookup_is_the_reference(table, fu * table.du, fv * table.dv)


def grid_point(n):
    """A grid coordinate in [0, n]: a knot, n itself (the wrap column's
    knot), or any point between."""
    return st.one_of(st.integers(0, n).map(float), st.just(float(n)),
                     st.floats(0.0, float(n)))


def assert_near_four_corner(table, x, y):
    got = lookup_grid(table, x, y)
    lam, beta, delta = oracles.four_corner_lookup(table, x, y)
    assert 0.0 <= got.lam < 360.0
    assert wrap_abs_deg(got.lam, lam) < 1e-12, (x, y)
    assert abs(got.beta - beta) < 1e-12 and abs(got.delta - delta) < 1e-12, (x, y)


@settings(max_examples=60, deadline=None)
@given(valid_elements("planet"), valid_elements("earth"),
       st.integers(8, 12), st.integers(8, 12), st.data())
def test_difference_form_is_the_four_corner_formula_on_drawn_grids(planet, earth, n_u, n_v, data):
    try:
        table = build_double_entry(planet, earth, n_u, n_v)
    except DegenerateGeometryError:
        assume(False)
    for _ in range(20):
        assert_near_four_corner(table, data.draw(grid_point(n_u)), data.draw(grid_point(n_v)))


@settings(max_examples=100, deadline=None)
@given(st.lists(seam_cell, min_size=4, max_size=4), st.data())
def test_difference_form_is_the_four_corner_formula_across_the_seam(corners, data):
    table = tiled_seam_table(corners)
    for _ in range(20):
        assert_near_four_corner(table, data.draw(grid_point(8)), data.draw(grid_point(8)))


@settings(max_examples=30, deadline=None)
@given(order=st.permutations(range(8)))
def test_rows_derived_in_any_order_are_the_same_bits(dataset, order):
    built = build_double_entry(dataset["mars"], dataset["earth"], 8, 12)
    in_order, shuffled = (DoubleEntryTable(built.planet, built.earth, 8, 12, built.du, built.dv,
                                           array("d", built.knots)) for _ in range(2))
    for iu in order:
        shuffled.cells[iu]
    assert list(shuffled.cells) == order
    for iu in range(8):
        assert shuffled.cells[iu].tobytes() == in_order.cells[iu].tobytes()
        assert len(in_order.cells[iu]) == 12 * 12
    for x, y in ((0.5, 0.5), (7.25, 11.5), (8.0, 12.0), (3.0, 4.0)):
        assert _hex(lookup_grid(shuffled, x, y)) == _hex(lookup_grid(in_order, x, y))


def test_a_geocentric_query_derives_one_row(tmp_path, dataset):
    table = build_double_entry(dataset["mars"], dataset["earth"], 16, 16)
    write_table(table, tmp_path / tableio.table_filename(table))
    tables = load_tables(tmp_path)
    jd = 2451545.0 + 123.4
    want = geocentric_at_table(tables, "mars", jd)
    read = tables.double["mars"]
    iu = int(phase_days(None, jd, read.planet.T_aph, read.planet.P) / read.du)
    assert list(read.cells) == [iu]
    assert read.cells[iu] == coefficient_row(*read.cells.knot_rows(iu), 16)
    assert counted_query("table", "mars", jd, tables=tables)[0] == want
    assert list(read.cells) == [iu]


def test_wrap_aware_longitude_midpoint():
    table = wrap_seam_table()
    lam, beta, delta = lookup_double(table, 0.5 * table.du, 0.0)
    assert lam == 0.0  # 359 -> 1 interpolates through 0, not through 180
    assert beta == 0.5
    assert delta == 2.0


def test_longitude_just_below_the_seam_folds_to_zero():
    # lambda = 0 - 1e-15 folds up to 360.0 exactly, which must fold on to 0.0
    table = wrap_seam_table(lambda iu, iv: (359.9, 0.0, 1.0) if (iu, iv) == (1, 0)
                            else (0.0, 0.0, 1.0))
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
    table = wrap_seam_table(
        lambda iu, iv: ((lam0 + iu * slope_u + iv * slope_v) % 360.0, 0.5, 2.0))
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
    with pytest.raises(DomainError):  # u = P would divide to the wrap column
        lookup_double(table, dataset["mars"].P, 0.0)
    with pytest.raises(DomainError):
        lookup_double(table, 0.0, dataset["earth"].P)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lookup_double(table, bad, 0.0)
        with pytest.raises(DomainError):
            lookup_double(table, 0.0, bad)
    for x, y in ((-0.5, 0.0), (8.5, 0.0), (0.0, -1e-300), (0.0, 9.0), (math.nan, 0.0)):
        with pytest.raises(DomainError, match="grid coordinate"):
            lookup_grid(table, x, y)


PLANETS = ("mercury", "venus", "mars", "jupiter", "saturn")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PLANETS),
       st.one_of(st.floats(2.3e6, 2.6e6), st.floats(-6.8e10, 6.8e10)))
def test_a_table_query_is_two_phases_and_one_lookup(default_tables, planet, jd):
    # the composition the perfbench harness times and checks, bit for bit
    table = default_tables.double_for(planet)
    u = phase_days(None, jd, table.planet.T_aph, table.planet.P)
    v = phase_days(None, jd, table.earth.T_aph, table.earth.P)
    want = _hex(geocentric_at_table(default_tables, planet, jd))
    assert _hex(lookup_double(table, u, v)) == want
    assert _hex(lookup_grid(table, u / table.du, v / table.dv)) == want


def test_the_last_phase_below_the_period_reads_the_wrap_column(dataset):
    # At 21 x 11, the largest phase below each period divides to n: the
    # lookup clamps it to the last interval at weight 1, the wrap knot.
    table = build_double_entry(dataset["mars"], dataset["earth"], 21, 11)
    u = math.nextafter(table.planet.P, 0.0)
    v = math.nextafter(table.earth.P, 0.0)
    assert u / table.du == table.n_u and v / table.dv == table.n_v
    assert lookup_double(table, u, 0.0) == lookup_grid(table, 21.0, 0.0)
    wrapped = [(lookup_double(table, u, 0.0), 0), (lookup_double(table, u, v), 0),
               (lookup_double(table, 0.0, v), 0)]
    wrapped += [(lookup_grid(table, 21.0, float(iv)), iv) for iv in range(table.n_v)]
    for got, iv in wrapped:
        lam, beta, delta = table.knot(0, iv)
        assert 0.0 <= got.lam < 360.0
        assert wrap_abs_deg(got.lam, lam) < 1e-12
        assert abs(got.beta - beta) < 1e-12 and abs(got.delta - delta) < 1e-12


# ---------------------------------------------------------------------------
# composite queries and counting
# ---------------------------------------------------------------------------


def test_grid_node_jd_returns_cell_verbatim():
    planet = make_el(name="outer", a=2.0, e=0.1, i=1.0, P=800.0, T_aph=2451545.0)
    earth = make_el(name="earth", a=1.0, e=0.05, i=0.0, Omega=0.0, omega=30.0, P=320.0, T_aph=2451545.0)
    tables = TableSet()
    tables.add(build_double_entry(planet, earth, 8, 8))
    pos = geocentric_at_table(tables, "outer", 2451545.0)  # phases (0, 0)
    assert (pos.lam, pos.beta, pos.delta) == tables.double["outer"].knot(0, 0)


def test_table_mode_counts(default_tables, dataset):
    jd = 2451545.0 + 1234.5
    pos_t, ct = counted_query("table", "mars", jd, tables=default_tables)
    pos_d, cd = counted_query("direct", "mars", jd, dataset=dataset)
    assert ct.transcendental_calls == 0
    assert cd.transcendental_calls >= 6
    assert ct.total_ops() < cd.total_ops()
    assert ct.row_accesses == 1
    assert wrap_abs_deg(pos_t.lam, pos_d.lam) < 0.2


def test_missing_table_names_pair(default_tables):
    with pytest.raises(TableNotFoundError, match="pluto"):
        geocentric_at_table(default_tables, "pluto", 2451545.0)


def test_counted_query_rejects_unknown_mode(dataset):
    with pytest.raises(DomainError):
        counted_query("hybrid", "mars", 2451545.0, dataset=dataset)
    with pytest.raises(DomainError, match="table mode requires loaded tables"):
        counted_query("table", "mars", 2451545.0, dataset=dataset)
    with pytest.raises(DomainError, match="direct mode requires an elements dataset"):
        counted_query("direct", "mars", 2451545.0)


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
    # where dt / P rounds up to an integer, where dt + P rounds to P, and a
    # period under a day
    assert 0.0 <= phase_days(None, -418466965.9310731, 0.0, 3089.6624060002) < 3089.6624060002
    assert phase_days(None, -1e-20, 0.0, 687.0) == 0.0
    assert phase_days(None, 10.25, 0.0, 0.5) == 0.25


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
    with pytest.raises(TypeError, match="cannot hold str"):
        tables.add("mars")


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
    with pytest.raises(TableNotFoundError, match="no double-entry table loaded for the pair jupiter"):
        tables.double_for("jupiter")
    with pytest.raises(TableNotFoundError, match="no single-entry table loaded for 'jupiter'"):
        tables.single_for("jupiter")
    with pytest.raises(FileNotFoundError, match="does not exist"):
        load_tables(tmp_path / "missing")
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
