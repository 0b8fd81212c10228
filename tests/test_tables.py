import math
from array import array

import pytest

from conftest import make_el
from urania import (
    DomainError,
    build_double_entry,
    build_planet_table,
    calculation_census,
    compile_plan,
    normalize_deg,
    position_since_aphelion,
    reduce_rect,
    time_since_aphelion,
    wrap_diff_deg,
)
from urania import tables
from urania.kepler import heliocentric_xyz, orbit_frame
from urania.tables import row_count


# ---------------------------------------------------------------------------
# build_planet_table
# ---------------------------------------------------------------------------


def test_circular_orbit_has_uniform_motion():
    el = make_el(e=0.0, P=128.0)
    table = build_planet_table(el, 2.0)
    n, rate = table.n, 360.0 / el.P
    for k, (nu, _) in enumerate(table.rows):
        assert table.cells[n + k] / table.du == pytest.approx(rate, abs=1e-9)  # nu_u per day
        assert nu == pytest.approx((rate * k * table.du) % 360.0, abs=1e-9)


def test_aphelion_row_is_exact():
    for e in (0.0, 0.2, 0.7):
        el = make_el(e=e)
        table = build_planet_table(el, el.P / 16.0)
        assert table.rows[0] == (0.0, el.a * (1.0 + e))


def test_rows_match_direct_chain_exactly(dataset):
    mars = dataset["mars"]
    table = build_planet_table(mars, 1.0)
    n, rows = table.n, table.rows
    # each cell's differences run to the next row, the last row's to row 0
    for k in [*range(0, n, 97), n - 1]:
        assert position_since_aphelion(mars, k * table.du) == rows[k]
        (nu, r), (nu_next, r_next) = rows[k], rows[(k + 1) % n]
        assert table.cells[k::n] == array("d", (nu, wrap_diff_deg(nu_next, nu), r, r_next - r))


def test_row_grid_and_counts():
    el = make_el(P=100.0)
    table = build_planet_table(el, 3.0)
    assert table.n == len(table.rows) == row_count(el.P, 3.0) == 34
    assert table.du == el.P / 34 < 3.0
    # P/step rounds up here, and ceil overshoots: one row more, a shorter spacing
    assert row_count(10.0, 0.8333333333333333) == 13
    assert len(table.cells) == 4 * table.n


def test_monotone_anomaly_and_positive_motion(dataset):
    table = build_planet_table(dataset["mercury"], 1.0)
    n, rows = table.n, table.rows
    unwrapped = [rows[0][0]]
    for k in range(1, n):
        advance = wrap_diff_deg(rows[k][0], rows[k - 1][0])
        assert advance > 0.0
        assert table.cells[n + k] > 0.0
        unwrapped.append(unwrapped[-1] + advance)
    assert unwrapped[0] == 0.0
    assert unwrapped[-1] < 360.0


@pytest.mark.parametrize("step", [0.0, -1.0, 100.0, math.nan])
def test_step_validation(step):
    el = make_el(P=160.0)  # P/8 = 20
    with pytest.raises(DomainError):
        build_planet_table(el, step)


def test_step_boundary_allows_eight_rows():
    el = make_el(P=160.0)
    table = build_planet_table(el, 20.0)
    assert table.n == 8 and table.du == 20.0


# ---------------------------------------------------------------------------
# build_double_entry
# ---------------------------------------------------------------------------


def circular_pair():
    planet = make_el(name="outer", a=2.0, e=0.0, i=0.0, Omega=0.0, omega=30.0, P=800.0)
    earth = make_el(name="earth", a=1.0, e=0.0, i=0.0, Omega=0.0, omega=30.0, P=320.0)
    return planet, earth


def test_collinear_cell():
    planet, earth = circular_pair()
    table = build_double_entry(planet, earth, 8, 8)
    lam, beta, delta = table.knot(0, 0)
    assert abs(wrap_diff_deg(lam, normalize_deg(30.0 + 180.0))) < 1e-9
    assert abs(beta) < 1e-12
    assert delta == pytest.approx(1.0, rel=1e-12)


def test_latitude_bound(dataset):
    mercury, earth = dataset["mercury"], dataset["earth"]
    table = build_double_entry(mercury, earth, 16, 16)
    bound = mercury.i + earth.i + 1e-9
    for beta, delta in zip(table.knots[1::3], table.knots[2::3], strict=True):
        assert abs(beta) <= bound
        assert delta > 0.0


def test_cells_equal_direct_mode_at_grid_phases(dataset):
    jupiter, earth = dataset["jupiter"], dataset["earth"]
    table = build_double_entry(jupiter, earth, 8, 8)
    du = jupiter.P / 8
    dv = earth.P / 8
    for iu in range(8):
        for iv in range(8):
            want = reduce_rect(
                heliocentric_xyz(jupiter, orbit_frame(jupiter), iu * du),
                heliocentric_xyz(earth, orbit_frame(earth), iv * dv),
            )
            assert table.knot(iu, iv) == (want.lam, want.beta, want.delta)


def test_double_entry_converts_each_grid_line_once(dataset, monkeypatch):
    calls = {"heliocentric_xyz": 0, "orbit_frame": 0}

    def spy(name):
        real = getattr(tables, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(tables, name, counting)

    spy("heliocentric_xyz")
    spy("orbit_frame")
    table = build_double_entry(dataset["mars"], dataset["earth"], 8, 12)
    assert calls == {"heliocentric_xyz": 8 + 12, "orbit_frame": 2}
    assert len(table.knots) == 3 * 8 * 12
    assert len(table.cells) == 0  # a row's coefficient cells wait for a query


def test_double_entry_repr_leaves_out_the_cells():
    planet, earth = circular_pair()
    table = build_double_entry(planet, earth, 8, 8)
    assert repr(table) == f"DoubleEntryTable(planet={planet!r}, earth={earth!r}, n_u=8, n_v=8)"
    assert repr(table.knots[0]) not in repr(table)
    assert repr(table.knots[0]) not in repr(table)


def test_double_entry_tables_are_equal_by_their_knots_not_their_derived_rows():
    planet, earth = circular_pair()
    table, again = build_double_entry(planet, earth, 8, 8), build_double_entry(planet, earth, 8, 8)
    table.cells[3]
    assert table == again and list(table.cells) == [3] and list(again.cells) == []
    again.knots[8] = math.nextafter(again.knots[8], 0.0)  # a distance, one ulp short
    assert table != again
    assert table != build_double_entry(planet, earth, 8, 12)
    assert table != (planet, earth, 8, 8)


def test_grid_minimum_enforced():
    planet, earth = circular_pair()
    with pytest.raises(DomainError):
        build_double_entry(planet, earth, 4, 64)
    with pytest.raises(DomainError):
        build_double_entry(planet, earth, 64, 7)


def test_grid_cell_bound_enforced():
    # at most 2**20 cells, as a single-entry table holds at most 2**20 rows
    planet, earth = circular_pair()
    bodies = {"outer": planet, "earth": earth}
    assert len(compile_plan(bodies, bodies, 40.0, (1024, 1024))) == 3  # checked, not built
    for shape in ((2048, 1024), (8, 131073)):
        with pytest.raises(DomainError, match=r"at most 2\*\*20 cells"):
            compile_plan(bodies, bodies, 40.0, shape)
        with pytest.raises(DomainError, match=r"at most 2\*\*20 cells"):
            build_double_entry(planet, earth, *shape)




def test_tables_refuse_a_body_too_fast_for_the_motion_stencil(monkeypatch):
    # A row's motion is differenced across its row interval, so the body
    # must sweep less than 180 degrees in a step. This one takes 0.28 days
    # from perihelion to a true anomaly of 90 degrees: a step of twice that
    # sits exactly on the limit, and one an ulp shorter clears it.
    fast = make_el(name="fast", a=1.0, e=0.9, P=30.0)
    to_quadrature = time_since_aphelion(fast, 270.0) - fast.P / 2
    limit = 2.0 * to_quadrature
    bodies = {"fast": fast, "earth": circular_pair()[1]}
    message = "fast: sweeps 180 degrees or more within a 1-day row interval"
    with pytest.raises(DomainError, match=message):
        build_planet_table(fast, 1.0)
    with pytest.raises(DomainError, match=message):
        compile_plan(bodies, bodies, 1.0, None)
    with pytest.raises(DomainError, match="sweeps 180 degrees"):
        build_planet_table(fast, limit)
    near = build_planet_table(fast, math.nextafter(limit, 0.0))
    assert min(near.cells[near.n:2 * near.n]) > 0.0
    # a circular orbit takes P/4 to sweep 90 degrees, more than half of any step P/8 allows
    assert build_planet_table(make_el(e=0.0, P=2.0), 0.25).n == 8
    # the cell derivation's own guard refuses the wrapped advance: at a
    # 2-day step rows 7 and 8, at 14 and 16 days, straddle perihelion, at 15
    monkeypatch.setattr(tables, "_check_single", lambda el, step: None)
    with pytest.raises(DomainError, match="fast: true anomaly not strictly increasing between "
                                          "rows 7 and 8"):
        build_planet_table(fast, 2.0)


# ---------------------------------------------------------------------------
# calculation_census
# ---------------------------------------------------------------------------


def test_census_single_only():
    el = make_el(name="solo", P=100.0)
    report = calculation_census(compile_plan({"solo": el}, ["solo"], 1.0, None))
    assert report["single_rows"] == {"solo": 100}
    assert report["cells"] == 0
    assert report["entries"] == 100
    assert report["solver_calls"] == 100  # one solve per row


def test_census_double_cells():
    planet, earth = circular_pair()
    bodies = {"outer": planet, "earth": earth}
    report = calculation_census(compile_plan(bodies, bodies, 40.0, (64, 64)))
    assert report["double_cells"] == {"outer*earth": 4096}
    assert report["cells"] == 4096


def test_census_default_scale(dataset):
    report = calculation_census(compile_plan(dataset, dataset.names, 1.0, (64, 64)))
    assert report["rows"] == sum(row_count(el.P, 1.0) for el in dataset)
    assert report["cells"] == 5 * 64 * 64
    assert 1e4 <= report["entries"] <= 1e5


def test_census_rejects_bad_config(dataset):
    with pytest.raises(DomainError):
        compile_plan(dataset, dataset.names, 0.0, None)
    with pytest.raises(DomainError):
        compile_plan(dataset, dataset.names, 1.0, (4, 4))
    with pytest.raises(DomainError):
        compile_plan(dataset, dataset.names, 50.0, None)  # over P/8 for mercury
