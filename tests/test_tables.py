import math

import pytest

from conftest import make_el
from urania import (
    CorrectionTerm,
    DomainError,
    build_double_entry,
    build_planet_table,
    calculation_census,
    compile_plan,
    normalize_deg,
    position_since_aphelion,
    reduce_rect,
    wrap_diff_deg,
)
from urania import tables
from urania.kepler import heliocentric_xyz, orbit_frame
from urania.tables import MOTION_STENCIL_DAYS, row_count, stencil_points


# ---------------------------------------------------------------------------
# build_planet_table
# ---------------------------------------------------------------------------


def test_circular_orbit_has_uniform_motion():
    el = make_el(e=0.0, P=128.0)
    table = build_planet_table(el, 2.0)
    rate = 360.0 / el.P
    for row in table.rows:
        assert row.motion_per_day == pytest.approx(rate, abs=1e-9)
        assert row.nu_aph == pytest.approx((rate * row.t) % 360.0, abs=1e-9)


def test_aphelion_row_is_exact():
    for e in (0.0, 0.2, 0.7):
        el = make_el(e=e)
        table = build_planet_table(el, el.P / 16.0)
        first = table.rows[0]
        assert first.t == 0.0
        assert first.nu_aph == 0.0
        assert first.r == el.a * (1.0 + e)


def test_rows_match_direct_chain_exactly(dataset):
    mars = dataset["mars"]
    table = build_planet_table(mars, 1.0)
    h = MOTION_STENCIL_DAYS
    for row in table.rows[::97] + [table.rows[-1]]:
        nu, r = position_since_aphelion(mars, row.t)
        assert (nu, r) == (row.nu_aph, row.r)
        nu_after, _ = position_since_aphelion(mars, row.t + h)
        nu_before, _ = position_since_aphelion(mars, row.t - h)
        assert row.motion_per_day == wrap_diff_deg(nu_after, nu_before) / (2.0 * h)


@pytest.mark.parametrize("step, solves", [(1.0, 2 * 100 + 1), (3.0, 3 * 34)])
def test_stencil_points_solve_each_shared_abscissa_once(step, solves):
    points, centres = stencil_points(100.0, step)
    h = MOTION_STENCIL_DAYS
    assert len(points) == len(set(points)) == solves
    for k, j in enumerate(centres):
        t = k * step
        assert points[j - 1:j + 2] == [t - h, t, t + h]


def test_row_grid_and_counts():
    el = make_el(P=100.0)
    table = build_planet_table(el, 3.0)
    assert len(table.rows) == row_count(el.P, 3.0) == 34
    for k, row in enumerate(table.rows):
        assert row.t == k * 3.0
    assert table.rows[-1].t < el.P


def test_monotone_anomaly_and_positive_motion(dataset):
    table = build_planet_table(dataset["mercury"], 1.0)
    unwrapped = [table.rows[0].nu_aph]
    for prev, cur in zip(table.rows, table.rows[1:]):
        advance = wrap_diff_deg(cur.nu_aph, prev.nu_aph)
        assert advance > 0.0
        assert cur.motion_per_day > 0.0
        unwrapped.append(unwrapped[-1] + advance)
    assert unwrapped[0] == 0.0
    assert unwrapped[-1] < 360.0


def test_motion_per_hour_is_exact_division(dataset):
    table = build_planet_table(dataset["venus"], 1.0)
    for row in table.rows:
        assert row.motion_per_hour == row.motion_per_day / 24.0


def test_motion_column_consistent_with_forward_slope():
    el = make_el(e=0.3, P=100.0)
    table = build_planet_table(el, 1.0)
    rows = table.rows

    def second_diff(k):
        return abs(
            wrap_diff_deg(rows[k + 1].nu_aph, rows[k].nu_aph)
            - wrap_diff_deg(rows[k].nu_aph, rows[k - 1].nu_aph)
        )

    for k in range(2, len(rows) - 2):
        gap = rows[k + 1].t - rows[k].t
        fwd = wrap_diff_deg(rows[k + 1].nu_aph, rows[k].nu_aph)
        # the row's own second difference vanishes where the rate peaks, so
        # bound by the largest one among the neighbouring rows
        neighbourhood = max(second_diff(k - 1), second_diff(k), second_diff(k + 1))
        assert abs(rows[k].motion_per_day * gap - fwd) <= 2.0 * neighbourhood + 1e-12


@pytest.mark.parametrize("step", [0.0, -1.0, 100.0, math.nan])
def test_step_validation(step):
    el = make_el(P=160.0)  # P/8 = 20
    with pytest.raises(DomainError):
        build_planet_table(el, step)


def test_step_boundary_allows_eight_rows():
    el = make_el(P=160.0)
    table = build_planet_table(el, 20.0)
    assert len(table.rows) == 8


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
    lam, beta, delta = table.cells[0][0]
    assert abs(wrap_diff_deg(lam, normalize_deg(30.0 + 180.0))) < 1e-9
    assert abs(beta) < 1e-12
    assert delta == pytest.approx(1.0, rel=1e-12)


def test_latitude_bound(dataset):
    mercury, earth = dataset["mercury"], dataset["earth"]
    table = build_double_entry(mercury, earth, 16, 16)
    bound = mercury.i + earth.i + 1e-9
    for col in table.cells:
        for _, beta, delta in col:
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
            assert table.cells[iu][iv] == (want.lam, want.beta, want.delta)


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
    assert (len(table.cells), len(table.cells[0])) == (8, 12)


def test_double_entry_repr_leaves_out_the_cells():
    planet, earth = circular_pair()
    table = build_double_entry(planet, earth, 8, 8)
    assert repr(table) == f"DoubleEntryTable(planet={planet!r}, earth={earth!r}, n_u=8, n_v=8)"
    assert repr(table.cells[0][0][0]) not in repr(table)


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


@pytest.mark.parametrize("corrected", ["outer", "earth"])
def test_tables_refuse_a_corrected_body(corrected):
    # a table answers from the phase modulo P; a correction term has its own period
    bodies = dict(zip(("outer", "earth"), circular_pair()))
    bodies[corrected] = bodies[corrected]._replace(corrections=(CorrectionTerm(2.0, 1000.0, 0.0),))
    message = f"{corrected}: a table cannot hold correction terms"
    with pytest.raises(DomainError, match=message):
        build_planet_table(bodies[corrected], 40.0)
    with pytest.raises(DomainError, match=message):
        build_double_entry(bodies["outer"], bodies["earth"], 8, 8)
    with pytest.raises(DomainError, match=message):
        compile_plan(bodies, bodies, 40.0, (8, 8))


def test_tables_refuse_a_body_too_fast_for_the_motion_stencil(monkeypatch):
    # 0.28 days from perihelion to a true anomaly of 90 degrees, so 180
    # degrees within the 1-day stencil; a circular orbit of P = 2 days sits
    # exactly on the limit, and one a little slower clears it
    fast = make_el(name="fast", a=1.0, e=0.9, P=30.0)
    bodies = {"fast": fast, "earth": circular_pair()[1]}
    message = "fast: sweeps 180 degrees or more within the 1-day motion stencil"
    with pytest.raises(DomainError, match=message):
        build_planet_table(fast, 1.0)
    with pytest.raises(DomainError, match=message):
        compile_plan(bodies, bodies, 1.0, None)
    with pytest.raises(DomainError, match="sweeps 180 degrees"):
        build_planet_table(make_el(e=0.0, P=2.0), 0.25)
    assert build_planet_table(make_el(e=0.0, P=2.001), 0.25).rows[1].motion_per_day > 0.0
    # the builder's own guard names the same limit
    monkeypatch.setattr("urania.tables._check_stencil", lambda el: None)
    with pytest.raises(DomainError, match="non-positive daily motion .* sweeps 180 degrees"):
        build_planet_table(fast, 1.0)


# ---------------------------------------------------------------------------
# calculation_census
# ---------------------------------------------------------------------------


def test_census_single_only():
    el = make_el(name="solo", P=100.0)
    report = calculation_census(compile_plan({"solo": el}, ["solo"], 1.0, None))
    assert report["single_rows"] == {"solo": 100}
    assert report["cells"] == 0
    assert report["entries"] == 100
    assert report["solver_calls"] == 201  # 2n + 1: each row shares t - h with the row before


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
