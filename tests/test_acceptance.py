"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines; any assertion failure marks the criterion failed.
"""

import math
import random
import time

import pytest

from conftest import edit_header, helio_state, make_el
from oracles import bisect_kepler, wrap_abs_deg
from urania import (
    TableParseError,
    TableSet,
    build_double_entry,
    build_planet_table,
    calculation_census,
    compile_plan,
    counted_query,
    geocentric_at,
    lookup_grid,
    lookup_planet,
    position_since_aphelion,
    read_table,
    rect_to_spherical,
    reduce_rect,
    solve_kepler,
    table_filename,
    time_since_aphelion,
    wrap_diff_deg,
    write_table,
)
from urania.cli import main
from urania.dataset import REQUIRED_COLUMNS, elements_row

TWO_PI = 2.0 * math.pi


def passed(n, text):
    print(f"ACCEPTANCE PASS [{n}]: {text}")


def test_criterion_1_solver_oracle_equivalence():
    start = time.perf_counter()
    eccs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97]
    for e in eccs:
        for k in range(1000):
            M = TWO_PI * k / 1000.0
            E = solve_kepler(M, e)
            assert abs(E - e * math.sin(E) - M) < 1e-12
            assert abs(E - bisect_kepler(M, e)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passed(1, f"solver residual < 1e-12 and oracle gap < 1e-10 on 11x1000 grid ({elapsed:.2f}s)")


def test_criterion_2_round_trip_inversion():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(1000):
        el = make_el(
            e=rng.uniform(0.0, 0.97),
            P=rng.uniform(10.0, 2e4),
            a=rng.uniform(0.3, 30.0),
            T_aph=2451545.0 + rng.uniform(-5e4, 5e4),
        )
        t = rng.uniform(0.0, el.P)
        nu, _ = position_since_aphelion(el, t)
        assert abs(time_since_aphelion(el, nu) - t) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passed(2, f"1000 anomaly round trips within 1e-9 days ({elapsed:.2f}s)")


def test_criterion_3_area_law():
    rng = random.Random(99)
    h = 1e-4
    for _ in range(10):
        el = make_el(e=rng.uniform(0.0, 0.8), P=rng.uniform(50.0, 5000.0), a=rng.uniform(0.5, 10.0))
        rates = []
        for k in range(40):
            t = el.P * (k + 0.31) / 40.0
            nu_plus, _ = position_since_aphelion(el, t + h)
            nu_minus, _ = position_since_aphelion(el, t - h)
            _, r = position_since_aphelion(el, t)
            dnu_dt = math.radians(wrap_diff_deg(nu_plus, nu_minus)) / (2.0 * h)
            rates.append(r * r * dnu_dt)
        spread = (max(rates) - min(rates)) / abs(rates[0])
        assert spread < 1e-6
    passed(3, "r^2 * dnu/dt constant to 1e-6 relative on 10 random orbits")


def test_criterion_4_knot_exactness(default_tables):
    rows_checked = 0
    for table in default_tables.single.values():
        for k, knot in enumerate(table.rows):
            got = lookup_planet(table, float(k))
            assert list(map(float.hex, got)) == list(map(float.hex, knot))
            rows_checked += 1
    cells_checked = 0
    for table in default_tables.double.values():
        for iu in range(table.n_u):
            for iv in range(table.n_v):
                got = lookup_grid(table, float(iu), float(iv))
                assert list(map(float.hex, got)) == list(map(float.hex, table.knot(iu, iv)))
                cells_checked += 1
    assert rows_checked == 16459 and cells_checked == 20480
    passed(4, f"{rows_checked} rows + {cells_checked} cells reproduced bit-exactly at their knots")


def test_criterion_5_zero_transcendental_contract(default_tables, dataset):
    rng = random.Random(5)
    planets = sorted(default_tables.double.keys())
    for i in range(10_000):
        planet = planets[i % len(planets)]
        jd = 2451545.0 + rng.uniform(-36525.0, 36525.0)
        _, c_table = counted_query("table", planet, jd, tables=default_tables)
        assert c_table.transcendental_calls == 0
        _, c_direct = counted_query("direct", planet, jd, dataset=dataset)
        assert c_direct.transcendental_calls > 0
    passed(5, "10^4 table queries used 0 transcendental calls; direct used > 0 on every query")


def test_criterion_6_convergence_order():
    el = make_el(name="conv", e=0.3, P=100.0)
    sweep = [el.P * k / 10_000.0 for k in range(10_000)]

    def max_err(step):
        table = build_planet_table(el, step)
        worst = 0.0
        for t in sweep:
            nu_t, _ = lookup_planet(table, t / table.du)
            nu_d, _ = position_since_aphelion(el, t)
            worst = max(worst, wrap_abs_deg(nu_t, nu_d))
        return worst

    e2, e1, e05 = max_err(2.0), max_err(1.0), max_err(0.5)
    assert e2 / e1 >= 3.0
    assert e1 / e05 >= 3.0
    passed(6, f"halving the step cut the max error by {e2 / e1:.2f}x then {e1 / e05:.2f}x (>= 3x)")


def test_criterion_7_census_scale(dataset):
    report = calculation_census(compile_plan(dataset, dataset.names, 1.0, (64, 64)))
    assert 1e4 <= report["entries"] <= 1e5
    passed(7, f"default config compiles {report['entries']} entries, within [1e4, 1e5]")


def test_criterion_8_accuracy_regression(default_tables, dataset, frozen_bounds):
    # Each planet's 64x64 table over one synodic period from J2000, against
    # the bound frozen for it. Jupiter's is the paper's figure, under a hard
    # 0.5 degree ceiling; Venus and Mars sit near 0.9 degrees.
    earth = dataset["earth"]
    proc = frozen_bounds["procedure"]
    synodic_period = {name: abs(1.0 / (1.0 / earth.P - 1.0 / dataset[name].P))
                      for name in ("mercury", "venus", "mars", "jupiter", "saturn")}
    assert synodic_period["jupiter"] == pytest.approx(proc["jupiter_span_days"], rel=1e-12)
    jd0 = proc["jd_start"]
    n = proc["samples"]
    report = []
    for name in ("mercury", "venus", "mars", "jupiter", "saturn"):
        planet = dataset[name]
        frozen = frozen_bounds[f"{name}_double64_max_lambda_deg"]
        ceiling = 0.5 if name == "jupiter" else 1.0
        assert frozen < ceiling  # sanity ceiling on the frozen measurement itself
        span = synodic_period[name]
        tables = TableSet()
        tables.add(default_tables.double[name])
        worst = 0.0
        for i in range(n):
            jd = jd0 + i * span / n
            got, _ = counted_query("table", name, jd, tables=tables)
            want = geocentric_at(planet, earth, jd)
            worst = max(worst, wrap_abs_deg(got.lam, want.lam))
        assert worst < ceiling
        assert worst <= frozen * 1.10, name
        report.append(f"{name} {worst:.6f} <= {frozen:.6f}")
    passed(8, "max |lambda_table - lambda_direct| + 10%: " + ", ".join(report))


def test_criterion_9_geometric_exactness():
    opposition = reduce_rect(helio_state(0.0, 0.0, 2.0), helio_state(0.0, 0.0, 1.0))
    assert wrap_abs_deg(opposition.lam, 0.0) < 1e-9 and opposition.delta == 1.0
    conjunction = reduce_rect(helio_state(180.0, 0.0, 2.0), helio_state(0.0, 0.0, 1.0))
    assert wrap_abs_deg(conjunction.lam, 180.0) < 1e-9 and conjunction.delta == pytest.approx(3.0, rel=1e-12)

    x, y, z = helio_state(0.0, 0.0, 1.0)
    assert (x, y, z) == (1.0, 0.0, 0.0)
    x, y, z = helio_state(0.0, 90.0, 1.0)
    assert abs(x) < 1e-12 and abs(y) < 1e-12 and abs(z - 1.0) < 1e-12
    lam, beta, delta = rect_to_spherical((0.0, 0.0, 2.0))
    assert (lam, beta, delta) == (0.0, 90.0, 2.0)
    lam, beta, delta = rect_to_spherical((1.0, 0.0, 0.0))
    assert (lam, beta, delta) == (0.0, 0.0, 1.0)
    passed(9, "opposition/conjunction exact to 1e-9 deg; axis and pole cases exact to 1e-12")


def test_criterion_10_serialization_and_validate(tmp_path):
    rng = random.Random(1010)
    bodies = []
    for trial in range(6):
        el = make_el(
            name=f"rand{trial}",
            a=rng.uniform(0.3, 20.0),
            e=rng.uniform(0.0, 0.9),
            i=rng.uniform(0.0, 30.0),
            Omega=rng.uniform(0.0, 360.0) % 360.0,
            omega=rng.uniform(0.0, 360.0) % 360.0,
            P=rng.uniform(50.0, 5000.0),
        )
        table = build_planet_table(el, el.P / rng.randint(16, 64))
        path = tmp_path / table_filename(table)
        write_table(table, path)
        again = read_table(path)
        assert again.elements == table.elements and again.cells == table.cells
        bodies.append(el)

    earth = make_el(name="earth", a=1.0, e=0.02, i=0.0, Omega=0.0, omega=10.0, P=365.25)
    dtable = build_double_entry(bodies[0], earth, 8, 8)
    dpath = tmp_path / table_filename(dtable)
    write_table(dtable, dpath)
    assert read_table(dpath).cells == dtable.cells

    truncated = tmp_path / "broken.tbl"
    truncated.write_bytes(dpath.read_bytes()[: -2 * 24])  # the last two cells
    with pytest.raises(TableParseError, match="truncated"):
        read_table(truncated)
    mangled = tmp_path / "mangled.tbl"
    mangled.write_bytes(dpath.read_bytes())
    edit_header(mangled, lambda text: text.replace("# shape: 8x8\n", "# shape: 8\n"))
    with pytest.raises(TableParseError, match="n_v"):
        read_table(mangled)
    truncated.unlink()
    mangled.unlink()

    # validate compares each table's header elements with the dataset's
    csv = tmp_path / "elements.csv"
    csv.write_text("\n".join([",".join(REQUIRED_COLUMNS), *map(elements_row, [*bodies, earth])]))
    start = time.perf_counter()
    assert main(["validate", "--table-dir", str(tmp_path), "--elements", str(csv)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passed(10, f"round trips value-exact, corruption detected, validate passed in {elapsed:.2f}s")
