import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import urania
from conftest import DATA_DIR
from urania import (
    CorrectionTerm,
    DegenerateGeometryError,
    OpCounter,
    OrbitalElements,
    calculation_census,
    compile_plan,
    counted_direct,
    counted_query,
    geocentric_at,
    geocentric_at_table,
    heliocentric_at_table,
    kepler,
    lookup_double,
    lookup_planet,
    measure_compile_ops,
)
from urania.evaluate import phase_days
from urania.opcount import derive_counted
from urania.tables import row_count


def _elements(d) -> OrbitalElements:
    fields = dict(d, corrections=tuple(CorrectionTerm(*t) for t in d["corrections"]))
    return OrbitalElements(**fields)


@pytest.fixture(scope="module")
def golden():
    with open(DATA_DIR / "golden_direct_tallies.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden_table():
    with open(DATA_DIR / "golden_table_tallies.json") as fh:
        return json.load(fh)


def _tally(c):
    return [c.adds, c.muls, c.transcendental_calls]


def _table_record(c, *values):
    """[adds, muls, row_accesses, *values as float hex], as frozen; no transcendentals."""
    assert c.transcendental_calls == 0
    return [c.adds, c.muls, c.row_accesses, *(float(x).hex() for x in values)]


# ---------------------------------------------------------------------------
# Golden tallies, frozen from the former hand-written counted twin
# ---------------------------------------------------------------------------


def test_golden_direct_tallies(golden, dataset):
    earth = dataset["earth"]
    assert len(golden["queries"]) == 200
    for planet, jd, *want in golden["queries"]:
        c = OpCounter()
        pos = counted_direct(c, dataset[planet], earth, jd)
        assert pos == geocentric_at(dataset[planet], earth, jd)  # bit-identical
        assert _tally(c) == want, (planet, jd)
        assert c.row_accesses == 0


def test_golden_tallies_with_corrections_and_high_eccentricity(golden):
    assert any(s["planet"]["e"] >= 0.9 for s in golden["element_sets"])
    assert any(len(s["planet"]["corrections"]) == 3 for s in golden["element_sets"])
    for s in golden["element_sets"]:
        planet, earth = _elements(s["planet"]), _elements(s["earth"])
        for jd, *want in s["records"]:
            c = OpCounter()
            assert counted_direct(c, planet, earth, jd) == geocentric_at(planet, earth, jd)
            assert _tally(c) == want, (planet.name, earth.corrections, jd)


def test_golden_table_queries(golden_table, default_tables):
    assert len(golden_table["queries"]) >= 200
    for planet, jd, *want in golden_table["queries"]:
        pos, c = counted_query("table", planet, jd, tables=default_tables)
        assert _table_record(c, pos.lam, pos.beta, pos.delta) == want, (planet, jd)
        assert geocentric_at_table(default_tables, planet, jd) == pos  # plain == counted
    for body, jd, *want in golden_table["heliocentric"]:
        c = OpCounter()
        out = heliocentric_at_table(default_tables, body, jd, counter=c)
        assert _table_record(c, *out) == want, (body, jd)
        assert heliocentric_at_table(default_tables, body, jd) == out


def test_golden_table_entry_points(golden_table, default_tables):
    for jd, t_aph, period, *want in golden_table["phase_days"]:
        c = OpCounter()
        u = phase_days(c, jd, t_aph, period)
        assert _table_record(c, u) == want, (jd, t_aph, period)
        assert phase_days(None, jd, t_aph, period) == u
    for planet, u, v, *want, _ in golden_table["lookup_double"]:
        table, c = default_tables.double_for(planet), OpCounter()
        out = lookup_double(table, u, v, counter=c)
        assert _table_record(c, *out) == want, (planet, u, v)
        assert lookup_double(table, u, v) == out
    for body, t, *want, _ in golden_table["lookup_planet"]:
        table, c = default_tables.single_for(body), OpCounter()
        out = lookup_planet(table, t, counter=c)
        assert _table_record(c, *out) == want, (body, t)
        assert lookup_planet(table, t) == out


def test_golden_table_records_cover_every_fix_up(golden_table):
    fired = {name for key in ("lookup_double", "lookup_planet")
             for record in golden_table[key] for name in record[-1]}
    assert fired == {"wrap180", "renormalize", "locate_up", "locate_down"}


def test_compile_tally_counts_the_builders_own_code(golden):
    # The builders compute each row abscissa as k*step and check the step
    # against P/8: one mul per single-entry row and one per table, which the
    # former hand-written grid walk skipped. Per single-entry table, row_count
    # computes P/step and (n - 1)*step once (no overshoot here), and
    # _check_monotone_rows makes one wrap_diff_deg (a - b, fmod, no wrap)
    # and one += per row pair, plus the closing full-revolution check.
    cfg = golden["compile"]
    bodies = {d["name"]: _elements(d) for d in cfg["bodies"]}
    c = measure_compile_ops(compile_plan(bodies, bodies, cfg["step_days"], cfg["double_shape"]))
    rows = sum(row_count(el.P, cfg["step_days"]) for el in bodies.values())
    tables = len(bodies)
    pairs = rows - tables
    twin = cfg["twin"]
    assert _tally(c) == [
        twin["adds"] + 2 * pairs + tables,
        twin["muls"] + rows + tables + 2 * tables + pairs,
        twin["transcendental_calls"],
    ]
    assert c.row_accesses == 0


# ---------------------------------------------------------------------------
# The derivation pass
# ---------------------------------------------------------------------------


def _derive(source, name="f"):
    """(plain, counted) versions of the function ``name`` defined in ``source``."""
    plain, counted = {"math": math}, {"math": math}
    exec(source, plain)
    derive_counted(source, [name], counted)
    return plain[name], counted[name]


def test_tally_rules():
    plain, counted = _derive(
        "def f(x, k):\n"
        "    k -= 1\n"  # int literal: index bookkeeping
        "    y = math.sin(x) * 2.0 + math.fmod(x, 3.0) - abs(x)\n"
        "    if math.floor(y) < 1.0:\n"
        "        y = y / math.sqrt(x)\n"
        "    for _ in range(3):\n"
        "        y += 1.5\n"
        "    return y, k\n"
    )
    c = OpCounter()
    assert counted(c, 4.0, 7) == plain(4.0, 7)
    assert _tally(c) == [2 + 3, 2 + 1, 1 + 1]
    assert c.row_accesses == 0

    plain, counted = _derive(
        "def f(t, i):\n"
        "    row = t.rows[i]\n"  # a fetch from .rows
        "    cell = t.cells[i][i + 1]\n"  # one fetch, however deep the index
        "    pair = (row, cell)\n"
        "    return pair[0][0] + cell[1]\n"  # local tuple subscripts are free
    )
    t = SimpleNamespace(rows=[(1.0, 2.0)] * 3, cells=[[(3.0, 4.0)] * 3] * 3)
    c = OpCounter()
    assert counted(c, t, 1) == plain(t, 1) == 5.0
    assert [*_tally(c), c.row_accesses] == [1, 0, 0, 2]


def test_counter_passes_to_derived_callees():
    namespace = {"math": math}
    derive_counted(
        "def g(x):\n    return x * x\n\ndef f(x):\n    return g(x) + g(x + 1.0)\n",
        ["g", "f"],
        namespace,
    )
    c = OpCounter()
    assert namespace["f"](c, 3.0) == 25.0
    assert _tally(c) == [2, 2, 0]


@pytest.mark.parametrize(
    "body, construct",
    [
        ("return x * 2.0 if x > 0.0 else x", "conditional expression"),
        ("return x > 0.0 and x * 2.0 > 1.0", "boolean operator"),
        ("return [x * k for k in range(3)]", "comprehension"),
        ("return sum(x + k for k in range(3))", "comprehension"),
        ("return (lambda y: y + 1.0)(x)", "lambda"),
        ("while x * 2.0 < 8.0:\n        x = x + 1.0\n    return x", "while test"),
        ("return 0.0 < x < x * 2.0", "chained comparison"),
    ],
)
def test_derivation_refuses_uncountable_arithmetic(body, construct):
    with pytest.raises(ValueError, match=construct):
        _derive(f"def f(x):\n    {body}\n")


@pytest.mark.parametrize(
    "body, rule", [("return x ** 2.0", "Pow"), ("return math.exp(x)", "exp")]
)
def test_derivation_refuses_unknown_operations(body, rule):
    with pytest.raises(ValueError, match=rule):
        _derive(f"def f(x):\n    {body}\n")


def test_uncounted_constructs_without_arithmetic_are_accepted():
    _, f = _derive("def f(x):\n    y = x if x > 0.0 else -1.0\n    return [y for _ in range(2)]\n")
    c = OpCounter()
    assert f(c, 2.0) == [2.0, 2.0]
    assert _tally(c) == [0, 0, 0]


def test_import_does_not_derive():
    code = (
        "import os, urania as u, urania.opcount as o\n"
        "derived, real = [], o.derive_counted\n"
        "def spy(source, names, namespace, calls, filename):\n"
        "    derived.append(os.path.basename(filename)[:-3])\n"
        "    real(source, names, namespace, calls, filename)\n"
        "o.derive_counted = spy\n"
        "print(o._twins.cache_info().currsize)\n"
        "ds = u.load_elements(u.default_elements_path())\n"
        "t = u.TableSet()\n"
        "t.add(u.build_planet_table(ds['mars'], 8.0))\n"
        "t.add(u.build_double_entry(ds['mars'], ds['earth'], 8, 8))\n"
        "u.geocentric_at_table(t, 'mars', 2451545.0)\n"
        "u.heliocentric_at_table(t, 'mars', 2451545.0)\n"
        "print(o._twins.cache_info().currsize)\n"
        "u.counted_query('table', 'mars', 2451545.0, tables=t)\n"
        "print(','.join(derived))\n"
        "u.counted_query('direct', 'mars', 2451545.0, dataset=ds)\n"
        "print(','.join(derived))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(urania.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # a counted table query derives only evaluate's twins; a counted direct
    # query then derives the direct chain's, each module after those it calls
    assert out.stdout.split() == [
        "0", "0", "evaluate", "evaluate,angles,kepler,geocentric"
    ]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_angle = st.floats(0.0, 360.0, exclude_max=True)
_correction = st.builds(
    CorrectionTerm, st.floats(0.0, 2.0), st.floats(1.0, 1e4), st.floats(0.0, 360.0)
)


def _valid_elements(name):
    return st.builds(
        OrbitalElements,
        name=st.just(name),
        a=st.floats(0.1, 50.0),
        e=st.floats(0.0, 0.999),
        i=st.floats(0.0, 180.0, exclude_max=True),
        Omega=_angle,
        omega=_angle,
        P=st.floats(10.0, 1e5),
        T_aph=st.floats(2.4e6, 2.5e6),
        corrections=st.lists(_correction, max_size=3).map(tuple),
    )


@settings(max_examples=200, deadline=None)
@given(_valid_elements("planet"), _valid_elements("earth"), st.floats(2.35e6, 2.55e6))
def test_counted_direct_is_the_plain_chain(planet, earth, jd):
    try:
        plain = geocentric_at(planet, earth, jd)
    except DegenerateGeometryError:
        with pytest.raises(DegenerateGeometryError):
            counted_direct(OpCounter(), planet, earth, jd)
        return
    c = OpCounter()
    assert counted_direct(c, planet, earth, jd) == plain  # bit for bit
    assert c.transcendental_calls > 0


def _bits(*xs):
    return [float(x).hex() for x in xs]


@settings(max_examples=300, deadline=None)
@given(
    planet=st.sampled_from(["mercury", "venus", "mars", "jupiter", "saturn"]),
    jd=st.floats(2451545.0 - 1e6, 2451545.0 + 1e6),
)
def test_counted_table_query_is_the_plain_path(default_tables, planet, jd):
    pos, c = counted_query("table", planet, jd, tables=default_tables)
    plain = geocentric_at_table(default_tables, planet, jd)
    assert _bits(pos.lam, pos.beta, pos.delta) == _bits(plain.lam, plain.beta, plain.delta)
    assert (c.transcendental_calls, c.row_accesses) == (0, 4)
    c = OpCounter()
    helio = heliocentric_at_table(default_tables, planet, jd, counter=c)
    assert _bits(*helio) == _bits(*heliocentric_at_table(default_tables, planet, jd))
    assert (c.transcendental_calls, c.row_accesses) == (0, 2)


def test_census_solver_calls_are_the_builders_solves(dataset, monkeypatch):
    solves = 0
    real = kepler.solve_kepler

    def counting(M, e):
        nonlocal solves
        solves += 1
        return real(M, e)

    monkeypatch.setattr(kepler, "solve_kepler", counting)
    plan = compile_plan(dataset, dataset.names, 8.0, (8, 12))
    for builder, args in plan:
        builder(*args)
    census = calculation_census(plan)
    assert solves == census["solver_calls"]
