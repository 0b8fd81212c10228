import dis
import functools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import urania
from conftest import DATA_DIR, valid_elements
from urania import (
    DegenerateGeometryError,
    OpCounter,
    OrbitalElements,
    calculation_census,
    compile_plan,
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
from urania.opcount import derive_counted, twin
from urania.tables import row_count
from urania.tables import build_double_entry


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


def _direct_record(c, pos):
    """[adds, muls, transcendental_calls, *pos as float hex], as frozen; no row accesses."""
    assert c.row_accesses == 0
    return [*_tally(c), *(x.hex() for x in pos)]


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
        pos, c = counted_query("direct", planet, jd, dataset=dataset)
        assert pos == geocentric_at(dataset[planet], earth, jd)  # plain == counted
        assert _direct_record(c, pos) == want, (planet, jd)


def test_golden_tallies_at_high_eccentricity(golden):
    assert any(s["planet"]["e"] >= 0.9 for s in golden["element_sets"])
    for s in golden["element_sets"]:
        planet, earth = OrbitalElements(**s["planet"]), OrbitalElements(**s["earth"])
        bodies = {planet.name: planet, earth.name: earth}
        for jd, *want in s["records"]:
            pos, c = counted_query("direct", planet.name, jd, dataset=bodies)
            assert pos == geocentric_at(planet, earth, jd)
            assert _direct_record(c, pos) == want, (planet.name, jd)


def test_golden_table_queries(golden_table, default_tables):
    assert len(golden_table["queries"]) >= 200
    for planet, jd, *want in golden_table["queries"]:
        pos, c = counted_query("table", planet, jd, tables=default_tables)
        assert _table_record(c, pos.lam, pos.beta, pos.delta) == want, (planet, jd)
        assert geocentric_at_table(default_tables, planet, jd) == pos  # plain == counted
    for body, jd, *want in golden_table["heliocentric"]:
        c = OpCounter()
        out = twin("heliocentric_at_table")(c, default_tables, body, jd)
        assert _table_record(c, *out) == want, (body, jd)
        assert heliocentric_at_table(default_tables, body, jd) == out


def test_golden_table_entry_points(golden_table, default_tables):
    for jd, t_aph, period, *want in golden_table["phase_days"]:
        c = OpCounter()
        u = twin("phase_days")(c, None, jd, t_aph, period)
        assert _table_record(c, u) == want, (jd, t_aph, period)
        assert phase_days(None, jd, t_aph, period) == u
    for planet, u, v, *want, _ in golden_table["lookup_double"]:
        table, c = default_tables.double_for(planet), OpCounter()
        out = twin("lookup_double")(c, table, u, v)
        assert _table_record(c, *out) == want, (planet, u, v)
        assert lookup_double(table, u, v) == out
    for body, x, *want, _ in golden_table["lookup_planet"]:
        table, c = default_tables.single_for(body), OpCounter()
        out = twin("lookup_planet")(c, table, x)
        assert _table_record(c, *out) == want, (body, x)
        assert lookup_planet(table, x) == out


def test_golden_table_records_cover_every_fix_up(golden_table):
    fired = {name for key in ("lookup_double", "lookup_planet")
             for record in golden_table[key] for name in record[-1]}
    # lookup_planet's fold fires at no golden record; the tests of the wrap
    # row and of each interval's end hold it (test_evaluate.py)
    assert fired == {"wrap180", "renormalize"}


def test_compile_tally_counts_the_builders_own_code(golden):
    # The frozen compile tally is the builders' own code, and the measured
    # one is the sum of its parts. A single-entry table counts as built
    # alone. A double-entry table counts its two orbit frames (compile work,
    # once per element set), one position per grid line, one reduction per
    # cell, and its own du, dv and grid abscissae: 2 + n_u + n_v muls. Then
    # each of its rows' coefficient cells, which a query derives on first
    # use: per cell 3 fmods, 15 differences, and one add per longitude offset
    # folded into (-180, 180].
    cfg = golden["compile"]
    bodies = {d["name"]: OrbitalElements(**d) for d in cfg["bodies"]}
    plan = compile_plan(bodies, bodies, cfg["step_days"], cfg["double_shape"])
    c = measure_compile_ops(plan)
    assert c.row_accesses == 0

    parts, rows = OpCounter(), OpCounter()
    for builder, args in plan:
        if builder is not build_double_entry:
            parts.merge(measure_compile_ops([(builder, args)]))
            continue
        planet, earth, n_u, n_v = args
        planet_frame = twin("orbit_frame")(parts, planet)
        earth_frame = twin("orbit_frame")(parts, earth)
        planet_vecs, earth_vecs = [], []
        for iu in range(n_u):
            planet_vecs.append(
                twin("heliocentric_xyz")(parts, planet, planet_frame, iu * (planet.P / n_u)))
        for iv in range(n_v):
            earth_vecs.append(
                twin("heliocentric_xyz")(parts, earth, earth_frame, iv * (earth.P / n_v)))
        for planet_vec in planet_vecs:
            for earth_vec in earth_vecs:
                twin("reduce_rect")(parts, planet_vec, earth_vec)
        parts.muls += 2 + n_u + n_v

        lam = builder(*args).knots[0::3]
        offsets = [lam[(iu + a) % n_u * n_v + (iv + b) % n_v] - lam[iu * n_v + iv]
                   for iu in range(n_u) for iv in range(n_v) for a, b in ((1, 0), (0, 1), (1, 1))]
        rows.adds += 15 * n_u * n_v + sum(not -180.0 < d <= 180.0 for d in offsets)
        rows.muls += 3 * n_u * n_v
    assert _tally(c) == [cfg["tally"][k] + getattr(rows, k)
                         for k in ("adds", "muls", "transcendental_calls")]
    parts.merge(rows)
    assert parts == c


def test_frame_counts_once_per_element_set_and_not_per_query(dataset):
    # orbit_frame has no branch: 3 degree conversions, 6 sin/cos, one
    # sqrt(1 - e^2), P and Q scaled by a and b, and the mean motion 360/P,
    # for every element set.
    frame_twin = twin("orbit_frame")
    for el in dataset:
        c = OpCounter()
        frame_twin(c, el)
        assert c.as_dict() == {"adds": 5, "muls": 26, "transcendental_calls": 7,
                               "row_accesses": 0, "total": 38}
    # A counted direct query fetches each frame from the cache, a call
    # outside the chain: its tally is two positions, the two elapsed times
    # and one reduction, and no frame.
    mars, earth, jd = dataset["mars"], dataset["earth"], 2451545.0 + 321.77
    _, counted = counted_query("direct", "mars", jd, dataset=dataset)
    parts = OpCounter()
    p = twin("heliocentric_xyz")(parts, mars, kepler.orbit_frame(mars), jd - mars.T_aph)
    e = twin("heliocentric_xyz")(parts, earth, kepler.orbit_frame(earth), jd - earth.T_aph)
    twin("reduce_rect")(parts, p, e)
    parts.adds += 2
    assert parts == counted


def test_counting_has_one_door():
    # Outside opcount, a counted call reaches its twin through opcount.twin.
    package = Path(urania.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if p.name != "opcount.py" and "_twins" in p.read_text()] == []
    with pytest.raises(KeyError):
        twin("no_such_function")


# ---------------------------------------------------------------------------
# The tally against the interpreter
# ---------------------------------------------------------------------------

# +, -, *, / and their in-place forms: one opcode each before Python 3.11,
# BINARY_OP with the operator as its argument since
_ARITHMETIC_OPNAMES = {f"{kind}_{op}" for kind in ("BINARY", "INPLACE")
                       for op in ("ADD", "SUBTRACT", "MULTIPLY", "TRUE_DIVIDE")}
_ARITHMETIC_SIGNS = {"+", "-", "*", "/", "+=", "-=", "*=", "/="}
_TRANSCENDENTAL = (math.sin, math.cos, math.atan2, math.asin, math.sqrt)


@functools.cache
def _float_arithmetic_offsets(code) -> frozenset:
    """Offsets of the +, -, *, / instructions of ``code``, but for those whose
    right operand is an int literal (index bookkeeping such as ``k -= 1``; no
    chain function has an int literal on the left)."""
    offsets, previous = set(), None
    for ins in dis.get_instructions(code):
        arithmetic = (ins.opname in _ARITHMETIC_OPNAMES
                      or ins.opname == "BINARY_OP" and ins.argrepr in _ARITHMETIC_SIGNS)
        int_literal = (previous is not None and previous.opname.startswith("LOAD_")
                       and type(previous.argval) is int)
        if arithmetic and not int_literal:
            offsets.add(ins.offset)
        previous = ins
    return frozenset(offsets)


def _executed(query, inputs):
    """Per call ``query(*args)`` of ``inputs``: the float +, -, *, /
    instructions it executes plus its ``math.fmod`` calls, and its
    transcendental calls, as the interpreter reports them (opcode events of
    ``sys.settrace``, C calls of ``sys.setprofile``)."""
    arithmetic = transcendental = 0

    def on_opcode(frame, event, arg):
        nonlocal arithmetic
        if event == "opcode" and frame.f_lasti in _float_arithmetic_offsets(frame.f_code):
            arithmetic += 1
        return on_opcode

    def on_call(frame, event, arg):
        # Python 3.13 starts opcode events only in a frame that has a trace
        # function when it asks for them
        frame.f_trace = on_opcode
        frame.f_trace_opcodes = True
        return on_opcode

    def on_c_call(frame, event, arg):
        nonlocal arithmetic, transcendental
        if event == "c_call":
            if arg is math.fmod:
                arithmetic += 1
            elif any(arg is f for f in _TRANSCENDENTAL):
                transcendental += 1

    executed = []
    restore = sys.gettrace(), sys.getprofile()
    # Python 3.12 starts opcode events at settrace, and only once some frame
    # has asked for them
    sys._getframe().f_trace_opcodes = True
    sys.settrace(on_call)
    sys.setprofile(on_c_call)
    try:
        for args in inputs:
            arithmetic = transcendental = 0
            query(*args)
            executed.append((arithmetic, transcendental))
    finally:
        sys.settrace(restore[0])
        sys.setprofile(restore[1])
    return executed


@pytest.mark.parametrize("mode", ["table", "direct", "heliocentric"])
def test_the_tally_is_the_arithmetic_the_interpreter_runs(mode, dataset, default_tables):
    # bench's stream at seed 0, over the single-entry tables' six bodies for
    # heliocentric queries. Every row is derived and every orbit frame
    # cached first (the counted pass fetches each), since both are compile
    # work that no query's tally holds.
    planets = sorted(default_tables.single if mode == "heliocentric" else default_tables.double)
    rng = random.Random(0)
    queries = [(planets[i % len(planets)], 2451545.0 + rng.uniform(-36525.0, 36525.0))
               for i in range(200)]
    for table in default_tables.double.values():
        for iu in range(table.n_u):
            table.cells[iu]
    plain = {
        "table": lambda planet, jd: geocentric_at_table(default_tables, planet, jd),
        "direct": lambda planet, jd: geocentric_at(dataset[planet], dataset["earth"], jd),
        "heliocentric": lambda planet, jd: heliocentric_at_table(default_tables, planet, jd),
    }[mode]
    if mode == "heliocentric":
        counted = [OpCounter() for _ in queries]
        for c, (planet, jd) in zip(counted, queries):
            twin("heliocentric_at_table")(c, default_tables, planet, jd)
    else:
        counted = [counted_query(mode, planet, jd, dataset=dataset, tables=default_tables)[1]
                   for planet, jd in queries]
    executed = _executed(plain, queries)
    assert executed == [(c.adds + c.muls, c.transcendental_calls) for c in counted]
    if mode != "direct":
        assert {calls for _, calls in executed} == {0}


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
    first = OpCounter()
    assert counted(first, 4.0, 7) == plain(4.0, 7)
    assert _tally(first) == [2 + 3, 2 + 1, 1 + 1]
    assert first.row_accesses == 0

    plain, counted = _derive(
        "def f(t, i):\n"
        "    row = t.rows[i]\n"  # a subscript of an attribute but .cells is free
        "    cell = t.cells[i][i + 1]\n"  # one fetch, however deep the index
        "    pair = (row, cell)\n"
        "    return pair[0][0] + cell[1]\n"  # local tuple subscripts are free
    )
    t = SimpleNamespace(rows=[(1.0, 2.0)] * 3, cells=[[(3.0, 4.0)] * 3] * 3)
    c = OpCounter()
    assert counted(c, t, 1) == plain(t, 1) == 5.0
    assert [*_tally(c), c.row_accesses] == [1, 0, 0, 1]
    merged = OpCounter()
    merged.merge(first)
    merged.merge(c)
    assert [*_tally(merged), merged.row_accesses, merged.total_ops()] == [6, 3, 2, 1, 12]


_EARLY_EXITS = (
    "def f(x, n):\n"
    "    y = x * 2.0\n"
    "    if y > 10.0:\n"
    "        return y - 1.0\n"
    "    z = y + 1.0\n"
    "    for i in range(n):\n"
    "        z = z * 1.5\n"
    "        if z > 20.0:\n"
    "            break\n"
    "        if i == 1:\n"
    "            continue\n"
    "        z = z - 0.5\n"
    "    return z + math.sqrt(x)\n"
)


def _hand_count(x, n):
    """[adds, muls, transcendental_calls] of ``_EARLY_EXITS`` at (x, n), by hand."""
    adds, muls = 0, 1
    y = x * 2.0
    if y > 10.0:
        return [adds + 1, muls, 0]
    z, adds = y + 1.0, adds + 1
    for i in range(n):
        z, muls = z * 1.5, muls + 1
        if z > 20.0:
            break
        if i == 1:
            continue
        z, adds = z - 0.5, adds + 1
    return [adds + 1, muls, 1]


@pytest.mark.parametrize("x, n", [(6.0, 5), (1.0, 0), (1.0, 1), (1.0, 3), (1.0, 10)])
def test_block_counting_is_exact_on_every_path(x, n):
    # Increments are written once per stretch of statements that run
    # together; an early return, a break and a continue each end a stretch,
    # so every path that returns still counts exactly what it ran.
    plain, counted = _derive(_EARLY_EXITS)
    c = OpCounter()
    assert counted(c, x, n) == plain(x, n)
    assert _tally(c) == _hand_count(x, n)


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
        ("with x:\n        return x", "a With statement"),
        ("_c = x\n    return _c", "uses the name '_c'"),
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


@pytest.mark.parametrize("source", [
    "def f(x):\n    return x\n",
    "class K:\n    def g(self, x):\n        return x\n\n\ndef f(x):\n    return x\n",
])
def test_derivation_refuses_a_name_it_cannot_derive(source):
    # g is bound in the namespace but has no top-level def: no twin replaces it
    namespace = {"math": math, "g": "plain"}
    with pytest.raises(ValueError, match=r"no top-level def of g$"):
        derive_counted(source, ["f", "g"], namespace)
    assert namespace["g"] == "plain"


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
    # a counted table query derives only evaluate's twins, which call no
    # other module's; a counted direct query then derives the direct
    # chain's, each module after those it calls
    assert out.stdout.split() == ["0", "0", "evaluate", "evaluate,angles,kepler,geocentric"]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(valid_elements("planet"), valid_elements("earth"), st.floats(2.35e6, 2.55e6))
def test_counted_direct_is_the_plain_chain(planet, earth, jd):
    bodies = {planet.name: planet, earth.name: earth}
    try:
        plain = geocentric_at(planet, earth, jd)
    except DegenerateGeometryError:
        with pytest.raises(DegenerateGeometryError):
            counted_query("direct", planet.name, jd, dataset=bodies)
        return
    pos, c = counted_query("direct", planet.name, jd, dataset=bodies)
    assert pos == plain  # bit for bit
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
    assert (c.transcendental_calls, c.row_accesses) == (0, 1)
    c = OpCounter()
    helio = twin("heliocentric_at_table")(c, default_tables, planet, jd)
    assert _bits(*helio) == _bits(*heliocentric_at_table(default_tables, planet, jd))
    assert (c.transcendental_calls, c.row_accesses) == (0, 1)


def test_census_solver_calls_are_the_builders_solves(dataset, monkeypatch):
    solves = 0
    real = kepler.solve_kepler

    def counting(M, e):
        nonlocal solves
        solves += 1
        return real(M, e)

    monkeypatch.setattr(kepler, "solve_kepler", counting)
    # one solve per single-entry row and per grid line, at any step
    for step in (8.0, 1.0):
        solves = 0
        plan = compile_plan(dataset, dataset.names, step, (8, 12))
        for builder, args in plan:
            builder(*args)
        census = calculation_census(plan)
        rows = sum(row_count(el.P, step) for el in dataset)
        assert solves == census["solver_calls"] == rows + 5 * (8 + 12)
