import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import urania
from conftest import DATA_DIR
from urania import (
    CorrectionTerm,
    DegenerateGeometryError,
    OpCounter,
    OrbitalElements,
    build_double_entry,
    build_planet_table,
    calculation_census,
    counted_direct,
    geocentric_at,
    kepler,
    measure_compile_ops,
)
from urania.opcount import derive_counted
from urania.tables import row_count


def _elements(d) -> OrbitalElements:
    fields = dict(d, corrections=tuple(CorrectionTerm(*t) for t in d["corrections"]))
    return OrbitalElements(**fields)


@pytest.fixture(scope="module")
def golden():
    with open(DATA_DIR / "golden_direct_tallies.json") as fh:
        return json.load(fh)


def _tally(c):
    return [c.adds, c.muls, c.transcendental_calls]


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


def test_compile_tally_counts_the_builders_own_code(golden):
    # The builders compute each row abscissa as k*step and check the step
    # against P/8: one mul per single-entry row and one per table, which the
    # former hand-written grid walk skipped. Nothing else changed.
    cfg = golden["compile"]
    bodies = {d["name"]: _elements(d) for d in cfg["bodies"]}
    c = measure_compile_ops(bodies, cfg["step_days"], tuple(cfg["double_shape"]))
    rows = sum(row_count(el.P, cfg["step_days"]) for el in bodies.values())
    twin = cfg["twin"]
    assert _tally(c) == [twin["adds"], twin["muls"] + rows + len(bodies), twin["transcendental_calls"]]
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
    code = "import urania, urania.opcount as o; print(o._twins.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(urania.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


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


def test_census_solver_calls_are_the_builders_solves(dataset, monkeypatch):
    solves = 0
    real = kepler.solve_kepler

    def counting(M, e):
        nonlocal solves
        solves += 1
        return real(M, e)

    monkeypatch.setattr(kepler, "solve_kepler", counting)
    step, shape = 8.0, (8, 12)
    earth = dataset["earth"]
    for el in dataset:
        build_planet_table(el, step)
        if el.name != "earth":
            build_double_entry(el, earth, *shape)
    census = calculation_census(dataset.bodies, step_days=step, double_shape=shape)
    assert solves == census.solver_calls
