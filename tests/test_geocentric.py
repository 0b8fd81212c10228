import math
import random

import pytest

import urania
from conftest import helio_state as state, make_el
from oracles import mp_geocentric, wrap_abs_deg
from urania import (
    DegenerateGeometryError,
    geocentric,
    geocentric_at,
    kepler,
    normalize_deg,
    rect_to_spherical,
    reduce_rect,
)
from urania.kepler import cached_frame, heliocentric_xyz


# ---------------------------------------------------------------------------
# rect_to_spherical
# ---------------------------------------------------------------------------


def test_rect_axis_cases():
    x, y, z, _ = state(0.0, 0.0, 1.0)
    assert (x, y, z) == (1.0, 0.0, 0.0)
    x, y, z, _ = state(90.0, 0.0, 2.0)
    assert abs(x) < 1e-12 and y == pytest.approx(2.0, abs=1e-15) and z == 0.0
    x, y, z, _ = state(0.0, 90.0, 1.0)
    assert abs(x) < 1e-12 and abs(y) < 1e-12 and z == pytest.approx(1.0, abs=1e-15)


def test_spherical_axis_case():
    assert rect_to_spherical((1.0, 0.0, 0.0)) == (0.0, 0.0, 1.0)


def test_spherical_pole_convention():
    lam, beta, delta = rect_to_spherical((0.0, 0.0, 2.0))
    assert lam == 0.0
    assert beta == 90.0
    assert delta == 2.0


def test_spherical_frozen_value():
    # closed form: lambda = 360 - atan(1/2) deg, delta = sqrt(5)
    lam, beta, delta = rect_to_spherical((2.0, -1.0, 0.0))
    assert lam == pytest.approx(333.43494882292201, abs=1e-12)
    assert beta == 0.0
    assert delta == pytest.approx(2.2360679774997896, rel=1e-15)


def test_zero_vector_rejected():
    with pytest.raises(DegenerateGeometryError):
        rect_to_spherical((0.0, 0.0, 0.0))


def test_round_trip_spherical_rect():
    rng = random.Random(8)
    for _ in range(500):
        l, b, r = rng.uniform(0.0, 360.0), rng.uniform(-89.9, 89.9), rng.uniform(0.1, 40.0)
        lam, beta, delta = rect_to_spherical(state(l, b, r)[:3])
        assert wrap_abs_deg(lam, l) < 1e-10
        assert abs(beta - b) < 1e-10
        assert abs(delta - r) / r < 1e-12


def test_round_trip_rect_spherical_rect():
    rng = random.Random(9)
    for _ in range(500):
        v = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        norm = math.sqrt(v[0]**2 + v[1]**2 + v[2]**2)
        if norm < 1e-3:
            continue
        lam, beta, delta = rect_to_spherical(v)
        w = state(lam, beta, delta)
        for got, want in zip(w[:3], v):
            assert abs(got - want) <= 1e-12 * norm


# ---------------------------------------------------------------------------
# reduce_rect
# ---------------------------------------------------------------------------


def test_opposition_geometry():
    pos = reduce_rect(state(0.0, 0.0, 2.0), state(0.0, 0.0, 1.0))
    assert pos.lam == 0.0
    assert pos.beta == 0.0
    assert pos.delta == 1.0


def test_conjunction_side_geometry():
    pos = reduce_rect(state(180.0, 0.0, 2.0), state(0.0, 0.0, 1.0))
    assert wrap_abs_deg(pos.lam, 180.0) < 1e-9
    assert pos.delta == pytest.approx(3.0, rel=1e-15)


def test_quadrature_frozen_value():
    pos = reduce_rect(state(0.0, 0.0, 2.0), state(90.0, 0.0, 1.0))
    assert pos.lam == pytest.approx(333.43494882292201, abs=1e-9)
    assert pos.beta == 0.0
    assert pos.delta == pytest.approx(2.2360679774997896, rel=1e-12)


def test_coincident_positions_rejected():
    with pytest.raises(DegenerateGeometryError):
        reduce_rect(state(12.0, 3.0, 1.5), state(12.0, 3.0, 1.5))


def test_translation_consistency():
    rng = random.Random(21)
    for _ in range(200):
        pl, pb, pr = rng.uniform(0, 360), rng.uniform(-10, 10), rng.uniform(1.2, 9.0)
        el, eb, er = rng.uniform(0, 360), rng.uniform(-1, 1), 1.0
        delta_l = rng.uniform(0, 360)
        base = reduce_rect(state(pl, pb, pr), state(el, eb, er))
        moved = reduce_rect(
            state(normalize_deg(pl + delta_l), pb, pr),
            state(normalize_deg(el + delta_l), eb, er),
        )
        assert wrap_abs_deg(moved.lam, base.lam + delta_l) < 1e-9
        assert abs(moved.beta - base.beta) < 1e-9
        assert abs(moved.delta - base.delta) < 1e-12 * base.delta


def test_triangle_inequality_coplanar():
    rng = random.Random(22)
    for _ in range(300):
        pl, el = rng.uniform(0, 360), rng.uniform(0, 360)
        p = state(pl, 0.0, rng.uniform(0.5, 9.0))
        e = state(el, 0.0, rng.uniform(0.5, 9.0))
        if abs(pl - el) < 1e-9 and abs(p[3] - e[3]) < 1e-9:
            continue
        pos = reduce_rect(p, e)
        assert abs(p[3] - e[3]) - 1e-12 <= pos.delta <= p[3] + e[3] + 1e-12


def test_swap_negates_vector():
    p = state(33.0, 4.0, 3.2)
    e = state(150.0, -1.0, 1.0)
    ab = reduce_rect(p, e)
    ba = reduce_rect(e, p)
    assert wrap_abs_deg(ba.lam, ab.lam + 180.0) < 1e-9
    assert ba.beta == pytest.approx(-ab.beta, abs=1e-12)
    assert ba.delta == ab.delta


# ---------------------------------------------------------------------------
# geocentric_at
# ---------------------------------------------------------------------------


def test_composition_identity(dataset):
    mars, earth = dataset["mars"], dataset["earth"]
    jd = 2451545.0 + 777.125
    composed = reduce_rect(heliocentric_xyz(mars, cached_frame(mars), jd - mars.T_aph),
                           heliocentric_xyz(earth, cached_frame(earth), jd - earth.T_aph))
    direct = geocentric_at(mars, earth, jd)
    assert direct == composed


def test_identical_bodies_raise():
    el = make_el()
    with pytest.raises(DegenerateGeometryError):
        geocentric_at(el, el, el.T_aph + 12.0)


def test_collinear_construction_hits_common_longitude():
    # both at their own aphelia on the same ray: planet beyond earth
    planet = make_el(name="outer", a=3.0, e=0.1, i=0.0, Omega=0.0, omega=40.0, P=900.0)
    earth = make_el(name="earth", a=1.0, e=0.05, i=0.0, Omega=0.0, omega=40.0, P=365.0)
    jd = planet.T_aph  # same T_aph default for both
    aphelion_longitude = normalize_deg(40.0 + 180.0)
    pos = geocentric_at(planet, earth, jd)
    assert wrap_abs_deg(pos.lam, aphelion_longitude) < 1e-9
    assert abs(pos.beta) < 1e-12
    assert pos.delta == pytest.approx(3.0 * 1.1 - 1.0 * 1.05, rel=1e-12)


def test_matches_extended_precision_oracle(dataset):
    jupiter, earth = dataset["jupiter"], dataset["earth"]
    for jd in (2451545.0, 2451545.0 + 1234.5625, 2451545.0 - 2000.25):
        pos = geocentric_at(jupiter, earth, jd)
        lam_mp, beta_mp, delta_mp = mp_geocentric(jupiter, earth, jd)
        assert wrap_abs_deg(pos.lam, float(lam_mp)) < 1e-9
        assert abs(pos.beta - float(beta_mp)) < 1e-9
        assert abs(pos.delta - float(delta_mp)) / float(delta_mp) < 1e-11


# ---------------------------------------------------------------------------
# Kept only for perfbench: the pre-lean direct chain, which the harness's
# composed direct pass reaches as module attributes. Delete this section
# with the chain (ROADMAP item 2).
# ---------------------------------------------------------------------------

PRE_LEAN = {
    kepler: ("HeliocentricState", "heliocentric_state", "mean_anomaly_aph", "true_anomaly"),
    geocentric: ("RectVec", "helio_to_rect", "geocentric_reduce"),
}


def test_the_pre_lean_chain_is_kept_but_not_exported():
    for module, names in PRE_LEAN.items():
        assert all(hasattr(module, name) for name in names)
        assert not set(names) & {*module.__all__, *urania.__all__}
        for name in names:
            assert not hasattr(urania, name)
    with pytest.raises(ImportError):
        from urania import heliocentric_state  # noqa: F401


def test_the_pre_lean_chain_composes_to_geocentric_at(dataset):
    # the harness's composed direct pass, which must match geocentric_at bit for bit
    assert geocentric.geocentric_reduce is reduce_rect
    assert geocentric.helio_to_rect(kepler.HeliocentricState(1.0, -2.0, 0.5, 2.29)) == (
        geocentric.RectVec(1.0, -2.0, 0.5))
    mars, earth = dataset["mars"], dataset["earth"]
    jd = 2451545.0 + 777.125
    direct = geocentric_at(mars, earth, jd)
    ps, es = kepler.heliocentric_state(mars, jd), kepler.heliocentric_state(earth, jd)
    assert geocentric.geocentric_reduce(ps, es) == direct
    pr, er = geocentric.helio_to_rect(ps), geocentric.helio_to_rect(es)
    diff = geocentric.RectVec(x=pr.x - er.x, y=pr.y - er.y, z=pr.z - er.z)
    assert rect_to_spherical(diff) == tuple(direct)
