import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_el, valid_elements
from oracles import mp_heliocentric, mp_time_since_aphelion, wrap_abs_deg
from urania import (
    CorrectionTerm,
    DomainError,
    OrbitalElements,
    UnsupportedInversionError,
    aphelion_shift,
    kepler,
    position_since_aphelion,
    radius,
    rect_to_spherical,
    solve_kepler,
    time_since_aphelion,
    validate_elements,
)
from urania.angles import DEG2RAD
from urania.dataset import MAX_ELAPSED_DAYS
from urania.kepler import (
    _EXIT_TOL,
    cached_frame,
    heliocentric_xyz,
    mean_anomaly_elapsed,
    orbit_frame,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# solve_kepler
# ---------------------------------------------------------------------------


def test_solver_perihelion_fixed_point():
    assert solve_kepler(0.0, 0.5) == 0.0


def test_solver_circular_identity():
    for M in (0.1, 1.0, 3.0, 6.0):
        assert solve_kepler(M, 0.0) == pytest.approx(M, abs=1e-15)


def test_solver_frozen_value():
    # bisection oracle at 50 digits gives 1.498701133517848314...
    assert solve_kepler(1.0, 0.5) == pytest.approx(1.4987011335178483, abs=5e-12)


def test_solver_same_revolution():
    base = solve_kepler(1.0, 0.5)
    shifted = solve_kepler(1.0 + 3 * TWO_PI, 0.5)
    assert shifted == pytest.approx(base + 3 * TWO_PI, abs=1e-9)
    negative = solve_kepler(1.0 - TWO_PI, 0.5)
    assert negative == pytest.approx(base - TWO_PI, abs=1e-9)


def test_solver_monotone_in_M():
    for e in (0.2, 0.9):
        Ms = [TWO_PI * k / 500.0 for k in range(500)]
        Es = [solve_kepler(M, e) for M in Ms]
        assert all(b > a for a, b in zip(Es, Es[1:]))


@settings(max_examples=300, deadline=None)
@given(M=st.floats(0.0, TWO_PI, exclude_max=True), e=st.floats(0.0, 0.97))
def test_solver_exits_below_its_own_residual_tolerance(M, e):
    # Newton stops on a small residual or on a step under 1e-8; either way
    # the residual of the returned E is below the loop's 1e-14, not just
    # the documented KEPLER_TOL.
    E = solve_kepler(M, e)
    assert abs(E - e * math.sin(E) - M) < _EXIT_TOL


@pytest.mark.parametrize("M", [math.nextafter(TWO_PI, 0.0), TWO_PI, -1.0, -TWO_PI, -40.0, -5e-324],
                         ids=["below-2pi", "2pi", "-1", "-2pi", "-40", "-denormal"])
@pytest.mark.parametrize("e", [0.0, 0.5, 0.9, 0.97])
def test_solver_on_both_sides_of_the_first_revolution(monkeypatch, M, e):
    # M in [0, 2*pi) is solved as it is; any other M, -5e-324 too, is reduced
    # first and its revolution added back, so E stays within e of M, also by
    # the bisection fallback alone, which no input exhausting Newton reaches.
    for newton in (kepler._MAX_NEWTON, 0):
        monkeypatch.setattr(kepler, "_MAX_NEWTON", newton)
        E = solve_kepler(M, e)
        assert abs(E - e * math.sin(E) - M) < _EXIT_TOL
        assert abs(E - M) <= e + (1e-15 if newton else _EXIT_TOL)


@pytest.mark.parametrize("e", [-0.1, 1.0, 1.5])
def test_solver_rejects_bad_eccentricity(e):
    with pytest.raises(DomainError):
        solve_kepler(1.0, e)


def test_solver_rejects_nonfinite_M():
    with pytest.raises(DomainError):
        solve_kepler(math.nan, 0.5)


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------


def test_radius_apsides_exact():
    assert radius(0.0, 0.3, 2.0) == 2.0 * 0.7
    assert radius(math.pi, 0.3, 2.0) == 2.0 * 1.3


def test_radius_quadrature_point():
    assert radius(math.pi / 2, 0.5, 1.0) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# mean anomaly
# ---------------------------------------------------------------------------


def mean_anomaly(el, dt):
    """The mean anomaly of ``el`` ``dt`` days after aphelion, at its mean motion."""
    return mean_anomaly_elapsed(el, 360.0 / el.P, dt)


def test_mean_anomaly_at_aphelion_epoch():
    el = make_el()
    assert mean_anomaly(el, 0.0) == 0.0


def test_mean_anomaly_half_period():
    el = make_el(P=128.0)
    assert mean_anomaly(el, 64.0) == pytest.approx(180.0, abs=1e-12)


def test_mean_anomaly_linear():
    el = make_el(P=100.0)
    assert mean_anomaly(el, 10.0) == pytest.approx(36.0, abs=1e-12)


def test_mean_anomaly_refuses_elapsed_times_beyond_the_bound():
    el = make_el(P=128.0)
    below = math.nextafter(MAX_ELAPSED_DAYS, 0.0)
    for dt in (below, -below):
        assert 0.0 <= mean_anomaly(el, dt) < 360.0
    for dt in (MAX_ELAPSED_DAYS, -MAX_ELAPSED_DAYS, 1e20, math.nan):
        with pytest.raises(DomainError, match="outside the valid domain"):
            mean_anomaly(el, dt)


def test_mean_anomaly_correction_term():
    term = CorrectionTerm(amplitude=0.25, period=1000.0, phase=30.0)
    el = make_el(P=100.0, corrections=(term,))
    dt = 10.0
    expected = 36.0 + 0.25 * math.sin(math.radians(360.0 * dt / 1000.0 + 30.0))
    assert mean_anomaly(el, dt) == pytest.approx(expected, abs=1e-12)


def test_empty_corrections_change_nothing():
    el = make_el(P=77.0)
    bare = make_el(P=77.0, corrections=())
    for dt in (0.0, 13.37, 200.0):
        assert mean_anomaly(el, dt) == mean_anomaly(bare, dt)


# ---------------------------------------------------------------------------
# heliocentric position
# ---------------------------------------------------------------------------


def xyz(el, jd):
    """The heliocentric (x, y, z) of ``el`` at ``jd``, as direct mode has it."""
    return heliocentric_xyz(el, cached_frame(el), jd - el.T_aph)


def spherical(el, jd):
    """(l, b, r) of ``el`` at ``jd``: the longitude and latitude (degrees) of
    its direct-mode position, and its radius from ``kepler.radius``."""
    l, b, _ = rect_to_spherical(xyz(el, jd))
    return l, b, position_since_aphelion(el, jd - el.T_aph)[1]


def test_planar_orbit_has_zero_latitude():
    el = make_el(i=0.0, Omega=0.0)
    rng = random.Random(1)
    for _ in range(50):
        jd = el.T_aph + rng.uniform(0.0, el.P)
        assert xyz(el, jd)[2] == 0.0
        assert spherical(el, jd)[1] == 0.0


def test_pole_case():
    # e=0, omega=90: at t = P/2 the argument of latitude is 90 degrees
    el = make_el(e=0.0, i=90.0, Omega=0.0, omega=90.0, P=128.0)
    assert spherical(el, el.T_aph + 64.0)[1] == 90.0


def test_radius_bounds_invariant():
    el = make_el(e=0.6)
    rng = random.Random(2)
    for _ in range(100):
        _, b, r = spherical(el, el.T_aph + rng.uniform(-3000.0, 3000.0))
        assert el.a * (1.0 - el.e) - 1e-12 <= r <= el.a * (1.0 + el.e) + 1e-12
        assert abs(b) <= el.i


def test_matches_extended_precision_oracle(dataset):
    mars = dataset["mars"]
    for jd in (2451545.0, 2451545.0 + 321.77, 2451545.0 - 4567.25):
        l, b, r = spherical(mars, jd)
        l_mp, b_mp, r_mp = mp_heliocentric(mars, jd)
        assert wrap_abs_deg(l, float(l_mp)) < 1e-9
        assert abs(b - float(b_mp)) < 1e-9
        assert abs(r - float(r_mp)) / float(r_mp) < 1e-12


@settings(max_examples=150, deadline=None)
@given(valid_elements("body"), st.floats(-3.0, 3.0))
def test_rectangular_chain_matches_the_oracle_on_drawn_elements(el, revolutions):
    # Within three revolutions of the aphelion epoch, and with correction
    # periods of 10 days or more, the rounding of the mean anomaly's inputs
    # stays far below the tolerances: a 1-day correction term 1e5 days out
    # has an argument of 4e7 degrees, whose rounding alone moves r by 2e-12.
    # The longitude error is measured on the sky (times cos b): at the poles
    # a longitude has no meaning.
    assume(all(c.period >= 10.0 for c in el.corrections))
    jd = el.T_aph + revolutions * el.P
    l, b, r = spherical(el, jd)
    l_mp, b_mp, r_mp = mp_heliocentric(el, jd)
    assert abs(b - float(b_mp)) < 1e-9
    assert wrap_abs_deg(l, float(l_mp)) * math.cos(math.radians(float(b_mp))) < 1e-9
    assert abs(r - float(r_mp)) / float(r_mp) < 1e-12


def test_frame_cache_is_bounded_and_keyed_by_value():
    el = make_el(name="frame-probe", a=2.5, omega=33.0)
    same = OrbitalElements(*el)  # an equal record, another object
    assert same is not el
    assert cached_frame(el) is cached_frame(same)
    assert cached_frame(el) == orbit_frame(el)
    assert cached_frame(make_el(name="frame-probe", a=2.5, omega=34.0)) != orbit_frame(el)
    assert 0 < cached_frame.cache_info().maxsize <= 1024


def test_uniform_motion_circular_planar():
    el = make_el(e=0.0, i=0.0, Omega=0.0, P=128.0)
    rate = 360.0 / el.P
    l0 = spherical(el, el.T_aph)[0]
    for t in (1.0, 7.25, 100.0):
        lt = spherical(el, el.T_aph + t)[0]
        assert wrap_abs_deg(lt - l0, (rate * t) % 360.0) < 1e-12


def test_symmetry_about_apsides():
    el = make_el(e=0.4, P=200.0)
    for t in (10.0, 55.5, 90.0):
        nu_fwd, r_fwd = position_since_aphelion(el, t)
        nu_bwd, r_bwd = position_since_aphelion(el, el.P - t)
        assert abs(r_fwd - r_bwd) < 1e-9
        assert wrap_abs_deg(nu_bwd, 360.0 - nu_fwd) < 1e-9


# ---------------------------------------------------------------------------
# time_since_aphelion
# ---------------------------------------------------------------------------


def test_inversion_at_apsides():
    el = make_el(e=0.3, P=100.0)
    assert time_since_aphelion(el, 0.0) == 0.0
    assert time_since_aphelion(el, 180.0) == pytest.approx(el.P / 2.0, abs=1e-9)


def test_inversion_frozen_value():
    # 50-digit inversion gives 34.404058380473176...
    el = make_el(e=0.3, P=100.0)
    assert time_since_aphelion(el, 90.0) == pytest.approx(34.404058380473176, abs=1e-9)


def test_inversion_matches_mp_oracle():
    el = make_el(e=0.85, P=432.1)
    for nu in (1.0, 45.0, 179.0, 181.0, 300.0, 359.0):
        assert time_since_aphelion(el, nu) == pytest.approx(
            float(mp_time_since_aphelion(el, nu)), abs=1e-9
        )


def test_inversion_refuses_corrections():
    el = make_el(corrections=(CorrectionTerm(amplitude=0.1, period=500.0, phase=0.0),))
    with pytest.raises(UnsupportedInversionError):
        time_since_aphelion(el, 45.0)


# ---------------------------------------------------------------------------
# element validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("a", -1.0, "semi-major"),
        ("a", 1e100, "semi-major"),
        ("e", 1.0, "eccentricity"),
        ("e", -0.2, "eccentricity"),
        ("i", 180.0, "inclination"),
        ("Omega", 361.0, "node"),
        ("P", 0.0, "period"),
        ("T_aph", math.inf, "aphelion"),
        ("Omega", 360.0, "node"),
        ("omega", 360.0, "perihelion"),
        ("name", "", "empty name"),
    ],
)
def test_validate_elements_names_field(field, value, fragment):
    el = make_el(**{field: value})
    with pytest.raises(DomainError, match=fragment):
        validate_elements(el)


def test_validate_elements_checks_corrections():
    good = CorrectionTerm(amplitude=0.1, period=10.0, phase=0.0)
    for field, value in (("amplitude", -0.1), ("period", 0.0), ("phase", math.inf)):
        el = make_el(corrections=(good, good._replace(**{field: value})))
        with pytest.raises(DomainError, match=f"correction 2 {field}"):
            validate_elements(el)


# ---------------------------------------------------------------------------
# Kept only for perfbench: the pre-lean direct chain, which the harness's
# ``_kepler_parts`` and composed direct pass reach as module attributes.
# Delete this section with the chain (ROADMAP item 2).
# ---------------------------------------------------------------------------


def test_the_pre_lean_state_is_the_live_position(dataset):
    for el in (dataset["mars"], make_el(corrections=(CorrectionTerm(0.25, 1000.0, 30.0),))):
        for jd in (el.T_aph, 2451545.0 + 321.77, 2451545.0 - 4567.25):
            state = kepler.heliocentric_state(el, jd)
            assert state == (*xyz(el, jd), position_since_aphelion(el, jd - el.T_aph)[1])
            M = kepler.mean_anomaly_aph(el, jd)
            assert M == mean_anomaly(el, jd - el.T_aph)
            # _kepler_parts: mean anomaly -> solve -> true anomaly and radius
            E = solve_kepler(aphelion_shift(M) * DEG2RAD, el.e)
            kepler.true_anomaly(E, el.e)
            assert radius(E, el.e, el.a) == state.r


def test_true_anomaly_circular_identity():
    for E in (0.0, 0.5, 2.0, 4.0, 6.0):
        assert kepler.true_anomaly(E, 0.0) == pytest.approx(E, abs=1e-12)


def test_true_anomaly_aphelion():
    for e in (0.0, 0.3, 0.9):
        assert kepler.true_anomaly(math.pi, e) == math.pi


def test_true_anomaly_closed_form():
    # tan(nu/2) = sqrt(1.5/0.5) * tan(pi/4) -> nu = 2*atan(sqrt(3)) = 120 deg
    nu = kepler.true_anomaly(math.pi / 2, 0.5)
    assert nu == pytest.approx(2.0 * math.atan(math.sqrt(3.0)), abs=1e-12)
    assert math.degrees(nu) == pytest.approx(120.0, abs=1e-12)


def test_true_anomaly_monotone_in_E():
    for e in (0.2, 0.8):
        Es = [TWO_PI * k / 400.0 for k in range(400)]
        nus = [kepler.true_anomaly(E, e) for E in Es]
        assert all(b > a for a, b in zip(nus, nus[1:]))
