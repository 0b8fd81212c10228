"""Independent oracles the tests check the engine against.

Nothing here imports the engine's solver or reduction code paths: Kepler's
equation is solved by interval bisection (in float or in 50-digit mpmath),
the coordinate chain is recomputed from scratch in mpmath, and calendar
conversions come from the standard library's proleptic Gregorian ordinal.
The double-entry table lookup is kept as it was written before it became one
flat body: grid spacing recomputed per call, and the engine's own factored
steps ``evaluate._locate`` and ``evaluate._renormalize`` as calls, so the
flat body's inline copies are checked against the one factored source.
"""

import datetime
import math

import mpmath as mp

from urania.evaluate import _locate, _renormalize

TWO_PI = 2.0 * math.pi


def bisect_kepler(M: float, e: float, width: float = 1e-13) -> float:
    """Solve E - e*sin(E) = M for M in [0, 2*pi) by plain bisection."""
    lo, hi = 0.0, TWO_PI
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - M > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def jd_from_date(year: int, month: int, day: int, day_fraction: float = 0.0) -> float:
    """Julian Date from the stdlib's proleptic Gregorian ordinal."""
    ordinal = datetime.date(year, month, day).toordinal()
    return ordinal + 1721424.5 + day_fraction


# ---------------------------------------------------------------------------
# 50-digit recomputation of the whole direct chain.
# ---------------------------------------------------------------------------

mp.mp.dps = 50


def mp_solve_kepler(M, e):
    """Bisection at 50 digits; M any finite value (treated mod 2*pi)."""
    M = mp.mpf(M)
    e = mp.mpf(e)
    two_pi = 2 * mp.pi
    k = mp.floor(M / two_pi)
    Mr = M - two_pi * k
    lo, hi = mp.mpf(0), two_pi
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid - e * mp.sin(mid) - Mr > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2 + two_pi * k


def mp_heliocentric(el, jd):
    """(l_deg, b_deg, r_au) as mpmath values for an OrbitalElements record."""
    deg = mp.pi / 180
    dt = mp.mpf(jd) - mp.mpf(el.T_aph)
    M_aph = mp.mpf(360) / mp.mpf(el.P) * dt
    for c in el.corrections:
        M_aph += mp.mpf(c.amplitude) * mp.sin(
            (mp.mpf(360) * dt / mp.mpf(c.period) + mp.mpf(c.phase)) * deg
        )
    M_peri = (M_aph + 180) * deg
    e = mp.mpf(el.e)
    E = mp_solve_kepler(M_peri, e)
    nu = 2 * mp.atan2(mp.sqrt(1 + e) * mp.sin(E / 2), mp.sqrt(1 - e) * mp.cos(E / 2))
    r = mp.mpf(el.a) * (1 - e * mp.cos(E))
    u = mp.mpf(el.omega) * deg + nu
    node = mp.mpf(el.Omega) * deg
    incl = mp.mpf(el.i) * deg
    x = r * (mp.cos(node) * mp.cos(u) - mp.sin(node) * mp.sin(u) * mp.cos(incl))
    y = r * (mp.sin(node) * mp.cos(u) + mp.cos(node) * mp.sin(u) * mp.cos(incl))
    z = r * mp.sin(u) * mp.sin(incl)
    l = mp.atan2(y, x) / deg
    if l < 0:
        l += 360
    b = mp.asin(z / r) / deg
    return l, b, r


def mp_geocentric(planet_el, earth_el, jd):
    """(lambda_deg, beta_deg, delta_au) recomputed at 50 digits."""
    deg = mp.pi / 180

    def rect(state):
        l, b, r = state
        return (
            r * mp.cos(b * deg) * mp.cos(l * deg),
            r * mp.cos(b * deg) * mp.sin(l * deg),
            r * mp.sin(b * deg),
        )

    px, py, pz = rect(mp_heliocentric(planet_el, jd))
    ex, ey, ez = rect(mp_heliocentric(earth_el, jd))
    dx, dy, dz = px - ex, py - ey, pz - ez
    delta = mp.sqrt(dx * dx + dy * dy + dz * dz)
    lam = mp.atan2(dy, dx) / deg
    if lam < 0:
        lam += 360
    beta = mp.asin(dz / delta) / deg
    return lam, beta, delta


def mp_time_since_aphelion(el, nu_aph_deg):
    """Invert the anomaly chain at 50 digits (no corrections)."""
    deg = mp.pi / 180
    e = mp.mpf(el.e)
    half = mp.mpf(nu_aph_deg) * deg / 2
    E_aph = 2 * mp.atan2(mp.sqrt(1 + e) * mp.sin(half), mp.sqrt(1 - e) * mp.cos(half))
    if E_aph < 0:
        E_aph += 2 * mp.pi
    M_aph = E_aph + e * mp.sin(E_aph)
    return M_aph / (2 * mp.pi) * mp.mpf(el.P)


def wrap_abs_deg(a, b) -> float:
    """|a - b| on the circle, in degrees, as a float."""
    d = math.fmod(float(a) - float(b), 360.0)
    if d < -180.0:
        d += 360.0
    elif d > 180.0:
        d -= 360.0
    return abs(d)


# ---------------------------------------------------------------------------
# The double-entry lookup as it was written before it became one flat body,
# on the engine's own _locate and _renormalize. Plain float code in the
# engine's own style, so opcount can derive its counted twin too.
# ---------------------------------------------------------------------------


def ref_wrap180(d: float) -> float:
    """Fold a difference of two normalized angles into (-180, 180]."""
    if d > 180.0:
        d -= 360.0
    elif d <= -180.0:
        d += 360.0
    return d


def ref_lookup_double(table, u: float, v: float):
    """Bilinear (lambda, beta, delta) at phases (u, v) in range, as a tuple."""
    du = table.planet.P / table.n_u
    dv = table.earth.P / table.n_v
    iu, u0 = _locate(u, du, table.n_u)
    iv, v0 = _locate(v, dv, table.n_v)
    fu = (u - u0) / du
    fv = (v - v0) / dv
    iu1 = iu + 1 if iu + 1 < table.n_u else 0
    iv1 = iv + 1 if iv + 1 < table.n_v else 0

    c00 = table.cells[iu][iv]
    c10 = table.cells[iu1][iv]
    c01 = table.cells[iu][iv1]
    c11 = table.cells[iu1][iv1]

    gu = 1.0 - fu
    gv = 1.0 - fv
    w00 = gu * gv
    w10 = fu * gv
    w01 = gu * fv
    w11 = fu * fv

    d10 = ref_wrap180(c10[0] - c00[0])
    d01 = ref_wrap180(c01[0] - c00[0])
    d11 = ref_wrap180(c11[0] - c00[0])
    lam = _renormalize(c00[0] + (w10 * d10 + w01 * d01 + w11 * d11))
    beta = (w00 * c00[1] + w10 * c10[1]) + (w01 * c01[1] + w11 * c11[1])
    delta = (w00 * c00[2] + w10 * c10[2]) + (w01 * c01[2] + w11 * c11[2])
    return lam, beta, delta
