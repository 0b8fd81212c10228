"""Independent oracles the tests check the engine against.

Nothing here imports the engine's solver or reduction code paths: Kepler's
equation is solved by interval bisection (in float or in 50-digit mpmath),
the coordinate chain is recomputed from scratch in mpmath, and calendar
conversions come from the standard library's proleptic Gregorian ordinal.
The double-entry table lookup is written twice. ``ref_lookup_double`` is the
engine's difference form factored into calls: grid spacing recomputed per
call, the cell derived from its four corner knots with ``angles.wrap_diff_deg``
and the sum renormalized with ``angles.normalize_deg``, so the engine's flat
body and its row derivation are checked against the factored sources.
``four_corner_lookup`` is the textbook weighted sum of the four corners, which
the difference form must agree with to rounding.
"""

import datetime
import math

import mpmath as mp

from urania.angles import normalize_deg, wrap_diff_deg

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
# The double-entry lookup, factored into calls, on the engine's own angle
# functions. Plain float code in the engine's own style, so opcount can derive
# the counted twin of ref_lookup_double and ref_bilinear; ref_cell stays
# plain, as the engine's row derivation is free in a query's tally.
# ---------------------------------------------------------------------------


def ref_knot(table, iu: int, iv: int):
    """The (lambda, beta, delta) stored for cell (iu, iv), read off the knots."""
    k = 3 * (iu * table.n_v + iv)
    return tuple(table.knots[k:k + 3])


def ref_cell(table, iu: int, iv: int):
    """Per component, (f00, fu, fv, fuv) of the cell at (iu, iv): its knot and
    forward differences to the knots one row on (f10), one column on (f01)
    and both (f11), wrapping past the last row and column; for lambda each
    offset from f00 is folded into (-180, 180]."""
    iu1 = (iu + 1) % table.n_u
    iv1 = (iv + 1) % table.n_v
    c00, c10 = ref_knot(table, iu, iv), ref_knot(table, iu1, iv)
    c01, c11 = ref_knot(table, iu, iv1), ref_knot(table, iu1, iv1)
    offsets = [(wrap_diff_deg(c10[0], c00[0]), wrap_diff_deg(c01[0], c00[0]),
                wrap_diff_deg(c11[0], c00[0]))]
    offsets += [(c10[i] - c00[i], c01[i] - c00[i], c11[i] - c00[i]) for i in (1, 2)]
    return [(c00[i], d10, d01, d11 - d10 - d01) for i, (d10, d01, d11) in enumerate(offsets)]


def ref_bilinear(f, fu: float, fv: float) -> float:
    """The cell ``f`` = (f00, fu, fv, fuv) at fractions (fu, fv)."""
    return f[0] + fu * f[1] + fv * (f[2] + fu * f[3])


def ref_lookup_double(table, u: float, v: float):
    """Bilinear (lambda, beta, delta) at phases (u, v) in range, as a tuple.

    Each axis is located in grid coordinates: the phase over the spacing,
    its integer part clamped to the last interval, and the fraction left.
    A knot is returned as stored."""
    x = u / (table.planet.P / table.n_u)
    y = v / (table.earth.P / table.n_v)
    iu = min(int(x), table.n_u - 1)
    iv = min(int(y), table.n_v - 1)
    fu = x - iu
    fv = y - iv
    lam, beta, delta = ref_cell(table, iu, iv)
    if fu == 0.0 and fv == 0.0:
        return lam[0], beta[0], delta[0]
    return (normalize_deg(ref_bilinear(lam, fu, fv)), ref_bilinear(beta, fu, fv),
            ref_bilinear(delta, fu, fv))


def four_corner_lookup(table, x: float, y: float):
    """Bilinear (lambda, beta, delta) at grid coordinates (x, y) in range as
    the weighted sum of the four corner knots; lambda as the first corner's
    plus the weighted offsets of the others, each folded into (-180, 180]."""
    iu = min(int(x), table.n_u - 1)
    iv = min(int(y), table.n_v - 1)
    fu, fv = x - iu, y - iv
    iu1, iv1 = (iu + 1) % table.n_u, (iv + 1) % table.n_v
    corners = [ref_knot(table, i, j) for i, j in ((iu, iv), (iu1, iv), (iu, iv1), (iu1, iv1))]
    weights = [(1.0 - fu) * (1.0 - fv), fu * (1.0 - fv), (1.0 - fu) * fv, fu * fv]
    lam0 = corners[0][0]
    lam = lam0 + sum(w * wrap_diff_deg(c[0], lam0) for w, c in zip(weights, corners))
    return (normalize_deg(lam), *(sum(w * c[i] for w, c in zip(weights, corners)) for i in (1, 2)))
