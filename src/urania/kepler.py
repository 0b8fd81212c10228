"""Two-body orbital mechanics: Kepler's equation and heliocentric states.

Anomalies at public boundaries are measured from aphelion in degrees (the
convention the compiled tables index by); the textbook perihelion-referenced
formulas live inside and are bridged by a 180-degree shift.

Positions are rectangular, (cos E - e)*P + sin E*Q in the body's orbit frame,
which the direct chain computes once per element set (``cached_frame``).
"""

import functools
import math
from typing import NamedTuple

from .angles import DEG2RAD, RAD2DEG, TWO_PI, aphelion_shift, normalize_deg
from .errors import DomainError, UnsupportedInversionError

__all__ = [
    "CorrectionTerm",
    "OrbitalElements",
    "validate_elements",
    "orbit_frame",
    "cached_frame",
    "mean_anomaly_elapsed",
    "solve_kepler",
    "radius",
    "position_since_aphelion",
    "heliocentric_xyz",
    "time_since_aphelion",
    "KEPLER_TOL",
    "MAX_ELAPSED_DAYS",
]

# Guaranteed residual bound for Kepler's equation, radians.
KEPLER_TOL = 1e-12
# The solver iterates further than the guarantee: a residual of eps maps to
# a time error of P*eps/(2*pi) days, so long-period round trips need margin.
_EXIT_TOL = 1e-14
# Newton also stops after a step shorter than this (see solve_kepler).
_STEP_TOL = 1e-8
_MAX_NEWTON = 50
_MAX_BISECT = 200
# Largest |jd - T_aph| accepted, in days (about 188 million years), by both
# modes. Below it one ulp of an elapsed time is at most 2**-17 days, which at
# the default set's fastest mean motion (Mercury, 4.09 deg/day) is 3.1e-5 deg:
# over a thousand times below table mode's frozen 0.042 deg Jupiter bound.
# Further out the rounding of the elapsed time alone outgrows that budget,
# and a phase reduced modulo the period no longer lands in [0, P).
MAX_ELAPSED_DAYS = 2.0**36
# Semi-major axes are refused from 1e100 AU up: below it every coordinate of
# a position or a planet-minus-Earth vector stays under 4e100 AU, so the sum
# of their squares in geocentric.rect_to_spherical cannot overflow to inf.
_MAX_SEMI_MAJOR_AU = 1e100


class CorrectionTerm(NamedTuple):
    """Additive periodic correction to the mean anomaly.

    amplitude in degrees, period in days, phase in degrees.
    """

    amplitude: float
    period: float
    phase: float


class OrbitalElements(NamedTuple):
    """Keplerian elements of one body, with period and an aphelion epoch.

    a in AU, angles in degrees, P in days, T_aph a Julian Date at which the
    body passed aphelion. Elements are treated as constant in time.
    """

    name: str
    a: float
    e: float
    i: float
    Omega: float
    omega: float
    P: float
    T_aph: float
    corrections: tuple[CorrectionTerm, ...] = ()


def validate_elements(el: OrbitalElements) -> None:
    """Raise DomainError naming the offending field if ``el`` is invalid."""

    def bad(fieldname, why):
        raise DomainError(f"{el.name}: {fieldname} {why}")

    if not el.name:
        raise DomainError("element record has an empty name")
    if not (0.0 < el.a < _MAX_SEMI_MAJOR_AU):
        bad("a (semi-major axis)", f"must be in (0, {_MAX_SEMI_MAJOR_AU:g}), got {el.a!r}")
    if not (math.isfinite(el.e) and 0.0 <= el.e < 1.0):
        bad("e (eccentricity)", f"must be in [0, 1), got {el.e!r}")
    if not (math.isfinite(el.i) and 0.0 <= el.i < 180.0):
        bad("i (inclination)", f"must be in [0, 180), got {el.i!r}")
    if not (math.isfinite(el.Omega) and 0.0 <= el.Omega < 360.0):
        bad("Omega (ascending node)", f"must be normalized to [0, 360), got {el.Omega!r}")
    if not (math.isfinite(el.omega) and 0.0 <= el.omega < 360.0):
        bad("omega (argument of perihelion)", f"must be normalized to [0, 360), got {el.omega!r}")
    if not (math.isfinite(el.P) and el.P > 0.0):
        bad("P (period)", f"must be > 0, got {el.P!r}")
    if not math.isfinite(el.T_aph):
        bad("T_aph (aphelion epoch)", f"must be finite, got {el.T_aph!r}")
    for idx, c in enumerate(el.corrections):
        if not (math.isfinite(c.amplitude) and c.amplitude >= 0.0):
            bad(f"correction {idx + 1} amplitude", f"must be >= 0, got {c.amplitude!r}")
        if not (math.isfinite(c.period) and c.period > 0.0):
            bad(f"correction {idx + 1} period", f"must be > 0, got {c.period!r}")
        if not math.isfinite(c.phase):
            bad(f"correction {idx + 1} phase", f"must be finite, got {c.phase!r}")


def mean_anomaly_elapsed(el: OrbitalElements, dt_days: float) -> float:
    """Mean anomaly from aphelion, degrees in [0, 360), dt days after T_aph."""
    if not abs(dt_days) < MAX_ELAPSED_DAYS:
        raise DomainError(
            f"{el.name}: {dt_days!r} days from aphelion is outside the valid domain "
            f"|jd - T_aph| < {MAX_ELAPSED_DAYS:.0f} days"
        )
    M = 360.0 / el.P * dt_days
    for c in el.corrections:
        M += c.amplitude * math.sin((360.0 * dt_days / c.period + c.phase) * DEG2RAD)
    return normalize_deg(M)


def solve_kepler(M: float, e: float) -> float:
    """Solve E - e*sin(E) = M for the eccentric anomaly E (radians).

    Newton iteration started at M (at pi for e > 0.8), with a guaranteed
    bisection fallback on [0, 2*pi]; the residual of the returned E is below
    KEPLER_TOL. E is returned in the same revolution as M; an M already in
    [0, 2*pi) is used as it is, with no reduction.

    Newton stops when the residual is below _EXIT_TOL or when a step is
    shorter than _STEP_TOL. After a step h the residual at the new E is at
    most e/2 * h**2 (Taylor's theorem, |f''| <= e), under 5e-17 for
    |h| < 1e-8, plus a few ulp of rounding: below _EXIT_TOL, so the
    residual test of one more pass would stop at that same E.
    """
    if not (0.0 <= e < 1.0):
        raise DomainError(f"eccentricity must be in [0, 1), got {e!r}")
    if not math.isfinite(M):
        raise DomainError(f"mean anomaly must be finite, got {M!r}")

    if 0.0 <= M < TWO_PI:
        k = 0
        Mr = M
    else:
        k = math.floor(M / TWO_PI)
        Mr = M - TWO_PI * k
        if Mr < 0.0:  # fp guard: the floor quotient can round up
            Mr += TWO_PI
            k -= 1
        if Mr >= TWO_PI:
            Mr -= TWO_PI
            k += 1

    E = Mr if e <= 0.8 else math.pi
    for _ in range(_MAX_NEWTON):
        f = E - e * math.sin(E) - Mr
        if abs(f) < _EXIT_TOL:
            break
        step = f / (1.0 - e * math.cos(E))
        E = E - step
        if abs(step) < _STEP_TOL:
            break
    else:
        lo, hi = 0.0, TWO_PI
        E = math.pi
        for _ in range(_MAX_BISECT):
            f = E - e * math.sin(E) - Mr
            if abs(f) < _EXIT_TOL:
                break
            if f > 0.0:
                hi = E
            else:
                lo = E
            E = 0.5 * (lo + hi)
    if k != 0:
        E += TWO_PI * k
    return E


def radius(E: float, e: float, a: float) -> float:
    """Radius vector a*(1 - e*cos(E)) in AU."""
    return a * (1.0 - e * math.cos(E))


def _nu_aph_from_E(E: float, e: float) -> float:
    """True anomaly measured from aphelion, degrees in [0, 360).

    Half-angle form written against E - pi so that the aphelion itself maps
    to exactly 0 instead of 360 minus a rounding error.
    """
    E_aph = E - math.pi
    nu = 2.0 * math.atan2(
        math.sqrt(1.0 - e) * math.sin(0.5 * E_aph),
        math.sqrt(1.0 + e) * math.cos(0.5 * E_aph),
    )
    return normalize_deg(nu * RAD2DEG)


def position_since_aphelion(el: OrbitalElements, t_days: float) -> tuple[float, float]:
    """(true anomaly from aphelion in degrees, radius in AU) at time t after T_aph."""
    M_aph = mean_anomaly_elapsed(el, t_days)
    E = solve_kepler(aphelion_shift(M_aph) * DEG2RAD, el.e)
    return _nu_aph_from_E(E, el.e), radius(E, el.e, el.a)


def orbit_frame(el: OrbitalElements) -> tuple[float, float, float, float, float, float]:
    """The ecliptic unit vectors P (towards perihelion) and Q (90 degrees
    ahead in the orbit plane) of ``el``, scaled by a and by a*sqrt(1 - e^2):
    (aPx, aPy, aPz, bQx, bQy, bQz). It depends on the elements alone."""
    w = el.omega * DEG2RAD
    node = el.Omega * DEG2RAD
    incl = el.i * DEG2RAD
    cos_w = math.cos(w)
    sin_w = math.sin(w)
    cos_O = math.cos(node)
    sin_O = math.sin(node)
    cos_i = math.cos(incl)
    sin_i = math.sin(incl)
    a = el.a
    b = a * math.sqrt(1.0 - el.e * el.e)
    return (
        a * (cos_O * cos_w - sin_O * sin_w * cos_i),
        a * (sin_O * cos_w + cos_O * sin_w * cos_i),
        a * (sin_w * sin_i),
        b * (-cos_O * sin_w - sin_O * cos_w * cos_i),
        b * (cos_O * cos_w * cos_i - sin_O * sin_w),
        b * (cos_w * sin_i),
    )


# Each element set's frame, computed on its first query. A call outside the
# chain: a frame is counted once per element set, as compile work (opcount).
cached_frame = functools.lru_cache(maxsize=64)(orbit_frame)


def heliocentric_xyz(el: OrbitalElements, frame: tuple, dt_days: float) -> tuple:
    """Ecliptic (x, y, z, r) in AU of ``el`` ``dt_days`` after its aphelion
    passage, in its ``orbit_frame`` ``frame``. Chain: mean anomaly (from
    aphelion, with corrections) -> Kepler solve -> (cos E - e)*P + sin E*Q,
    and r = a*(1 - e*cos E)."""
    M_aph = mean_anomaly_elapsed(el, dt_days)
    E = solve_kepler(aphelion_shift(M_aph) * DEG2RAD, el.e)
    cos_E = math.cos(E)
    sin_E = math.sin(E)
    c = cos_E - el.e
    Px, Py, Pz, Qx, Qy, Qz = frame
    return (c * Px + sin_E * Qx, c * Py + sin_E * Qy, c * Pz + sin_E * Qz,
            el.a * (1.0 - el.e * cos_E))


def time_since_aphelion(el: OrbitalElements, nu_aph: float) -> float:
    """Days after aphelion passage at which the true anomaly equals ``nu_aph``.

    Inverse of the anomaly chain, in [0, P). Only defined for elements with
    no correction terms: a corrected mean anomaly has no closed-form inverse
    (the table compiler never needs one, it walks forward in time).
    """
    if el.corrections:
        raise UnsupportedInversionError(
            f"{el.name}: time_since_aphelion is undefined with correction terms"
        )
    nu = normalize_deg(nu_aph)
    half = 0.5 * nu * DEG2RAD
    E_aph = 2.0 * math.atan2(
        math.sqrt(1.0 + el.e) * math.sin(half),
        math.sqrt(1.0 - el.e) * math.cos(half),
    )
    M_aph = E_aph + el.e * math.sin(E_aph)  # radians in [0, 2*pi)
    t = M_aph * RAD2DEG / 360.0 * el.P
    if t < 0.0:
        t = 0.0
    elif t >= el.P:
        t -= el.P
    return t


# From here on, the pre-lean chain that heliocentric_xyz replaced: no query
# runs it, and it stays only because the perfbench harness times it.
class HeliocentricState(NamedTuple):
    """Heliocentric ecliptic position (x, y, z) and radius r, all in AU."""

    x: float
    y: float
    z: float
    r: float


def mean_anomaly_aph(el: OrbitalElements, jd: float) -> float:
    """Mean anomaly from aphelion at Julian Date ``jd``, degrees in [0, 360)."""
    return mean_anomaly_elapsed(el, jd - el.T_aph)


def true_anomaly(E: float, e: float) -> float:
    """True anomaly (radians, perihelion-referenced) from eccentric anomaly.

    Continuous with E: the result lies in the same revolution.
    """
    if not (0.0 <= e < 1.0):
        raise DomainError(f"eccentricity must be in [0, 1), got {e!r}")
    k = math.floor(E / TWO_PI)
    Er = E - TWO_PI * k
    if Er < 0.0:
        Er += TWO_PI
        k -= 1
    nu = 2.0 * math.atan2(
        math.sqrt(1.0 + e) * math.sin(0.5 * Er),
        math.sqrt(1.0 - e) * math.cos(0.5 * Er),
    )
    if nu < 0.0:
        nu += TWO_PI
    return nu + TWO_PI * k


def heliocentric_state(el: OrbitalElements, jd: float) -> HeliocentricState:
    """Heliocentric ecliptic state of ``el`` at Julian Date ``jd``: the
    ``heliocentric_xyz`` chain in the body's cached frame."""
    return HeliocentricState(*heliocentric_xyz(el, cached_frame(el), jd - el.T_aph))
