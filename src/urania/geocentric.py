"""Reduction of heliocentric states to geocentric ecliptic positions."""

import math
from typing import NamedTuple

from .angles import DEG2RAD, RAD2DEG, normalize_deg
from .errors import DegenerateGeometryError
from .kepler import HeliocentricState, OrbitalElements, heliocentric_state

__all__ = [
    "RectVec",
    "GeocentricPosition",
    "helio_to_rect",
    "rect_to_spherical",
    "geocentric_reduce",
    "reduce_rect",
    "geocentric_at",
    "COINCIDENCE_AU",
]

# Below this separation the direction from Earth to planet is meaningless.
COINCIDENCE_AU = 1e-12


class RectVec(NamedTuple):
    """Ecliptic rectangular coordinates in AU."""

    x: float
    y: float
    z: float


class GeocentricPosition(NamedTuple):
    """Geocentric ecliptic longitude/latitude (degrees) and distance (AU)."""

    lam: float
    beta: float
    delta: float


def helio_to_rect(s: HeliocentricState) -> RectVec:
    """Spherical (l, b, r) to rectangular ecliptic coordinates."""
    lam = s.l * DEG2RAD
    bet = s.b * DEG2RAD
    r_cos_b = s.r * math.cos(bet)
    return RectVec(
        x=r_cos_b * math.cos(lam),
        y=r_cos_b * math.sin(lam),
        z=s.r * math.sin(bet),
    )


def rect_to_spherical(v: RectVec) -> tuple[float, float, float]:
    """Rectangular to (longitude deg, latitude deg, distance).

    At the poles (x = y = 0) the longitude is 0 by convention.
    """
    d = math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)
    if d == 0.0:
        raise DegenerateGeometryError("zero vector has no direction")
    if v.x == 0.0 and v.y == 0.0:
        lam = 0.0
    else:
        lam = normalize_deg(math.atan2(v.y, v.x) * RAD2DEG)
    sin_b = v.z / d
    if sin_b > 1.0:
        sin_b = 1.0
    elif sin_b < -1.0:
        sin_b = -1.0
    beta = math.asin(sin_b) * RAD2DEG
    return lam, beta, d


def geocentric_reduce(planet: HeliocentricState, earth: HeliocentricState) -> GeocentricPosition:
    """Combine heliocentric planet and Earth states into a geocentric position."""
    return reduce_rect(helio_to_rect(planet), helio_to_rect(earth))


def reduce_rect(p: RectVec, e: RectVec) -> GeocentricPosition:
    """The geocentric position of the planet at ``p`` seen from the Earth at
    ``e``, both rectangular: the table compiler converts each grid line's
    state once and reduces every cell here."""
    lam, beta, delta = rect_to_spherical(RectVec(x=p.x - e.x, y=p.y - e.y, z=p.z - e.z))
    if delta < COINCIDENCE_AU:
        raise DegenerateGeometryError(
            f"planet and Earth positions coincide (separation {delta:.3e} AU)"
        )
    return GeocentricPosition(lam=lam, beta=beta, delta=delta)


def geocentric_at(
    planet_el: OrbitalElements, earth_el: OrbitalElements, jd: float
) -> GeocentricPosition:
    """Direct-mode geocentric position of ``planet_el`` as seen from ``earth_el``."""
    return geocentric_reduce(
        heliocentric_state(planet_el, jd),
        heliocentric_state(earth_el, jd),
    )
