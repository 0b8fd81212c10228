"""Reduction of rectangular heliocentric positions to geocentric ecliptic
positions: one ``rect_to_spherical`` of the planet-minus-Earth vector."""

import math
from typing import NamedTuple

from .angles import RAD2DEG, GeocentricPosition, _new_tuple, normalize_deg
from .dataset import OrbitalElements
from .errors import DegenerateGeometryError
from .kepler import cached_frame, heliocentric_xyz

__all__ = [
    "rect_to_spherical",
    "reduce_rect",
    "geocentric_at",
    "COINCIDENCE_AU",
]

# Below this separation the direction from Earth to planet is meaningless.
COINCIDENCE_AU = 1e-12

def rect_to_spherical(v) -> tuple[float, float, float]:
    """Rectangular (x, y, z) to (longitude deg, latitude deg, distance).

    At the poles (x = y = 0) the longitude is 0 by convention.
    """
    x, y, z = v
    d = math.sqrt(x * x + y * y + z * z)
    if d == 0.0:
        raise DegenerateGeometryError("zero vector has no direction")
    if x == 0.0 and y == 0.0:
        lam = 0.0
    else:
        lam = normalize_deg(math.atan2(y, x) * RAD2DEG)
    sin_b = z / d
    if sin_b > 1.0:
        sin_b = 1.0
    elif sin_b < -1.0:
        sin_b = -1.0
    beta = math.asin(sin_b) * RAD2DEG
    return lam, beta, d


def reduce_rect(p, e) -> GeocentricPosition:
    """The geocentric position of the planet at ``p`` seen from the Earth at
    ``e``, each an (x, y, z, ...) sequence such as a
    ``kepler.heliocentric_xyz`` tuple."""
    lam, beta, delta = rect_to_spherical((p[0] - e[0], p[1] - e[1], p[2] - e[2]))
    if delta < COINCIDENCE_AU:
        raise DegenerateGeometryError(
            f"planet and Earth positions coincide (separation {delta:.3e} AU)"
        )
    return _new_tuple(GeocentricPosition, (lam, beta, delta))


def geocentric_at(
    planet_el: OrbitalElements, earth_el: OrbitalElements, jd: float
) -> GeocentricPosition:
    """Direct-mode geocentric position of ``planet_el`` as seen from
    ``earth_el``: each body's rectangular position in its cached frame, the
    difference vector, one ``rect_to_spherical``."""
    return reduce_rect(
        heliocentric_xyz(planet_el, cached_frame(planet_el), jd - planet_el.T_aph),
        heliocentric_xyz(earth_el, cached_frame(earth_el), jd - earth_el.T_aph),
    )


# From here on, the pre-lean chain that reduce_rect replaced: no query
# runs it, and it stays only because the perfbench harness times it.
class RectVec(NamedTuple):
    """Ecliptic rectangular coordinates in AU."""

    x: float
    y: float
    z: float


def helio_to_rect(s) -> RectVec:
    """The rectangular position of a heliocentric state, without its radius."""
    return RectVec(s.x, s.y, s.z)


geocentric_reduce = reduce_rect
