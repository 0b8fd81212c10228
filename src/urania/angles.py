"""Degree-based angle arithmetic used throughout the package, and the
geocentric position record that both query modes return.

Public interfaces carry angles in degrees; trigonometric work converts to
radians through the constants below so that every module multiplies by the
same factor.
"""

import math
from typing import NamedTuple

from .errors import DomainError

DEG2RAD = math.pi / 180.0
RAD2DEG = 180.0 / math.pi
TWO_PI = 2.0 * math.pi

__all__ = ["DEG2RAD", "RAD2DEG", "TWO_PI", "GeocentricPosition", "normalize_deg",
           "wrap_diff_deg", "aphelion_shift"]

# GeocentricPosition's own __new__ is a Python function around this call.
_new_tuple = tuple.__new__


class GeocentricPosition(NamedTuple):
    """Geocentric ecliptic longitude/latitude (degrees) and distance (AU)."""

    lam: float
    beta: float
    delta: float


def normalize_deg(x: float) -> float:
    """Reduce ``x`` to the equivalent angle in [0, 360).

    Values already in range are returned unchanged (bit-exact), which keeps
    table knots stable under repeated normalization. A value far outside
    [0, 360) is folded by ``fmod`` first, so the loops below run at most
    once: a mean anomaly may lie up to 2**36 days of motion past aphelion.
    """
    if not math.isfinite(x):
        raise DomainError(f"angle must be finite, got {x!r}")
    if not -360.0 <= x < 720.0:
        x = math.fmod(x, 360.0)
    while x < 0.0:
        x += 360.0
    while x >= 360.0:  # after the fold up: -1e-15 + 360.0 rounds to 360.0
        x -= 360.0
    return x


def wrap_diff_deg(a: float, b: float) -> float:
    """Signed difference a - b wrapped into (-180, 180].

    A separation of exactly 180 degrees maps to +180.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"angles must be finite, got {a!r}, {b!r}")
    d = math.fmod(a - b, 360.0)
    if d <= -180.0:
        d += 360.0
    elif d > 180.0:
        d -= 360.0
    return d


def aphelion_shift(x: float) -> float:
    """Flip an anomaly between aphelion and perihelion reference (add 180).

    Self-inverse on normalized angles.
    """
    return normalize_deg(x + 180.0)
