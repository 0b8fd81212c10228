"""Accuracy sweeps: table mode against direct mode over a span of dates.

``sweep`` keeps the max and mean of each error a JD -> errors function
names. ``double_errors`` names a double-entry table's lambda, beta and delta
errors; ``single_errors`` a single-entry table's nu and r errors, taken at
the identical reduced phase so that only interpolation error shows.
"""

import math

from .angles import wrap_diff_deg
from .dataset import OrbitalElements
from .errors import DomainError
from .evaluate import TableSet, geocentric_at_table, lookup_planet, phase_days
from .geocentric import geocentric_at
from .kepler import position_since_aphelion
from .tableio import DoubleEntryTable, PlanetTable

__all__ = ["double_errors", "single_errors", "sweep"]


def double_errors(planet_el: OrbitalElements, earth_el: OrbitalElements, table: DoubleEntryTable):
    """JD -> |table - direct| of the geocentric lambda, beta (deg) and delta (AU)."""
    tables = TableSet()
    tables.add(table)

    def errors(jd: float) -> dict[str, float]:
        got = geocentric_at_table(tables, planet_el.name, jd)
        want = geocentric_at(planet_el, earth_el, jd)
        return {
            "lambda_err_deg": abs(wrap_diff_deg(got.lam, want.lam)),
            "beta_err_deg": abs(got.beta - want.beta),
            "delta_err_au": abs(got.delta - want.delta),
        }

    return errors


def single_errors(el: OrbitalElements, table: PlanetTable):
    """JD -> |table - direct| of the anomaly from aphelion (deg) and radius (AU)."""

    def errors(jd: float) -> dict[str, float]:
        t = phase_days(None, jd, el.T_aph, el.P)
        nu_t, r_t = lookup_planet(table, t / table.du)
        nu_d, r_d = position_since_aphelion(el, t)
        return {"nu_err_deg": abs(wrap_diff_deg(nu_t, nu_d)), "r_err_au": abs(r_t - r_d)}

    return errors


def sweep(errors, jd_start: float, jd_end: float, samples: int) -> dict[str, float]:
    """``max_<name>`` and ``mean_<name>`` of every error ``errors(jd)`` names.

    The dates are ``jd_start + i * (jd_end - jd_start) / samples`` for
    ``i < samples``; the keys keep the order of the names.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    span = jd_end - jd_start
    if not math.isfinite(span):
        raise DomainError(f"sweep bounds must be finite, got [{jd_start!r}, {jd_end!r})")
    if not jd_end > jd_start:
        raise DomainError("jd_end must exceed jd_start")
    maxes: dict[str, float] = {}
    sums: dict[str, float] = {}
    for i in range(samples):
        for name, err in errors(jd_start + i * span / samples).items():
            maxes[name] = max(maxes.get(name, 0.0), err)
            sums[name] = sums.get(name, 0.0) + err
    report = {}
    for name in maxes:
        report[f"max_{name}"] = maxes[name]
        report[f"mean_{name}"] = sums[name] / samples
    return report
