"""Accuracy sweeps: table mode against direct mode over a span of dates."""

from dataclasses import dataclass

from .angles import wrap_diff_deg
from .errors import DomainError
from .evaluate import TableSet, geocentric_at_table, lookup_planet, phase_days
from .geocentric import geocentric_at
from .kepler import OrbitalElements, position_since_aphelion
from .tables import DoubleEntryTable, PlanetTable

__all__ = ["CompareReport", "SingleCompareReport", "sweep_double", "sweep_single", "synodic_period"]


@dataclass
class CompareReport:
    """Errors of double-entry table queries against direct mode."""

    planet: str
    jd_start: float
    jd_end: float
    samples: int
    table_config: str
    max_lambda_err_deg: float
    mean_lambda_err_deg: float
    max_beta_err_deg: float
    mean_beta_err_deg: float
    max_delta_err_au: float
    mean_delta_err_au: float


@dataclass
class SingleCompareReport:
    """Errors of single-entry anomaly/radius lookups against direct mode."""

    planet: str
    jd_start: float
    jd_end: float
    samples: int
    table_config: str
    max_nu_err_deg: float
    mean_nu_err_deg: float
    max_r_err_au: float
    mean_r_err_au: float


def synodic_period(p_inner: float, p_outer: float) -> float:
    """Period between repeats of the same relative configuration."""
    if p_inner == p_outer:
        raise DomainError("synodic period undefined for equal periods")
    return abs(1.0 / (1.0 / p_inner - 1.0 / p_outer))


def _sample_jds(jd_start: float, jd_end: float, samples: int):
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if not jd_end > jd_start:
        raise DomainError("jd_end must exceed jd_start")
    span = jd_end - jd_start
    return [jd_start + i * span / samples for i in range(samples)]


def sweep_double(
    planet_el: OrbitalElements,
    earth_el: OrbitalElements,
    table: DoubleEntryTable,
    jd_start: float,
    jd_end: float,
    samples: int,
) -> CompareReport:
    """Compare table-mode geocentric positions against direct mode."""
    tables = TableSet()
    tables.add(table)
    max_l = mean_l = max_b = mean_b = max_d = mean_d = 0.0
    for jd in _sample_jds(jd_start, jd_end, samples):
        got = geocentric_at_table(tables, planet_el.name, jd)
        want = geocentric_at(planet_el, earth_el, jd)
        el_err = abs(wrap_diff_deg(got.lam, want.lam))
        eb_err = abs(got.beta - want.beta)
        ed_err = abs(got.delta - want.delta)
        max_l = max(max_l, el_err)
        max_b = max(max_b, eb_err)
        max_d = max(max_d, ed_err)
        mean_l += el_err
        mean_b += eb_err
        mean_d += ed_err
    return CompareReport(
        planet=planet_el.name,
        jd_start=jd_start,
        jd_end=jd_end,
        samples=samples,
        table_config=f"double {table.n_u}x{table.n_v}",
        max_lambda_err_deg=max_l,
        mean_lambda_err_deg=mean_l / samples,
        max_beta_err_deg=max_b,
        mean_beta_err_deg=mean_b / samples,
        max_delta_err_au=max_d,
        mean_delta_err_au=mean_d / samples,
    )


def sweep_single(
    el: OrbitalElements,
    table: PlanetTable,
    jd_start: float,
    jd_end: float,
    samples: int,
) -> SingleCompareReport:
    """Compare single-entry anomaly/radius lookups against direct mode.

    Both sides are evaluated at the identical reduced phase, so the report
    isolates interpolation error.
    """
    max_nu = mean_nu = max_r = mean_r = 0.0
    for jd in _sample_jds(jd_start, jd_end, samples):
        t = phase_days(None, jd, el.T_aph, el.P)
        nu_t, r_t = lookup_planet(table, t)
        nu_d, r_d = position_since_aphelion(el, t)
        nu_err = abs(wrap_diff_deg(nu_t, nu_d))
        r_err = abs(r_t - r_d)
        max_nu = max(max_nu, nu_err)
        max_r = max(max_r, r_err)
        mean_nu += nu_err
        mean_r += r_err
    return SingleCompareReport(
        planet=el.name,
        jd_start=jd_start,
        jd_end=jd_end,
        samples=samples,
        table_config=f"single step={table.step!r}",
        max_nu_err_deg=max_nu,
        mean_nu_err_deg=mean_nu / samples,
        max_r_err_au=max_r,
        mean_r_err_au=mean_r / samples,
    )
