import math
import random

import pytest

from oracles import jd_from_date
from urania import DomainError, calendar_to_jd, jd_to_calendar


def test_j2000_noon():
    # cross-checked against the stdlib ordinal oracle
    assert calendar_to_jd(2000, 1, 1, 0.5) == 2451545.0
    assert jd_from_date(2000, 1, 1, 0.5) == 2451545.0


def test_j2000_midnight():
    assert calendar_to_jd(2000, 1, 1, 0.0) == calendar_to_jd(2000, 1, 1) == 2451544.5
    assert jd_from_date(2000, 1, 1, 0.0) == 2451544.5


def test_matches_stdlib_oracle_across_range():
    rng = random.Random(12)
    for _ in range(1500):
        year = rng.randint(1500, 2500)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        frac = rng.random() * 0.999
        assert calendar_to_jd(year, month, day, frac) == jd_from_date(year, month, day, frac)


def test_inverse_of_calendar():
    assert jd_to_calendar(2451545.0) == (2000, 1, 1, 0.5)
    y, m, d, f = jd_to_calendar(2451544.5)
    assert (y, m, d) == (2000, 1, 1)
    assert f == 0.0
    for jd in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):  # not math.floor's ValueError
            jd_to_calendar(jd)


def test_round_trip_calendar_first():
    rng = random.Random(99)
    for _ in range(1000):
        year = rng.randint(1500, 2500)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        frac = rng.random() * 0.999
        y, m, d, f = jd_to_calendar(calendar_to_jd(year, month, day, frac))
        assert (y, m, d) == (year, month, day)
        assert abs(f - frac) < 1e-9


def test_round_trip_jd_first():
    rng = random.Random(5)
    for _ in range(1000):
        jd = rng.uniform(2268933.0, 2634167.0)  # years 1500..2500
        y, m, d, f = jd_to_calendar(jd)
        assert abs(calendar_to_jd(y, m, d, f) - jd) < 1e-9


def test_leap_year_rules():
    assert calendar_to_jd(2000, 2, 29, 0.0) > 0  # divisible by 400: leap
    with pytest.raises(DomainError):
        calendar_to_jd(1900, 2, 29, 0.0)  # divisible by 100 only: not leap
    with pytest.raises(DomainError):
        calendar_to_jd(2001, 2, 29, 0.0)


@pytest.mark.parametrize(
    "year,month,day,frac",
    [(2000, 13, 1, 0.0), (2000, 0, 1, 0.0), (2000, 1, 0, 0.0), (2000, 1, 32, 0.0), (2000, 1, 1, 1.0), (2000, 1, 1, -0.1)],
)
def test_invalid_dates_rejected(year, month, day, frac):
    with pytest.raises(DomainError):
        calendar_to_jd(year, month, day, frac)
