import math
import random

import pytest

from urania import DomainError, aphelion_shift, normalize_deg, wrap_diff_deg


@pytest.mark.parametrize("x,expected", [(370.0, 10.0), (-10.0, 350.0), (720.0, 0.0)])
def test_normalize_basic(x, expected):
    assert normalize_deg(x) == pytest.approx(expected, abs=1e-12)


def test_normalize_identity_in_range():
    # bit-exact passthrough keeps table knots stable
    for x in (0.0, 1.5, 179.999, 359.9999999999999):
        assert normalize_deg(x) is x or normalize_deg(x) == x


def test_normalize_range_and_congruence():
    rng = random.Random(42)
    for _ in range(2000):
        x = rng.uniform(-1e6, 1e6)
        y = normalize_deg(x)
        assert 0.0 <= y < 360.0
        k = round((x - y) / 360.0)
        assert abs(x - y - 360.0 * k) < 1e-6


def test_normalize_tiny_negative():
    # -1e-15 + 360.0 rounds to 360.0, which folds to 0.0
    assert normalize_deg(-1e-15) == 0.0
    assert normalize_deg(-1e-18) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        normalize_deg(bad)


@pytest.mark.parametrize("a,b,expected", [(10.0, 350.0, 20.0), (350.0, 10.0, -20.0), (180.0, 0.0, 180.0),
                                          (725.0, -5.0, 10.0)])
def test_wrap_diff_basic(a, b, expected):
    assert wrap_diff_deg(a, b) == pytest.approx(expected, abs=1e-12)


def test_wrap_diff_boundary_convention():
    # exactly 180 apart always reports +180, never -180
    assert wrap_diff_deg(0.0, 180.0) == 180.0
    assert wrap_diff_deg(180.0, 360.0) == 180.0


def test_wrap_diff_range_and_reconstruction():
    rng = random.Random(7)
    for _ in range(2000):
        a = rng.uniform(0.0, 360.0)
        b = rng.uniform(0.0, 360.0)
        d = wrap_diff_deg(a, b)
        assert -180.0 < d <= 180.0
        k = round((a - b - d) / 360.0)
        assert abs(a - b - d - 360.0 * k) < 1e-9


def test_wrap_diff_rejects_nonfinite():
    with pytest.raises(DomainError):
        wrap_diff_deg(math.nan, 0.0)


@pytest.mark.parametrize("x,expected", [(0.0, 180.0), (180.0, 0.0), (90.0, 270.0)])
def test_aphelion_shift_basic(x, expected):
    assert aphelion_shift(x) == expected


def test_aphelion_shift_involution():
    rng = random.Random(3)
    for _ in range(500):
        x = normalize_deg(rng.uniform(0.0, 360.0))
        assert aphelion_shift(aphelion_shift(x)) == pytest.approx(x, abs=1e-12)
