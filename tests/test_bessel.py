"""J1 against an independent quadrature oracle and mpmath."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from qcbounds import bessel_j1
from qcbounds.bessel import _CROSSOVER, _SERIES, _SERIES_TERMS, _horner
from qcbounds.errors import DomainError

EPS = 2.0**-53


def j1_quadrature(x: float, pts: int = 16384) -> float:
    """J1(x) = (1/pi) int_0^pi cos(theta - x sin theta) dtheta.

    Trapezoid on this integrand converges geometrically (the aliasing
    terms are Bessel functions of order ~2*pts, negligible for x << pts).
    """
    th = np.linspace(0.0, math.pi, pts + 1)
    return float(np.trapezoid(np.cos(th - x * np.sin(th)), th) / math.pi)


def test_spec_values():
    assert bessel_j1(0.0) == 0.0
    assert bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-12)
    # first positive zero near 3.8317
    assert abs(bessel_j1(3.8317)) < 1e-4
    lo, hi = 3.8, 3.9
    assert bessel_j1(lo) > 0 > bessel_j1(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if bessel_j1(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(3.8317059702, abs=1e-6)


def test_absolute_error_on_0_1000():
    rng = np.random.default_rng(3)
    xs = np.concatenate(
        [np.linspace(0.0, 30.0, 240), rng.uniform(0.0, 1000.0, 160),
         [11.9, 11.999, 12.0, 12.001, 12.5, 999.9]]
    )
    for x in xs:
        assert bessel_j1(float(x)) == pytest.approx(j1_quadrature(float(x)), abs=1e-9)
    # and on to 5e3, past the largest argument a certificate uses (about
    # 4,061 in B(p,p) at (D, p) = (403, 1361)); the error there is ~4e-15
    for x in np.concatenate([rng.uniform(1e3, 5e3, 400), [1000.0, 4061.0, 5000.0]]):
        assert bessel_j1(float(x)) == pytest.approx(float(mpmath.besselj(1, float(x))), abs=1e-12)


def test_array_and_scalar_agree():
    xs = np.linspace(0.0, 40.0, 101)
    arr = bessel_j1(xs)
    for i, x in enumerate(xs):
        assert arr[i] == bessel_j1(float(x))


def test_all_small_array_path():
    # every argument below the crossover: the mask-free series path must
    # give the scalar values bit for bit and leave its input alone
    xs = np.random.default_rng(5).uniform(0.0, 11.999, 500)
    before = xs.copy()
    arr = bessel_j1(xs)
    assert np.array_equal(xs, before)
    assert all(arr[i] == bessel_j1(float(x)) for i, x in enumerate(xs))


def test_shapes_kept():
    assert bessel_j1(np.array([])).shape == (0,)
    grid = np.linspace(0.0, 11.0, 12).reshape(3, 4)
    small = bessel_j1(grid)
    assert small.shape == (3, 4)
    assert np.array_equal(small.ravel(), bessel_j1(grid.ravel()))
    mixed = bessel_j1(grid * 3.0)
    assert mixed.shape == (3, 4)
    assert np.array_equal(mixed.ravel(), bessel_j1(grid.ravel() * 3.0))


def test_half_x_inequality():
    rng = np.random.default_rng(4)
    xs = rng.uniform(0.0, 1000.0, 100_000)
    assert np.all(np.abs(bessel_j1(xs)) <= xs / 2.0 + 1e-15)


def test_negative_rejected():
    with pytest.raises(DomainError):
        bessel_j1(-0.5)
    with pytest.raises(DomainError):
        bessel_j1(np.array([1.0, -2.0]))


@pytest.mark.parametrize("x", [
    math.nan, math.inf, np.array([1.0, math.nan, 3.0]), np.array([20.0, math.inf]),
])
def test_non_finite_rejected(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(DomainError):
            bessel_j1(x)


@pytest.mark.parametrize("xs", [
    np.linspace(0.0, 11.9, 300),  # series only
    np.linspace(0.0, 40.0, 300),  # series and Hankel
    np.linspace(12.0, 900.0, 50),  # Hankel only
    np.array([]),
    np.linspace(0.0, 30.0, 12).reshape(3, 4),
])
def test_out_is_filled_and_returned(xs):
    out = np.full(xs.shape, np.nan)
    before = xs.copy()
    got = bessel_j1(xs, out=out)
    assert got is out
    assert np.array_equal(out, bessel_j1(xs))
    assert np.array_equal(xs, before)


def test_out_may_alias_its_input():
    for top in (11.0, 30.0):
        xs = np.linspace(0.0, top, 101)
        expected = bessel_j1(xs)
        assert bessel_j1(xs, out=xs) is xs
        assert np.array_equal(xs, expected)


def test_out_of_another_shape_rejected():
    with pytest.raises(ValueError):
        bessel_j1(np.ones(3), out=np.empty(4))


def _reach(depth: int) -> float:
    """Largest x whose first series term beyond `depth` is below 1e-19,
    capped at the crossover."""
    omitted = 1e-19 * math.factorial(depth + 1) * math.factorial(depth + 2)
    return min(_CROSSOVER, 2.0 * omitted ** (1.0 / (2 * depth + 3)))


@pytest.mark.parametrize("depth", range(_SERIES_TERMS + 1))
def test_horner_series_against_mpmath(depth):
    # the power series as bessel_j1 evaluates it: Horner in u = x^2
    xs = np.linspace(0.0, _reach(depth), 9)
    got = xs * _horner(_SERIES[: depth + 1], xs * xs)
    with mpmath.workdps(50):
        for x, g in zip(xs, got):
            x = mpmath.mpf(float(x))
            # truncation below 1e-19, rounding below (2 depth + 3) eps
            # times the sum of |terms|, which is I1(x)
            tol = 2e-19 + (2 * depth + 3) * EPS * float(mpmath.besseli(1, x))
            assert abs(g - float(mpmath.besselj(1, x))) <= tol, x


def test_both_sides_of_crossover_against_mpmath():
    with mpmath.workdps(50):
        for x in np.linspace(11.5, 12.5, 41):
            err = abs(bessel_j1(float(x)) - float(mpmath.besselj(1, float(x))))
            assert err <= (1e-12 if x < _CROSSOVER else 1e-9), x
