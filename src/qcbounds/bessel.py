"""Bessel function J1 of the first kind.

Power series below the crossover, Hankel asymptotic expansion with
amplitude/phase correction above it.  Both are polynomials evaluated by
one Horner routine: the series in u = x^2, truncated at the depth its
largest argument needs, and the Hankel P and Q in 1/x^2.  The series is
exact to roundoff for x <= 12; the optimally truncated asymptotic tail
at x = 12 is ~1e-10 and shrinks fast.  The tests sample the absolute
error on [0, 5e3], which covers every argument the certificates use
(up to about 4,061): below 1e-9 on [0, 1e3] against a quadrature oracle,
below 1e-12 on [1e3, 5e3] against mpmath.  That is a measurement, not a
proven bound.  The inequality |J1(x)| <= x/2 holds for the returned
values everywhere.

A call evaluates all its series arguments at one depth, that of its
largest argument below 12.  The series engine passes a block of moduli
in one call (trace._weighted_j1), so each modulus gets its block's depth,
which is at least its own.  Its values then equal those of a call of its
own bit for bit on every pinned output and reference, and on the tiny,
near-zero and mixed arguments the tests join with 11.99.  That is
measured, not proven.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_CROSSOVER = 12.0
_SERIES_TERMS = 40
_ASYMPTOTIC_TERMS = 11
_THREE_PI_OVER_4 = 2.356194490192344929

# Hankel coefficients a_k = prod_{j=1..k} (mu - (2j-1)^2) / (k! 8^k), mu = 4;
# P = a_0 - a_2/x^2 + a_4/x^4 - ... and Q x = a_1 - a_3/x^2 + ... in 1/x^2.
_HANKEL = [1.0]
for _k in range(1, _ASYMPTOTIC_TERMS + 1):
    _HANKEL.append(_HANKEL[-1] * (4.0 - (2 * _k - 1) ** 2) / (_k * 8.0))
_HANKEL_P = [(-1) ** j * a for j, a in enumerate(_HANKEL[0::2])]
_HANKEL_Q = [(-1) ** j * a for j, a in enumerate(_HANKEL[1::2])]


def _series_depth(xmax: float) -> int:
    """Terms needed so the first omitted one is below 1e-19 at xmax."""
    half = 0.5 * xmax
    mag = half
    for k in range(1, _SERIES_TERMS + 1):
        mag *= half * half / (k * (k + 1))
        if mag < 1e-19:
            return k
    return _SERIES_TERMS


# J1(x) = x sum_j _SERIES[j] (x^2)^j, _SERIES[j] = (-1/4)^j / (2 j! (j+1)!).
_SERIES = [0.5]
for _j in range(1, _SERIES_TERMS + 1):
    _SERIES.append(_SERIES[-1] * -0.25 / (_j * (_j + 1)))


def _horner(coef: list[float], u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j coef[j] u^j for every element of u, into `out` (or a fresh
    array), two passes per degree; coef[0] itself at degree 0."""
    acc = np.multiply(u, coef[-1] if len(coef) > 1 else 0.0, out=out)
    for c in reversed(coef[1:-1]):
        acc += c
        acc *= u
    acc += coef[0]
    return acc


def _j1_asymptotic(x: np.ndarray) -> np.ndarray:
    """sqrt(2/(pi x)) (P cos(w) - Q sin(w)), w = x - 3 pi/4."""
    inv = 1.0 / x
    inv2 = inv * inv
    w = x - _THREE_PI_OVER_4
    return np.sqrt(2.0 / (np.pi * x)) * (
        _horner(_HANKEL_P, inv2) * np.cos(w) - inv * _horner(_HANKEL_Q, inv2) * np.sin(w)
    )


def _j1_flat(x: np.ndarray, res: np.ndarray, xmax: float) -> None:
    """J1 of the 1-D x into res, which must not overlap x; xmax = max(x).
    The series runs at the depth of the largest argument below 12, the
    Hankel expansion over every argument >= 12."""
    if xmax < _CROSSOVER:
        _horner(_SERIES[: _series_depth(xmax) + 1], x * x, res)
        res *= x
        return
    small = x < _CROSSOVER
    xs = x[small]
    if xs.size:
        series = _horner(_SERIES[: _series_depth(float(xs.max())) + 1], xs * xs)
        series *= xs
        res[small] = series
    large = ~small
    res[large] = _j1_asymptotic(x[large])


def bessel_j1(x, out=None):
    """J1(x) for a nonnegative scalar or array.

    Raises DomainError for negative or non-finite input (J1 is odd;
    callers here only ever need finite x >= 0).  Given `out`, a float64
    array of x's shape, the result is written into it and `out` itself is
    returned, as a numpy ufunc does; `out` may be x itself.
    """
    arr = np.asarray(x, dtype=np.float64)
    lo = float(arr.min(initial=0.0))
    xmax = float(arr.max(initial=0.0))
    if not (lo >= 0.0 and xmax < math.inf):  # nan fails both comparisons
        raise DomainError(f"bessel_j1 expects finite nonnegative input, got [{lo}, {xmax}]")
    if out is not None:
        if out.shape != arr.shape:
            raise ValueError(f"out has shape {out.shape}, x has {arr.shape}")
        if np.may_share_memory(arr, out):
            arr = arr.copy()
    res = out if out is not None and out.flags.c_contiguous else np.empty(arr.shape)
    _j1_flat(arr.reshape(-1), res.reshape(-1), xmax)
    if out is None:
        return float(res) if arr.ndim == 0 else res
    if res is not out:
        out[...] = res
    return out
