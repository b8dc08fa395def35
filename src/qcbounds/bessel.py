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

One call may carry many segments (`ends`), as the series engine's block
of moduli does, so that numpy's fixed cost per call is paid once a
block rather than once a modulus.  Each segment gets, bit for bit, the
values a call of its own would give: the series at the depth of its own
largest argument below the crossover, the Hankel expansion from 12 on.
The series is one Horner pass over the depth-sorted segments, each
joining it at its own depth; the Hankel expansion is one pass over every
argument >= 12.  Every operation is elementwise, so where an argument
sits in the array does not change its value.
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


def _horner(coef: list[float], u: np.ndarray, out: np.ndarray | None = None,
            reach: list[int] | None = None) -> np.ndarray:
    """sum_{j <= d} coef[j] u^j for every element of u, into `out` (or a
    fresh array), two passes per degree.  Every element has the degree
    d = len(coef) - 1 unless `reach` is given: then the first reach[j]
    elements of u, and no others, have a degree of j or more (so u is
    sorted by falling degree), and each element joins the pass at its own
    degree."""
    acc = np.empty_like(u) if out is None else out
    done, head, u_head = 0, acc[:0], u[:0]
    for j in range(len(coef) - 1, 0, -1):
        if done:
            head += coef[j]
            head *= u_head
        n = u.size if reach is None else reach[j]
        if n > done:
            np.multiply(u[done:n], coef[j], out=acc[done:n])
            done, head, u_head = n, acc[:n], u[:n]
    if done < u.size:  # degree 0: the sum is coef[0]
        np.multiply(u[done:], 0.0, out=acc[done:])
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


def _j1_segments(x: np.ndarray, res: np.ndarray, bounds: list[int], xmax: float) -> None:
    """J1 of each segment x[bounds[i]:bounds[i+1]] of the 1-D x, written
    into res (which must not overlap x) as that segment's own call would
    write it; xmax = max(x).

    A segment's series depth is _series_depth of its largest argument
    below the crossover.  The series arguments are sorted by falling
    depth (in place when they are all below it and already in that
    order, as consecutive moduli's mostly are) and evaluated in one
    Horner pass; the arguments >= 12 in one Hankel pass."""
    segments = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if not segments:
        return
    starts = [a for a, _ in segments]
    small = None if xmax < _CROSSOVER else x < _CROSSOVER
    below = x if small is None else np.where(small, x, 0.0)
    depths = [_series_depth(top) for top in np.maximum.reduceat(below, starts).tolist()]
    lengths = [b - a for a, b in segments]
    counts = lengths if small is None else np.add.reduceat(small, starts, dtype=np.intp).tolist()
    live = [d for d, c in zip(depths, counts) if c]
    if live:
        reach = [0] * (max(live) + 2)
        for d, c in zip(depths, counts):
            reach[d] += c
        for j in range(len(reach) - 2, -1, -1):  # reach[j]: the count of depth >= j
            reach[j] += reach[j + 1]
        if all(a >= b for a, b in zip(live, live[1:])):
            idx = None if small is None else np.flatnonzero(small)
        else:
            depth = np.repeat(np.array(depths, dtype=np.int8), lengths)
            idx = np.arange(x.size) if small is None else np.flatnonzero(small)
            idx = idx[np.argsort(-depth[idx], kind="stable")]
        xs = x if idx is None else x[idx]
        dst = res if idx is None else np.empty(xs.size)
        _horner(_SERIES[: len(reach) - 1], xs * xs, dst, reach)
        dst *= xs
        if idx is not None:
            res[idx] = dst
    if small is not None:
        large = ~small
        res[large] = _j1_asymptotic(x[large])


def bessel_j1(x, out=None, ends=None):
    """J1(x) for a nonnegative scalar or array.

    Raises DomainError for negative or non-finite input (J1 is odd;
    callers here only ever need finite x >= 0).  Given `out`, a float64
    array of x's shape, the result is written into it and `out` itself is
    returned, as a numpy ufunc does; `out` may be x itself.

    Given `ends`, the rising end indices of the segments of a 1-D x (the
    last one len(x); a segment may be empty), each segment is evaluated
    exactly as bessel_j1 of that segment alone would evaluate it.
    """
    arr = np.asarray(x, dtype=np.float64)
    lo = float(arr.min(initial=0.0))
    xmax = float(arr.max(initial=0.0))
    if not (lo >= 0.0 and xmax < math.inf):  # nan fails both comparisons
        raise DomainError(f"bessel_j1 expects finite nonnegative input, got [{lo}, {xmax}]")
    bounds = [0, arr.size] if ends is None else [0, *ends]
    if ends is not None and (
        arr.ndim != 1 or bounds[-1] != arr.size or any(a > b for a, b in zip(bounds, bounds[1:]))
    ):
        raise ValueError(f"ends {list(ends)} do not split a 1-D x of length {arr.size}")
    if out is not None:
        if out.shape != arr.shape:
            raise ValueError(f"out has shape {out.shape}, x has {arr.shape}")
        if np.may_share_memory(arr, out):
            arr = arr.copy()
    res = out if out is not None and out.flags.c_contiguous else np.empty(arr.shape)
    _j1_segments(arr.reshape(-1), res.reshape(-1), bounds, xmax)
    if out is None:
        return float(res) if arr.ndim == 0 else res
    if res is not out:
        out[...] = res
    return out
