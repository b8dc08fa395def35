"""Shared test helpers."""

import math

import numpy as np
import pytest

from qcbounds import trace
from qcbounds.arith import divisor_count


# The engine's error model (trace._terms) computes these per modulus in
# array passes, and the planner (trace._pick) picks every series' cap in
# one argmin; the tests take them one modulus, or one series, at a time,
# the reference the arrays must match bit for bit.


def sa_prefactor(m, c, tau):
    """The n-tail prefactor of S_A(c), given tau = tau(c)."""
    g = math.sqrt(math.gcd(m, c))
    return trace._TWO_PI * math.sqrt(m) / c * g * tau * math.sqrt(c)


def sb_prefactor(m, d, N, tau):
    """The n-tail prefactor of S_B(d), given tau = tau(d)."""
    g = math.sqrt(math.gcd(m, d))
    return trace._TWO_PI * math.sqrt(m) / (d * math.sqrt(N)) * g * tau * math.sqrt(d)


def n_cutoff(prefactor, x, eps=trace._N_TAIL_EPS):
    """Smallest n >= 8 with prefactor * e^(-(n+1)x)/(1-e^(-x)) below eps."""
    geom = 1.0 - math.exp(-x)
    n = math.log(prefactor / (eps * geom)) / x
    return max(8, int(n) + 1)


def n_tail(prefactor, x, n_max):
    """The n-tail bound of a modulus summed over n <= n_max."""
    return prefactor * math.exp(-(n_max + 1) * x) / (1.0 - math.exp(-x))


def per_series_pick(costs, weighted, lam):
    """The cap index each series' cost + lam * weighted error is least at,
    one argmin per series: the reference for trace._pick's single argmin
    over the padded rows of trace._prices."""
    return [int(np.argmin(c + lam * e)) for c, e in zip(costs, weighted)]


def partial_series(kind, m, chi, N, q, n_max):
    """S_A(q) (kind "A", q = c a multiple of N) or S_B(q) (kind "B", q = d
    coprime to N) summed over n <= n_max, and its n-tail bound past n_max,
    through the per-modulus code the certificates run: the n-grid and a
    block of one modulus, whose J1 scale beta = 4 pi sqrt(m)/(q s) takes
    s = 1 for A and sqrt(N) for B, as trace._sum does."""
    x = trace._x(chi.D, N)
    beta = 4.0 * math.pi * math.sqrt(m) / (q * (1.0 if kind == "A" else math.sqrt(N)))
    if kind == "A":
        grid = trace._n_grid(chi, x, n_max, coprime=True)
        [v] = trace._weighted_j1(grid, [beta], [grid.n.size])
        value = trace._sa_sum(m, trace._level_prime(N), N, q, grid.n, v)
        prefactor = sa_prefactor(m, q, divisor_count(q))
    else:
        grid = trace._n_grid(chi, x, n_max, coprime=False)
        [v] = trace._weighted_j1(grid, [beta], [n_max])
        value = trace._sb_sum(m, N, q, v)
        prefactor = sb_prefactor(m, q, N, divisor_count(q))
    return value, n_tail(prefactor, x, n_max)


@pytest.fixture
def series():
    return partial_series
