"""Shared test helpers."""

import pytest

from qcbounds import trace
from qcbounds.arith import divisor_count


def partial_series(kind, m, chi, N, q, n_max):
    """S_A(q) (kind "A", q = c a multiple of N) or S_B(q) (kind "B", q = d
    coprime to N) summed over n <= n_max, and its n-tail bound past n_max,
    through the per-modulus code the certificates run: the n-grid, the
    partial sum of one modulus and its n-tail prefactor."""
    x = trace.PairingParams(m, N, chi).x
    if kind == "A":
        grid = trace._n_grid(chi, x, n_max, coprime=True)
        value = trace._sa_partial(m, trace._level_prime(N), N, q, grid, grid.n.size)
        prefactor = trace._sa_prefactor(m, q, divisor_count(q))
    else:
        grid = trace._n_grid(chi, x, n_max, coprime=False)
        value = trace._sb_partial(m, N, q, grid, n_max)
        prefactor = trace._sb_prefactor(m, q, N, divisor_count(q))
    return value, trace._n_tail(prefactor, x, n_max)


@pytest.fixture
def series():
    return partial_series
