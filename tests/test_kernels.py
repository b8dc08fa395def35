"""The fast Kloosterman row kernels against direct enumeration."""

import math

import numpy as np
import pytest

from qcbounds import kernels
from qcbounds.arith import kloosterman_direct
from qcbounds.kernels import kloosterman_row, series_kloosterman

ROW_CASES = [(1, 12), (3, 35), (0, 8), (2, 49), (5, 121), (4, 1), (9, 27), (7, 100)]

# (m, p, N, t): exercises a = 1, Salie even/odd powers, p | t recursions
# and the CRT twist against the small cofactor.
SERIES_CASES = [
    (1, 7, 49, 1), (1, 7, 49, 2), (1, 7, 49, 6), (1, 7, 49, 7), (1, 7, 49, 14),
    (1, 7, 49, 49), (1, 7, 7, 1), (1, 7, 7, 4), (1, 7, 7, 7), (1, 7, 7, 21),
    (7, 7, 7, 1), (7, 7, 7, 2), (7, 7, 7, 7), (7, 7, 7, 14), (7, 7, 7, 49),
    (1, 11, 121, 3), (11, 11, 11, 11), (1, 5, 25, 10), (1, 3, 9, 6),
    (5, 5, 5, 15), (1, 13, 169, 5), (13, 13, 13, 26), (1, 17, 17, 12),
]


@pytest.mark.parametrize("m,c", ROW_CASES)
def test_row_matches_direct(m, c):
    row = kloosterman_row(m, c)
    for n in range(c):
        assert row[n] == pytest.approx(kloosterman_direct(m, n, c), abs=1e-9)


def test_every_residue_matches_direct():
    # units read the base row at m*n; m = 0 and other non-units get
    # their own FFT; m outside [0, c) reduces mod c first
    for c in range(1, 61):
        for m in range(c):
            row = kloosterman_row(m, c)
            direct = [kloosterman_direct(m, n, c) for n in range(c)]
            assert np.allclose(row, direct, rtol=0.0, atol=1e-9), (m, c)
            for shifted in (m - c, m - 5 * c, m + c, m + 7 * c):
                assert np.array_equal(kloosterman_row(shifted, c), row), (shifted, c)


def test_one_cache_entry_per_modulus():
    c = 97 * 4
    kernels._base_row.cache_clear()
    units = [k for k in range(1, c) if math.gcd(k, c) == 1]
    for k in units:
        kloosterman_row(k, c)
    kloosterman_row(0, c)
    kloosterman_row(97, c)
    assert kernels._base_row.cache_info().currsize == 1


def test_rows_are_fresh_arrays():
    row = kloosterman_row(1, 35)
    expected = row.copy()
    row[:] = 0.0
    assert np.array_equal(kloosterman_row(1, 35), expected)


@pytest.mark.parametrize("m,p,N,t", SERIES_CASES)
def test_series_rows_match_direct(m, p, N, t):
    c = t * N
    n = np.arange(1, 81, dtype=np.int64)
    row = series_kloosterman(m, p, N, t, n)
    tol = 1e-8 * max(1.0, math.sqrt(c))
    for i, nn in enumerate(n):
        assert abs(row[i] - kloosterman_direct(m, int(nn), c)) < tol
