"""The fast Kloosterman row kernels against direct enumeration."""

import math

import numpy as np
import pytest

from qcbounds import kernels
from qcbounds.arith import kloosterman_direct
from qcbounds.kernels import kloosterman_row, series_kloosterman

ROW_CASES = [(1, 12), (3, 35), (0, 8), (2, 49), (5, 121), (4, 1), (9, 27), (7, 100)]

# (m, p, N, t): exercises a = 1, the a = 2 closed form, Salie at higher
# even/odd powers, the higher powers p | t brings (p | m among them, read
# from a row) and the CRT twist against the small cofactor.
SERIES_CASES = [
    (1, 7, 49, 1), (1, 7, 49, 2), (1, 7, 49, 6), (1, 7, 49, 7), (1, 7, 49, 14),
    (1, 7, 49, 49), (1, 7, 7, 1), (1, 7, 7, 4), (1, 7, 7, 7), (1, 7, 7, 21),
    (7, 7, 7, 1), (7, 7, 7, 2), (7, 7, 7, 7), (7, 7, 7, 14), (7, 7, 7, 49),
    (1, 11, 121, 3), (11, 11, 11, 11), (1, 5, 25, 10), (1, 3, 9, 6),
    (5, 5, 5, 15), (1, 13, 169, 5), (13, 13, 13, 26), (1, 17, 17, 12),
    (1, 31, 961, 1), (1, 31, 961, 6), (1, 37, 1369, 12), (1, 41, 1681, 35),
    (1, 2, 4, 1), (1, 2, 4, 6), (2, 2, 2, 2),
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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_a2_closed_form_matches_direct_at_every_unit_m(p):
    # every unit m and every residue y mod p^2, through the closed form
    # S(m, y; p^2) = S(1, m*y; p^2) that series_kloosterman evaluates
    q = p * p
    y = np.arange(q, dtype=np.int64)
    for m in range(1, q):
        if m % p == 0:
            continue
        got = kernels._pp_values(m, p, 2, 1, y)
        direct = [kloosterman_direct(m, int(v), q) for v in y]
        assert np.allclose(got, direct, rtol=0.0, atol=1e-9), (m, p)


@pytest.mark.parametrize("p,a", [(7, 2), (7, 3), (11, 2)])
def test_p_divides_m_matches_direct(p, a):
    # the (p, p) shape at p | t: m = p*u for units u, for u = p and for
    # m = 0 mod p^a, at every residue y mod p^a
    q = p**a
    y = np.arange(q, dtype=np.int64)
    for u in (1, 3, p, q):
        got = kernels._pp_values(p * u, p, a, 1, y)
        direct = [kloosterman_direct(p * u, int(v), q) for v in y]
        assert np.allclose(got, direct, rtol=0.0, atol=1e-9), (u, p, a)


@pytest.mark.parametrize("p,a", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 3), (11, 2), (13, 3), (3, 5)])
def test_salie_matches_direct(p, a):
    # the vectorised closed form with Hensel-lifted roots, every residue y
    # mod p^a, both the cosine (p = 1 mod 4) and sine (p = 3 mod 4) forms
    q = p**a
    y = np.arange(q, dtype=np.int64)
    direct = [kloosterman_direct(1, int(v), q) for v in y]
    assert np.allclose(kernels._salie(p, a, y), direct, rtol=0.0, atol=1e-9)
