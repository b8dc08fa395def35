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
    direct = kloosterman_direct(m, np.arange(c), c)
    assert np.allclose(kloosterman_row(m, c), direct, rtol=0.0, atol=1e-9)


def test_every_residue_matches_direct():
    # units read the base row at m*n; m = 0 and other non-units get
    # their own FFT; m outside [0, c) reduces mod c first
    for c in range(1, 61):
        for m in range(c):
            row = kloosterman_row(m, c)
            direct = kloosterman_direct(m, np.arange(c), c)
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
    # one array call per block of n, each at most 2^21 angles
    block = max(1, 2**21 // c)
    blocks = [n[i : i + block] for i in range(0, n.size, block)]
    direct = np.concatenate([kloosterman_direct(m, nb, c) for nb in blocks])
    assert np.all(np.abs(row - direct) < tol)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_a2_closed_form_matches_direct_at_every_unit_m(p):
    # every unit m and every residue y mod p^2, through the closed form
    # S(m, y; p^2) = S(1, m*y; p^2) that series_kloosterman evaluates
    q = p * p
    y = np.arange(q, dtype=np.int64)
    for m in range(1, q):
        if m % p == 0:
            continue
        got = series_kloosterman(m, p, p, p, y)
        direct = kloosterman_direct(m, y, q)
        assert np.allclose(got, direct, rtol=0.0, atol=1e-9), (m, p)


@pytest.mark.parametrize("p,a", [(7, 2), (7, 3), (11, 2)])
def test_p_divides_m_matches_direct(p, a):
    # the (p, p) shape at p | t: m = p*u for units u, for u = p and for
    # m = 0 mod p^a, at every residue y mod p^a
    q = p**a
    y = np.arange(q, dtype=np.int64)
    for u in (1, 3, p, q):
        got = series_kloosterman(p * u, p, p, p ** (a - 1), y)
        direct = kloosterman_direct(p * u, y, q)
        assert np.allclose(got, direct, rtol=0.0, atol=1e-9), (u, p, a)


@pytest.mark.parametrize("p,a", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 3), (11, 2), (13, 3), (3, 5)])
def test_salie_matches_direct(p, a):
    # the vectorised closed form with Hensel-lifted roots, every residue y
    # mod p^a, both the cosine (p = 1 mod 4) and sine (p = 3 mod 4) forms
    q = p**a
    y = np.arange(q, dtype=np.int64)
    direct = kloosterman_direct(1, y, q)
    assert np.allclose(kernels._salie(p, a, y), direct, rtol=0.0, atol=1e-9)


def _salie_generic_lift(p, a, y):
    """The reference: _salie with the lift of root[y mod p] to p^a found
    by squaring every candidate w = r mod p, r in 1..(p-1)/2, rather than
    by one Hensel step per digit.  The lift is unique, so both give the
    same integer w in [0, p^a)."""
    q = p**a
    root = kernels._sqrt_table(p)[0]
    cand = np.arange(q, dtype=np.int64)
    cand = cand[(cand % p >= 1) & (cand % p <= (p - 1) // 2)]
    lifted = np.zeros(q, dtype=np.int64)
    lifted[cand * cand % q] = cand
    out = np.zeros(y.shape)
    w = lifted[y]
    squares = np.flatnonzero(w)
    w = w[squares]
    amp = 2.0 * p ** (a / 2.0)
    ang = ((2 * w) % q) * (2.0 * math.pi / q)
    if a % 2 == 0:
        out[squares] = amp * np.cos(ang)
        return out
    sign = np.where(root[w % p] != 0, amp, -amp)
    out[squares] = sign * np.cos(ang) if p % 4 == 1 else -sign * np.sin(ang)
    return out


@pytest.mark.parametrize("p,a", [(3, 2), (3, 5), (7, 3), (13, 2), (13, 3), (101, 2), (269, 2), (997, 2)])
def test_salie_is_bit_identical_to_generic_lift(p, a):
    # the digit-by-digit lift reaches the same integer w at every unit
    # square, so every value is the same double
    y = np.arange(p**a, dtype=np.int64)
    assert kernels._salie(p, a, y).tobytes() == _salie_generic_lift(p, a, y).tobytes()


@pytest.mark.parametrize("p,a", [(101, 2), (269, 2), (73, 3)])
def test_salie_matches_direct_at_certificate_sized_primes(p, a):
    # 48 random residues at the primes of threshold certificates, where
    # every Hensel step runs on large digits
    q = p**a
    y = np.random.default_rng(0).integers(0, q, size=48)
    # one array call per block of residues, each at most 2^22 angles
    block = max(1, 2**22 // q)
    direct = np.concatenate([kloosterman_direct(1, y[i : i + block], q) for i in range(0, y.size, block)])
    assert np.allclose(kernels._salie(p, a, y), direct, rtol=0.0, atol=1e-9)


def test_salie_residue_product_is_exact_below_the_int64_bound():
    # series_kloosterman forms the p-power residue (m k mod q) n in int64,
    # q = p^a and k = c'bar^2 mod q.  At c = 2 p^2, p = 1,200,007, it is
    # exact up to the n with q n < 2^63, the bound series_n_limit gives and
    # trace._sum keeps A's grids within; at n = 20,000,017 the product
    # passes 2^63 and wraps, where the residue reduced in Python integers
    # gives -995,621.54.
    p, t = 1_200_007, 2
    q = p * p
    k = pow(t, -2, q)
    below = (2**63 - 1) // q
    assert kernels.series_n_limit(p, q, t) == below
    ns = [1, 2, below - 1, below]

    def exact(ns):
        residues = np.array([k * n % q for n in ns], dtype=np.int64)
        return kernels._salie(p, 2, residues) * kloosterman_row(1, t)[np.array(ns) % t]

    got = series_kloosterman(1, p, q, t, np.array(ns))
    assert got.tobytes() == exact(ns).tobytes()
    far = 20_000_017
    assert k * far >= 2**63 > q * below
    assert exact([far])[0] == pytest.approx(-995_621.54, abs=0.01)
    assert series_kloosterman(1, p, q, t, np.array([far]))[0] != exact([far])[0]
