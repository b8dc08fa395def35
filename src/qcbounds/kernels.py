"""Fast Kloosterman-sum evaluation kernels for the series engines.

The trace-formula series need S(m, n; c) for n = 1..n_max with c ranging
over many multiples of the level.  Three tools keep that cheap:

* full-period row tables S(m, . ; c), one per modulus: for a unit m,
  substituting v -> v*mbar in the sum gives S(m, n; c) = S(1, m*n; c), so
  every unit row is a permutation of the base row S(1, . ; c).  The base
  row is one FFT of length c over the cached unit/inverse table
  (S(1,n;c) = sum_u e(ubar/c) e(n*u/c), a DFT in n) and is kept once per
  modulus; rows for non-units m are rare and built directly, which also
  serves the p-power factor when p | m;

* the coprime factorization S(m,n;qr) = S(m, rbar^2 n; q) * S(m, qbar^2 n; r),
  which reduces any modulus t*N to a prime-power part and a small part;

* the classical closed form for S(1, y; p^a), p odd and a >= 2: the sum
  vanishes unless y is a unit square mod p^a, and otherwise equals
  2 p^(a/2) cos(4 pi w / p^a) with w^2 = y (a even), with a
  Legendre-symbol/sine variant for odd a.  It is evaluated per term,
  vectorised: a square root of each term is read from a table mod p and
  lifted to p^a by one Hensel step per p-adic digit.  The levels p^2 meet
  a = 2 at every modulus, but a certificate's planned caps evaluate only a
  handful of them, so no p^2 row is built.  series_kloosterman alone
  chooses, for the p-power factor, between this closed form and the row.

All kernels are verified against direct enumeration in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import _units_and_inverses

_TWO_PI = 2.0 * math.pi


def _fft_row(m: int, c: int) -> np.ndarray:
    """S(m, n; c) for n = 0..c-1 (c >= 2) by one FFT over the units mod c."""
    units, invs = _units_and_inverses(c)
    g = np.zeros(c, dtype=np.complex128)
    g[units] = np.exp(2j * math.pi * ((m * invs) % c) / c)
    return np.real(np.fft.ifft(g) * c)


@lru_cache(maxsize=4096)
def _base_row(c: int) -> np.ndarray:
    """The read-only base row S(1, . ; c), cached once per modulus."""
    row = _fft_row(1, c)
    row.flags.writeable = False
    return row


def kloosterman_row(m: int, c: int) -> np.ndarray:
    """S(m, n; c) for n = 0..c-1, as a fresh float array.

    A unit m reads the cached base row at m*n mod c; a non-unit m (such
    as m = 0, the Ramanujan sum) gets its own FFT, which is not cached.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    if c == 1:
        return np.ones(1)
    m %= c
    if math.gcd(m, c) != 1:
        return _fft_row(m, c)
    return _base_row(c)[(m * np.arange(c, dtype=np.int64)) % c]


@lru_cache(maxsize=8)
def _sqrt_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 tables for an odd prime p, indexed by x = 0..p-1:
    a square root r of x where x is a nonzero square mod p (0 elsewhere),
    and the inverse of 2x mod p (0 at x = 0), which each Hensel step of
    _salie reads at its root."""
    r = np.arange(1, (p + 1) // 2, dtype=np.int64)
    root = np.zeros(p, dtype=np.int64)
    root[(r * r) % p] = r
    units, invs = _units_and_inverses(p)
    inv2 = np.zeros(p, dtype=np.int64)
    inv2[units] = invs * ((p + 1) // 2) % p
    for table in (root, inv2):
        table.flags.writeable = False
    return root, inv2


def _salie(p: int, a: int, y: np.ndarray) -> np.ndarray:
    """S(1, y; p^a) for p odd, a >= 2 and an int64 array y of residues
    mod p^a; its w*w stays below p^(2a-2) (see series_n_limit).

    The sum vanishes unless y is a unit square, so only the unit squares
    (about half the terms) are evaluated.  A root w of y is read from the
    table mod p and lifted one p-adic digit per Hensel step,
    w += pe ((y - w^2)/pe mod p)/(2w) mod p for pe = p, ..., p^(a-1).
    Then S = 2 p^(a/2) cos(4 pi w/p^a) for even a, with the
    Legendre-symbol/sine variant for odd a.
    """
    q = p**a
    root, inv2 = _sqrt_table(p)
    out = np.zeros(y.shape)
    w = root[y % p]
    squares = np.flatnonzero(w)
    w, y = w[squares], y[squares]
    pe = 1
    for _ in range(a - 1):  # w^2 = y mod pe*p  ->  w^2 = y mod pe*p^2
        pe *= p
        w += pe * ((y - w * w) // pe % p * inv2[w % p] % p)
    amp = 2.0 * p ** (a / 2.0)
    ang = ((2 * w) % q) * (_TWO_PI / q)
    if a % 2 == 0:
        out[squares] = amp * np.cos(ang)
        return out
    sign = np.where(root[w % p] != 0, amp, -amp)
    out[squares] = sign * np.cos(ang) if p % 4 == 1 else -sign * np.sin(ang)
    return out


def series_n_limit(p: int, N: int, t_max: int) -> int:
    """The largest n_max at which series_kloosterman(m, p, N, t, n <= n_max)
    forms every int64 product exactly for all t <= t_max, 0 if none: for
    p^a the largest power of p dividing some t N, residues mod p^a and the
    cofactor's (below t_max) times n, and _salie's w^2 below p^(2a-2)."""
    q = N
    while q * p <= t_max * N:
        q *= p
    return 0 if (q // p) ** 2 >= 1 << 63 else ((1 << 63) - 1) // max(q, t_max)


def series_kloosterman(m: int, p: int, N: int, t: int, n: np.ndarray) -> np.ndarray:
    """S(m, n; t*N) for the 1-based index array n, where N = p or p^2, so
    that p divides t*N (a >= 1 below).

    Splits t*N = p^a * c' and evaluates both factors through the twisted
    multiplicativity identity.  The p-power factor S(m, y; p^a) takes the
    closed form for a unit m at odd p and a >= 2, through
    S(m, y; p^a) = S(1, m*y; p^a) with one lifted square root per term
    (_salie); every other case (a = 1, p = 2, p | m) reads the row
    S(m, . ; p^a).  p | m at a >= 2 occurs only in the (p, p) shape with
    p | t, so p^a <= t*p and its row is one small FFT.
    """
    c = t * N
    a = 0
    cp = c
    while cp % p == 0:
        cp //= p
        a += 1
    q = p**a
    n = np.asarray(n, dtype=np.int64)

    # p-power factor: S(m, cpbar^2 * n; q).
    k = pow(cp, -2, q)
    if a == 1 or p == 2 or m % p == 0:
        part_q = kloosterman_row(m, q)[(k * n) % q]
    else:
        part_q = _salie(p, a, (m * k % q * n) % q)

    # small cofactor: S(m, qbar^2 * n; c').
    if cp == 1:
        return part_q
    qbar = pow(q % cp, -1, cp)
    # In place (part_q is always a fresh array): one k-long temporary
    # fewer per modulus keeps the freed heap under malloc's trim
    # threshold, so the next modulus does not page-fault it back in.
    part_q *= kloosterman_row(m % cp, cp)[((qbar * qbar % cp) * n) % cp]
    return part_q
