"""Fast Kloosterman-sum evaluation kernels for the series engines.

The trace-formula series need S(m, n; c) for n = 1..n_max with c ranging
over many multiples of the level.  Three tools keep that cheap:

* full-period row tables S(m, . ; c), one per modulus: for a unit m,
  substituting v -> v*mbar in the sum gives S(m, n; c) = S(1, m*n; c), so
  every unit row is a permutation of the base row S(1, . ; c).  The base
  row is one FFT of length c over the cached unit/inverse table
  (S(1,n;c) = sum_u e(ubar/c) e(n*u/c), a DFT in n) and is kept once per
  modulus; rows for non-units m are rare and built directly;

* the coprime factorization S(m,n;qr) = S(m, rbar^2 n; q) * S(m, qbar^2 n; r),
  which reduces any modulus t*N to a prime-power part and a small part;

* the classical closed form for S(1, y; p^a), p odd and a >= 2: the sum
  vanishes unless y is a unit square mod p^a, and otherwise equals
  2 p^(a/2) cos(4 pi w / p^a) with w^2 = y (a even), with a
  Legendre-symbol/sine variant for odd a.  At a = 2, the only power the
  levels p^2 meet unless p | t, one vectorised pass over the units w
  writes the whole row S(1, . ; p^2) (row[w^2] = 2p cos(4 pi w/p^2)), so
  a series reads it like any other row.  a >= 3, and p^2 too large for a
  row, evaluate the closed form per term, vectorised: a square root of
  each term is read from a table mod p and Hensel-lifted to p^a.

All kernels are verified against direct enumeration in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import _units_and_inverses

_TWO_PI = 2.0 * math.pi

# Largest p^2 whose closed-form row is built; larger squares take the
# per-term closed form.  Timed on one certificate (D = 23, p = 347..2099,
# 2-CPU VM), the row took 30-46% less time at every p, but its p^2 floats
# and build temporaries raised peak RSS by about 14 p^2 bytes: +3% at
# p = 347, +11% at 701, +20% at 1009, +75% at 2099.  2^19 (p <= 719)
# keeps that rise under the 15% peak-RSS bound of the benchmark.
_P2_ROW_MAX = 1 << 19


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
    a square root of x where x is a nonzero square mod p (0 elsewhere),
    and the inverse of 2x mod p (0 at x = 0)."""
    r = np.arange(1, (p + 1) // 2, dtype=np.int64)
    root = np.zeros(p, dtype=np.int64)
    root[(r * r) % p] = r
    units, invs = _units_and_inverses(p)
    inv2 = np.zeros(p, dtype=np.int64)
    inv2[units] = invs * ((p + 1) // 2) % p
    root.flags.writeable = False
    inv2.flags.writeable = False
    return root, inv2


@lru_cache(maxsize=1)
def _p2_row(p: int) -> np.ndarray:
    """The read-only row S(1, y; p^2) for y = 0..p^2-1, p odd.

    S(1, w^2; p^2) = 2p cos(4 pi w/p^2) for a unit w and the sum vanishes
    off the unit squares.  w and -w share a square, so w runs over the
    units below p^2/2 and writes each unit square once.  _fft_row(1, p^2)
    gives the same row, but it caches a p^2 unit table per prime: on the
    numeric-certify benchmark it raised peak RSS by 46%, at equal wall
    time within the spread (10 pairs).  One row is kept:
    a certificate meets one prime, and every row held costs p^2 floats
    while a rebuild takes milliseconds.
    """
    q = p * p
    w = np.arange(1, (q + 1) // 2, dtype=np.int64)
    w = w[w % p != 0]
    row = np.zeros(q, dtype=np.float64)
    row[(w * w) % q] = 2.0 * p * np.cos(((2 * w) % q) * (_TWO_PI / q))
    row.flags.writeable = False
    return row


def _salie(p: int, a: int, y: np.ndarray) -> np.ndarray:
    """S(1, y; p^a) for p odd, a >= 2 and an int64 array y of residues
    mod p^a (w*w below stays under p^(2a-2), in int64 for p^a < 2^31).

    The sum vanishes unless y is a unit square.  A root w of y is read
    from the table mod p and lifted one p-adic digit per Hensel step;
    then S = 2 p^(a/2) cos(4 pi w/p^a) for even a, with the
    Legendre-symbol/sine variant for odd a.
    """
    q = p**a
    root, inv2 = _sqrt_table(p)
    w = root[y % p]
    mask = w != 0
    pe = 1
    for _ in range(a - 1):  # w^2 = y mod p*pe  ->  w^2 = y mod p^2*pe
        pe *= p
        w += pe * ((y - w * w) // pe % p * inv2[w % p] % p)
    amp = 2.0 * p ** (a / 2.0)
    ang = ((2 * w) % q) * (_TWO_PI / q)
    if a % 2 == 0:
        return np.where(mask, amp * np.cos(ang), 0.0)
    sign = np.where(root[w % p] != 0, amp, -amp)
    if p % 4 == 1:
        return np.where(mask, sign * np.cos(ang), 0.0)
    return np.where(mask, -sign * np.sin(ang), 0.0)


def _pp_values(m: int, p: int, a: int, k: int, n: np.ndarray) -> np.ndarray:
    """S(m, k*n; p^a) for a unit k mod p^a and an int64 array n >= 0."""
    q = p**a
    if a == 1 or p == 2:  # the closed forms need an odd prime square
        return kloosterman_row(m, q)[(k * n) % q]
    if m % p == 0:
        # S(p m1, k n; p^a) = 0 unless p | n, then p * S(m1, k n/p; p^(a-1)).
        out = np.zeros(n.shape, dtype=np.float64)
        div = n % p == 0
        if div.any():
            out[div] = p * _pp_values(m // p, p, a - 1, k, n[div] // p)
        return out
    k = m * k % q  # S(m, y; q) = S(1, m*y; q) for a unit m
    if a == 2 and q <= _P2_ROW_MAX:
        return _p2_row(p)[(k * n) % q]
    return _salie(p, a, (k * n) % q)


def series_kloosterman(m: int, p: int, N: int, t: int, n: np.ndarray) -> np.ndarray:
    """S(m, n; t*N) for the 1-based index array n, where N = p or p^2.

    Splits t*N = p^a * c' and evaluates both factors through the twisted
    multiplicativity identity.  The p-power factor reads the row mod p at
    a = 1 and the closed-form p^2 row at a = 2 (p^2 <= _P2_ROW_MAX); a >= 3,
    which needs p | t, and a larger p^2 take the vectorised closed form
    with one lifted square root per term (_salie).  p | m at a >= 2
    reduces to S(m/p, . ; p^(a-1)) on the n divisible by p (_pp_values).
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
    if a == 0:
        part_q = np.ones(n.shape, dtype=np.float64)
    else:
        cpbar = pow(cp, -1, q)
        part_q = _pp_values(m, p, a, cpbar * cpbar % q, n)

    # small cofactor: S(m, qbar^2 * n; c').
    if cp == 1:
        return part_q
    qbar = pow(q % cp, -1, cp) if a > 0 else 1
    idx = ((qbar * qbar % cp) * n) % cp
    part_cp = kloosterman_row(m % cp, cp)[idx]
    return part_q * part_cp
