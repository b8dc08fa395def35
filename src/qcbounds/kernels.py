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

* the classical closed form for S(A, n; p^a), p odd and a >= 2: the sum
  vanishes unless p does not divide n and A*n is a square mod p, and
  otherwise equals 2 p^(a/2) cos(4 pi A w / p^a) (a even, w^2 = Abar*n)
  with a Legendre-symbol/sine variant for odd a.

All kernels are verified against direct enumeration in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import _units_and_inverses

_TWO_PI = 2.0 * math.pi

_sqrt_cache: dict[tuple[int, int, int], tuple[int, np.ndarray, np.ndarray]] = {}
_qr_cache: dict[int, np.ndarray] = {}


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


def _sqrt_mod_prime(n: int, p: int) -> int:
    """Tonelli-Shanks; assumes n is a nonzero quadratic residue mod p."""
    n %= p
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # p = 1 mod 4: full Tonelli-Shanks.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m_ = s
    c = pow(z, q, p)
    t = pow(n, q, p)
    r = pow(n, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m_ - i - 1), p)
        m_ = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _sqrt_mod_prime_power(n: int, p: int, a: int) -> int:
    """Hensel lift of a square root of n from mod p to mod p^a (p odd, p ∤ n)."""
    s = _sqrt_mod_prime(n, p)
    e = 1
    while e < a:
        e = min(2 * e, a)
        q = p**e
        s = (s - (s * s - n) * pow(2 * s, -1, q)) % q
    return s


def _qr_table(p: int) -> np.ndarray:
    """Legendre symbol (x|p) for x = 0..p-1 as an int8 table."""
    tbl = _qr_cache.get(p)
    if tbl is None:
        tbl = np.full(p, -1, dtype=np.int8)
        tbl[0] = 0
        tbl[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
        _qr_cache[p] = tbl
    return tbl


def _sqrt_table(m: int, p: int, a: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """For n = 1..n_max: mask of n with (mbar*n | p) = 1 and a square root
    s_n of mbar*n mod p^a there (0 elsewhere).

    One table per (m, p, a) is kept and only ever grown, so repeated
    series evaluations with slightly different cutoffs slice the same
    arrays instead of re-running the modular square roots.
    """
    key = (m, p, a)
    hit = _sqrt_cache.get(key)
    if hit is not None and hit[0] >= n_max:
        return hit[1][:n_max], hit[2][:n_max]
    q = p**a
    mbar = pow(m, -1, q)
    qr = _qr_table(p)
    n = np.arange(1, n_max + 1, dtype=np.int64)
    vals = (mbar * n) % q
    mask = (n % p != 0) & (qr[vals % p] == 1)
    s = np.zeros(n_max, dtype=np.int64)
    start = 0
    if hit is not None:  # extend the existing table instead of restarting
        start = hit[0]
        s[:start] = hit[2]
    for i in np.nonzero(mask[start:])[0] + start:
        s[i] = _sqrt_mod_prime_power(int(vals[i]), p, a)
    _sqrt_cache[key] = (n_max, mask, s)
    return mask, s


def _salie(p: int, a: int, aw: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """2 p^(a/2) cos(4 pi aw / p^a) on the mask (even a), sine variant for
    odd a; aw holds (A*w) mod p^a with w the chosen square root."""
    q = p**a
    out = np.zeros(aw.shape, dtype=np.float64)
    amp = 2.0 * p ** (a / 2.0)
    ang = ((2 * aw) % q) * (_TWO_PI / q)
    if a % 2 == 0:
        out[mask] = amp * np.cos(ang[mask])
        return out
    sign = _qr_table(p)[aw % p].astype(np.float64)
    if p % 4 == 1:
        out[mask] = amp * sign[mask] * np.cos(ang[mask])
    else:
        out[mask] = -amp * sign[mask] * np.sin(ang[mask])
    return out


def _pp_values(m: int, p: int, a: int, y: np.ndarray) -> np.ndarray:
    """S(m, y; p^a) for an int64 array y (uncached slow path; only used
    when p divides the small cofactor, i.e. tiny test levels)."""
    q = p**a
    y = y % q
    if a == 1:
        return kloosterman_row(m % p, p)[y % p]
    if m % p != 0:
        qr = _qr_table(p)
        mbar = pow(m, -1, q)
        vals = (mbar * y) % q
        mask = (y % p != 0) & (qr[vals % p] == 1)
        aw = np.zeros(y.shape, dtype=np.int64)
        for i in np.nonzero(mask)[0]:
            w = _sqrt_mod_prime_power(int(vals[i]), p, a)
            aw[i] = (m * w) % q
        return _salie(p, a, aw, mask)
    # p | m: S(p m1, y; p^a) = 0 unless p | y, then p * S(m1, y/p; p^(a-1)).
    out = np.zeros(y.shape, dtype=np.float64)
    div = y % p == 0
    if div.any():
        out[div] = p * _pp_values(m // p, p, a - 1, y[div] // p)
    return out


def series_kloosterman(m: int, p: int, N: int, t: int, n: np.ndarray) -> np.ndarray:
    """S(m, n; t*N) for the 1-based index array n, where N = p or p^2.

    Splits t*N = p^a * c' and evaluates both factors through the twisted
    multiplicativity identity; the p-power factor goes through the closed
    form whenever a >= 2 and through a cached row table at a = 1.
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
        cpbar = pow(cp, -1, q) if cp > 1 else 1
        if a == 1:
            idx = ((cpbar * cpbar % q) * n) % q
            part_q = kloosterman_row(m % p, p)[idx]
        elif m % p != 0:
            mask, s = _sqrt_table(m, p, a, int(n.max()))
            mask = mask[n - 1]
            aw = (m * ((cpbar * s[n - 1]) % q)) % q
            part_q = _salie(p, a, aw, mask)
        else:
            y = ((cpbar * cpbar % q) * n) % q
            part_q = _pp_values(m, p, a, y)

    # small cofactor: S(m, qbar^2 * n; c').
    if cp == 1:
        return part_q
    qbar = pow(q % cp, -1, cp) if a > 0 else 1
    idx = ((qbar * qbar % cp) * n) % cp
    part_cp = kloosterman_row(m % cp, cp)[idx]
    return part_q * part_cp

