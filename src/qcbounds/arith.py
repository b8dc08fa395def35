"""Exact integer and character arithmetic.

Kronecker symbols, the odd quadratic character of an imaginary quadratic
field, Kloosterman sums S(m,n;c) = sum over units v mod c of
e^(2*pi*i*(m*v + n*vbar)/c), Gauss sums and the standard multiplicative
functions.  Everything here is exact integer work except for the final
complex accumulation of exponential sums, which is done in doubles: the
phase of each term is reduced mod c in integer arithmetic, and its cosine
and sine are read from a table of the c points k * (2*pi/c) on the unit
circle, so no angle is ever evaluated outside [0, 2*pi).
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, NotFundamental

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi

# Deterministic Miller-Rabin witnesses, valid for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the integer sizes used here (< 2**64)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly larger than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, a), ...] by trial division up to sqrt(n).

    All moduli in this artifact stay far below 2**40, so nothing fancier
    is needed.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


class MultiplicativeValues(NamedTuple):
    tau: int
    phi: int
    mobius: int


def multiplicative_functions(n: int) -> MultiplicativeValues:
    """Divisor count tau(n), Euler totient phi(n) and Moebius mu(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tau = 1
    phi = 1
    mobius = 1
    for p, a in factorize(n):
        tau *= a + 1
        phi *= (p - 1) * p ** (a - 1)
        mobius = 0 if a > 1 else -mobius
    return MultiplicativeValues(tau, phi, mobius)


def divisor_count(n: int) -> int:
    return multiplicative_functions(n).tau


def divisor_counts(n_max: int) -> np.ndarray:
    """tau(n) for n = 0..n_max (0 at n = 0) as an int32 array, sieved over
    the divisor pairs (d, n/d) with d <= sqrt(n): two divisors, one if
    d*d = n."""
    import numpy as np

    tau = np.zeros(n_max + 1, dtype=np.int32)
    for d in range(1, math.isqrt(n_max) + 1):
        tau[d * d::d] += 2
        tau[d * d] -= 1
    return tau


def euler_phi(n: int) -> int:
    return multiplicative_functions(n).phi


def kronecker(delta: int, n: int) -> int:
    """Kronecker symbol (delta | n), defined for all integers.

    Standard extension of the Jacobi symbol: multiplicative in n, with
    (delta | 2) read off delta mod 8 and (delta | -1) the sign character.
    """
    a = delta
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 0:
        k = 1
    else:
        k = 1 if a % 8 in (1, 7) else -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    # Jacobi loop on odd positive n.
    a %= n
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


# The squarefree test trial-divides up to sqrt(D): 6.3 s at the prime
# D = 9007199254740847 just below 2^53 (2-CPU Xeon, Python 3.11).  The
# nonsplit threshold passes 10^7 near D = 1.15 * 10^15, inside the bound.
_MAX_DISCRIMINANT = 1 << 53


def is_fundamental_negative(D: int) -> bool:
    """True when -D is a fundamental imaginary quadratic discriminant.

    Either D = 3 mod 4 and squarefree, or D = 4m with m squarefree and
    m = 1 or 2 mod 4.  D >= 2^53 is a DomainError, raised before any
    factoring.
    """
    if D >= _MAX_DISCRIMINANT:
        raise DomainError(f"-{D} is too large to test: need D < 2^53")
    if D < 3:
        return False
    if D % 4 == 3:
        return multiplicative_functions(D).mobius != 0
    if D % 4 == 0:
        m = D // 4
        if m % 4 not in (1, 2):
            return False
        return multiplicative_functions(m).mobius != 0
    return False


@lru_cache(maxsize=64)
def _character_table(D: int) -> np.ndarray:
    """chi(n) for n = 0..D-1 as a read-only int8 array, shared by every
    character of conductor D.  The character is completely
    multiplicative, so the table takes a Kronecker symbol only at the
    primes below D and multiplies through a smallest-prime-factor sieve
    everywhere else."""
    import numpy as np

    # spf[n]: smallest prime factor of a composite n, 0 at 0, 1 and the
    # primes.  Descending q leaves the smallest divisor q <= sqrt(n).
    spf = [0] * D
    for q in range(math.isqrt(D - 1), 1, -1):
        spf[q * q::q] = [q] * len(range(q * q, D, q))
    chi = [0, 1] + [0] * (D - 2)  # chi(0) = 0 for D > 1
    for n in range(2, D):
        q = spf[n]
        chi[n] = chi[q] * chi[n // q] if q else kronecker(-D, n)
    table = np.array(chi, dtype=np.int8)
    table.flags.writeable = False  # cached: every caller shares this array
    return table


class QuadraticCharacter(NamedTuple):
    """Odd quadratic Dirichlet character of conductor D, with -D fundamental.

    A single value is one Kronecker symbol; the vectorized paths read the
    full period, a table of signed bytes built on first use
    (_character_table).
    """

    D: int

    def __call__(self, n: int) -> int:
        return kronecker(-self.D, n % self.D)

    @property
    def table(self) -> np.ndarray:
        return _character_table(self.D)

    def values(self, n: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an integer array."""
        return self.table[n % self.D]


def make_character(D: int) -> QuadraticCharacter:
    """Character n -> kronecker(-D, n) of an imaginary quadratic field."""
    if not is_fundamental_negative(D):
        raise NotFundamental(f"{-D} is not a negative fundamental discriminant")
    return QuadraticCharacter(D)


def fundamental_discriminants(lo: int, hi: int) -> list[int]:
    """All D in [lo, hi] with -D fundamental."""
    return [D for D in range(lo, hi + 1) if is_fundamental_negative(D)]


# A unit table's modulus stays below this bound for two reasons.  Memory: the table and
# the row built from it peak near 80 bytes a residue, 1.3 GiB and 10 s at c = 16777213
# (2-core Xeon), and at c = 10^8 the process was killed after 53 s on a machine that
# overcommits.  int64: every product stays below c^2 < 2^48.  The tests' largest row is
# c = 40,000.
_MAX_TABLE_MODULUS = 1 << 24
# Scalar sums below this modulus are pure Python: cold, 0.10-0.15 s at c = 65521 (0.6 of a
# numpy import), 2.5 s at 999983 against numpy's 0.35 s (2-core Xeon, Python 3.11, numpy 2.4).
_PURE_MODULUS_MAX = 1 << 16


@lru_cache(maxsize=4096)
def _units_and_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The units v mod c in increasing order and their inverses, as int64
    arrays: the table of the numpy path, which every kernel and array call takes.

    The inverses are v^(phi(c)-1) mod c, by vectorized square-and-multiply
    (phi(c) is the number of units).  A modulus whose table does not fit in
    memory is a DomainError, like one past the int64 limit.
    """
    import numpy as np

    if c >= _MAX_TABLE_MODULUS:
        raise DomainError(f"modulus {c} too large for a unit table")
    try:
        v = np.arange(1, c, dtype=np.int64)
        units = v[np.gcd(v, c) == 1]
        invs = np.ones_like(units)
        power = units.copy()
        e = units.size - 1
        while e > 0:  # e = -1 when c = 1 (no units)
            if e & 1:
                invs = invs * power % c
            power = power * power % c
            e >>= 1
    except MemoryError:
        raise DomainError(f"modulus {c} too large for a unit table in memory") from None
    units.flags.writeable = False  # cached: every caller shares these arrays
    invs.flags.writeable = False
    return units, invs


# Phase k mod c is the angle k * (_TWO_PI / c), the product formed in doubles from the
# integer k in [0, c): both cosine tables below tabulate exactly these angles, so the
# pure and numpy paths read the same bits wherever libm's cos and np.cos agree.


@lru_cache(maxsize=16)
def _pure_tables(c: int) -> tuple[tuple[tuple[int, int], ...], tuple[float, ...]]:
    """The pure path's pairs (v, vbar) over the units v mod c, (0, 0) alone when c = 1,
    and the cosine of phase k for k mod c (10 MB near c = 2^16)."""
    return (tuple((v, pow(v, -1, c)) for v in range(c) if math.gcd(v, c) == 1),
            tuple(math.cos(k * (_TWO_PI / c)) for k in range(c)))


@lru_cache(maxsize=16)
def _phase_table(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of phase k mod c for k = 0..2c-1, as read-only float64
    arrays: two turns, so the sum of two residues mod c indexes them with no
    further reduction.  Like the unit table, one that does not fit in memory
    is a DomainError."""
    import numpy as np

    try:
        angles = np.arange(c, dtype=np.float64) * (_TWO_PI / c)
        cos, sin = np.cos(angles), np.sin(angles)
        cos, sin = np.concatenate((cos, cos)), np.concatenate((sin, sin))
    except MemoryError:
        raise DomainError(f"modulus {c} too large for a phase table in memory") from None
    cos.flags.writeable = False  # cached: every caller shares these arrays
    sin.flags.writeable = False
    return cos, sin


def _phase_indices(m: int | np.ndarray, n: int | np.ndarray, c: int) -> np.ndarray:
    """(m*v mod c) + (n*vbar mod c) over the units v mod c, on a last axis
    after the broadcast shape of m and n: the phases of S(m,n;c) as indices
    into _phase_table(c).  m and n are reduced mod c before any int64
    product.  The one unit mod 1 is 0, so S(m,n;1) = 1."""
    if c < 1:
        raise ValueError("modulus must be >= 1")
    import numpy as np

    units, invs = _units_and_inverses(c) if c > 1 else (np.zeros(1, np.int64),) * 2
    m = np.asarray(m % c, dtype=np.int64)[..., None]
    n = np.asarray(n % c, dtype=np.int64)[..., None]
    # two reductions over the m and n axes alone, not one over their whole grid
    return m * units % c + n * invs % c


def _pairwise_sum(x: list[float]) -> float:
    """sum(x) in the order of numpy's float64 add.reduce (its pairwise_sum, blocks of 128)."""
    n = len(x)
    if n < 8:
        return reduce(add, x, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])
    end = n - n % 8
    r = [reduce(add, x[j:end:8]) for j in range(8)]
    return reduce(add, x[end:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def kloosterman_direct(m: int | np.ndarray, n: int | np.ndarray, c: int) -> float | np.ndarray:
    """S(m,n;c) by direct enumeration over the units mod c.

    m and n are integers or integer arrays: arrays give their broadcast
    shape, integers a float.  The sum is real (v -> -v conjugates the
    terms); the imaginary part of the accumulation is discarded.

    Each term's phase m*v + n*vbar is reduced mod c exactly, in integers,
    and its cosine is looked up in a table of cos(k * (2*pi/c)), k mod c.
    So every term is the correctly reduced angle's cosine, to libm's
    accuracy, and the sum is a pairwise float64 sum of phi(c) such terms.
    Integers with 1 <= c < 2^16 are summed without numpy, in numpy's bits
    (the same table entries, libm's cos, which np.cos equals, and
    _pairwise_sum's order).
    """
    if isinstance(m, int) and isinstance(n, int) and 0 < c < _PURE_MODULUS_MAX:
        pairs, cosines = _pure_tables(c)
        return _pairwise_sum([cosines[(m * v + n * w) % c] for v, w in pairs])
    k = _phase_indices(m, n, c)
    s = _phase_table(c)[0][k].sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def kloosterman_direct_complex(
    m: int | np.ndarray, n: int | np.ndarray, c: int
) -> complex | np.ndarray:
    """Full complex accumulation of S(m,n;c), shaped like kloosterman_direct;
    used to test realness."""
    k = _phase_indices(m, n, c)
    cos, sin = _phase_table(c)
    re, im = cos[k].sum(axis=-1), sin[k].sum(axis=-1)
    return complex(re, im) if re.ndim == 0 else re + 1j * im


def kloosterman_fast(m: int | np.ndarray, n: int | np.ndarray, c: int) -> float | np.ndarray:
    """S(m,n;c) via the Chinese-remainder factorization of the sum, shaped
    like kloosterman_direct.

    For coprime q*r = c one has S(m,n;qr) = S(rbar*m, rbar*n; q) *
    S(qbar*m, qbar*n; r) with rbar the inverse of r mod q and vice versa.
    Each prime-power factor q is a kloosterman_direct call (pure Python for integers at q < 2^16).
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    out = 1.0
    for p, a in factorize(c) or [(1, 1)]:  # c = 1: one factor S(0,0;1) = 1, shaped like m, n
        q = p**a
        rbar = pow(c // q, -1, q)
        out *= kloosterman_direct(rbar * (m % q), rbar * (n % q), q)
    return out


def gauss_sum(chi: QuadraticCharacter) -> complex:
    """G(chi) = sum_{n mod D} chi(n) e^(2*pi*i*n/D); |G(chi)| = sqrt(D)."""
    import numpy as np

    D = chi.D
    cos, sin = _phase_table(D)
    vals = chi.table.astype(np.float64)
    return complex((vals * cos[:D]).sum(), (vals * sin[:D]).sum())
