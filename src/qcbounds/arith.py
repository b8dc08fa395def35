"""Exact integer and character arithmetic.

Kronecker symbols, the odd quadratic character of an imaginary quadratic
field, Kloosterman sums S(m,n;c) = sum over units v mod c of
e^(2*pi*i*(m*v + n*vbar)/c), Gauss sums and the standard multiplicative
functions.  Everything here is exact integer work except for the final
complex accumulation of exponential sums, which is done in doubles with
the angle reduced mod c in integer arithmetic first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def is_fundamental_negative(D: int) -> bool:
    """True when -D is a fundamental imaginary quadratic discriminant.

    Either D = 3 mod 4 and squarefree, or D = 4m with m squarefree and
    m = 1 or 2 mod 4.
    """
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


@dataclass(frozen=True)
class QuadraticCharacter:
    """Odd quadratic Dirichlet character of conductor D, with -D fundamental.

    A single value is one Kronecker symbol; the vectorized paths read the
    full period, a table of signed bytes built on first use.
    """

    D: int

    def __call__(self, n: int) -> int:
        return kronecker(-self.D, n % self.D)

    @cached_property
    def table(self) -> np.ndarray:
        import numpy as np

        return np.array([self(n) for n in range(self.D)], dtype=np.int8)

    def values(self, n: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an integer array."""
        return self.table[n % self.D]


def make_character(D: int) -> QuadraticCharacter:
    """Character n -> kronecker(-D, n) of an imaginary quadratic field."""
    if not is_fundamental_negative(D):
        raise NotFundamental(f"-{D} is not a fundamental discriminant")
    return QuadraticCharacter(D)


def fundamental_discriminants(lo: int, hi: int) -> list[int]:
    """All D in [lo, hi] with -D fundamental."""
    return [D for D in range(lo, hi + 1) if is_fundamental_negative(D)]


_MAX_TABLE_MODULUS = 1 << 31  # keeps every product below c^2 < 2^62 in int64


@lru_cache(maxsize=4096)
def _units_and_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The units v mod c in increasing order and their inverses, as int64
    arrays (the one unit/inverse table every Kloosterman kernel reads).

    The inverses are v^(phi(c)-1) mod c, by vectorized square-and-multiply
    (phi(c) is the number of units).
    """
    import numpy as np

    if c >= _MAX_TABLE_MODULUS:
        raise DomainError(f"modulus {c} too large for a unit table")
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
    units.flags.writeable = False  # cached: every caller shares these arrays
    invs.flags.writeable = False
    return units, invs


def _kloosterman_angles(m: int | np.ndarray, n: int | np.ndarray, c: int) -> np.ndarray:
    """The angles 2*pi*(m*v + n*vbar)/c over the units v mod c, on a last
    axis after the broadcast shape of m and n.  m and n are reduced mod c
    before any int64 product.  The one unit mod 1 is 0, so S(m,n;1) = 1."""
    if c < 1:
        raise ValueError("modulus must be >= 1")
    import numpy as np

    units, invs = _units_and_inverses(c) if c > 1 else (np.zeros(1, np.int64),) * 2
    m = np.asarray(m % c, dtype=np.int64)[..., None]
    n = np.asarray(n % c, dtype=np.int64)[..., None]
    return np.mod(m * units + n * invs, c) * (_TWO_PI / c)


def kloosterman_direct(m: int | np.ndarray, n: int | np.ndarray, c: int) -> float | np.ndarray:
    """S(m,n;c) by direct enumeration over the units mod c.

    m and n are integers or integer arrays: arrays give their broadcast
    shape, integers a float.  The sum is real (v -> -v conjugates the
    terms); the imaginary part of the accumulation is discarded.
    """
    import numpy as np

    s = np.cos(_kloosterman_angles(m, n, c)).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def kloosterman_direct_complex(
    m: int | np.ndarray, n: int | np.ndarray, c: int
) -> complex | np.ndarray:
    """Full complex accumulation of S(m,n;c), shaped like kloosterman_direct;
    used to test realness."""
    import numpy as np

    angles = _kloosterman_angles(m, n, c)
    re, im = np.cos(angles).sum(axis=-1), np.sin(angles).sum(axis=-1)
    return complex(re, im) if re.ndim == 0 else re + 1j * im


def kloosterman_fast(m: int | np.ndarray, n: int | np.ndarray, c: int) -> float | np.ndarray:
    """S(m,n;c) via the Chinese-remainder factorization of the sum, shaped
    like kloosterman_direct.

    For coprime q*r = c one has S(m,n;qr) = S(rbar*m, rbar*n; q) *
    S(qbar*m, qbar*n; r) with rbar the inverse of r mod q and vice versa.
    Each prime-power factor falls back to direct enumeration.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    if c == 1:  # plain integers skip importing numpy
        return 1.0 if isinstance(m, int) and isinstance(n, int) else kloosterman_direct(m, n, 1)
    out = 1.0
    for p, a in factorize(c):
        q = p**a
        rbar = pow(c // q, -1, q)
        out *= kloosterman_direct(rbar * (m % q), rbar * (n % q), q)
    return out


def gauss_sum(chi: QuadraticCharacter) -> complex:
    """G(chi) = sum_{n mod D} chi(n) e^(2*pi*i*n/D); |G(chi)| = sqrt(D)."""
    import numpy as np

    D = chi.D
    n = np.arange(D)
    angles = n * (_TWO_PI / D)
    vals = chi.table.astype(np.float64)
    return complex((vals * np.cos(angles)).sum(), (vals * np.sin(angles)).sum())
