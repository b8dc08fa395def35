"""Modular-unit machinery for bounding integral j-invariants.

The unit g(tau) = Delta(tau)/Delta(p tau) = q^(1-p) prod_{(n,p)=1}
(1-q^n)^24 descends to X0(p) with cusp-supported divisor
(p-1)([c_0] - [c_inf]); its Atkin-Lehner transform satisfies
g(-1/tau) g(tau/p) = p^12.  Together with the fundamental-domain
reduction and the near-cusp location this yields the explicit bound
log|j| < 2 pi sqrt(p) + 6 log p + 8 for integral points.

g is always evaluated through its coprime-index product (never as a
quotient of two Delta values, whose ratio overflows doubles long before
the product's logarithm misbehaves).  Every function of the level p
checks that p is prime (errors.NotPrime).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .arith import is_prime
from .errors import DomainError, NonConvergence, NotPrime

_TRUNCATION_EPS = 1e-16
# The longest q-expansion (_product_terms): 2^20 terms, reached at
# Im tau near 7.1e-6; tier-1's longest runs 6,671.
_MAX_TERMS = 1 << 20
_MAX_REDUCTION_STEPS = 10_000


class _Point(NamedTuple):
    re: float
    im: float


class UpperHalfPoint(_Point):
    """A point re + i*im with im > 0, both parts finite; anything else is
    a DomainError.  The checks sit in a subclass because a NamedTuple body
    cannot define __new__."""

    __slots__ = ()

    def __new__(cls, re: float, im: float) -> "UpperHalfPoint":
        if not im > 0:
            raise DomainError("point must lie in the upper half-plane")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError("the real and imaginary parts must be finite")
        return super().__new__(cls, re, im)

    @classmethod
    def _make(cls, iterable) -> "UpperHalfPoint":  # _replace builds through here: check it too
        return cls(*iterable)

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @property
    def q(self) -> complex:
        """q = exp(2 pi i tau); |q| = exp(-2 pi im) < 1."""
        return cmath.exp(2j * math.pi * self.z)

    @staticmethod
    def from_complex(z: complex) -> "UpperHalfPoint":
        return UpperHalfPoint(z.real, z.imag)


CUSP_INFINITY = "c_infinity"
CUSP_ZERO = "c_zero"


class CuspLocation(NamedTuple):
    cusp: str
    tau: UpperHalfPoint
    gamma: tuple[tuple[int, int], tuple[int, int]]


def _product_terms(abs_q: float) -> int:
    """Index N with |q|^(N+1)/(1-|q|) below the truncation epsilon, the
    length of every q-product and q-series here.  Past _MAX_TERMS it is a
    DomainError: at Im tau = 1e-9 the product would run 8.9e9 terms."""
    if abs_q >= 1.0:
        raise DomainError("|q| must be < 1")
    if abs_q == 0.0:
        return 1
    n = max(1, int(math.log(_TRUNCATION_EPS * (1.0 - abs_q)) / math.log(abs_q)) + 1)
    if n > _MAX_TERMS:
        raise DomainError(f"a q-expansion at |q| = {abs_q!r} needs {n} terms, past 2^20")
    return n


def delta(tau: UpperHalfPoint) -> complex:
    """Discriminant form Delta(tau) = q prod (1-q^n)^24."""
    q = tau.q
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(_product_terms(abs(q))):
        qn *= q
        prod *= (1.0 - qn) ** 24
    return q * prod


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def unit_g(tau: UpperHalfPoint, p: int) -> complex:
    """g(tau) = q^(1-p) prod_{(n,p)=1} (1-q^n)^24.

    Raises DomainError, with log|g| (see log_abs_unit_g) in the message,
    where g(tau) is not a finite nonzero double: it underflows near the
    real line and overflows for large Im tau."""
    _check_prime(p)
    q = tau.q
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, _product_terms(abs(q)) + 1):
        qn *= q
        if n % p != 0:
            prod *= (1.0 - qn) ** 24
    try:
        g = q ** (1 - p) * prod
    except (ZeroDivisionError, OverflowError):  # q^(1-p) out of range
        g = 0j
    if g == 0 or not cmath.isfinite(g):
        raise DomainError(
            f"g(tau) is not a finite nonzero double at tau = {tau.z} "
            f"(log|g| = {log_abs_unit_g(tau, p)!r})"
        )
    return g


def unit_g0(tau: UpperHalfPoint, p: int) -> complex:
    """g0 = g o w with w(tau) = -1/tau."""
    return unit_g(UpperHalfPoint.from_complex(-1.0 / tau.z), p)


def _log_abs_coprime_product(tau: UpperHalfPoint, p: int) -> float:
    """sum_{(n,p)=1} log|1-q^n|, each term as 0.5 log1p(-2 Re q^n + |q^n|^2)
    so that it keeps its digits when |q^n| is far below the rounding of 1."""
    q = tau.q
    acc = 0.0
    qn = 1.0 + 0.0j
    for n in range(1, _product_terms(abs(q)) + 1):
        qn *= q
        if n % p != 0:
            acc += 0.5 * math.log1p(-2.0 * qn.real + abs(qn) ** 2)
    return acc


def log_abs_unit_g(tau: UpperHalfPoint, p: int) -> float:
    """log|g(tau)|, computed in log space so high imaginary parts never
    overflow: (1-p) log|q| + 24 sum_{(n,p)=1} log|1-q^n|."""
    _check_prime(p)
    log_abs_q = -2.0 * math.pi * tau.im
    return (1 - p) * log_abs_q + 24.0 * _log_abs_coprime_product(tau, p)


def _sigma3_list(count: int) -> list[int]:
    sig = [0] * (count + 1)
    for d in range(1, count + 1):
        cube = d * d * d
        for mult in range(d, count + 1, d):
            sig[mult] += cube
    return sig


def eisenstein_e4(tau: UpperHalfPoint) -> complex:
    """E4(tau) = 1 + 240 sum sigma_3(n) q^n."""
    q = tau.q
    terms = _product_terms(abs(q)) + 8
    sig = _sigma3_list(terms)
    acc = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, terms + 1):
        qn *= q
        acc += sig[n] * qn
    return 1.0 + 240.0 * acc


def j_invariant(tau: UpperHalfPoint) -> complex:
    """j = E4^3 / Delta; j(i) = 1728, j(exp(i pi/3)) = 0.

    j is SL2(Z)-invariant, so both q-series are evaluated at the reduction
    of tau to the fundamental domain, where |q| <= e^(-pi sqrt 3) keeps
    them short and accurate.  Raises DomainError where Delta underflows
    to 0 at the reduced point, which happens for Im tau near 0 (reduced
    far up) or very large."""
    reduced, _ = reduce_to_fundamental_domain(tau)
    disc = delta(reduced)
    if disc == 0:
        raise DomainError(f"Delta(tau) underflows to 0 at tau = {tau.z} (reduced: {reduced.z})")
    return eisenstein_e4(reduced) ** 3 / disc


Matrix = tuple[tuple[int, int], tuple[int, int]]

_IDENTITY: Matrix = ((1, 0), (0, 1))


def _mul(m1: Matrix, m2: Matrix) -> Matrix:
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def reduce_to_fundamental_domain(
    tau: UpperHalfPoint,
) -> tuple[UpperHalfPoint, Matrix]:
    """Translate/invert iteration into |Re| <= 1/2, |tau| >= 1.

    Returns (tau', gamma) with gamma * tau = tau'.  Raises NonConvergence
    after 10^4 steps (input essentially on the real line), and DomainError
    when an inversion -1/z overflows (|z| below about 5.6e-309).
    """
    z = tau.z
    gamma = _IDENTITY
    for _ in range(_MAX_REDUCTION_STEPS):
        k = round(z.real)
        if k != 0:
            shift: Matrix = ((1, -k), (0, 1))
            gamma = _mul(shift, gamma)
            z = z - k
        if abs(z) < 1.0 - 1e-12:
            inv: Matrix = ((0, -1), (1, 0))
            gamma = _mul(inv, gamma)
            z = -1.0 / z
            if not cmath.isfinite(z):
                raise DomainError(
                    "the reduction overflowed: -1/z is not a finite double this close to a cusp")
            continue
        return UpperHalfPoint.from_complex(z), gamma
    raise NonConvergence("fundamental-domain reduction did not converge")


def locate_near_cusp(tau: UpperHalfPoint, p: int) -> CuspLocation:
    """Locate the image of tau on X0(p) near one of its two cusps.

    Reduce tau to beta*tau in the fundamental domain.  If beta is in
    Gamma_0(p) (lower-left entry divisible by p) the point is near
    c_infinity and tau' = beta*tau represents it.  Otherwise
    SL2(Z) = Gamma_0(p) u U_k Gamma_0(p) w T^k gives an integer k with
    tau' = T^k beta tau in D + Z and -1/tau' equivalent to tau under
    Gamma_0(p); the point is near c_zero.
    """
    _check_prime(p)
    reduced, beta = reduce_to_fundamental_domain(tau)
    (a, _b), (c, _d) = beta
    if c % p == 0:
        return CuspLocation(CUSP_INFINITY, reduced, beta)
    k = (-a * pow(c, -1, p)) % p
    shift: Matrix = ((1, k), (0, 1))
    gamma = _mul(shift, beta)
    shifted = UpperHalfPoint(reduced.re + k, reduced.im)
    return CuspLocation(CUSP_ZERO, shifted, gamma)


class ProductLogBounds(NamedTuple):
    small_q: float
    general: float


def log_abs_product_bounds(q: complex, r: float) -> ProductLogBounds:
    """Bounds for sum |log|1-q^n||: (-log(1-r))/(r(1-r)) |q| on |q| <= r,
    and pi^2/(6 log|q^-1|) for any |q| < 1."""
    aq = abs(q)
    if aq >= 1.0:
        raise DomainError("need |q| < 1")
    if not 0.0 < r < 1.0 or aq > r:
        raise DomainError("small-q bound needs |q| <= r < 1")
    small = -math.log(1.0 - r) / (r * (1.0 - r)) * aq
    general = math.pi**2 / (6.0 * math.log(1.0 / aq)) if aq > 0 else 0.0
    return ProductLogBounds(small, general)


class UnitDeviation(NamedTuple):
    near_inf_dev: float
    near_zero_dev: float


def g_deviation(tau: UpperHalfPoint, p: int) -> UnitDeviation:
    """Deviation of log|g| and log|g0| from their leading q-powers:
    |log|g| + (p-1) log|q|| <= 25|q| and
    |log|g0| - ((p-1)/p) log|q|| <= 4 pi^2 p / log|q^-1| + 12 log p
    on the translated fundamental domain."""
    _check_prime(p)
    log_abs_q = -2.0 * math.pi * tau.im
    # log|g| + (p-1) log|q| is exactly 24 sum log|1-q^n|; taking it directly
    # avoids cancelling two logs of size ~(p-1) 2 pi Im(tau).
    near_inf = abs(24.0 * _log_abs_coprime_product(tau, p))
    w_tau = UpperHalfPoint.from_complex(-1.0 / tau.z)
    near_zero = abs(log_abs_unit_g(w_tau, p) - (p - 1) / p * log_abs_q)
    return UnitDeviation(near_inf, near_zero)


def runge_j_bound(p: int) -> float:
    """log|j(P)| < 2 pi sqrt(p) + 6 log p + 8 for integral points of X0(p)."""
    _check_prime(p)
    return 2.0 * math.pi * math.sqrt(p) + 6.0 * math.log(p) + 8.0
