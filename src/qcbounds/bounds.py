"""Standalone explicit inequalities on exponential sums.

Both sides of every inequality are exposed: the Weil bounds on S(m,n;c)
in all four refinement cases, the character-twisted Kloosterman DFT and
its partial-sum (Polya-Vinogradov style) bound, the trigonometric sum
S_{K,F} against (4F/pi^2)(log F + 1.5), and the three elementary tail
estimates used to truncate the trace-formula series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import QuadraticCharacter, divisor_count, is_prime
from .errors import InvalidHint
from .kernels import kloosterman_row

_PI_SQ = math.pi * math.pi

WEIL_GENERIC = "generic"
WEIL_COPRIME = "odd-prime-power-coprime"
WEIL_ONE = "prime-divides-one-of-mn"
WEIL_BOTH = "prime-divides-both"


@dataclass(frozen=True)
class WeilCase:
    tag: str
    bound_value: float


def weil_bound(m: int, n: int, c: int, p_hint: int | None = None) -> WeilCase:
    """Sharpest applicable Weil bound on |S(m,n;c)|.

    Generic: gcd(m,n,c)^(1/2) tau(c) sqrt(c).  With an odd prime hint p,
    c = p^alpha c' and the bound refines to 2 tau(c') gcd^(1/2) sqrt(c)
    when p divides neither m nor n, tau(c') gcd^(1/2) sqrt(c') when p
    divides exactly one, and tau(c/p) gcd^(1/2) sqrt(c) when p divides
    both.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    g = math.sqrt(math.gcd(m, math.gcd(n, c)))
    tau = divisor_count(c)
    generic = g * tau * math.sqrt(c)
    if p_hint is None:
        return WeilCase(WEIL_GENERIC, generic)
    if p_hint % 2 == 0 or c % p_hint != 0 or not is_prime(p_hint):
        raise InvalidHint(f"hint {p_hint} must be an odd prime dividing {c}")
    cp, alpha = c, 0
    while cp % p_hint == 0:
        cp //= p_hint
        alpha += 1
    # tau(c) = (alpha + 1) tau(c'), and tau(c/p) = alpha tau(c')
    tau_cp = tau // (alpha + 1)
    if m % p_hint != 0 and n % p_hint != 0:
        tag = WEIL_COPRIME
        refined = 2.0 * tau_cp * g * math.sqrt(c)
    elif m % p_hint == 0 and n % p_hint == 0:
        tag = WEIL_BOTH
        refined = alpha * tau_cp * g * math.sqrt(c)
    else:
        tag = WEIL_ONE
        refined = tau_cp * g * math.sqrt(cp)
    if refined <= generic:
        return WeilCase(tag, refined)
    return WeilCase(WEIL_GENERIC, generic)


def trig_sum_direct(K: int | np.ndarray, F: int) -> float | np.ndarray:
    """S_{K,F} = sum_{g=1}^{F-1} |sin(pi g K / F)| / sin(pi g / F), one sum
    per element of an integer array K, or a float for an integer K."""
    if F < 1:
        raise ValueError("F must be >= 1")
    g = np.arange(1, F, dtype=np.float64)
    K = np.asarray(K)[..., None]
    s = np.sum(np.abs(np.sin(math.pi * K * g / F)) / np.sin(math.pi * g / F), axis=-1)
    return float(s) if s.ndim == 0 else s


def trig_sum_bound(F: int) -> float:
    """(4F/pi^2)(log F + 1.5)."""
    if F < 1:
        raise ValueError("F must be >= 1")
    return 4.0 * F / _PI_SQ * (math.log(F) + 1.5)


def _twisted_sequence(m: int, c: int, chi: QuadraticCharacter, F: int) -> np.ndarray:
    """chi(n) S(m,n;c) for n = 0..F-1."""
    n = np.arange(F, dtype=np.int64)
    return chi.values(n).astype(np.float64) * kloosterman_row(m, c)[n % c]


def twisted_dft(m: int, c: int, chi: QuadraticCharacter, alpha: int) -> complex:
    """sum_{n=0}^{F-1} chi(n) S(m,n;c) e^(2 pi i n alpha / F), F = lcm(c, D).

    Modulus is at most c*sqrt(D), and the sum vanishes whenever
    gcd(alpha, F/gcd(c,D)) > 1.  (For c = D that quotient is 1, so no
    vanishing is asserted; the c = D case sits outside the hypotheses of
    the partial-sum estimate but the modulus bound still holds.)
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    D = chi.D
    F = math.lcm(c, D)
    seq = _twisted_sequence(m, c, chi, F)
    phases = np.arange(F) * (2.0 * math.pi * (alpha % F) / F)
    return complex(np.sum(seq * np.cos(phases)), np.sum(seq * np.sin(phases)))


def twisted_dft_all(m: int, c: int, chi: QuadraticCharacter) -> np.ndarray:
    """twisted_dft for every alpha = 0..F-1 at once (one inverse FFT)."""
    D = chi.D
    F = math.lcm(c, D)
    seq = _twisted_sequence(m, c, chi, F)
    return np.fft.ifft(seq) * F


def twisted_partial_sup(m: int, c: int, chi: QuadraticCharacter) -> float:
    """sup over windows [K, K'] of |sum_{n=K}^{K'} chi(n) S(m,n;c)|.

    The summand is F-periodic with zero full-period sum (the alpha = 0
    Fourier coefficient vanishes for c != D), so every window sum is
    realized inside two consecutive periods; the scan reduces to the
    spread of the prefix sums over those two periods.  For c = D the
    period sum need not vanish and the returned value only covers
    windows inside two periods.
    """
    D = chi.D
    F = math.lcm(c, D)
    seq = _twisted_sequence(m, c, chi, F)
    doubled = np.concatenate([[0.0], np.tile(seq, 2)])
    prefix = np.cumsum(doubled)
    return float(prefix.max() - prefix.min())


def twisted_partial_bound(c: int, D: int) -> float:
    """(4 c sqrt(D) / pi^2)(log(D c) + 1.5)."""
    if c < 1 or D < 3:
        raise ValueError("need c >= 1 and D >= 3")
    return 4.0 * c * math.sqrt(D) / _PI_SQ * (math.log(D * c) + 1.5)


class TailBounds(NamedTuple):
    harmonic: float
    log_over_n: float
    tau_tail: float


def tail_bounds(lam: int) -> TailBounds:
    """Closed forms: sum_{n<=lam} 1/n <= log(lam)+1,
    sum_{n<=lam} log(n)/n <= log(lam)^2/2,
    sum_{n>=lam} tau(n)/n^(3/2) <= (2 log(lam) + 7)/sqrt(lam)."""
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    ll = math.log(lam)
    return TailBounds(ll + 1.0, ll * ll / 2.0, (2.0 * ll + 7.0) / math.sqrt(lam))
