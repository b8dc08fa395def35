"""Standalone explicit inequalities on exponential sums.

Both sides of every inequality are exposed: the Weil bounds on S(m,n;c)
in all four refinement cases, the character-twisted Kloosterman DFT and
its partial-sum (Polya-Vinogradov style) bound, the trigonometric sum
S_{K,F} against (4F/pi^2)(log F + 1.5), the three elementary tail
estimates used to truncate the trace-formula series, and the hybrid
Abel/Weil tail of B's d-sum that rests on them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import QuadraticCharacter, divisor_count, is_prime
from .errors import DomainError, InvalidHint
from .kernels import kloosterman_row

_PI_SQ = math.pi * math.pi

WEIL_GENERIC = "generic"
WEIL_COPRIME = "odd-prime-power-coprime"
WEIL_ONE = "prime-divides-one-of-mn"
WEIL_BOTH = "prime-divides-both"


class WeilCase(NamedTuple):
    tag: str | np.ndarray
    bound_value: float | np.ndarray


def weil_bound(
    m: int | np.ndarray, n: int | np.ndarray, c: int, p_hint: int | None = None
) -> WeilCase:
    """Sharpest applicable Weil bound on |S(m,n;c)|.

    Generic: gcd(m,n,c)^(1/2) tau(c) sqrt(c).  With an odd prime hint p,
    c = p^alpha c' and the bound refines to 2 tau(c') gcd^(1/2) sqrt(c)
    when p divides neither m nor n, tau(c') gcd^(1/2) sqrt(c') when p
    divides exactly one, and tau(c/p) gcd^(1/2) sqrt(c) when p divides
    both.

    m and n are integers (a str tag and a float bound) or integer arrays
    (tag and bound arrays of their broadcast shape), reduced mod c before
    any int64 step: the gcd and p | m, p | n depend only on m, n mod c.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    m = np.asarray(m % c, dtype=np.int64)
    n = np.asarray(n % c, dtype=np.int64)
    g = np.sqrt(np.gcd(m, np.gcd(n, c)))
    tau = divisor_count(c)
    generic = g * tau * math.sqrt(c)
    tag, bound = np.full(generic.shape, WEIL_GENERIC), generic
    if p_hint is not None:
        if p_hint % 2 == 0 or c % p_hint != 0 or not is_prime(p_hint):
            raise InvalidHint(f"hint {p_hint} must be an odd prime dividing {c}")
        cp, alpha = c, 0
        while cp % p_hint == 0:
            cp //= p_hint
            alpha += 1
        # tau(c) = (alpha + 1) tau(c'), and tau(c/p) = alpha tau(c')
        tau_cp = tau // (alpha + 1)
        # k = how many of m, n the hint divides: coprime, one, both
        k = (m % p_hint == 0).astype(np.int64) + (n % p_hint == 0)
        coef = np.array([2.0 * tau_cp, tau_cp, alpha * tau_cp])[k]
        root = np.array([math.sqrt(c), math.sqrt(cp), math.sqrt(c)])[k]
        refined = coef * g * root
        keep = refined <= generic
        tag = np.where(keep, np.array([WEIL_COPRIME, WEIL_ONE, WEIL_BOTH])[k], tag)
        bound = np.where(keep, refined, bound)
    return WeilCase(str(tag), float(bound)) if bound.ndim == 0 else WeilCase(tag, bound)


def trig_sum_direct(K: int | np.ndarray, F: int) -> float | np.ndarray:
    """S_{K,F} = sum_{g=1}^{F-1} |sin(pi g K / F)| / sin(pi g / F), one sum
    per element of an integer array K, or a float for an integer K.

    Both sines are read from one half-turn table sin(pi j / F), j = 0..F-1:
    |sin(pi x)| has period 1, so the numerator is the entry at K*g mod F,
    reduced exactly in integers.  No angle exceeds pi, so each term is
    within a few ulps: over sampled K, F <= 300 the sum is within 5e-15
    relative of a 30-digit evaluation, and exactly 0 when F | K.  (The
    unreduced angle pi*K*g/F erred by up to 1.5e-13 relative there, and
    gave 4.8e-11 for a zero sum.)  A non-integer K is a DomainError: the
    table has no entry for it.
    """
    if F < 1:
        raise ValueError("F must be >= 1")
    if isinstance(K, int):
        K %= F  # before any int64 step
    K = np.asarray(K)
    if K.dtype.kind not in "iu":
        raise DomainError(f"K must be an integer or an integer array, not {K.dtype}")
    half_turn = np.sin(math.pi * np.arange(F) / F)
    g = np.arange(1, F)
    j = np.asarray(K % F, dtype=np.int64)[..., None] * g
    j -= j // F * F  # j %= F, in half the time: numpy divides by a scalar faster
    terms = half_turn[j]
    terms /= half_turn[1:]  # in place: fresh grid-sized temporaries cost page faults
    s = terms.sum(axis=-1)
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


def twisted_dft_all(m: int, c: int, chi: QuadraticCharacter) -> np.ndarray:
    """sum_{n=0}^{F-1} chi(n) S(m,n;c) e^(2 pi i n alpha / F), F = lcm(c, D),
    for every alpha = 0..F-1 at once (one inverse FFT).

    Each modulus is at most c*sqrt(D), and the sum vanishes whenever
    gcd(alpha, F/gcd(c,D)) > 1.  (For c = D that quotient is 1, so no
    vanishing is asserted; the c = D case sits outside the hypotheses of
    the partial-sum estimate but the modulus bound still holds.)
    """
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
    sum_{n>=lam} tau(n)/n^(3/2) <= (2 log(lam) + 7)/sqrt(lam).

    The log(n)/n bound fails for 2 <= lam <= 20 (by up to 0.11) and holds
    at lam = 1 and for 21 <= lam <= 1000, as the tails suite pins.  Only
    the tau-tail bounds a truncated series."""
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    ll = math.log(lam)
    return TailBounds(ll + 1.0, ll * ll / 2.0, (2.0 * ll + 7.0) / math.sqrt(lam))


# C >= 1/2 + V, where V = int_0^inf |J2(y)|/y dy is the total variation of
# J1(y)/y: 0.9745 over the first 200 lobes between zeros of J2, plus at most
# 0.0636 beyond them, bounded through the decreasing y (J2^2 + Y2^2)
# (0.9862 + 0.0451 over 399 lobes).
ABEL_C = 1.55


def abel_sb_bound(D: int, m: int, N: int, d: int) -> float:
    """(16 sqrt(Dm)/(pi sqrt(N))) C (log(Dd) + 1.5) >= |S_B(d)| for d != D.

    Abel summation of chi(n) S(n, m Nbar; d) against
    g(n) = e^(-nx) J1(beta sqrt(n))/sqrt(n), beta = 4 pi sqrt(m)/(d sqrt(N)):
    the partial sums are at most twisted_partial_bound(d, D), and g has
    total variation at most beta (1/2 + V) <= beta C.  At d = D the period
    sum need not vanish and only the Weil bound holds."""
    return _abel_scale(D, m, N) * (math.log(D * d) + 1.5)


def _abel_scale(D: int, m: int, N: int) -> float:
    return 16.0 * ABEL_C * math.sqrt(D * m) / (math.pi * math.sqrt(N))


class DTail(NamedTuple):
    """A bound on sum_{d > d_max} |S_B(d)|/d, split by the estimate used:
    `abel` covers d_max < d <= d1 and `weil` everything beyond d1, plus
    the d = D term when d_max < D <= d1."""

    abel: float
    weil: float
    d1: int

    @property
    def total(self) -> float:
        return self.abel + self.weil


def hybrid_d_tail(D: int, m: int, N: int, d_max: int | Sequence[int]) -> DTail | list[DTail]:
    """B's d-tail past d_max: the per-d Abel bound on d_max < d <= d1,
    summed through the integral of the decreasing (log(Dd) + 1.5)/d, the
    Weil-induced D sqrt(m) (2 log(d1+1) + 7)/sqrt(d1+1) beyond d1, and the
    Weil term sqrt(m) tau(D)/sqrt(D) of d = D if it falls in the Abel range.

    d1 minimises the total, so the result is never above the pure Weil
    tail (d1 = d_max).  No S_B(d) is evaluated.

    d_max may also be a ladder, a sequence of caps, for the list of their
    tails, each bit for bit the tail of its cap alone.  A split at d1
    depends on its cap only through log0 = log(D d_max) + 1.5 and through
    whether d = D falls in its Abel range, so log(D d1) + 1.5 and the Weil
    tail past d1 are computed once per d1 for the whole ladder."""
    caps = d_max if isinstance(d_max, Sequence) else [d_max]
    lowest = min(caps)
    if lowest < 1:
        raise ValueError("d_max must be >= 1")
    d_term = divisor_count(D) * math.sqrt(m) / math.sqrt(D) if lowest < D else 0.0
    k = _abel_scale(D, m, N)
    weil_scale = D * math.sqrt(m)
    smooth = _smooth_min(D, m, N)
    at: dict[int, tuple[float, float]] = {}

    def parts(d1: int) -> tuple[float, float]:
        """log(D d1) + 1.5 and the Weil tail past d1."""
        if d1 not in at:
            at[d1] = (math.log(D * d1) + 1.5, weil_scale * tail_bounds(d1 + 1).tau_tail)
        return at[d1]

    tails = []
    for cap in caps:
        log0 = parts(cap)[0]
        best = max(cap, smooth)
        candidates = (cap, best)
        if cap < D:
            # the d = D term splits the range: the best d1 below D, and above
            candidates = (cap, min(best, D - 1), max(best, D))
        low = None
        for d1 in candidates:
            log1, weil = parts(d1)
            if cap < D <= d1:
                weil += d_term
            split = (k * (log1 * log1 - log0 * log0) / 2.0, weil, d1)
            if low is None or split[0] + split[1] < low[0] + low[1]:
                low = split
        tails.append(DTail(*low))
    return tails if isinstance(d_max, Sequence) else tails[0]


@lru_cache(maxsize=64)
def _smooth_min(D: int, m: int, N: int) -> int:
    """The d1 >= 1 that minimises the smooth part of hybrid_d_tail's total.

    It falls, then rises (the Weil tail falls like log(d)/d^(3/2) while
    the Abel integrand is log(Dd)/d), so its minimum over d1 >= d_max is
    max(d_max, this d1), and one search serves every d_max of a shape."""
    k = _abel_scale(D, m, N)
    weil_scale = D * math.sqrt(m)

    def smooth(d1: int) -> float:
        log1 = math.log(D * d1) + 1.5
        return k * log1 * log1 / 2.0 + weil_scale * tail_bounds(d1 + 1).tau_tail

    return _first_rise(smooth, 1)


def _first_rise(f: Callable[[int], float], lo: int) -> int:
    """The smallest integer t >= lo with f(t + 1) >= f(t), for an f that
    falls and then rises."""
    hi = lo
    while f(hi + 1) < f(hi):
        lo, hi = hi + 1, 2 * hi + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid + 1) < f(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def hybrid_d_cap(D: int, m: int, N: int, d_ref: int) -> int:
    """The smallest d_max whose hybrid tail is no larger than the Weil
    tail at d_ref, D sqrt(m) (2 log(d_ref+1) + 7)/sqrt(d_ref+1).

    The hybrid tail does not grow with d_max, so a bisection finds it."""
    target = D * math.sqrt(m) * tail_bounds(d_ref + 1).tau_tail
    lo, hi = 1, d_ref
    while lo < hi:
        mid = (lo + hi) // 2
        if hybrid_d_tail(D, m, N, mid).total <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo
