"""Trace-formula series and nonvanishing certificates for twisted L-sums.

The weighted pairing of the first Fourier coefficient against twisted
central L-values at level N unfolds into Kloosterman/Bessel series

    (a_m, L_chi)_N = 4 pi chi(m) e^(-m x)
                     - 8 pi^2 sqrt(m) (A(m,chi,N) + eps/sqrt(N) B(m,chi,N)),

x = 2 pi/(D sqrt(N)), eps = chi(N), where A sums S_A(c)/c over multiples
c of N and B sums S_B(d)/d over d coprime to N, with

    S_A(c) = sum_n chi(n)/sqrt(n) S(m,n;c) J1(4 pi sqrt(mn)/c) e^(-nx),
    S_B(d) = sum_n chi(n)/sqrt(n) S(n, m*Nbar; d)
                 J1(4 pi sqrt(mn)/(d sqrt(N))) e^(-nx).

Only the three level shapes that feed the weighted new-plus pairing are
supported: (m, N) = (1, p^2), (1, p) and (p, p).  A and B share one
accumulator over their moduli (_modulus_series), and every S_A and S_B
takes its weighted J1 factor w_n J1(beta sqrt(n)), w_n = chi(n)/sqrt(n)
e^(-nx) and beta = 4 pi sqrt(m)/c (or /(d sqrt(N))), from _weighted_j1:
one bessel_j1 call per modulus on a shared n-grid.

Two modes coexist.  The closed-form certificate evaluates the explicit
lower bound

    19/20 - sqrt(D)/p^2 (294 log^2 D + 416 log D log p + 227 log^2 p)
          - 2 pi tau(D)/sqrt(D) (1/p + 1/(p-1))

with one-sided 1e-12 rounding inflation (a pragmatic surrogate for full
interval arithmetic); the numeric series evaluation is advisory and
carries explicit truncation error bounds from the Weil-induced majorants
and the tau-tail estimate.  Only the numeric path loads numpy (with
bessel, kernels and bounds), inside the functions that use it, so a
closed-form certificate starts without it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .arith import QuadraticCharacter, divisor_count, is_prime
from .errors import DividesDiscriminant, LevelMismatch, NotPrime, UnsupportedCase

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
_EIGHT_PI_SQ = 8.0 * math.pi**2
_N_TAIL_EPS = 1e-15
_ROUND_INFLATE = 1.0 + 1e-12
_ROUND_DEFLATE = 1.0 - 1e-12
_CERT_MARGIN = 1e-6

CERTIFIED_POSITIVE = "certified-positive"
INDETERMINATE = "indeterminate"

MODE_CLOSED_FORM = "closed-form"
MODE_NUMERIC = "numeric-advisory"
MODE_WEIL_MIX = "weil-mix"

DEFAULT_C_TERMS = 240
DEFAULT_D_TERMS = 800


def _level_prime(N: int) -> int:
    """The prime p with N = p or N = p^2."""
    if is_prime(N):
        return N
    r = math.isqrt(N)
    if r * r == N and is_prime(r):
        return r
    raise UnsupportedCase(f"level {N} is neither p nor p^2")


def _check_case(m: int, N: int) -> int:
    """Restrict to the shapes (1, p^2), (1, p), (p, p); returns p."""
    p = _level_prime(N)
    if m == 1 or (m == p and N == p):
        return p
    raise UnsupportedCase(f"(m, N) = ({m}, {N}) outside cases (1,p^2), (1,p), (p,p)")


@dataclass(frozen=True)
class PairingParams:
    m: int
    N: int
    chi: QuadraticCharacter

    def __post_init__(self) -> None:
        if math.gcd(self.N * self.m, self.chi.D) != 1:
            raise DividesDiscriminant(
                f"gcd({self.m}*{self.N}, {self.chi.D}) must be 1"
            )
        _check_case(self.m, self.N)

    @property
    def epsilon(self) -> int:
        return self.chi(self.N)

    @property
    def x(self) -> float:
        return _TWO_PI / (self.chi.D * math.sqrt(self.N))


class SeriesValue(NamedTuple):
    value: float
    tail_bound: float


class NumericResult(NamedTuple):
    value: float
    error_bound: float


def _n_cutoff(prefactor: float, x: float) -> int:
    """Smallest n with prefactor * e^(-(n+1)x)/(1-e^(-x)) below 1e-15."""
    geom = 1.0 - math.exp(-x)
    n = math.log(prefactor / (_N_TAIL_EPS * geom)) / x
    return max(8, int(n) + 1)


def _sa_prefactor(m: int, c: int) -> float:
    g = math.sqrt(math.gcd(m, c))
    return _TWO_PI * math.sqrt(m) / c * g * divisor_count(c) * math.sqrt(c)


def _sb_prefactor(m: int, d: int, N: int) -> float:
    g = math.sqrt(math.gcd(m, d))
    return _TWO_PI * math.sqrt(m) / (d * math.sqrt(N)) * g * divisor_count(d) * math.sqrt(d)


def _n_tail(prefactor: float, x: float, n_max: int) -> float:
    return prefactor * math.exp(-(n_max + 1) * x) / (1.0 - math.exp(-x))


class _NGrid(NamedTuple):
    """n = 1..n_max, sqrt(n), the weight w_n = chi(n)/sqrt(n) e^(-nx) of
    every S_A and S_B, and room for one modulus's J1 arguments."""

    n: np.ndarray
    root: np.ndarray
    w: np.ndarray
    x: np.ndarray


def _n_grid(chi: QuadraticCharacter, x: float, n_max: int) -> _NGrid:
    import numpy as np

    n = np.arange(1, n_max + 1, dtype=np.int64)
    nf = n.astype(np.float64)
    root = np.sqrt(nf)
    return _NGrid(n, root, chi.values(n) / root * np.exp(-nf * x), np.empty(n_max))


def _weighted_j1(grid: _NGrid, beta: float, k: int) -> np.ndarray:
    """w_n J1(beta sqrt(n)) for n = 1..k, the J1 factor of one modulus."""
    # These helpers run once per modulus, so they import modules, not names:
    # `from .bessel import bessel_j1` costs about 2 us a call, 3% of a
    # certificate over its three helpers; `from . import bessel` costs half.
    import numpy as np

    from . import bessel

    v = bessel.bessel_j1(np.multiply(grid.root[:k], beta, out=grid.x[:k]))
    v *= grid.w[:k]
    return v


def _sa_partial(m: int, p: int, N: int, c: int, grid: _NGrid, k: int) -> float:
    """S_A(c) summed over n <= k."""
    from . import kernels

    v = _weighted_j1(grid, 4.0 * math.pi * math.sqrt(m) / c, k)
    v *= kernels.series_kloosterman(m, p, N, c // N, grid.n[:k])
    return float(v.sum())


def _sb_partial(m: int, N: int, d: int, grid: _NGrid, k: int) -> float:
    """S_B(d) summed over n <= k."""
    beta = 4.0 * math.pi * math.sqrt(m) / (d * math.sqrt(N))
    return _sb_sum(m, N, d, _weighted_j1(grid, beta, k))


def series_SA(
    m: int, chi: QuadraticCharacter, N: int, c: int, n_max: int
) -> SeriesValue:
    """Partial sum of S_A(c) over n <= n_max, plus a rigorous tail bound
    from |J1(y)| <= y/2, the Weil bound and the geometric decay."""
    if c % N != 0:
        raise LevelMismatch(f"level {N} must divide c = {c}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = _check_case(m, N)
    x = _TWO_PI / (chi.D * math.sqrt(N))
    value = _sa_partial(m, p, N, c, _n_grid(chi, x, n_max), n_max)
    return SeriesValue(value, _n_tail(_sa_prefactor(m, c), x, n_max))


def series_SB(
    m: int, chi: QuadraticCharacter, N: int, d: int, n_max: int
) -> SeriesValue:
    """Partial sum of S_B(d); the second Kloosterman argument is
    m * (N^-1 mod d), never an explicit power N^(phi(d)-1).  S(n, m*Nbar; d)
    depends on n mod d only, so the weighted J1 terms are folded by
    residue and dotted once with the row (see _sb_sum)."""
    if math.gcd(d, N) != 1:
        raise LevelMismatch(f"d = {d} must be coprime to the level {N}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_case(m, N)
    x = _TWO_PI / (chi.D * math.sqrt(N))
    value = _sb_partial(m, N, d, _n_grid(chi, x, n_max), n_max)
    return SeriesValue(value, _n_tail(_sb_prefactor(m, d, N), x, n_max))


def _sb_sum(m: int, N: int, d: int, v: np.ndarray) -> float:
    """sum_{n <= len(v)} v[n-1] S(n, m*Nbar; d).

    The Kloosterman factor is periodic in n with period d, so v is summed
    per residue with one reshape (plus the partial last period) and the d
    sums are dotted once with the row.  folded[j] holds n = j + 1 mod d,
    which meets row[j + 1], and the last residue wraps round to row[0].
    """
    import numpy as np

    from . import kernels

    k = v.size
    full = k - k % d
    folded = v[:full].reshape(-1, d).sum(axis=0)
    folded[: k - full] += v[full:]
    row = kernels.kloosterman_row(m * pow(N, -1, d) % d, d)
    return float(np.dot(folded[:-1], row[1:]) + folded[-1] * row[0])


def _modulus_series(
    chi: QuadraticCharacter, x: float, moduli: Sequence[int], prefactors: list[float],
    partial: Callable[[_NGrid, int, int], float], tail: float,
) -> NumericResult:
    """sum_q S(q)/q over every modulus: the one accumulator of A and B.

    S(q) = partial(grid, q, k) is summed over n <= k, the cutoff where the
    n-tail of prefactor q drops below 1e-15; all S(q) share one n-grid.
    The error bound adds the n-tails (each prefactor computed once) and
    `tail`, the Weil-induced tail of the moduli after the last."""
    cutoffs = [_n_cutoff(f, x) for f in prefactors]
    grid = _n_grid(chi, x, max(cutoffs))
    acc = err = 0.0
    for q, f, k in zip(moduli, prefactors, cutoffs):
        acc += partial(grid, q, k) / q
        err += _n_tail(f, x, k) / q
    return NumericResult(acc, err + tail)


def A_numeric(
    m: int, chi: QuadraticCharacter, N: int, *, t_max: int = DEFAULT_C_TERMS
) -> NumericResult:
    """A(m,chi,N) = sum_{N|c} S_A(c)/c over the t_max moduli c = N..t_max N;
    the error bound aggregates the n-tails and the Weil-induced c-tail
    (2D/N) (2 log(t_max+1) + 7)/sqrt(t_max+1) of the moduli beyond.
    """
    from .bounds import tail_bounds

    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    params = PairingParams(m, N, chi)
    p = _level_prime(N)
    moduli = range(N, (t_max + 1) * N, N)
    return _modulus_series(
        chi, params.x, moduli, [_sa_prefactor(m, c) for c in moduli],
        lambda grid, c, k: _sa_partial(m, p, N, c, grid, k),
        2.0 * chi.D / N * tail_bounds(t_max + 1).tau_tail,
    )


def B_numeric(
    m: int, chi: QuadraticCharacter, N: int, *, d_max: int = DEFAULT_D_TERMS
) -> NumericResult:
    """B(m,chi,N) = sum_{(d,N)=1} S_B(d)/d over d <= d_max, with the tail
    beyond the last d bounded through the Weil-induced
    |S_B(d)| <= D sqrt(m) tau(d)/sqrt(d); each S_B(d) is folded by residue
    mod d and dotted once with its row (_sb_sum)."""
    from .bounds import tail_bounds

    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    params = PairingParams(m, N, chi)
    moduli = [d for d in range(1, d_max + 1) if math.gcd(d, N) == 1]
    return _modulus_series(
        chi, params.x, moduli, [_sb_prefactor(m, d, N) for d in moduli],
        lambda grid, d, k: _sb_partial(m, N, d, grid, k),
        chi.D * math.sqrt(m) * tail_bounds(moduli[-1] + 1).tau_tail,
    )


def A_bound(m: int, chi: QuadraticCharacter, N: int) -> float:
    """min(14 D/N, sqrt(Dm)/N (9 log^2 D + 6 log D log N))."""
    PairingParams(m, N, chi)
    D = chi.D
    ld, ln = math.log(D), math.log(N)
    weil = 14.0 * D / N
    abel = math.sqrt(D * m) / N * (9.0 * ld * ld + 6.0 * ld * ln)
    return min(weil, abel)


def B_bound(m: int, chi: QuadraticCharacter, N: int) -> float:
    """min(7 D sqrt(m), sqrt(Dm)/sqrt(N) (9 log^2 D + 12 log D log N
    + 6 log^2 N) + tau(D) sqrt(m)/sqrt(D)); the extra term carries the
    d = D contribution, which only has a Weil bound."""
    PairingParams(m, N, chi)
    D = chi.D
    ld, ln = math.log(D), math.log(N)
    weil = 7.0 * D * math.sqrt(m)
    abel = math.sqrt(D * m) / math.sqrt(N) * (
        9.0 * ld * ld + 12.0 * ld * ln + 6.0 * ln * ln
    ) + divisor_count(D) * math.sqrt(m) / math.sqrt(D)
    return min(weil, abel)


def pairing_numeric(
    m: int,
    N: int,
    chi: QuadraticCharacter,
    *,
    t_max: int = DEFAULT_C_TERMS,
    d_max: int = DEFAULT_D_TERMS,
) -> NumericResult:
    """Assemble (a_m, L_chi)_N from the A and B series."""
    params = PairingParams(m, N, chi)
    a = A_numeric(m, chi, N, t_max=t_max)
    b = B_numeric(m, chi, N, d_max=d_max)
    lead = 4.0 * math.pi * chi(m) * math.exp(-m * params.x)
    scale = _EIGHT_PI_SQ * math.sqrt(m)
    value = lead - scale * (a.value + params.epsilon / math.sqrt(N) * b.value)
    error = scale * (a.error_bound + b.error_bound / math.sqrt(N))
    return NumericResult(value, error)


def _check_certify_args(p: int, chi: QuadraticCharacter) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if chi.D % p == 0:
        raise DividesDiscriminant(f"p = {p} divides the conductor {chi.D}")
    if p < 7:
        raise UnsupportedCase("the weighted pairing needs p >= 7")


def new_plus_pairing(
    p: int,
    chi: QuadraticCharacter,
    *,
    t_max: int = DEFAULT_C_TERMS,
    d_max: int = DEFAULT_D_TERMS,
) -> NumericResult:
    """(a_1, L_chi)_{p^2}^{+,new} = (a_1,L_chi)_{p^2}
    - p/(p^2-1) (a_1,L_chi)_p + chi(p)/(p^2-1) (a_p,L_chi)_p."""
    _check_certify_args(p, chi)
    w = p * p - 1
    p1 = pairing_numeric(1, p * p, chi, t_max=t_max, d_max=d_max)
    p2 = pairing_numeric(1, p, chi, t_max=t_max, d_max=d_max)
    p3 = pairing_numeric(p, p, chi, t_max=t_max, d_max=d_max)
    value = p1.value - p / w * p2.value + chi(p) / w * p3.value
    error = p1.error_bound + p / w * p2.error_bound + p3.error_bound / w
    return NumericResult(value, error)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a rigorous bound evaluation for
    |(a_1, L_chi)_{p^2}^{+,new}| / (4 pi)."""

    verdict: str
    lower_bound: float
    mode: str
    components: dict[str, float]
    diagnostic: str | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED_POSITIVE


def _first_term_lower(p: int, D: int) -> float:
    """Lower bound for e^(-2 pi/(D p)) - p/(p^2-1) - 1/(p^2-1).

    Uses e^(-t) >= 1 - t (no transcendental directed rounding) and caps
    at 19/20, the constant the closed-form certificate substitutes once
    p >= 72; min() keeps the result a valid lower bound below that."""
    linear = 1.0 - _TWO_PI / (D * p) - (p + 1.0) / (p * p - 1.0)
    return min(19.0 / 20.0, linear)


def _component_bounds(p: int, chi: QuadraticCharacter) -> dict[str, float]:
    psq = p * p
    return {
        "A(1,p^2)": A_bound(1, chi, psq),
        "A(1,p)": A_bound(1, chi, p),
        "A(p,p)": A_bound(p, chi, p),
        "B(1,p^2)": B_bound(1, chi, psq),
        "B(1,p)": B_bound(1, chi, p),
        "B(p,p)": B_bound(p, chi, p),
    }


def certify_nonvanishing(p: int, chi: QuadraticCharacter) -> Certificate:
    """Closed-form nonvanishing certificate for the weighted L-sum.

    Evaluates 19/20 - sqrt(D)/p^2 (294 log^2 D + 416 log D log p
    + 227 log^2 p) - 2 pi tau(D)/sqrt(D) (1/p + 1/(p-1)), the assembled
    form of the six Abel-transform bounds; upper-bound parts are
    inflated and the lower-bound part deflated by a relative 1e-12
    before combining.  Certified-positive needs a margin above 1e-6.

    The assembled form is only claimed for D >= 15; below that the
    verdict is always indeterminate with a diagnostic (D in {7, 8, 11}
    are covered by the separate Weil-mix mode, D in {3, 4} by external
    computation).
    """
    _check_certify_args(p, chi)
    D = chi.D
    ld, lp = math.log(D), math.log(p)
    first = _first_term_lower(p, D)
    main = math.sqrt(D) / (p * p) * (
        294.0 * ld * ld + 416.0 * ld * lp + 227.0 * lp * lp
    )
    tau_term = _TWO_PI * divisor_count(D) / math.sqrt(D) * (1.0 / p + 1.0 / (p - 1.0))
    lower = first * _ROUND_DEFLATE - (main + tau_term) * _ROUND_INFLATE
    components = _component_bounds(p, chi)
    components.update({"first_term": first, "abel_main": main, "tau_term": tau_term})
    diagnostic = None
    if D < 15:
        verdict = INDETERMINATE
        diagnostic = (
            f"the assembled closed form is only claimed for D >= 15 (got D={D}); "
            "try certify_weil_mix for D in {7, 8, 11} or the numeric mode"
        )
    elif lower > _CERT_MARGIN:
        verdict = CERTIFIED_POSITIVE
    else:
        verdict = INDETERMINATE
    return Certificate(verdict, lower, MODE_CLOSED_FORM, components, diagnostic)


def certify_weil_mix(p: int, chi: QuadraticCharacter) -> Certificate:
    """Alternative mix: Weil bounds on five terms, Abel on |B(1,chi,p^2)|.

    A best-effort reconstruction targeting D in {7, 8, 11}, where the
    default assembly is not claimed; kept as a separate mode and never
    used by the default certifier.
    """
    _check_certify_args(p, chi)
    D = chi.D
    w = p * p - 1.0
    ld, lp = math.log(D), math.log(p)
    sqrt_d = math.sqrt(D)
    a1 = 14.0 * D / (p * p)
    a2 = 14.0 * D / p
    a3 = 14.0 * D / p
    b1 = sqrt_d / p * (9.0 * ld * ld + 24.0 * ld * lp + 24.0 * lp * lp) + (
        divisor_count(D) / sqrt_d
    )
    b2 = 7.0 * D
    b3 = 7.0 * D * math.sqrt(p)
    total = _TWO_PI * (a1 + p / w * a2 + a3 / w) + _TWO_PI * (
        b1 / p + math.sqrt(p) * b2 / w + b3 / w
    )
    first = _first_term_lower(p, D)
    lower = first * _ROUND_DEFLATE - total * _ROUND_INFLATE
    components = {
        "A(1,p^2)": a1, "A(1,p)": a2, "A(p,p)": a3,
        "B(1,p^2)": b1, "B(1,p)": b2, "B(p,p)": b3,
        "first_term": first,
    }
    verdict = CERTIFIED_POSITIVE if lower > _CERT_MARGIN else INDETERMINATE
    return Certificate(verdict, lower, MODE_WEIL_MIX, components)


def certify_numeric(
    p: int,
    chi: QuadraticCharacter,
    *,
    t_max: int = DEFAULT_C_TERMS,
    d_max: int = DEFAULT_D_TERMS,
) -> Certificate:
    """Advisory certificate from the numeric series: value minus its
    truncation error bound, divided by 4 pi."""
    res = new_plus_pairing(p, chi, t_max=t_max, d_max=d_max)
    lower = (res.value - res.error_bound) / (4.0 * math.pi)
    verdict = CERTIFIED_POSITIVE if lower > _CERT_MARGIN else INDETERMINATE
    components = {"value": res.value, "error_bound": res.error_bound}
    return Certificate(verdict, lower, MODE_NUMERIC, components)
