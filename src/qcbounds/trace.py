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
one bessel_j1 call per modulus on a shared n-grid, written into the
grid's own buffer, so a certificate does not allocate and free a
k-long array per modulus.  A's grid holds only the n coprime to D,
where chi(n) != 0; B's holds every n (see _n_grid).

Two modes coexist.  The closed-form certificate evaluates the explicit
lower bound

    19/20 - sqrt(D)/p^2 (294 log^2 D + 416 log D log p + 227 log^2 p)
          - 2 pi tau(D)/sqrt(D) (1/p + 1/(p-1))

with one-sided 1e-12 rounding inflation (a pragmatic surrogate for full
interval arithmetic).  It is claimed for D >= 15 only; below that its
verdict is indeterminate and its diagnostic points to the numeric mode
(certify_numeric, `certify --mode numeric`).  The numeric series
evaluation is advisory and carries explicit truncation error bounds:
Weil-induced majorants for the n-tails and A's c-tail, and for B's
d-tail the hybrid of bounds.hybrid_d_tail (the paper's Abel transform
per d up to a d1 chosen to minimise the total, the Weil tau-tail
beyond).  None of these bounds depends on an evaluated term.  _model
composes every series error bound, for the evaluators A_numeric and
B_numeric, which report it, and for a planner (_plan), which picks
every series' cap before anything is evaluated:
A's t_max and B's d_max for each shape, the cheapest caps on a
geometric ladder whose error bound is no larger than the one the former
fixed caps reached (t_max = 240, and B at bounds.hybrid_d_cap(...,
800)).  A caller may instead pass both t_max and d_max, which every
shape sums as given, with no plan; exactly one of them is an error.
Only the numeric path loads numpy (with bessel, kernels and bounds),
inside the functions that use it, so a closed-form certificate starts
without it.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .arith import QuadraticCharacter, divisor_count, divisor_counts, euler_phi, is_prime
from .errors import DividesDiscriminant, NotPrime, UnsupportedCase

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

# The former fixed caps, which now only set the planner's default target:
# A summed 240 moduli, B stopped where its hybrid tail met the Weil tail
# at 800 moduli.
_FORMER_T_MAX = 240
_FORMER_D_REF = 800
# The planner's candidate caps, a geometric ladder: A's from 0
# ("unevaluated") to 240, B's from 1 to 1600.  B may go past 800 where
# that buys error more cheaply than A does, as at D < 15.
_LADDER_RATIO = 1.12
_T_TOP = 240
_D_TOP = 1600
# The planner's cost model, in units of one n-term of a series (about
# 11 ns on a 2-CPU VM, J1 and its Kloosterman factor included): an A(1,p^2)
# term, whose Kloosterman factor takes the per-term closed form, costs
# about 90 ns; one modulus costs about 100-150 us beyond its terms (its
# numpy calls and cold row builds).  Fitted to A_numeric/B_numeric timings
# on six (D, p) pairs from 3 to 31.
_SALIE_TERM_COST = 8.0
_MODULUS_COST = 10_000.0


def _level_prime(N: int) -> int:
    """The prime p with N = p or N = p^2."""
    if N < 2:
        raise UnsupportedCase(f"level {N} is neither p nor p^2")
    if is_prime(N):
        return N
    r = math.isqrt(N)
    if r * r == N and is_prime(r):
        return r
    raise UnsupportedCase(f"level {N} is neither p nor p^2")


def _shape(m: int, N: int, chi: QuadraticCharacter) -> int:
    """Restrict to the shapes (1, p^2), (1, p), (p, p) with gcd(mN, D) = 1;
    returns p."""
    p = _level_prime(N)
    if not (m == 1 or (m == p and N == p)):
        raise UnsupportedCase(f"(m, N) = ({m}, {N}) outside cases (1,p^2), (1,p), (p,p)")
    if math.gcd(N * m, chi.D) != 1:
        raise DividesDiscriminant(f"gcd({m}*{N}, {chi.D}) must be 1")
    return p


def _x(D: int, N: int) -> float:
    """The decay rate x = 2 pi/(D sqrt(N)) of every series' weight e^(-nx)."""
    return _TWO_PI / (D * math.sqrt(N))


class NumericResult(NamedTuple):
    value: float
    error_bound: float


def _libm(f: Callable[[float], float], v: np.ndarray) -> np.ndarray:
    """f, math.exp or math.log, over a float array.  numpy's *, / and sqrt
    round as Python's do, but np.exp and np.log are not libm's (np.exp
    differs from math.exp on about 5% of inputs, np.log from math.log on
    about 0.01%), so the error model maps math's over the floats."""
    import numpy as np

    return np.array(list(map(f, v.tolist())), dtype=np.float64)


def _prefactors(m: int, q: np.ndarray, s: float, tau: np.ndarray) -> np.ndarray:
    """The n-tail prefactors 2 pi sqrt(m)/(q s) sqrt(gcd(m, q)) tau sqrt(q)
    of the moduli q, given tau = tau(q): S_A(c) at q = c and s = 1, S_B(d)
    at q = d and s = sqrt(N)."""
    import numpy as np

    return _TWO_PI * math.sqrt(m) / (q * s) * np.sqrt(np.gcd(m, q)) * tau * np.sqrt(q)


class _Terms(NamedTuple):
    """The moduli q of one series up to its cap, each with its n-cutoff k
    and the running sum of the n-tails at k divided by q: n_err[j] covers
    the first j moduli, so n_err[0] = 0.  Nothing here evaluates a term."""

    moduli: list[int]
    cutoffs: list[int]
    n_err: list[float]


def _terms(moduli: np.ndarray, prefactors: np.ndarray, x: float) -> _Terms:
    """Each modulus's cutoff k, the smallest n >= 8 with n-tail
    prefactor e^(-(n+1)x)/(1-e^(-x)) below 1e-15, and that tail at k, in
    array passes that round as a loop over the moduli would: astype
    truncates like int(), and cumsum adds in order like accumulate."""
    import numpy as np

    geom = 1.0 - math.exp(-x)
    n = _libm(math.log, prefactors / (_N_TAIL_EPS * geom)) / x
    cutoffs = np.maximum(n.astype(np.int64) + 1, 8)
    tails = prefactors * _libm(math.exp, -(cutoffs + 1) * x) / geom / moduli
    n_err = np.concatenate(([0.0], np.cumsum(tails)))
    return _Terms(moduli.tolist(), cutoffs.tolist(), n_err.tolist())


def _a_terms(m: int, N: int, p: int, x: float, t_max: int) -> _Terms:
    """A's moduli c = t N, t <= t_max.  tau(c) = tau(u) (j + a + 1) for
    t = p^j u and N = p^a, with tau(u) read from a sieve: trial division
    of c would run up to p."""
    import numpy as np

    t = np.arange(1, t_max + 1)
    u, j = t.copy(), np.full(t_max, 1 if N == p else 2)
    while (hit := u % p == 0).any():
        u[hit] //= p
        j[hit] += 1
    c = t * N
    return _terms(c, _prefactors(m, c, 1.0, divisor_counts(t_max)[u] * (j + 1)), x)


def _b_terms(m: int, N: int, x: float, d_max: int) -> _Terms:
    import numpy as np

    d = np.arange(1, d_max + 1)
    d = d[np.gcd(d, N) == 1]
    return _terms(d, _prefactors(m, d, math.sqrt(N), divisor_counts(d_max)[d]), x)


def _model(
    kind: str, m: int, N: int, chi: QuadraticCharacter, caps: list[int]
) -> tuple[_Terms, list[float], list[float]]:
    """The terms of series `kind` ("A" or "B") of (m, N) up to the last of
    the ascending `caps`, and its cost and error bound at each cap, with no
    term evaluated: the one error model of _plan, A_numeric and B_numeric.

    The error bound is the n-tails of the moduli up to the cap plus A's
    Weil-induced c-tail past t_max N, (2D/N) tau_tail(t_max + 1) (14 D/N,
    A_bound's Weil branch, at t_max = 0), or B's d-tail past d_max,
    bounds.hybrid_d_tail.  The cost counts the n-terms the series sums
    (A's only those coprime to D, a share phi(D)/D of each cutoff;
    A(1,p^2)'s at _SALIE_TERM_COST each) plus _MODULUS_COST a modulus."""
    import numpy as np

    from .bounds import hybrid_d_tail, tail_bounds

    D = chi.D
    x = _x(D, N)
    if kind == "A":
        p = _level_prime(N)
        terms, share = _a_terms(m, N, p, x, caps[-1]), euler_phi(D) / D
        if N != p:
            share *= _SALIE_TERM_COST
        counts, tails = caps, [2.0 * D / N * tail_bounds(t + 1).tau_tail for t in caps]
    else:
        terms, share = _b_terms(m, N, x, caps[-1]), 1.0
        counts = [bisect.bisect_right(terms.moduli, d) for d in caps]
        tails = [hybrid_d_tail(D, m, N, d).total for d in caps]
    cost = np.concatenate(([0.0], np.cumsum(np.multiply(terms.cutoffs, share) + _MODULUS_COST)))
    errors = [terms.n_err[j] + tail for j, tail in zip(counts, tails)]
    return terms, cost[counts].tolist(), errors


def _given_caps(t_max: int | None, d_max: int | None) -> bool:
    """Whether the caller passed both caps, which every shape then sums as
    given, rather than neither, which leaves them to _plan."""
    if (t_max is None) != (d_max is None):
        raise ValueError("pass both t_max and d_max, or neither")
    if t_max is None:
        return False
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    return True


class _NGrid(NamedTuple):
    """The n <= n_max of a series, sqrt(n), the weight
    w_n = chi(n)/sqrt(n) e^(-nx) of every S_A and S_B, and room for one
    modulus's J1 arguments (x) and values (j1), so that no modulus
    allocates its own.

    A's grid keeps only the n coprime to D, where w_n != 0.  B's keeps
    every n, because _sb_sum folds its terms by position; see _n_grid."""

    n: np.ndarray
    root: np.ndarray
    w: np.ndarray
    x: np.ndarray
    j1: np.ndarray


def _n_grid(chi: QuadraticCharacter, x: float, n_max: int, coprime: bool) -> _NGrid:
    """The grid n = 1..n_max, or with `coprime` only its n with
    gcd(n, D) = 1.  B's grid stays full: a reshape folds it by residue at
    0.5 ns an element, where a fold of a compressed grid costs 1.8-2.6 ns
    (scatter back) or 13 ns (np.bincount), and a compressed B made every
    numeric-certify certificate slower, prime D by 8-60%."""
    import numpy as np

    n = np.arange(1, n_max + 1, dtype=np.int64)
    chi_n = chi.values(n)
    if coprime:
        keep = chi_n != 0
        n, chi_n = n[keep], chi_n[keep]
    nf = n.astype(np.float64)
    root = np.sqrt(nf)
    return _NGrid(n, root, chi_n / root * np.exp(-nf * x), np.empty(n.size), np.empty(n.size))


def _weighted_j1(grid: _NGrid, beta: float, k: int) -> np.ndarray:
    """w_n J1(beta sqrt(n)) for the first k n of the grid, the J1 factor
    of one modulus: a view of grid.j1, valid until the next modulus."""
    # These helpers run once per modulus, so they import modules, not names:
    # `from .bessel import bessel_j1` costs about 2 us a call, 3% of a
    # certificate over its three helpers; `from . import bessel` costs half.
    import numpy as np

    from . import bessel

    v = bessel.bessel_j1(np.multiply(grid.root[:k], beta, out=grid.x[:k]), out=grid.j1[:k])
    v *= grid.w[:k]
    return v


def _sa_partial(m: int, p: int, N: int, c: int, grid: _NGrid, k: int) -> float:
    """S_A(c) summed over the first k n of the grid."""
    from . import kernels

    v = _weighted_j1(grid, 4.0 * math.pi * math.sqrt(m) / c, k)
    v *= kernels.series_kloosterman(m, p, N, c // N, grid.n[:k])
    return float(v.sum())


def _sb_partial(m: int, N: int, d: int, grid: _NGrid, k: int) -> float:
    """S_B(d) summed over n <= k."""
    beta = 4.0 * math.pi * math.sqrt(m) / (d * math.sqrt(N))
    return _sb_sum(m, N, d, _weighted_j1(grid, beta, k))


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
    chi: QuadraticCharacter, x: float, terms: _Terms,
    partial: Callable[[_NGrid, int, int], float], error: float, coprime: bool,
) -> NumericResult:
    """sum_q S(q)/q over every modulus of `terms`: the one accumulator of
    A and B, returned with `error`, the series' error bound.

    S(q) = partial(grid, q, j) is summed over the j grid points n <= k,
    k the cutoff where the n-tail of modulus q drops below 1e-15; all
    S(q) share one n-grid, coprime to D for A (see _n_grid)."""
    import numpy as np

    if not terms.moduli:
        return NumericResult(0.0, error)
    grid = _n_grid(chi, x, max(terms.cutoffs), coprime)
    counts = np.searchsorted(grid.n, terms.cutoffs, side="right").tolist()
    acc = 0.0
    for q, j in zip(terms.moduli, counts):
        acc += partial(grid, q, j) / q
    return NumericResult(acc, error)


def A_numeric(m: int, chi: QuadraticCharacter, N: int, *, t_max: int) -> NumericResult:
    """A(m,chi,N) = sum_{N|c} S_A(c)/c over the t_max moduli c = N..t_max N,
    each summed over the n coprime to D only (chi(n) = 0 elsewhere); the
    error bound (_model) aggregates the n-tails and the Weil-induced c-tail
    (2D/N) (2 log(t_max+1) + 7)/sqrt(t_max+1) of the moduli beyond.
    t_max = 0 leaves A unevaluated: the value 0 and the whole c-tail
    14 D/N, which is A_bound's Weil branch.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    p = _shape(m, N, chi)
    terms, _, [error] = _model("A", m, N, chi, [t_max])
    return _modulus_series(
        chi, _x(chi.D, N), terms, lambda grid, c, k: _sa_partial(m, p, N, c, grid, k),
        error, coprime=True,
    )


def B_numeric(m: int, chi: QuadraticCharacter, N: int, *, d_max: int) -> NumericResult:
    """B(m,chi,N) = sum_{(d,N)=1} S_B(d)/d over d <= d_max; each S_B(d) is
    folded by residue mod d and dotted once with its row (_sb_sum).  The
    moduli beyond d_max are bounded (_model) by bounds.hybrid_d_tail: the
    Abel (Polya-Vinogradov) bound per d up to the d1 that minimises the
    total, the Weil-induced |S_B(d)| <= D sqrt(m) tau(d)/sqrt(d) beyond d1
    and at d = D."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    _shape(m, N, chi)
    terms, _, [error] = _model("B", m, N, chi, [d_max])
    return _modulus_series(
        chi, _x(chi.D, N), terms, lambda grid, d, k: _sb_partial(m, N, d, grid, k),
        error, coprime=False,
    )


class _Plan(NamedTuple):
    """(t_max, d_max) for each (m, N) shape, and the error bound they give."""

    caps: list[tuple[int, int]]
    error: float


def _ladder(top: int) -> list[int]:
    """The caps round(1.12^i) below top, then top."""
    caps, r = [], 1.0
    while round(r) < top:
        if not caps or round(r) > caps[-1]:
            caps.append(round(r))
        r *= _LADDER_RATIO
    return caps + [top]


def _plan(
    chi: QuadraticCharacter, shapes: Sequence[tuple[int, int]],
    total: Callable[[list[float]], float],
) -> _Plan:
    """Caps for the A and B series of every (m, N) in `shapes`, chosen
    before any term is evaluated.

    `total` maps the series' error bounds, ordered A, B of the first
    shape, then A, B of the next, to the reported error bound; it is
    linear, so its value at a unit vector is that series' weight.  Every
    series chooses from a geometric ladder of caps (A's from 0,
    "unevaluated", to 240; B's from 1 to 1600), and the target is the
    error bound of the former fixed caps.  The plan is the Lagrangian
    one: each series takes the cap that minimises cost + lam * weighted
    error, for the smallest lam whose exact total meets the target.
    Every cap's error and cost come from _model.
    """
    import numpy as np

    from .bounds import hybrid_d_cap

    ladders, costs, errs, former = [], [], [], []
    for m, N in shapes:
        for kind, former_cap, ladder in (
            ("A", _FORMER_T_MAX, [0, *_ladder(_T_TOP)]),
            ("B", hybrid_d_cap(chi.D, m, N, _FORMER_D_REF), _ladder(_D_TOP)),
        ):
            caps = sorted({*ladder, former_cap})
            _, cost, err = _model(kind, m, N, chi, caps)
            ladders.append(caps)
            costs.append(np.array(cost))
            errs.append(err)
            former.append(caps.index(former_cap))
    weights = [total([float(i == j) for j in range(len(errs))]) for i in range(len(errs))]
    weighted = [w * np.array(e) for w, e in zip(weights, errs)]

    def pick(lam: float) -> list[int]:
        return [int(np.argmin(c + lam * e)) for c, e in zip(costs, weighted)]

    def error(idx: list[int]) -> float:
        return total([e[i] for e, i in zip(errs, idx)])

    # A larger lam never raises a series' error.  Once lam is large enough
    # for the errors alone to decide, every series takes its least error,
    # which is no more than at its former cap, so the upward search stops;
    # falling back on the former caps only guards that against rounding.
    target = error(former)
    best, lo, hi = pick(0.0), 0.0, 1.0
    if error(best) > target:
        while error(pick(hi)) > target and hi < 1e60:
            lo, hi = hi, 16.0 * hi
        best = pick(hi) if error(pick(hi)) <= target else former
        for _ in range(40):
            mid = math.sqrt(lo * hi) if lo else hi / 16.0
            idx = pick(mid)
            if error(idx) <= target:
                hi, best = mid, idx
            else:
                lo = mid
    caps = [ladder[i] for ladder, i in zip(ladders, best)]
    return _Plan(list(zip(caps[::2], caps[1::2])), error(best))


def A_bound(m: int, chi: QuadraticCharacter, N: int) -> float:
    """min(14 D/N, sqrt(Dm)/N (9 log^2 D + 6 log D log N))."""
    _shape(m, N, chi)
    D = chi.D
    ld, ln = math.log(D), math.log(N)
    weil = 14.0 * D / N
    abel = math.sqrt(D * m) / N * (9.0 * ld * ld + 6.0 * ld * ln)
    return min(weil, abel)


def B_bound(m: int, chi: QuadraticCharacter, N: int) -> float:
    """min(7 D sqrt(m), sqrt(Dm)/sqrt(N) (9 log^2 D + 12 log D log N
    + 6 log^2 N) + tau(D) sqrt(m)/sqrt(D)); the extra term carries the
    d = D contribution, which only has a Weil bound."""
    _shape(m, N, chi)
    D = chi.D
    ld, ln = math.log(D), math.log(N)
    weil = 7.0 * D * math.sqrt(m)
    abel = math.sqrt(D * m) / math.sqrt(N) * (
        9.0 * ld * ld + 12.0 * ld * ln + 6.0 * ln * ln
    ) + divisor_count(D) * math.sqrt(m) / math.sqrt(D)
    return min(weil, abel)


def _pairing_error(m: int, N: int, a_error: float, b_error: float) -> float:
    return _EIGHT_PI_SQ * math.sqrt(m) * (a_error + b_error / math.sqrt(N))


def pairing_numeric(
    m: int,
    N: int,
    chi: QuadraticCharacter,
    *,
    t_max: int | None = None,
    d_max: int | None = None,
) -> NumericResult:
    """Assemble (a_m, L_chi)_N from the A and B series, at the caller's
    t_max and d_max or, given neither, at caps planned (_plan) before
    either series is evaluated.  Exactly one cap is a ValueError."""
    _shape(m, N, chi)
    if not _given_caps(t_max, d_max):
        [(t_max, d_max)] = _plan(chi, [(m, N)], lambda e: _pairing_error(m, N, *e)).caps
    a = A_numeric(m, chi, N, t_max=t_max)
    b = B_numeric(m, chi, N, d_max=d_max)
    lead = 4.0 * math.pi * chi(m) * math.exp(-m * _x(chi.D, N))
    scale = _EIGHT_PI_SQ * math.sqrt(m)
    value = lead - scale * (a.value + chi(N) / math.sqrt(N) * b.value)
    return NumericResult(value, _pairing_error(m, N, a.error_bound, b.error_bound))


def _check_certify_args(p: int, chi: QuadraticCharacter) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if chi.D % p == 0:
        raise DividesDiscriminant(f"p = {p} divides the conductor {chi.D}")
    if p < 7:
        raise UnsupportedCase("the weighted pairing needs p >= 7")


def _new_plus_shapes(p: int) -> tuple[tuple[int, int], ...]:
    return ((1, p * p), (1, p), (p, p))


def _new_plus_error(p: int, e1: float, e2: float, e3: float) -> float:
    w = p * p - 1
    return e1 + p / w * e2 + e3 / w


def _new_plus_plan(p: int, chi: QuadraticCharacter) -> _Plan:
    """The caps of the six series of the new-plus pairing at p."""
    shapes = _new_plus_shapes(p)

    def total(e: list[float]) -> float:
        return _new_plus_error(p, *(
            _pairing_error(m, N, e[2 * i], e[2 * i + 1]) for i, (m, N) in enumerate(shapes)
        ))

    return _plan(chi, shapes, total)


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
    verdict is always indeterminate, with a diagnostic that points to
    the numeric mode (certify_numeric, `certify --mode numeric`).

    Lemma: the verdict is certified-positive for every D >= 15 and every
    prime p >= p* = 50 D^(1/4) log D not dividing D.  For p >= p* >= 266
    the first term is 19/20, and log^2 p/p^2, log p/p^2, 1/p^2 and the
    tau term all fall in p (p >= 3), so the bound is at least its value
    at the real p*.  There sqrt(D)/p*^2 = 1/(2500 log^2 D), so the main
    term is (294 + 416 r + 227 r^2)/2500 with r = log p*/log D = 1/4
    + (log 50 + log log D)/log D, falling in D; and tau(D) <= 2 sqrt(D)
    bounds the tau term by 4 pi (1/p* + 1/(p*-1)), falling in D.  So the
    bound is at least g(D) = 19/20 minus those two, which rises in D from
    g(15) = 0.00847, far above the margin and the rounding.  Below p*
    nothing is claimed: (15, 257) is indeterminate.
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
            "try the numeric mode (certify --mode numeric)"
        )
    elif lower > _CERT_MARGIN:
        verdict = CERTIFIED_POSITIVE
    else:
        verdict = INDETERMINATE
    return Certificate(verdict, lower, MODE_CLOSED_FORM, components, diagnostic)


def certify_numeric(
    p: int,
    chi: QuadraticCharacter,
    *,
    t_max: int | None = None,
    d_max: int | None = None,
) -> Certificate:
    """Advisory certificate from the numeric series: the new-plus pairing

        (a_1, L_chi)_{p^2}^{+,new} = (a_1,L_chi)_{p^2}
            - p/(p^2-1) (a_1,L_chi)_p + chi(p)/(p^2-1) (a_p,L_chi)_p

    minus its truncation error bound, divided by 4 pi.

    Explicit t_max and d_max serve all three pairings; given neither, the
    caps of the six series are planned together (_plan).  Exactly one cap
    is a ValueError.  Besides value and error_bound, the components name
    the t_max and d_max used for each shape and split B(1,p^2)'s d-tail
    into its Abel and Weil parts, both in units of error_bound (8 pi^2/p
    times the tail)."""
    from .bounds import hybrid_d_tail

    _check_certify_args(p, chi)
    caps = [(t_max, d_max)] * 3 if _given_caps(t_max, d_max) else _new_plus_plan(p, chi).caps
    w = p * p - 1
    p1, p2, p3 = (
        pairing_numeric(m, N, chi, t_max=t, d_max=d)
        for (m, N), (t, d) in zip(_new_plus_shapes(p), caps)
    )
    value = p1.value - p / w * p2.value + chi(p) / w * p3.value
    error = _new_plus_error(p, p1.error_bound, p2.error_bound, p3.error_bound)
    lower = (value - error) / (4.0 * math.pi)
    verdict = CERTIFIED_POSITIVE if lower > _CERT_MARGIN else INDETERMINATE
    components: dict[str, float] = {"value": value, "error_bound": error}
    for shape, (t, d) in zip(("(1,p^2)", "(1,p)", "(p,p)"), caps):
        components[f"A{shape} t_max"] = t
        components[f"B{shape} d_max"] = d
    tail = hybrid_d_tail(chi.D, 1, p * p, caps[0][1])
    components["B(1,p^2) abel_tail"] = _EIGHT_PI_SQ * tail.abel / p
    components["B(1,p^2) weil_tail"] = _EIGHT_PI_SQ * tail.weil / p
    return Certificate(verdict, lower, MODE_NUMERIC, components)
