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
accumulator over their moduli (_sum), and every S_A and S_B
takes its weighted J1 factor w_n J1(beta sqrt(n)), w_n = chi(n)/sqrt(n)
e^(-nx) and beta = 4 pi sqrt(m)/c (or /(d sqrt(N))), from _weighted_j1:
one bessel_j1 call per block of consecutive moduli whose cutoffs sum
to at most _BLOCK (a longer cutoff is a block of its own), on a shared
n-grid, the moduli's arguments and values side by side in the grid's
own buffers.  So a certificate pays numpy's fixed cost per call once a
block, not once a modulus, and allocates no k-long array per modulus.
The call runs J1's series at the block's depth, at least each modulus's
own; that each value is bit for bit what a call per modulus gives is
measured on every pinned output and reference, not proven.
A's grid holds only the n coprime to D, where chi(n) != 0; B's holds
every n (see _n_grid).

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
beyond).  None of these bounds depends on an evaluated term.  _series
and _at_cutoffs alone compose a series error bound, from a ledger of
parts at each cap: n-tail + c-tail for A, n-tail + (Abel + Weil) for B.
A_numeric and B_numeric (_sum, at one cap) return the parts with the
bound, and certify_numeric reads them; a planner (_plan) picks every
series' cap and n-cutoffs before anything is evaluated, in two passes.  The first sums every modulus until its
n-tail falls below 1e-15 and takes A's t_max and B's d_max for each
shape, the cheapest caps on a geometric ladder whose error bound E0 is
no larger than the one the former fixed caps reached (t_max = 240, and B at
bounds.hybrid_d_cap(..., 800)).  The second lets each series' weighted
n-tails grow to 1e-3 E0, far fewer n-terms, and plans the caps again for
E0, so a planned error bound is never above E0.  A caller may instead
pass both t_max and d_max, which every shape sums at the 1e-15 cutoffs
(_caps).
The error model's n-cutoffs and n-tails are array passes with every bit
of a loop over the moduli in libm's math.log and math.exp (_terms): a
cutoff int(log(z)/x) + 1 takes numpy's log, and libm's again only where
log(z)/x lies within a relative 1e-9 of an integer, far wider than the
few ulp between the two logs, so elsewhere no integer falls between
them; each n-tail takes libm's exp once per distinct cutoff.  So no
cutoff, cost or error bound depends on numpy's SIMD dispatch.  Nor
does any value: the grid's weights take libm's exp from two short tables
(_n_grid), and B's dot with its row is a product and a pairwise sum, not
a BLAS call (_sb_sum).
Only the numeric path loads numpy (with bessel, kernels and bounds),
inside the functions that use it, so a closed-form certificate starts
without it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .arith import QuadraticCharacter, divisor_count, divisor_counts, euler_phi, is_prime
from .errors import DividesDiscriminant, DomainError, NotPrime, UnsupportedCase

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
_EIGHT_PI_SQ = 8.0 * math.pi**2
# Every modulus of a series is summed until its n-tail falls below an
# allowance: _N_TAIL_EPS at explicit caps and in the planner's first pass,
# which fixes the target; in its second pass, a larger allowance that keeps
# each series' weighted n-tails within _N_TAIL_SHARE of that target (_plan).
_N_TAIL_EPS = 1e-15
_N_TAIL_SHARE = 1e-3
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
# 8-11 ns on a 2-CPU VM, J1 and its Kloosterman factor included): an
# A(1,p^2) term, whose Kloosterman factor takes the per-term closed form,
# costs about 90 ns.  A modulus costs 41-52 us beyond its terms (its numpy
# calls and cold row builds, J1 shared by its block), 4,500-5,200 units
# in a least-squares fit to A_numeric/B_numeric timings at six (D, p)
# from (3, 73) to (31, 431); _MODULUS_COST charges twice that.  Both
# constants are kept only because _plan's first pass fixes the target E0
# of its second: with them it makes the plan a one-pass planner made, so
# no planned error bound is above that plan's (ROADMAP E17).
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
        raise UnsupportedCase(f"(m, N) = ({m}, {N}) outside cases {', '.join(_NEW_PLUS_LABELS)}")
    if math.gcd(N * m, chi.D) != 1:
        raise DividesDiscriminant(f"gcd({m}*{N}, {chi.D}) must be 1")
    return p


def _x(D: int, N: int) -> float:
    """The decay rate x = 2 pi/(D sqrt(N)) of every series' weight e^(-nx)."""
    return _TWO_PI / (D * math.sqrt(N))


class NumericResult(NamedTuple):
    """A value and its error bound.  A series' result also carries the
    bound's parts (_at_cutoffs): its n-tail, then A's c-tail or B's Abel
    and Weil d-tail parts; error_bound = parts[0] + sum(parts[1:])."""

    value: float
    error_bound: float
    parts: tuple[float, ...] = ()


def _libm(f: Callable[[float], float], v: np.ndarray) -> np.ndarray:
    """f, math.exp or math.log, over a float array.  numpy's *, / and sqrt
    round as Python's do, but np.exp and np.log are not libm's (np.exp
    differs from math.exp on about 5% of inputs, np.log from math.log on
    about 0.01%), and np.exp's bits move with numpy's SIMD dispatch, so
    the error model maps math's over the floats where a bit could move
    (_terms), and the grid's weights over two short tables (_n_grid)."""
    import numpy as np

    return np.array(list(map(f, v.tolist())), dtype=np.float64)


def _prefactors(m: int, q: np.ndarray, s: float, tau: np.ndarray) -> np.ndarray:
    """The n-tail prefactors 2 pi sqrt(m)/(q s) sqrt(gcd(m, q)) tau sqrt(q)
    of the moduli q, given tau = tau(q): S_A(c) at q = c and s = 1, S_B(d)
    at q = d and s = sqrt(N)."""
    import numpy as np

    return _TWO_PI * math.sqrt(m) / (q * s) * np.sqrt(np.gcd(m, q)) * tau * np.sqrt(q)


# A cutoff whose log(z)/x lies within this relative distance of an integer
# takes libm's log (_terms); numpy's is within a few ulp of it elsewhere.
_LOG_BAND = 1e-9


def _terms(
    moduli: np.ndarray, prefactors: np.ndarray, x: float, tail_eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each modulus's cutoff k, the smallest n >= 8 with n-tail
    prefactor e^(-(n+1)x)/(1-e^(-x)) below tail_eps, and the running sum
    n_err of that tail at k over q (n_err[0] = 0), in array passes whose every
    bit is a loop's over the moduli in libm's math.log and math.exp:
    - k = int(log(z)/x) + 1, z = prefactor/(tail_eps (1 - e^(-x))), takes
      numpy's log, within a few ulp of libm's, and libm's again wherever
      log(z)/x lies within a relative _LOG_BAND of an integer, six orders
      of magnitude wider than the two logs' gap: elsewhere an integer
      cannot fall between them, so int() truncates both alike (astype
      truncates like int());
    - e^(-(k+1)x) is libm's, once per distinct k, at the same argument;
    - cumsum adds the tails in order, like accumulate."""
    import numpy as np

    geom = 1.0 - math.exp(-x)
    z = prefactors / (tail_eps * geom)
    n = np.log(z) / x
    near = np.abs(n - np.rint(n)) <= _LOG_BAND * np.abs(n)
    if near.any():
        n[near] = _libm(math.log, z[near]) / x
    cutoffs = np.maximum(n.astype(np.int64) + 1, 8)
    distinct, where = np.unique(cutoffs, return_inverse=True)
    tails = prefactors * _libm(math.exp, -(distinct + 1) * x)[where] / geom / moduli
    return cutoffs, np.concatenate(([0.0], np.cumsum(tails)))


def _a_moduli(m: int, N: int, p: int, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """A's moduli c = t N, t <= t_max, and their n-tail prefactors.
    tau(c) = tau(u) (j + a + 1) for t = p^j u and N = p^a, with tau(u) read
    from a sieve: trial division of c would run up to p.  Moduli past the
    int64 limit are a DomainError."""
    import numpy as np

    if t_max * N >= 1 << 63:
        raise DomainError(f"A's moduli t N with t <= {t_max} pass the int64 limit at N = {N}")
    t = np.arange(1, t_max + 1)
    u, j = t.copy(), np.full(t_max, 1 if N == p else 2)
    while (hit := u % p == 0).any():
        u[hit] //= p
        j[hit] += 1
    c = t * N
    return c, _prefactors(m, c, 1.0, divisor_counts(t_max)[u] * (j + 1))


def _b_moduli(m: int, N: int, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """B's moduli d <= d_max coprime to N, and their n-tail prefactors."""
    import numpy as np

    d = np.arange(1, d_max + 1)
    d = d[np.gcd(d, N) == 1]
    return d, _prefactors(m, d, math.sqrt(N), divisor_counts(d_max)[d])


class _Series(NamedTuple):
    """What the error model knows of series `kind` ("A" or "B") of (m, N)
    before its n-cutoffs are set: the ascending caps, the moduli up to the
    last of them with their n-tail prefactors, the decay rate x, the cost of
    one n-term, and at each cap the number of moduli it sums and the parts
    of the c- or d-tail it leaves, a row.  A one-cap series is what _sum sums."""

    kind: str
    m: int
    N: int
    caps: list[int]
    moduli: np.ndarray
    prefactors: np.ndarray
    x: float
    share: float
    counts: np.ndarray
    tails: np.ndarray


def _series(kind: str, m: int, N: int, chi: QuadraticCharacter, caps: list[int]) -> _Series:
    """Series `kind` of (m, N) at the ascending `caps`, before its
    n-cutoffs.  The tails past each cap are A's Weil-induced c-tail past
    t_max N, (2D/N) tau_tail(t_max + 1) (14 D/N, A_bound's Weil branch, at
    t_max = 0), and B's d-tail past d_max, hybrid_d_tail's abel and weil.  An
    n-term costs one unit, A's only for the n coprime to D, a share
    phi(D)/D of each cutoff, and A(1,p^2)'s _SALIE_TERM_COST each."""
    import numpy as np

    from .bounds import hybrid_d_tail, tail_bounds

    D = chi.D
    x = _x(D, N)
    if kind == "A":
        p = _level_prime(N)
        moduli, prefactors = _a_moduli(m, N, p, caps[-1])
        share = euler_phi(D) / D
        if N != p:
            share *= _SALIE_TERM_COST
        counts, tails = np.array(caps), [[2.0 * D / N * tail_bounds(t + 1).tau_tail] for t in caps]
    else:
        moduli, prefactors = _b_moduli(m, N, caps[-1])
        share = 1.0
        counts = moduli.searchsorted(caps, side="right")
        tails = [(tail.abel, tail.weil) for tail in hybrid_d_tail(D, m, N, caps)]
    return _Series(kind, m, N, caps, moduli, prefactors, x, share, counts, np.array(tails))


def _at_cutoffs(
    series: _Series, tail_eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cutoffs and n_err of `series` with every n-tail below tail_eps
    (_terms), and its cost and error bound at each cap: the error bound is
    the n-tails of the moduli up to the cap plus the tail past it, its parts
    summed (B's abel + weil); the cost counts the n-terms the series sums
    plus _MODULUS_COST a modulus."""
    import numpy as np

    cutoffs, n_err = _terms(series.moduli, series.prefactors, series.x, tail_eps)
    cost = np.concatenate(([0.0], np.cumsum(cutoffs * series.share + _MODULUS_COST)))
    return cutoffs, n_err, cost[series.counts], n_err[series.counts] + series.tails.sum(axis=1)


# The J1 arguments of consecutive moduli share one bessel_j1 call until
# their cutoffs would pass this many; a longer cutoff is a block by
# itself.  2^13 and 2^14 measured alike; at 2^16 a block no longer fits in
# the cache, and numeric-certify slowed by 8%.
_BLOCK = 8192
# The largest n-grid a series may sum, and the most n-terms (the sum of
# its cutoffs) it may sum over all its moduli (_sum).
_N_MAX = 1 << 25
_N_TOTAL_MAX = 1 << 27


class _NGrid(NamedTuple):
    """The n <= n_max of a series, sqrt(n), the weight
    w_n = chi(n)/sqrt(n) e^(-nx) of every S_A and S_B, and room for one
    block of moduli's J1 arguments (x) and values (j1), side by side, so
    that no modulus allocates its own.

    A's grid keeps only the n coprime to D, where w_n != 0.  B's keeps
    every n, because _sb_sum folds its terms by position; see _n_grid."""

    n: np.ndarray
    root: np.ndarray
    w: np.ndarray
    x: np.ndarray
    j1: np.ndarray


def _n_grid(chi: QuadraticCharacter, x: float, n_max: int, coprime: bool) -> _NGrid:
    """The grid n = 1..n_max, or with `coprime` only its n with
    gcd(n, D) = 1, and block buffers of max(grid size, _BLOCK) floats.
    B's grid stays full: a reshape folds it by residue at
    0.5 ns an element, where a fold of a compressed grid costs 1.8-2.6 ns
    (scatter back) or 13 ns (np.bincount), and a compressed B made every
    numeric-certify certificate slower, prime D by 8-60%.  The weights'
    e^(-nx) is e^(-isx) e^(-jx) at n = is + j, 0 <= j < s = isqrt(n_max) + 1:
    the outer product of two tables of libm's exp (_libm) at arguments
    rounded once, so no bit depends on numpy's SIMD dispatch, for about
    2 sqrt(n_max) libm calls.  A grid that does not fit in memory is a
    DomainError."""
    import numpy as np

    try:
        n = np.arange(1, n_max + 1, dtype=np.int64)
        chi_n = chi.values(n)
        s = math.isqrt(n_max) + 1
        small = _libm(math.exp, -x * np.arange(s))
        big = _libm(math.exp, -x * np.arange(0, n_max + 1, s))
        decay = np.multiply.outer(big, small).ravel()[1 : n_max + 1]
        if coprime:
            keep = chi_n != 0
            n, chi_n, decay = n[keep], chi_n[keep], decay[keep]
        root = np.sqrt(n.astype(np.float64))
        room = max(n.size, _BLOCK)
        return _NGrid(n, root, chi_n / root * decay, np.empty(room), np.empty(room))
    except MemoryError:
        raise DomainError(f"an n-grid of {n_max} terms is too large for memory") from None


def _blocks(counts: list[int]) -> list[tuple[int, int]]:
    """Consecutive runs [lo, hi) of the moduli whose counts sum to at most
    _BLOCK, each as long as it can be; a count above _BLOCK is a run of
    its own."""
    runs, lo, size = [], 0, 0
    for i, k in enumerate(counts):
        if i > lo and size + k > _BLOCK:
            runs.append((lo, i))
            lo, size = i, 0
        size += k
    return runs + [(lo, len(counts))] if counts else runs


def _weighted_j1(grid: _NGrid, betas: list[float], counts: list[int]) -> list[np.ndarray]:
    """w_n J1(beta sqrt(n)) over the first k n of the grid for each
    (beta, k) of a block of moduli, in one bessel_j1 call: the arguments
    and values of the moduli lie side by side in grid.x and grid.j1, and
    each modulus gets a view of its own values, valid until the next
    block.  The call runs J1's series at the depth of the block's largest
    argument below 12, at least each modulus's own; that a modulus's
    values equal those of a block of its own, bit for bit, is measured on
    every pinned output and reference, not proven (see bessel)."""
    # These helpers run once per modulus or block, so they import modules,
    # not names: `from .bessel import bessel_j1` costs about 2 us a call;
    # `from . import bessel` costs half.
    import numpy as np

    from . import bessel

    ends = list(itertools.accumulate(counts))
    for beta, k, end in zip(betas, counts, ends):
        np.multiply(grid.root[:k], beta, out=grid.x[end - k:end])
    bessel.bessel_j1(grid.x[: ends[-1]], out=grid.j1[: ends[-1]])
    views = []
    for k, end in zip(counts, ends):
        v = grid.j1[end - k:end]
        v *= grid.w[:k]
        views.append(v)
    return views


def _sa_sum(m: int, p: int, N: int, c: int, n: np.ndarray, v: np.ndarray) -> float:
    """S_A(c) from its weighted J1 factor v over the grid points n, which
    it multiplies in place by the Kloosterman factor."""
    from . import kernels

    v *= kernels.series_kloosterman(m, p, N, c // N, n)
    return float(v.sum())


def _sb_sum(m: int, N: int, d: int, v: np.ndarray) -> float:
    """sum_{n <= len(v)} v[n-1] S(n, m*Nbar; d).

    The Kloosterman factor is periodic in n with period d, so v is summed
    per residue with one reshape (plus the partial last period) and the d
    sums are dotted once with the row, as a product and numpy's pairwise
    sum: np.dot's order of summation would depend on the BLAS kernel.
    folded[j] holds n = j + 1 mod d, which meets row[j + 1], and the last
    residue wraps round to row[0].
    """
    import numpy as np

    from . import kernels

    k = v.size
    full = k - k % d
    folded = v[:full].reshape(-1, d).sum(axis=0)
    folded[: k - full] += v[full:]
    row = kernels.kloosterman_row(m * pow(N, -1, d) % d, d)
    return float((folded[:-1] * row[1:]).sum() + folded[-1] * row[0])


def _sum(chi: QuadraticCharacter, series: _Series, tail_eps: float) -> NumericResult:
    """sum_q S(q)/q over the moduli of the one-cap `series`, each cut off
    at the cutoff k where its n-tail drops below tail_eps, with the error
    bound and its parts (_at_cutoffs): the one accumulator of A and B.

    S(q) sums over the grid points n <= k the weighted J1 factor
    w_n J1(beta sqrt(n)), beta = 4 pi sqrt(m)/(q s) with s = 1 for A and
    sqrt(N) for B (the s of _prefactors), times the Kloosterman factor
    (_sa_sum, _sb_sum).  All S(q) share one n-grid, coprime to D for A
    (see _n_grid); the J1 factors of a block of consecutive moduli
    (_blocks) come from one _weighted_j1 call; the moduli add in order.

    A cutoff past _N_MAX = 2^25 terms is a DomainError, raised before the
    grid is allocated: such a grid takes some 2 GiB with its block buffers,
    33 times the largest a certificate at D <= 403 and its threshold prime
    builds (1.0e6 terms, B(1,p^2) at (403, 1361)).  So are cutoffs that sum
    past _N_TOTAL_MAX = 2^27 n-terms, twice the 62.6 M of B(1, 431^2) at
    caps (240, 800), the most tier-1 sums: at (1, 7) and D = 1000003 the
    planned A sums 631 M in grids of at most 3.7 M.  So is an A grid past
    kernels.series_n_limit, where an int64 product of series_kloosterman
    could pass 2^63: A(1, chi_-3, 1200007^2) at t_max = 2 wraps at
    c = 2 p^2, n = 20,000,017, within _N_MAX."""
    cutoffs, n_err, _, errors = _at_cutoffs(series, tail_eps)
    parts = (*n_err[series.counts].tolist(), *series.tails[0].tolist())
    [error], moduli = errors.tolist(), series.moduli.tolist()
    if not moduli:
        return NumericResult(0.0, error, parts)
    n_max = int(cutoffs.max())
    if n_max > _N_MAX:
        raise DomainError(f"an n-grid of {n_max} terms is past the limit of 2^25 = {_N_MAX}")
    if (terms := int(cutoffs.sum())) > _N_TOTAL_MAX:
        raise DomainError(f"a series of {terms} n-terms is past the limit 2^27 = {_N_TOTAL_MAX}")
    from . import kernels

    kind, m, N = series.kind, series.m, series.N
    p = _level_prime(N)
    if kind == "A" and n_max > kernels.series_n_limit(p, N, moduli[-1] // N):
        raise DomainError(f"A's Kloosterman residues times n <= {n_max} pass the int64 limit")
    grid = _n_grid(chi, series.x, n_max, kind == "A")
    s = 1.0 if kind == "A" else math.sqrt(N)
    counts = grid.n.searchsorted(cutoffs, side="right").tolist()
    acc = 0.0
    for lo, hi in _blocks(counts):
        qs, ks = moduli[lo:hi], counts[lo:hi]
        betas = [4.0 * math.pi * math.sqrt(m) / (q * s) for q in qs]
        for q, k, v in zip(qs, ks, _weighted_j1(grid, betas, ks)):
            s_q = _sa_sum(m, p, N, q, grid.n[:k], v) if kind == "A" else _sb_sum(m, N, q, v)
            acc += s_q / q
    return NumericResult(acc, error, parts)


def A_numeric(
    m: int, chi: QuadraticCharacter, N: int, *, t_max: int, tail_eps: float = _N_TAIL_EPS
) -> NumericResult:
    """A(m,chi,N) = sum_{N|c} S_A(c)/c over the t_max moduli c = N..t_max N,
    each summed over the n coprime to D only (chi(n) = 0 elsewhere) up to
    the cutoff where its n-tail drops below tail_eps (_sum); the error bound
    (_at_cutoffs) aggregates the n-tails and the Weil-induced c-tail
    (2D/N) (2 log(t_max+1) + 7)/sqrt(t_max+1) of the moduli beyond.
    t_max = 0 leaves A unevaluated: the value 0 and the whole c-tail
    14 D/N, which is A_bound's Weil branch.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    _shape(m, N, chi)
    return _sum(chi, _series("A", m, N, chi, [t_max]), tail_eps)


def B_numeric(
    m: int, chi: QuadraticCharacter, N: int, *, d_max: int, tail_eps: float = _N_TAIL_EPS
) -> NumericResult:
    """B(m,chi,N) = sum_{(d,N)=1} S_B(d)/d over d <= d_max, each S_B(d) up
    to the cutoff where its n-tail drops below tail_eps (_sum), folded by
    residue mod d and dotted once with its row (_sb_sum).  The
    moduli beyond d_max are bounded (_at_cutoffs) by bounds.hybrid_d_tail:
    the Abel (Polya-Vinogradov) bound per d up to the d1 that minimises the
    total, the Weil-induced |S_B(d)| <= D sqrt(m) tau(d)/sqrt(d) beyond d1
    and at d = D."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    _shape(m, N, chi)
    return _sum(chi, _series("B", m, N, chi, [d_max]), tail_eps)


class _Plan(NamedTuple):
    """(t_max, d_max) for each (m, N) shape, the error bound they give,
    and the n-tail allowance per modulus of A and of B for each shape."""

    caps: list[tuple[int, int]]
    error: float
    tail_eps: list[tuple[float, float]]


def _ladder(top: int) -> list[int]:
    """The caps round(1.12^i) below top, then top."""
    caps, r = [], 1.0
    while round(r) < top:
        if not caps or round(r) > caps[-1]:
            caps.append(round(r))
        r *= _LADDER_RATIO
    return caps + [top]


class _Ladders(NamedTuple):
    """The planner's candidates: every series' ladder of caps (_Series, in
    `total`'s order), the index of its former fixed cap, and its weight in
    `total`."""

    series: list[_Series]
    former: tuple[int, ...]
    weights: list[float]


def _ladders(
    chi: QuadraticCharacter, shapes: Sequence[tuple[int, int]],
    total: Callable[[list[float]], float],
) -> _Ladders:
    """A's ladder from 0, "unevaluated", to 240 and B's from 1 to 1600 for
    every (m, N) in `shapes`, each with the former fixed cap added."""
    from .bounds import hybrid_d_cap

    series, former = [], []
    a_ladder, b_ladder = [0, *_ladder(_T_TOP)], _ladder(_D_TOP)
    for m, N in shapes:
        for kind, former_cap, ladder in (
            ("A", _FORMER_T_MAX, a_ladder),
            ("B", hybrid_d_cap(chi.D, m, N, _FORMER_D_REF), b_ladder),
        ):
            caps = sorted({*ladder, former_cap})
            series.append(_series(kind, m, N, chi, caps))
            former.append(caps.index(former_cap))
    weights = [total([float(i == j) for j in range(len(series))]) for i in range(len(series))]
    return _Ladders(series, tuple(former), weights)


def _prices(
    ladders: _Ladders, tail_eps: list[float]
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Every series' cost and weighted error at each cap of its ladder,
    every modulus cut off at its allowance in `tail_eps`, one row a series,
    padded to the longest ladder with cost inf and weight 0, which _pick
    never takes; and each series' error bounds."""
    import numpy as np

    models = [_at_cutoffs(s, eps)[2:] for s, eps in zip(ladders.series, tail_eps)]
    costs = np.full((len(models), max(len(s.caps) for s in ladders.series)), np.inf)
    weighted = np.zeros(costs.shape)
    for row, ((cost, err), w) in enumerate(zip(models, ladders.weights)):
        costs[row, : cost.size] = cost
        weighted[row, : err.size] = w * err
    return costs, weighted, [err.tolist() for _, err in models]


def _pick(costs: np.ndarray, weighted: np.ndarray, lam: float) -> tuple[int, ...]:
    """Each series' cap that minimises cost + lam * weighted error, the
    first on a tie, in one argmin over _prices' rows."""
    return tuple((costs + lam * weighted).argmin(axis=1).tolist())


def _pass(
    ladders: _Ladders, total: Callable[[list[float]], float], tail_eps: list[float],
    target: float | None = None,
) -> _Plan | None:
    """One planning pass, every series' moduli cut off at its allowance in
    `tail_eps`: the Lagrangian plan, in which each series takes the cap
    that minimises cost + lam * weighted error, for the smallest lam whose
    exact total meets `target`; None if no lam does.  With no target it
    aims at the former fixed caps' error, and falls back on those caps.
    The search meets the same picks again and again, so each pick's total
    is computed once."""
    costs, weighted, errs = _prices(ladders, tail_eps)
    totals: dict[tuple[int, ...], float] = {}

    def pick(lam: float) -> tuple[int, ...]:
        return _pick(costs, weighted, lam)

    def error(idx: tuple[int, ...]) -> float:
        if idx not in totals:
            totals[idx] = total([e[i] for e, i in zip(errs, idx)])
        return totals[idx]

    # A larger lam never raises a series' error.  Once lam is large enough
    # for the errors alone to decide, every series takes its least error,
    # so the upward search stops.  The former caps meet their own error, so
    # only rounding could send the first pass to its fallback.
    fallback = ladders.former if target is None else None
    if target is None:
        target = error(ladders.former)
    best, lo, hi = pick(0.0), 0.0, 1.0
    if error(best) > target:
        while error(pick(hi)) > target and hi < 1e60:
            lo, hi = hi, 16.0 * hi
        best = pick(hi) if error(pick(hi)) <= target else fallback
        for _ in range(40):
            mid = math.sqrt(lo * hi) if lo else hi / 16.0
            idx = pick(mid)
            if error(idx) <= target:
                hi, best = mid, idx
            else:
                lo = mid
    if best is None:
        return None
    caps = [s.caps[i] for s, i in zip(ladders.series, best)]
    return _Plan(
        list(zip(caps[::2], caps[1::2])), error(best), list(zip(tail_eps[::2], tail_eps[1::2]))
    )


def _plan(
    chi: QuadraticCharacter, shapes: Sequence[tuple[int, int]],
    total: Callable[[list[float]], float],
) -> _Plan:
    """Caps and n-cutoffs for the A and B series of every (m, N) in
    `shapes`, chosen before any term is evaluated.

    `total` maps the series' error bounds, ordered A, B of the first
    shape, then A, B of the next, to the reported error bound; it is
    linear, so its value at a unit vector is that series' weight.  Every
    series chooses from a geometric ladder of caps (_ladders), and every
    cap's error and cost come from _at_cutoffs.  Each of two passes (_pass) is
    the Lagrangian plan for its target.

    Pass 1 cuts every modulus off at an n-tail of _N_TAIL_EPS and aims at
    the error bound of the former fixed caps (t_max = 240, and B at
    bounds.hybrid_d_cap(..., 800)); its error is E0.  Pass 2 gives each
    series an n-tail allowance per modulus,
    eps = max(_N_TAIL_EPS, _N_TAIL_SHARE E0/(w sum 1/q)), w its weight and
    the sum over its moduli up to its ladder's top, so that its weighted
    n-tails stay within _N_TAIL_SHARE E0 at every cap, and plans again with
    target E0: fewer n-terms, bought back with larger caps.  If no pass-2
    plan meets E0, pass 1's plan is the plan.  So a plan's error is at
    most E0.
    """
    ladders = _ladders(chi, shapes, total)
    first = _pass(ladders, total, [_N_TAIL_EPS] * len(ladders.series))
    allowances = [
        max(_N_TAIL_EPS, _N_TAIL_SHARE * first.error / (w * float((1.0 / s.moduli).sum())))
        for w, s in zip(ladders.weights, ladders.series)
    ]
    second = _pass(ladders, total, allowances, first.error)
    return first if second is None else second


def _caps(
    chi: QuadraticCharacter, shapes: Sequence[tuple[int, int]],
    total: Callable[[list[float]], float], t_max: int | None, d_max: int | None,
) -> tuple[list[tuple[int, int]], list[tuple[float, float]]]:
    """Each shape's (t_max, d_max) and A and B n-tail allowances: the
    caller's caps at _N_TAIL_EPS or, given neither, _plan's.  Exactly one
    cap is a ValueError before any plan; then t_max < 0, then d_max < 1."""
    if (t_max is None) != (d_max is None):
        raise ValueError("pass both t_max and d_max, or neither")
    if t_max is None:
        plan = _plan(chi, shapes, total)
        return plan.caps, plan.tail_eps
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    return [(t_max, d_max)] * len(shapes), [(_N_TAIL_EPS, _N_TAIL_EPS)] * len(shapes)


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
    """Assemble (a_m, L_chi)_N from the A and B series at both caps given
    or, given neither, at caps planned before either is evaluated (_caps)."""
    _shape(m, N, chi)
    [caps], [tail_eps] = _caps(chi, [(m, N)], lambda e: _pairing_error(m, N, *e), t_max, d_max)
    return _pairing(m, N, chi, caps, tail_eps)[0]


def _pairing(
    m: int, N: int, chi: QuadraticCharacter, caps: tuple[int, int], tail_eps: tuple[float, float]
) -> tuple[NumericResult, NumericResult, NumericResult]:
    """(a_m, L_chi)_N at the caps (t_max, d_max), A's and B's moduli cut
    off at the n-tail allowances `tail_eps`, with its A and B results."""
    (t_max, d_max), (a_eps, b_eps) = caps, tail_eps
    a = A_numeric(m, chi, N, t_max=t_max, tail_eps=a_eps)
    b = B_numeric(m, chi, N, d_max=d_max, tail_eps=b_eps)
    lead = 4.0 * math.pi * chi(m) * math.exp(-m * _x(chi.D, N))
    scale = _EIGHT_PI_SQ * math.sqrt(m)
    value = lead - scale * (a.value + chi(N) / math.sqrt(N) * b.value)
    return NumericResult(value, _pairing_error(m, N, a.error_bound, b.error_bound)), a, b


def _check_certify_args(p: int, chi: QuadraticCharacter) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if chi.D % p == 0:
        raise DividesDiscriminant(f"p = {p} divides the conductor {chi.D}")
    if p < 7:
        raise UnsupportedCase("the weighted pairing needs p >= 7")


# The new-plus pairing's three (m, N) shapes, and their labels in the same order.
_NEW_PLUS_LABELS = ("(1,p^2)", "(1,p)", "(p,p)")


def _new_plus_shapes(p: int) -> tuple[tuple[int, int], ...]:
    return ((1, p * p), (1, p), (p, p))


def _new_plus_error(p: int, e1: float, e2: float, e3: float) -> float:
    w = p * p - 1
    return e1 + p / w * e2 + e3 / w


def _new_plus_total(p: int) -> Callable[[list[float]], float]:
    """The new-plus pairing's error bound from its six series' bounds,
    ordered A, B of (1, p^2), then of (1, p), then of (p, p)."""
    shapes = _new_plus_shapes(p)

    def total(e: list[float]) -> float:
        return _new_plus_error(p, *(
            _pairing_error(m, N, e[2 * i], e[2 * i + 1]) for i, (m, N) in enumerate(shapes)
        ))

    return total


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


def _verdict(lower: float) -> str:
    """The verdict of either mode: certified-positive needs lower > _CERT_MARGIN."""
    return CERTIFIED_POSITIVE if lower > _CERT_MARGIN else INDETERMINATE


def _first_term_lower(p: int, D: int) -> float:
    """Lower bound for e^(-2 pi/(D p)) - p/(p^2-1) - 1/(p^2-1).

    Uses e^(-t) >= 1 - t (no transcendental directed rounding) and caps
    at 19/20, the constant the closed-form certificate substitutes once
    p >= 72; min() keeps the result a valid lower bound below that."""
    linear = 1.0 - _TWO_PI / (D * p) - (p + 1.0) / (p * p - 1.0)
    return min(19.0 / 20.0, linear)


def certify_nonvanishing(p: int, chi: QuadraticCharacter) -> Certificate:
    """Closed-form nonvanishing certificate for the weighted L-sum.

    Evaluates 19/20 - sqrt(D)/p^2 (294 log^2 D + 416 log D log p
    + 227 log^2 p) - 2 pi tau(D)/sqrt(D) (1/p + 1/(p-1)), the assembled
    form of the six Abel-transform bounds; upper-bound parts are
    inflated and the lower-bound part deflated by a relative 1e-12
    before combining.  Certified-positive needs the margin of _verdict.

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
    components = {f"{kind}{label}": bound(m, chi, N)
                  for kind, bound in (("A", A_bound), ("B", B_bound))
                  for label, (m, N) in zip(_NEW_PLUS_LABELS, _new_plus_shapes(p))}
    components.update({"first_term": first, "abel_main": main, "tau_term": tau_term})
    if D >= 15:
        return Certificate(_verdict(lower), lower, MODE_CLOSED_FORM, components)
    diagnostic = (
        f"the assembled closed form is only claimed for D >= 15 (got D={D}); "
        "try the numeric mode (certify --mode numeric)"
    )
    return Certificate(INDETERMINATE, lower, MODE_CLOSED_FORM, components, diagnostic)


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

    The six series' caps and n-cutoffs come from _caps: explicit t_max
    and d_max serve all three pairings, or the six are planned together.
    The error bound is the planner's total of the six series' bounds
    (_new_plus_total).  The components also name the t_max and d_max
    used for each shape, and B(1,p^2)'s Abel and Weil d-tail
    parts times its weight 8 pi^2/p: both are parts of error_bound (at
    (31, 421), 1.678 and 0.720 of 3.456)."""
    _check_certify_args(p, chi)
    shapes, total = _new_plus_shapes(p), _new_plus_total(p)
    caps, tail_eps = _caps(chi, shapes, total, t_max, d_max)
    w = p * p - 1
    pairings = [
        _pairing(m, N, chi, shape_caps, eps)
        for (m, N), shape_caps, eps in zip(shapes, caps, tail_eps)
    ]
    (p1, _, b1), (p2, _, _), (p3, _, _) = pairings
    value = p1.value - p / w * p2.value + chi(p) / w * p3.value
    error = total([s.error_bound for _, a, b in pairings for s in (a, b)])
    lower = (value - error) / (4.0 * math.pi)
    components: dict[str, float] = {"value": value, "error_bound": error}
    for shape, (t, d) in zip(_NEW_PLUS_LABELS, caps):
        components[f"A{shape} t_max"] = t
        components[f"B{shape} d_max"] = d
    _, abel, weil = b1.parts
    components[f"B{_NEW_PLUS_LABELS[0]} abel_tail"] = _EIGHT_PI_SQ * abel / p
    components[f"B{_NEW_PLUS_LABELS[0]} weil_tail"] = _EIGHT_PI_SQ * weil / p
    return Certificate(_verdict(lower), lower, MODE_NUMERIC, components)
