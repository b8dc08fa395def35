"""Component groups of J0(p) over a ramified base.

The special fiber's dual graph presents the component group Phi by the
Laplacian relations on one vertex per irreducible component; collapsing
each blown-up chain C_{s,i} = i*C_s first leaves generators
[Zbar, Cbar_s (s in S'), Ebar, Gbar] and the relations

    (Z)   -S*Zbar + e*I*Ebar + 2e*R*Gbar = 0
    (Z')  I*Ebar + R*Gbar + sum_s Cbar_s = 0
    (C_s) Zbar = e*Cbar_s
    (E)   Zbar = 2e*Ebar        (when j = 1728 is supersingular)
    (G)   Zbar = 3e*Gbar        (when j = 0 is supersingular)

whose cokernel is Z/(n e) x (Z/e)^(S-2), n the numerator of (p-1)/12.
The Smith normal form realizes the group exactly: its diagonal gives the
invariant factors and its left transform the generator images.  Three of
component_group's checks (the closed-form factors, the order n of Zbar
and the chain relations) prove the lemma e * Phi = <Zbar>.  The
tabulated reduction values rho(g(P)) need no Smith normal form: each
comes from the chain multiplicities k in (C_s, E, G) = (1, 2, 3) alone
(_CHAIN).
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .arith import is_prime
from .errors import PostconditionFailed, UnsupportedPrime, UnsupportedRamification

if TYPE_CHECKING:
    from fractions import Fraction


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise UnsupportedPrime(f"{p} is not prime")
    if p != 11 and p <= 13:
        raise UnsupportedPrime(f"need p = 11 or p > 13, got {p}")


class SupersingularCounts(NamedTuple):
    p: int
    S: int
    S_prime: int
    I: int
    R: int


def supersingular_counts(p: int) -> SupersingularCounts:
    """Solve S' + I/2 + R/3 = (p-1)/12 exactly; S = S' + I + R."""
    _check_prime(p)
    I = 1 if p % 4 == 3 else 0
    R = 1 if p % 3 == 2 else 0
    s_prime, rem = divmod(p - 1 - 6 * I - 4 * R, 12)
    if rem or s_prime < 0:
        raise PostconditionFailed(f"mass formula failed at p = {p}")
    return SupersingularCounts(p, s_prime + I + R, s_prime, I, R)


def eisenstein_n(p: int) -> int:
    """Numerator of (p-1)/12, the order of the cuspidal subgroup."""
    if not is_prime(p):
        raise UnsupportedPrime(f"{p} is not prime")
    return (p - 1) // math.gcd(p - 1, 12)


# Multiplicity k of each collapsed chain end, by its generator's kind: the
# chain relation reads Zbar = k*e*gen.
_CHAIN = {"Cbar": 1, "Ebar": 2, "Gbar": 3}


def _chain_ends(counts: SupersingularCounts) -> list[tuple[str, int]]:
    """(name, k) for each generator after Zbar, k its chain multiplicity."""
    return ([(f"Cbar_s{i + 1}", _CHAIN["Cbar"]) for i in range(counts.S_prime)]
            + [("Ebar", _CHAIN["Ebar"])] * counts.I + [("Gbar", _CHAIN["Gbar"])] * counts.R)


def generator_names(p: int) -> list[str]:
    return ["Zbar"] + [name for name, _ in _chain_ends(supersingular_counts(p))]


# The relation matrix has about (p/12)^2 entries, and the Smith normal form
# of component_group grows like p^2 in time and memory: 1.1 s and 47 MiB at
# p = 10,007, 11.0 s and 368 MiB at 32,749, the last prime below the bound
# (whole component-group commands, 2-core Xeon).  A larger p is an
# UnsupportedPrime, before any row is built.
_MAX_PRIME = 1 << 15


def _presentation(
    p: int, e: int
) -> tuple[SupersingularCounts, list[tuple[str, int]], list[list[int]]]:
    """p's supersingular counts, its chain ends and the relation rows, with
    p resolved once."""
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    if p >= _MAX_PRIME:
        raise UnsupportedPrime(f"p = {p} is past the relation matrix's bound 2^15 = {_MAX_PRIME}")
    counts = supersingular_counts(p)
    ends = _chain_ends(counts)
    rows = [
        [-counts.S] + [(k - 1) * e for _, k in ends],  # (Z)
        [0] + [1] * len(ends),  # (Z')
    ]
    for col, (_, k) in enumerate(ends, start=1):
        row = [1] + [0] * len(ends)
        row[col] = -k * e
        rows.append(row)
    return counts, ends, rows


def relation_matrix(p: int, e: int) -> list[list[int]]:
    """Laplacian relation rows over the collapsed generators: (Z), (Z'),
    then one chain row Zbar - k*e*gen per generator after Zbar."""
    return _presentation(p, e)[2]


class SNFResult(NamedTuple):
    diagonal: list[int]
    left: list[list[int]]
    right: list[list[int]]


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _gcd_step(a: int, b: int) -> tuple[int, int, int, int]:
    """(x, y, u, v) with x*v - y*u = 1, u*a + v*b = 0 and x*a + y*b the
    pivot that remains: a itself when a | b (a plain elimination, which
    keeps repeated steps from swapping a pivot back and forth), else
    gcd(a, b) > 0 from the extended Euclid recurrence."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, x0, y0, x1, y1 = a, 1, 0, 0, 1
    h = b
    while h:
        q, rem = divmod(g, h)
        g, h = h, rem
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return x0, y0, -(b // g), a // g


def smith_normal_form(mat: Sequence[Sequence[int]]) -> SNFResult:
    """Exact Smith normal form: left * mat * right is diagonal with
    d1 | d2 | ..., left and right unimodular.

    The pivot is the smallest nonzero entry of the working submatrix, the
    first in (row, column) order among equals.  Every entry in its column
    (row) is cleared by one 2x2 unimodular step on two rows (columns), so
    the pivot only ever shrinks to a gcd and the entries of left and right
    stay small (at most 62 bits on the pinned 5x5 test matrices with
    entries in [-30, 30]).

    Row steps update the matrix and left, column steps the matrix and
    right.  The elimination skips work that cannot change an entry: rows
    above the pivot, zero in every working column; in the matrix, a plain
    column step (the pivot divides the entry) while the pivot's column is
    clear below it, which only zeroes the entry; and in right, the zero
    entries of the pivot's column, which a plain step adds to another
    column.  It also skips searches whose outcome is known: every entry
    left is a multiple of the last pivot, so the pivot search stops at
    the first entry of that size, and a pivot equal to it needs no
    divisibility scan.
    """
    A = [[int(x) for x in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise ValueError("ragged matrix")
    L = _eye(r)
    cols = _eye(c)  # the columns of right
    support: list[tuple[int, int]] | None = None  # nonzero (k, cols[t][k]), t the pivot

    def row_step(t: int, i: int) -> None:  # zero A[i][t] against the pivot
        x, y, u, v = _gcd_step(A[t][t], A[i][t])
        for M in (A, L):
            top, low = M[t], M[i]
            if y:
                M[t] = [x * a + y * b for a, b in zip(top, low)]
            M[i] = [u * a + v * b for a, b in zip(top, low)]

    def col_step(t: int, j: int, x: int, y: int, u: int, v: int, stop: int) -> None:
        nonlocal support
        for i in range(t, stop):  # the step leaves rows stop.. of A as they are
            row = A[i]
            a, b = row[t], row[j]
            row[t] = x * a + y * b
            row[j] = u * a + v * b
        if y:  # a gcd step rewrites columns t and j
            cols[t], cols[j] = (
                [x * a + y * b for a, b in zip(cols[t], cols[j])],
                [u * a + v * b for a, b in zip(cols[t], cols[j])],
            )
            support = None
            return
        # A plain step (x = v = 1) adds u * column t to column j > t.
        if support is None:
            support = [(k, a) for k, a in enumerate(cols[t]) if a]
        col = cols[j]
        for k, a in support:
            col[k] += u * a

    floor = 1  # the last pivot, which divides every entry left to eliminate
    for t in range(min(r, c)):
        # First smallest |entry| in (row, column) order; nothing beats floor.
        best, pi = 0, -1
        for i in range(t, r):
            m = min(map(abs, filter(None, A[i][t:])), default=0)
            if m and (not best or m < best):
                best, pi = m, i
                if m == floor:
                    break
        if pi < 0:
            break
        support = None  # of the last pivot's column
        A[t], A[pi] = A[pi], A[t]
        L[t], L[pi] = L[pi], L[t]
        pj = next(j for j in range(t, c) if abs(A[t][j]) == best)
        if pj != t:
            for i in range(t, r):
                A[i][t], A[i][pj] = A[i][pj], A[i][t]
            cols[t], cols[pj] = cols[pj], cols[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            L[t] = [-a for a in L[t]]

        while True:
            for i in range(t + 1, r):
                if A[i][t]:
                    row_step(t, i)
            clear = True  # column t is zero below the pivot
            top = A[t]
            for j in range(t + 1, c):
                if top[j]:
                    x, y, u, v = _gcd_step(top[t], top[j])
                    col_step(t, j, x, y, u, v, t + 1 if clear and not y else r)
                    if y:
                        clear = not any(A[i][t] for i in range(t + 1, r))
            if not clear:
                continue  # a gcd step on columns refilled column t
            # Divisibility: the pivot must divide the remaining submatrix.
            # Adding an offending row brings its entry into row t, and the
            # next column step shrinks the pivot to a gcd with it.  Every
            # entry is a multiple of floor, so a pivot equal to it passes.
            d = top[t]
            if d == floor:
                break
            bad = next((i for i in range(t + 1, r)
                        if any(map(d.__rmod__, filter(None, A[i][t + 1:])))), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            L[t] = [a + b for a, b in zip(L[t], L[bad])]
        floor = A[t][t]

    diagonal = [A[i][i] for i in range(min(r, c))]
    return SNFResult(diagonal, L, [list(row) for row in zip(*cols)])


def integer_determinant(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    A = [[int(x) for x in row] for row in mat]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("need a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


class ComponentGroup(NamedTuple):
    """Finite abelian group as an invariant-factor chain, with the images
    of the named dual-graph generators in those coordinates."""

    p: int
    e: int
    invariant_factors: list[int]
    generator_images: dict[str, tuple[int, ...]]

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def add(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.add, x, y), self.invariant_factors))

    def scale(self, k: int, x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.mul, repeat(k), x), self.invariant_factors))

    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.invariant_factors)

    def element_order(self, x: tuple[int, ...]) -> int:
        return math.lcm(*(d // math.gcd(a, d) for a, d in zip(x, self.invariant_factors)))


def _closed_form_factors(n: int, S: int, e: int) -> list[int]:
    """Invariant factors of Z/(n e) x (Z/e)^(S-2), trivial ones dropped."""
    return [d for d in [e] * (S - 2) + [n * e] if d > 1]


def component_group(p: int, e: int) -> ComponentGroup:
    """Cokernel of the relation matrix, with postcondition checks.

    The factor check: the invariant factors are those of the closed form
    Z/(n e) x (Z/e)^(S-2).  The order check: Zbar has order n.  The chain
    checks: k*e*gen = Zbar for every generator after Zbar.  The sum check:
    the component classes of all supersingular points sum to zero.

    Lemma: e * Phi = <Zbar>, so every e*gen lies in <Zbar> with no check of
    its own.  The factor check makes e * Phi = Z/n x 0, cyclic of order n.
    Any chain check puts Zbar = e*(k*gen) in e * Phi, and S >= 2 gives at
    least one such generator.  By the order check <Zbar> is then a
    subgroup of order n of the cyclic group e * Phi of order n, so the two
    are equal, and e * Phi contains e*gen for every gen.
    """
    counts, ends, M = _presentation(p, e)
    n = (p - 1) // math.gcd(p - 1, 12)  # eisenstein_n(p), without testing p again
    # Group = Z^g / (row space of M) = coker of the transposed matrix, whose
    # g rows and g + 1 columns give a diagonal of g entries.
    At = [list(col) for col in zip(*M)]
    diag, left, _right = smith_normal_form(At)
    if 0 in diag:
        raise PostconditionFailed("component group came out infinite")
    keep = [i for i, d in enumerate(diag) if d > 1]
    factors = [diag[i] for i in keep]
    names = ["Zbar"] + [name for name, _ in ends]
    images = {
        name: tuple(left[i][j] % diag[i] for i in keep) for j, name in enumerate(names)
    }
    group = ComponentGroup(p, e, factors, images)

    if factors != _closed_form_factors(n, counts.S, e):
        raise PostconditionFailed(
            f"cokernel {factors} does not match Z/{n * e} x (Z/{e})^{counts.S - 2}"
        )
    z = images["Zbar"]
    if group.element_order(z) != n:
        raise PostconditionFailed("image of Zbar does not have order n")
    total = group.zero()
    for name, k in ends:
        total = group.add(total, images[name])
        # chain relations: e Cbar_s = 2e Ebar = 3e Gbar = Zbar exactly
        if group.scale(k * e, images[name]) != z:
            raise PostconditionFailed(f"chain relation fails for {name}")
    if total != group.zero():
        raise PostconditionFailed("sum of component classes over S is nonzero")
    return group


class RhoValueSet(NamedTuple):
    p_class: int
    e: int
    values: frozenset[Fraction]


def _rho_candidates(I: int, R: int, s_prime: int, e: int) -> list[tuple[str, int]]:
    """(generator, multiple) pairs enumerated by the reduction analysis."""
    cands: list[tuple[str, int]] = [("Zbar'", 2), ("Zbar", 2)]
    if e == 1:
        if I:
            cands.append(("Ebar", 2))
        if R:
            cands += [("Gbar", 2), ("Gbar", 4), ("Gbar", 3)]
    else:
        if I:
            cands += [("Ebar", 2), ("Ebar", 4), ("Ebar", 6)]
        if R:
            cands += [("Gbar", 2 * i) for i in range(1, 6)]
        if s_prime:
            cands.append(("Cbar", 2))
    return cands


def _rho_value(gen: str, mult: int, e: int) -> tuple[int, int]:
    """Formal fraction a/b of Zbar forced by the chain relation
    Zbar = k*e*gen, as the pair (a, b) in lowest terms with b > 0."""
    if gen == "Zbar'":
        return 0, 1
    if gen == "Zbar":
        return mult, 1
    b = _CHAIN[gen] * e
    g = math.gcd(mult, b)
    return mult // g, b // g


def _rho_values(counts: SupersingularCounts, e: int) -> set[tuple[int, int]]:
    """The values of rho_value_set as reduced pairs (a, b), which the
    two-torsion sweep reads too."""
    return {
        _rho_value(gen, mult, e)
        for gen, mult in _rho_candidates(counts.I, counts.R, counts.S_prime, e)
    }


def rho_value_set(p: int, e: int) -> RhoValueSet:
    """Possible reduction values of g(P) as rational multiples of Zbar.

    Each candidate x = mult*gen has the value a/b = mult/(k*e) in lowest
    terms, k the chain multiplicity of gen.  It holds in the group
    without building it: b*x = (b*mult)*gen = a*(k*e*gen) = a*Zbar, where
    the last step is the chain row k*e*gen = Zbar of the presentation,
    which component_group checks for every group it builds ("chain
    relation fails for ...").  For Zbar' (x = 0) and Zbar (b = 1) the
    identity is trivial.  The candidates depend only on I, R, whether
    S' > 0 and e; S' > 0 for every p > 13, so there the values depend
    only on p mod 12 and e.
    Only e in {1, 2} is tabulated.
    """
    if e not in (1, 2):
        raise UnsupportedRamification("reduction values are tabulated for e in {1, 2}")
    from fractions import Fraction

    values = _rho_values(supersingular_counts(p), e)
    return RhoValueSet(p % 12, e, frozenset(Fraction(a, b) for a, b in values))


def two_torsion_obstruction(p: int) -> bool:
    """Can g(P) reduce onto the unique 2-torsion point of the cuspidal
    subgroup?  True iff n is even and some tabulated value a/b is
    compatible with x = (n/2)*Zbar, i.e. a = b*n/2 mod n.

    This holds exactly for p in {17, 41}, among all primes.  Every
    tabulated pair has 0 <= a <= 5 and b in {1, 2, 3}, and a = 0 only
    with b = 1 (Zbar').  For b = 2 the condition needs n | a, so n <= 5;
    for odd b it needs a = n/2 mod n, so n/2 <= a and n <= 10.  Since
    n >= (p-1)/12, no p > 121 obstructs, and a sweep of the primes up
    to 121 finds 17 and 41 alone."""
    counts = supersingular_counts(p)
    n = eisenstein_n(p)
    if n % 2 != 0:
        return False
    half = n // 2
    for e in (1, 2):
        for a, b in _rho_values(counts, e):
            if (a - b * half) % n == 0:
                return True
    return False
