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
The Smith normal form realizes the group exactly, and the chain
structure yields the tabulated reduction values rho(g(P)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .arith import is_prime
from .errors import PostconditionFailed, UnsupportedPrime, UnsupportedRamification


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
    s_prime = Fraction(p - 1, 12) - Fraction(I, 2) - Fraction(R, 3)
    if s_prime.denominator != 1 or s_prime < 0:
        raise PostconditionFailed(f"mass formula failed at p = {p}")
    return SupersingularCounts(p, int(s_prime) + I + R, int(s_prime), I, R)


def eisenstein_n(p: int) -> int:
    """Numerator of (p-1)/12, the order of the cuspidal subgroup."""
    if not is_prime(p):
        raise UnsupportedPrime(f"{p} is not prime")
    return Fraction(p - 1, 12).numerator


def generator_names(p: int) -> list[str]:
    counts = supersingular_counts(p)
    names = ["Zbar"] + [f"Cbar_s{i + 1}" for i in range(counts.S_prime)]
    if counts.I:
        names.append("Ebar")
    if counts.R:
        names.append("Gbar")
    return names


def relation_matrix(p: int, e: int) -> list[list[int]]:
    """Laplacian relation rows over the collapsed generators."""
    if e < 1:
        raise ValueError("ramification index must be >= 1")
    counts = supersingular_counts(p)
    sp, I, R, S = counts.S_prime, counts.I, counts.R, counts.S
    ncols = 1 + sp + I + R
    col_E = 1 + sp
    col_G = 1 + sp + I

    rows: list[list[int]] = []
    row = [0] * ncols
    row[0] = -S
    if I:
        row[col_E] = e
    if R:
        row[col_G] = 2 * e
    rows.append(row)

    row = [0] * ncols
    for s in range(sp):
        row[1 + s] = 1
    if I:
        row[col_E] = I
    if R:
        row[col_G] = R
    rows.append(row)

    for s in range(sp):
        row = [0] * ncols
        row[0] = 1
        row[1 + s] = -e
        rows.append(row)
    if I:
        row = [0] * ncols
        row[0] = 1
        row[col_E] = -2 * e
        rows.append(row)
    if R:
        row = [0] * ncols
        row[0] = 1
        row[col_G] = -3 * e
        rows.append(row)
    return rows


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

    The pivot is the smallest nonzero entry of the working submatrix.
    Every entry in its column (row) is cleared by one 2x2 unimodular step
    on two rows (columns), so the pivot only ever shrinks to a gcd and
    the entries of left and right stay small (at most 62 bits on the
    pinned 5x5 test matrices with entries in [-30, 30]).
    """
    A = [[int(x) for x in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise ValueError("ragged matrix")
    L = _eye(r)
    R = _eye(c)

    def row_step(t: int, i: int) -> None:  # zero A[i][t] against the pivot
        x, y, u, v = _gcd_step(A[t][t], A[i][t])
        for M in (A, L):
            top, low = M[t], M[i]
            if y:
                M[t] = [x * a + y * b for a, b in zip(top, low)]
            M[i] = [u * a + v * b for a, b in zip(top, low)]

    def col_step(t: int, j: int) -> None:  # zero A[t][j] against the pivot
        x, y, u, v = _gcd_step(A[t][t], A[t][j])
        for M in (A, R):
            for row in M:
                a, b = row[t], row[j]
                if y:
                    row[t] = x * a + y * b
                row[j] = u * a + v * b

    for t in range(min(r, c)):
        entries = [(abs(A[i][j]), i, j) for i in range(t, r) for j in range(t, c) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        A[t], A[pi] = A[pi], A[t]
        L[t], L[pi] = L[pi], L[t]
        for M in (A, R):
            for row in M:
                row[t], row[pj] = row[pj], row[t]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            L[t] = [-a for a in L[t]]

        while True:
            for i in range(t + 1, r):
                if A[i][t]:
                    row_step(t, i)
            for j in range(t + 1, c):
                if A[t][j]:
                    col_step(t, j)
            if any(A[i][t] for i in range(t + 1, r)):
                continue  # a gcd step on columns refilled column t
            # Divisibility: the pivot must divide the remaining submatrix.
            # Adding an offending row brings its entry into row t, and the
            # next column step shrinks the pivot to a gcd with it.
            bad = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                        if A[i][j] % A[t][t]), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            L[t] = [a + b for a, b in zip(L[t], L[bad])]

    diagonal = [A[i][i] for i in range(min(r, c))]
    return SNFResult(diagonal, L, R)


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


@dataclass(frozen=True)
class ComponentGroup:
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
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def scale(self, k: int, x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((k * a) % d for a, d in zip(x, self.invariant_factors))

    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.invariant_factors)

    def element_order(self, x: tuple[int, ...]) -> int:
        k = 1
        acc = x
        while any(acc):
            acc = self.add(acc, x)
            k += 1
        return k

    def cyclic_subgroup(self, x: tuple[int, ...]) -> set[tuple[int, ...]]:
        out = {self.zero()}
        acc = x
        while any(acc):
            out.add(acc)
            acc = self.add(acc, x)
        return out


def _closed_form_factors(p: int, e: int) -> list[int]:
    """Invariant factors of Z/(n e) x (Z/e)^(S-2), trivial ones dropped."""
    counts = supersingular_counts(p)
    n = eisenstein_n(p)
    chain = [e] * (counts.S - 2) + [n * e]
    return [d for d in chain if d > 1]


def component_group(p: int, e: int) -> ComponentGroup:
    """Cokernel of the relation matrix, with postcondition checks.

    Verifies against the closed form Z/(n e) x (Z/e)^(S-2), that
    e * Phi = <Zbar> with <Zbar> of order n, and that the component
    classes of all supersingular points sum to zero.
    """
    M = relation_matrix(p, e)
    names = generator_names(p)
    g = len(names)
    # Group = Z^g / (row space of M) = coker of the transposed matrix.
    At = [[M[i][j] for i in range(len(M))] for j in range(g)]
    diag, left, _right = smith_normal_form(At)
    if len(diag) < g or any(d == 0 for d in diag):
        raise PostconditionFailed("component group came out infinite")
    keep = [i for i in range(g) if diag[i] > 1]
    factors = [diag[i] for i in keep]
    images = {
        name: tuple(left[i][j] % diag[i] for i in keep) for j, name in enumerate(names)
    }
    group = ComponentGroup(p, e, factors, images)

    counts = supersingular_counts(p)
    n = eisenstein_n(p)
    if factors != _closed_form_factors(p, e):
        raise PostconditionFailed(
            f"cokernel {factors} does not match Z/{n * e} x (Z/{e})^{counts.S - 2}"
        )
    z = images["Zbar"]
    if group.element_order(z) != n:
        raise PostconditionFailed("image of Zbar does not have order n")
    z_span = group.cyclic_subgroup(z)
    total = group.zero()
    chain_mult = {"Cbar": e, "Ebar": 2 * e, "Gbar": 3 * e}
    for name in names:
        if group.scale(e, images[name]) not in z_span:
            raise PostconditionFailed(f"e * {name} escapes <Zbar>")
        if name != "Zbar":
            total = group.add(total, images[name])
            # chain relations: e Cbar_s = 2e Ebar = 3e Gbar = Zbar exactly
            mult = chain_mult[name[:4] if name.startswith("Cbar") else name]
            if group.scale(mult, images[name]) != z:
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
            cands += [("Ebar", 2), ("Ebar", 4), ("Ebar", 6), ("Ebar", 4)]
        if R:
            cands += [("Gbar", 2 * i) for i in range(1, 6)]
        if s_prime:
            cands.append(("Cbar", 2))
    return cands


def _rho_value(gen: str, mult: int, e: int) -> Fraction:
    """Formal fraction of Zbar forced by the chain relations:
    2e*Ebar = Zbar, 3e*Gbar = Zbar, e*Cbar_s = Zbar."""
    if gen == "Zbar'":
        return Fraction(0)
    if gen == "Zbar":
        return Fraction(mult)
    denom = {"Ebar": 2 * e, "Gbar": 3 * e, "Cbar": e}[gen]
    return Fraction(mult, denom)


def rho_value_set(p: int, e: int) -> RhoValueSet:
    """Possible reduction values of g(P) as rational multiples of Zbar.

    Each candidate value a/b is certified inside the Smith-normal-form
    coordinates of the component group: b * x = a * Zbar must hold for
    the candidate element x.  Only e in {1, 2} is tabulated.
    """
    if e not in (1, 2):
        raise UnsupportedRamification("reduction values are tabulated for e in {1, 2}")
    counts = supersingular_counts(p)
    group = component_group(p, e)
    images = group.generator_images
    z = images["Zbar"]

    values: set[Fraction] = set()
    for gen, mult in _rho_candidates(counts.I, counts.R, counts.S_prime, e):
        val = _rho_value(gen, mult, e)
        if gen == "Zbar'":
            x = group.zero()
        elif gen == "Cbar":
            x = group.scale(mult, images["Cbar_s1"])
        else:
            x = group.scale(mult, images[gen])
        # Certify b*x = a*Zbar in the computed coordinates.
        a, b = val.numerator, val.denominator
        if group.scale(b, x) != group.scale(a, z):
            raise PostconditionFailed(
                f"candidate {mult}*{gen} does not satisfy {b}*x = {a}*Zbar "
                f"at (p, e) = ({p}, {e}); table cell disagrees with the group"
            )
        values.add(val)
    return RhoValueSet(p % 12, e, frozenset(values))


def _rho_values_light(p: int, e: int) -> set[Fraction]:
    """Same value set as rho_value_set but without building the group;
    used by the two-torsion sweep (the relations force every value)."""
    counts = supersingular_counts(p)
    return {
        _rho_value(gen, mult, e)
        for gen, mult in _rho_candidates(counts.I, counts.R, counts.S_prime, e)
    }


def two_torsion_obstruction(p: int) -> bool:
    """Can g(P) reduce onto the unique 2-torsion point of the cuspidal
    subgroup?  True iff n is even and some tabulated value a/b is
    compatible with x = (n/2)*Zbar, i.e. a = b*n/2 mod n.  Over p < 10^4
    this holds exactly for p in {17, 41}."""
    _check_prime(p)
    n = eisenstein_n(p)
    if n % 2 != 0:
        return False
    half = n // 2
    for e in (1, 2):
        for val in _rho_values_light(p, e):
            if (val.numerator - val.denominator * half) % n == 0:
                return True
    return False
