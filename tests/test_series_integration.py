"""End-to-end check of the series engine against brute-force evaluation.

Everything here recomputes the Kloosterman/Bessel series with
kloosterman_direct (unit-by-unit enumeration) and plain Python loops,
then compares against the optimized per-modulus code the certificates
run (the conftest `series` fixture) and the A/B accumulators.
"""

import math

import pytest

import qcbounds as q
from qcbounds.bessel import bessel_j1


def brute_sa(m, chi, N, c, n_max):
    x = 2 * math.pi / (chi.D * math.sqrt(N))
    total = 0.0
    for n in range(1, n_max + 1):
        ch = chi(n)
        if ch == 0:
            continue
        total += (
            ch
            / math.sqrt(n)
            * q.kloosterman_direct(m, n, c)
            * bessel_j1(4 * math.pi * math.sqrt(m * n) / c)
            * math.exp(-n * x)
        )
    return total


def brute_sb(m, chi, N, d, n_max):
    x = 2 * math.pi / (chi.D * math.sqrt(N))
    K = 0 if d == 1 else m * pow(N, -1, d) % d
    total = 0.0
    for n in range(1, n_max + 1):
        ch = chi(n)
        if ch == 0:
            continue
        total += (
            ch
            / math.sqrt(n)
            * q.kloosterman_direct(n, K, d)
            * bessel_j1(4 * math.pi * math.sqrt(m * n) / (d * math.sqrt(N)))
            * math.exp(-n * x)
        )
    return total


CASES = [
    # (m, D, N, c): cases (1), (2), (3) with composite, p-divisible
    # and prime-power cofactors
    (1, 3, 49, 49), (1, 3, 49, 98), (1, 3, 49, 343), (1, 3, 49, 294),
    (1, 4, 7, 7), (1, 4, 7, 70), (1, 4, 7, 77),
    (7, 3, 7, 7), (7, 3, 7, 14), (7, 3, 7, 49), (7, 3, 7, 84),
    (11, 4, 11, 33), (1, 15, 121, 242),
]


@pytest.mark.parametrize("m,D,N,c", CASES)
def test_series_sa_matches_brute_force(series, m, D, N, c):
    chi = q.make_character(D)
    got, _ = series("A", m, chi, N, c, 300)
    assert got == pytest.approx(brute_sa(m, chi, N, c, 300), abs=1e-10 * math.sqrt(c))


@pytest.mark.parametrize("m,D,N,d", [
    (1, 3, 49, 1), (1, 3, 49, 2), (1, 3, 49, 12), (7, 3, 7, 10),
    (1, 4, 49, 9), (11, 4, 11, 7),
])
def test_series_sb_matches_brute_force(series, m, D, N, d):
    chi = q.make_character(D)
    got, _ = series("B", m, chi, N, d, 300)
    assert got == pytest.approx(brute_sb(m, chi, N, d, 300), abs=1e-10)


def test_A_numeric_matches_brute_partial():
    chi = q.make_character(3)
    res = q.A_numeric(1, chi, 49, t_max=8)
    brute = sum(brute_sa(1, chi, 49, 49 * t, 400) / (49 * t) for t in range(1, 9))
    # same truncation point in t; n-tails beyond 400 are < 1e-30 here
    assert res.value == pytest.approx(brute, abs=1e-10)


def test_B_numeric_matches_brute_partial():
    chi = q.make_character(3)
    res = q.B_numeric(1, chi, 49, d_max=10)
    brute = sum(
        brute_sb(1, chi, 49, d, 400) / d for d in range(1, 11) if math.gcd(d, 49) == 1
    )
    assert res.value == pytest.approx(brute, abs=1e-10)


def test_pairing_assembly():
    chi = q.make_character(3)
    m, N = 1, 49
    a = q.A_numeric(m, chi, N, t_max=16)
    b = q.B_numeric(m, chi, N, d_max=60)
    res = q.pairing_numeric(m, N, chi, t_max=16, d_max=60)
    x = 2 * math.pi / (3 * 7)
    eps = chi(N)
    expect = 4 * math.pi * chi(m) * math.exp(-m * x) - 8 * math.pi**2 * (
        a.value + eps / 7 * b.value
    )
    assert res.value == pytest.approx(expect, rel=1e-12)
    assert eps == chi(49) == 1


@pytest.mark.parametrize("D,m,N", [
    (3, 1, 7), (3, 7, 7), (4, 1, 13), (15, 13, 13), (3, 1, 5), (3, 5, 5), (3, 1, 25), (4, 1, 25),
])
def test_genus_zero_levels_pair_to_zero(D, m, N):
    # X0(5), X0(7), X0(13) and X0(25) have genus 0, so the cusp-form space
    # at those levels is trivial and every pairing against it vanishes
    # identically; N = 25 is the (1, p^2) shape.  The truncated series must
    # cancel the leading term 4 pi chi(m) e^(-mx) down to noise.  It cannot
    # see B's sign: B's part here is 0.007-0.049, so flipping it moves no
    # case past the tolerance (test_forced_zeros_at_genus_one_levels does).
    chi = q.make_character(D)
    res = q.pairing_numeric(m, N, chi, t_max=160, d_max=600)
    assert abs(res.value) < 0.2
    if m == 1:
        # the leading term alone is 4.9..9.2 here; the series must eat it
        lead = 4 * math.pi * math.exp(-2 * math.pi / (D * math.sqrt(N)))
        assert abs(res.value) < 0.05 * lead
    assert abs(res.value) <= res.error_bound


GENUS_ONE_ZEROS = [
    (N, D)
    for N in (11, 17, 19)
    for D in q.fundamental_discriminants(3, 35)
    if math.gcd(N, D) == 1 and q.make_character(D)(N) == 1
]


@pytest.mark.parametrize("N,D", GENUS_ONE_ZEROS)
def test_forced_zeros_at_genus_one_levels(N, D):
    # S_2(Gamma0(N)) at N = 11, 17, 19 is one curve (11a, 17a, 19a) of root
    # number +1; for gcd(N, D) = 1 its twist by chi_-D has root number
    # -chi_-D(N), so L(f x chi, 1) = 0 and the pairing vanishes where
    # chi_-D(N) = +1.  B's part, 8 pi^2 chi(N)/sqrt(N) B, is 5.0-47.0 here and
    # the residue at most 0.055, so a flipped B sign (9.9-93.9) fails.
    chi = q.make_character(D)
    res = q.pairing_numeric(1, N, chi, t_max=240, d_max=800)
    b_part = 8 * math.pi**2 * chi(N) / math.sqrt(N) * q.B_numeric(1, chi, N, d_max=800).value
    # with B's sign flipped the pairing would read res.value + 2 b_part
    assert abs(res.value) < 0.5 < abs(res.value + 2 * b_part)


def eta_product_11a(terms):
    """a_1..a_terms of 11a, the q-expansion of eta(z)^2 eta(11z)^2, with
    prod (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2) (Euler's pentagonal theorem)."""

    def euler(step):  # prod (1 - q^(step n)) up to q^(terms - 1)
        out = [0] * terms
        for k in range(-terms, terms + 1):
            e = step * k * (3 * k - 1) // 2
            if e < terms:
                out[e] += -1 if k % 2 else 1
        return out

    def times(f, g):
        out = [0] * terms
        for i, fi in enumerate(f):
            if fi:
                for j in range(terms - i):
                    out[i + j] += fi * g[j]
        return out

    p1, p11 = euler(1), euler(11)
    return times(times(p11, p11), times(p1, p1))  # a_n is entry n - 1


def test_pairing_at_level_11_is_proportional_to_the_twisted_l_value():
    # S_2(Gamma0(11)) is 11a alone, so the pairing is a_1(11a) = 1 times a
    # D-independent harmonic weight times L(11a x chi_-D, 1).  For
    # chi_-D(11) = -1 the twist has root number +1 and conductor 11 D^2, so
    # L = 2 sum a_n chi(n)/n e^(-2 pi n/(D sqrt 11)), from 11a's q-expansion
    # alone (terms past n = 480 are below 1e-17 at D <= 23).  The ratio is
    # 21.28-21.34 over these D, a spread of 0.3%; a dropped A, N-bar in B's
    # row or sqrt(N) in B's J1 scale, or a flipped B sign, spreads it by
    # a factor of 2 or more.
    a = eta_product_11a(1200)
    ratios = []
    for D in (3, 4, 15, 20, 23):
        chi = q.make_character(D)
        assert chi(11) == -1
        x = 2 * math.pi / (D * math.sqrt(11))
        L = 2 * sum(a[n - 1] * chi(n) / n * math.exp(-n * x) for n in range(1, 1201))
        ratios.append(q.pairing_numeric(1, 11, chi, t_max=240, d_max=1600).value / L)
    median = sorted(ratios)[2]
    assert all(abs(r / median - 1) < 0.01 for r in ratios), ratios
