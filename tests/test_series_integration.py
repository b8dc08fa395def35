"""End-to-end check of the series engine against brute-force evaluation.

Everything here recomputes the Kloosterman/Bessel series with
kloosterman_direct (unit-by-unit enumeration) and plain Python loops,
then compares against the optimized kernels used by series_SA/series_SB
and the A/B accumulators.
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
def test_series_sa_matches_brute_force(m, D, N, c):
    chi = q.make_character(D)
    got = q.series_SA(m, chi, N, c, 300).value
    assert got == pytest.approx(brute_sa(m, chi, N, c, 300), abs=1e-10 * math.sqrt(c))


@pytest.mark.parametrize("m,D,N,d", [
    (1, 3, 49, 1), (1, 3, 49, 2), (1, 3, 49, 12), (7, 3, 7, 10),
    (1, 4, 49, 9), (11, 4, 11, 7),
])
def test_series_sb_matches_brute_force(m, D, N, d):
    chi = q.make_character(D)
    got = q.series_SB(m, chi, N, d, 300).value
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


@pytest.mark.parametrize("D,m,N", [(3, 1, 7), (3, 7, 7), (4, 1, 13), (15, 13, 13)])
def test_genus_zero_levels_pair_to_zero(D, m, N):
    # X0(7) and X0(13) have genus 0, so the cusp-form space at those levels
    # is trivial and every pairing against it vanishes identically.  The
    # truncated series must cancel the leading term 4 pi chi(m) e^(-mx)
    # (between 1.1 and 5.7 on these inputs) down to noise; this pins every
    # sign and twist in the assembly at once.
    chi = q.make_character(D)
    res = q.pairing_numeric(m, N, chi, t_max=160, d_max=600)
    assert abs(res.value) < 0.2
    if m == 1:
        # the leading term alone is 1.1..5.7 here; the series must eat it
        lead = 4 * math.pi * math.exp(-2 * math.pi / (D * math.sqrt(N)))
        assert abs(res.value) < 0.05 * lead
    assert abs(res.value) <= res.error_bound
