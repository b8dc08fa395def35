"""Explicit inequalities: Weil cases, trig sums, twisted sums, tails."""

import functools
import math

import numpy as np
import pytest

import qcbounds as q
from qcbounds import verify
from qcbounds.bounds import (
    WEIL_BOTH,
    WEIL_COPRIME,
    WEIL_GENERIC,
    WEIL_ONE,
    twisted_dft_all,
)
from qcbounds.errors import InvalidHint


tau = functools.cache(q.divisor_count)


class TestWeilBound:
    def test_spec_examples(self):
        w = q.weil_bound(1, 1, 5)
        assert w.tag == WEIL_GENERIC and w.bound_value == pytest.approx(2 * math.sqrt(5))
        w = q.weil_bound(1, 1, 25, 5)
        assert w.tag == WEIL_COPRIME and w.bound_value == pytest.approx(10.0)
        w = q.weil_bound(5, 1, 5, 5)
        assert w.tag == WEIL_ONE and w.bound_value == pytest.approx(1.0)
        # |S(5,1;5)| is a Ramanujan sum of modulus 1
        assert abs(q.kloosterman_direct(5, 1, 5)) == pytest.approx(1.0, abs=1e-9)

    def test_both_case(self):
        w = q.weil_bound(3, 6, 9, 3)
        assert w.tag == WEIL_BOTH
        assert w.bound_value == pytest.approx(q.divisor_count(3) * math.sqrt(3) * 3)

    def test_invalid_hint(self):
        with pytest.raises(InvalidHint):
            q.weil_bound(1, 1, 10, 3)  # 3 does not divide 10
        with pytest.raises(InvalidHint):
            q.weil_bound(1, 1, 8, 2)  # hint must be odd

    def test_grid_small(self):
        for c in range(1, 60):
            for m in range(1, 6):
                for n in range(1, 6):
                    v = abs(q.kloosterman_direct(m, n, c))
                    assert v <= q.weil_bound(m, n, c).bound_value + 1e-6
                    for p in (3, 5, 7):
                        if c % p == 0:
                            assert v <= q.weil_bound(m, n, c, p).bound_value + 1e-6

    @staticmethod
    def weil_bound_oracle(m, n, c, p=None):
        """The bound with tau of every modulus counted by factorizing it."""
        g = math.sqrt(math.gcd(m, math.gcd(n, c)))
        generic = g * tau(c) * math.sqrt(c)
        if p is None:
            return WEIL_GENERIC, generic
        cp = c
        while cp % p == 0:
            cp //= p
        if m % p and n % p:
            tag, refined = WEIL_COPRIME, 2.0 * tau(cp) * g * math.sqrt(c)
        elif m % p == 0 and n % p == 0:
            tag, refined = WEIL_BOTH, tau(c // p) * g * math.sqrt(c)
        else:
            tag, refined = WEIL_ONE, tau(cp) * g * math.sqrt(cp)
        return (tag, refined) if refined <= generic else (WEIL_GENERIC, generic)

    def test_matches_factorizing_oracle(self):
        for c in range(1, 401):
            hints = [None] + [p for p in range(3, c + 1, 2) if c % p == 0 and q.is_prime(p)]
            for m in range(13):
                for n in range(13):
                    for p in hints:
                        w = q.weil_bound(m, n, c, p)
                        assert (w.tag, w.bound_value) == self.weil_bound_oracle(m, n, c, p)

    def test_composite_hint_rejected(self):
        with pytest.raises(InvalidHint):
            q.weil_bound(1, 1, 45, 9)
        with pytest.raises(InvalidHint):
            q.weil_bound(1, 1, 75, 15)

    def test_suite_compares_fast_with_its_table(self, monkeypatch):
        # a wrong fast evaluator is caught against the suite's own table,
        # once per (m, n, c), and is the only failure
        monkeypatch.setattr(verify, "kloosterman_fast", lambda m, n, c: 1e3)
        res = verify.weil_suite(max_c=4, max_mn=2)
        assert res.failures == [
            f"fast != direct at ({m},{n},{c})"
            for c in range(1, 5) for m in (1, 2) for n in (1, 2)
        ]
        assert res.checks == 4 * (2 * 4 + 2) + len(q.fundamental_discriminants(3, 500))

    def test_suite_checks_the_library_realness(self, monkeypatch):
        # an imaginary part in the library's complex sum is caught once per modulus
        exact = verify.kloosterman_direct_complex
        monkeypatch.setattr(
            verify, "kloosterman_direct_complex", lambda m, n, c: exact(m, n, c) + 1j
        )
        res = verify.weil_suite(max_c=4, max_mn=2)
        assert res.failures == [f"c={c}: imaginary part 1.00e+00" for c in range(1, 5)]


class TestTrigSum:
    def test_examples(self):
        assert q.trig_sum_direct(1, 10) == pytest.approx(9.0, abs=1e-9)
        assert q.trig_sum_direct(10, 10) == pytest.approx(0.0, abs=1e-9)
        # 6-term direct evaluation, frozen from a scalar-math rerun
        expect = sum(
            abs(math.sin(math.pi * g * 3 / 7)) / math.sin(math.pi * g / 7)
            for g in range(1, 7)
        )
        assert q.trig_sum_direct(3, 7) == pytest.approx(expect, abs=1e-12)

    def test_bound_values(self):
        assert q.trig_sum_bound(10) == pytest.approx(15.411297, abs=1e-5)
        assert q.trig_sum_bound(1) == pytest.approx(0.607927, abs=1e-5)
        assert q.trig_sum_bound(300) == pytest.approx(875.87492, abs=1e-4)

    def test_suite_checks_the_library(self, monkeypatch):
        monkeypatch.setattr(
            verify.bounds, "trig_sum_direct",
            lambda K, F: np.full(np.shape(K), q.trig_sum_bound(F) + 1.0),
        )
        res = verify.trig_suite(max_f=20)
        assert res.failures == ["F=1"] + [
            f"trig bound fails at F={F} by 1.00e+00" for F in range(2, 21)
        ]

    def test_inequality_small_grid(self):
        for F in range(1, 80):
            bound = q.trig_sum_bound(F)
            for K in range(0, F + 1):
                assert q.trig_sum_direct(K, F) <= bound + 1e-9


class TestTwistedSums:
    def test_dft_examples(self):
        chi3 = q.make_character(3)
        assert abs(q.twisted_dft(1, 1, chi3, 1)) == pytest.approx(math.sqrt(3), abs=1e-9)
        assert abs(q.twisted_dft(1, 1, chi3, 0)) < 1e-12
        chi4 = q.make_character(4)
        assert abs(q.twisted_dft(1, 6, chi4, 5)) <= 6 * 2 + 1e-6

    def test_dft_all_matches_single(self):
        chi = q.make_character(7)
        c = 10
        F = math.lcm(c, 7)
        vals = twisted_dft_all(3, c, chi)
        for alpha in range(F):
            assert vals[alpha] == pytest.approx(q.twisted_dft(3, c, chi, alpha), abs=1e-8)

    def test_partial_sup_examples(self):
        chi3 = q.make_character(3)
        assert q.twisted_partial_sup(1, 1, chi3) == pytest.approx(1.0, abs=1e-9)

    def test_partial_sup_against_window_scan(self):
        # Independent O(F^2) scan over all windows inside two periods.
        for (m, c, D) in [(1, 2, 3), (1, 5, 4), (2, 6, 7), (3, 4, 15), (1, 3, 3)]:
            chi = q.make_character(D)
            F = math.lcm(c, D)
            seq = [chi(n) * q.kloosterman_direct(m, n, c) for n in range(2 * F)]
            sup = 0.0
            for a in range(2 * F):
                s = 0.0
                for b in range(a, 2 * F):
                    s += seq[b]
                    sup = max(sup, abs(s))
            assert q.twisted_partial_sup(m, c, chi) == pytest.approx(sup, abs=1e-8)

    def test_partial_bound_values(self):
        assert q.twisted_partial_bound(1, 3) == pytest.approx(1.8241576, abs=1e-6)
        assert q.twisted_partial_bound(2, 4) == pytest.approx(5.8027721, abs=1e-6)
        assert q.twisted_partial_bound(10, 3) == pytest.approx(34.405119, abs=1e-5)

    def test_bound_and_zero_structure_small(self):
        for D in (3, 4, 7):
            chi = q.make_character(D)
            for c in range(1, 16):
                F = math.lcm(c, D)
                quot = F // math.gcd(c, D)
                cb = c * math.sqrt(D)
                vals = np.abs(twisted_dft_all(2, c, chi))
                assert np.max(vals) <= cb + 1e-6
                for alpha in range(F):
                    if math.gcd(alpha, quot) != 1:
                        assert vals[alpha] <= 1e-8 * cb
                assert q.twisted_partial_sup(2, c, chi) <= q.twisted_partial_bound(c, D)


class TestTails:
    def test_values(self):
        tb = q.tail_bounds(1)
        assert tb.tau_tail == 7.0 and tb.harmonic == 1.0 and tb.log_over_n == 0.0
        assert q.tail_bounds(100).tau_tail == pytest.approx(1.6210340, abs=1e-6)

    def test_tau_tail_small_cutoff(self):
        # one-sided check with a modest cutoff; the acceptance run goes to 1e6
        cutoff = 100_000
        tau = np.zeros(cutoff + 1, dtype=np.int32)
        for d in range(1, cutoff + 1):
            tau[d::d] += 1
        terms = tau[1:] / np.arange(1, cutoff + 1, dtype=np.float64) ** 1.5
        suffix = np.cumsum(terms[::-1])[::-1]
        for lam in (1, 2, 5, 10, 100, 500, 1000):
            assert suffix[lam - 1] <= q.tail_bounds(lam).tau_tail
