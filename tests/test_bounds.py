"""Explicit inequalities: Weil cases, trig sums, twisted sums, tails."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as q
from qcbounds import bounds, verify
from qcbounds.bounds import (
    ABEL_C,
    WEIL_BOTH,
    WEIL_COPRIME,
    WEIL_GENERIC,
    WEIL_ONE,
    twisted_dft_all,
)
from qcbounds.errors import DomainError, InvalidHint


tau = functools.cache(q.divisor_count)


class TestWeilBound:
    def test_spec_examples(self):
        w = q.weil_bound(1, 1, 5)
        assert w.tag == WEIL_GENERIC and w.bound_value == pytest.approx(2 * math.sqrt(5))
        assert type(w.tag) is str and type(w.bound_value) is float
        w = q.weil_bound(1, 1, 25, 5)
        assert w.tag == WEIL_COPRIME and w.bound_value == pytest.approx(10.0)
        w = q.weil_bound(5, 1, 5, 5)
        assert w.tag == WEIL_ONE and w.bound_value == pytest.approx(1.0)
        assert type(w.tag) is str and type(w.bound_value) is float
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
        # one array call per (c, hint); every element's tag and bound exactly
        mn = np.arange(13)
        for c in range(1, 401):
            hints = [None] + [p for p in range(3, c + 1, 2) if c % p == 0 and q.is_prime(p)]
            for p in hints:
                w = q.weil_bound(mn[:, None], mn, c, p)
                assert w.tag.shape == w.bound_value.shape == (13, 13)
                for m in range(13):
                    for n in range(13):
                        expect = self.weil_bound_oracle(m, n, c, p)
                        assert (w.tag[m, n], w.bound_value[m, n]) == expect, (m, n, c, p)

    def test_reduces_mod_c_before_int64(self):
        # 10**19 overflows int64; gcd(m, n, c) and p | m only see m mod c
        w = q.weil_bound(10**19, 5, 25, 5)
        assert (w.tag, w.bound_value) == (WEIL_BOTH, 22.360679774997898)
        assert type(w.tag) is str and type(w.bound_value) is float

    def test_composite_hint_rejected(self):
        with pytest.raises(InvalidHint):
            q.weil_bound(1, 1, 45, 9)
        with pytest.raises(InvalidHint):
            q.weil_bound(1, 1, 75, 15)

    def test_suite_compares_fast_with_its_table(self, monkeypatch):
        # a wrong fast evaluator is caught against the suite's own table,
        # once per (m, n, c), and is the only failure
        monkeypatch.setattr(verify, "kloosterman_fast", lambda m, n, c: 1e3)
        res = verify.weil_suite(max_c=4)
        assert res.failures == [
            f"fast != direct at ({m},{n},{c})"
            for c in range(1, 5) for m in range(1, 13) for n in range(1, 13)
        ]
        assert res.checks == 4 * (2 * 144 + 2) + len(q.fundamental_discriminants(3, 500))

    def test_suite_checks_the_library_realness(self, monkeypatch):
        # an imaginary part in the library's complex sum is caught once per modulus
        exact = verify.kloosterman_direct_complex
        monkeypatch.setattr(
            verify, "kloosterman_direct_complex", lambda m, n, c: exact(m, n, c) + 1j
        )
        res = verify.weil_suite(max_c=4)
        assert res.failures == [f"c={c}: imaginary part 1.00e+00" for c in range(1, 5)]

    def test_suite_checks_periodicity_against_the_fft_row(self, monkeypatch):
        # a wrong FFT row is caught at every (m, n) of each modulus c <= 12,
        # and the check count does not depend on it
        row = verify.kloosterman_row
        monkeypatch.setattr(verify, "kloosterman_row", lambda m, c: row(m, c) + 0.5)
        res = verify.weil_suite(max_c=14)
        assert res.failures == [
            f"periodicity fails at ({m},{n},{c})"
            for c in range(1, 13) for m in range(1, 13) for n in range(1, 13)
        ]
        assert res.checks == 14 * (2 * 144 + 2) + len(q.fundamental_discriminants(3, 500))

    def test_suite_message_order(self, monkeypatch):
        # fast, generic, refined and periodicity checks all fail, some at the
        # same (m, n, c): the messages come per (c, m, n) in that check order
        fast, row, weil = verify.kloosterman_fast, verify.kloosterman_row, bounds.weil_bound

        def bad_fast(m, n, c):
            return fast(m, n, c) + np.where((m + n) % 2 == 0, 0.5, 0.0)

        def bad_row(m, c):
            return row(m, c) + np.where((np.arange(c) + m) % 3 == 0, 0.25, 0.0)

        def small_weil(m, n, c, p=None):
            w = weil(m, n, c, p)
            return bounds.WeilCase(w.tag, 0.25 * w.bound_value)

        monkeypatch.setattr(verify, "kloosterman_fast", bad_fast)
        monkeypatch.setattr(verify, "kloosterman_row", bad_row)
        monkeypatch.setattr(bounds, "weil_bound", small_weil)
        expect = []
        for c in range(1, 16):
            hints = [p for p in (3, 5, 7, 11, 13) if c % p == 0 and c % p**4 != 0]
            for m in range(1, 13):
                for n in range(1, 13):
                    real = verify.kloosterman_direct_complex(m, n, c).real
                    if abs(bad_fast(m, n, c) - real) > 1e-9:
                        expect.append(f"fast != direct at ({m},{n},{c})")
                    if abs(real) > small_weil(m, n, c).bound_value + 1e-6:
                        expect.append(f"generic Weil fails at ({m},{n},{c})")
                    for p in hints:
                        if abs(real) > small_weil(m, n, c, p).bound_value + 1e-6:
                            expect.append(f"refined Weil fails at ({m},{n},{c}) hint {p}")
                    if c <= 12 and abs(bad_row(m, c)[n % c] - real) > 1e-9:
                        expect.append(f"periodicity fails at ({m},{n},{c})")
        assert verify.weil_suite(max_c=15).failures == expect
        kinds = {}
        for msg in expect:
            kind, at = msg.split(" at ")
            kinds.setdefault(at.split(" hint")[0], set()).add(kind.split()[0])
        assert {"fast", "generic", "refined", "periodicity"} in kinds.values()


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
        res = verify.trig_suite()
        assert res.failures == ["F=1"] + [
            f"trig bound fails at F={F} by 1.00e+00" for F in range(2, 301)
        ]

    def test_against_mpmath(self):
        # every sine is a reduced table entry, so the float sum stays within
        # a few ulps of the 30-digit value (the unreduced angle pi*K*g/F did not)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(18)
        # K = F - 1 and K = F (exactly 0) are where pi*K*g/F ran largest
        cases = [(1, 2), (7, 1), (150, 300), (239, 240), (292, 293), (293, 293), (600, 300)]
        cases += [(int(K), int(F))
                  for F in rng.integers(2, 301, 40) for K in rng.integers(0, F + 1, 2)]
        with mpmath.workdps(30):
            for K, F in cases:
                exact = mpmath.fsum(abs(mpmath.sinpi(mpmath.mpf(K * g) / F))
                                    / mpmath.sinpi(mpmath.mpf(g) / F) for g in range(1, F))
                got = q.trig_sum_direct(K, F)
                assert got == pytest.approx(float(exact), rel=1e-13, abs=0), (K, F)
                assert q.trig_sum_direct(np.array([K]), F)[0] == got

    def test_integer_k_only(self):
        # K picks a table entry: a fractional K has none, and is refused
        # rather than truncated; an integer of any size reduces mod F first
        for K in (2.5, 3.0, np.array([1.0, 2.0]), np.array([True]), "3", None):
            with pytest.raises(DomainError):
                q.trig_sum_direct(K, 7)
        assert q.trig_sum_direct(10**30 + 3, 7) == q.trig_sum_direct(10**30 % 7 + 3, 7)
        assert q.trig_sum_direct(np.uint8(3), 7) == q.trig_sum_direct(np.int64(-4), 7)

    def test_inequality_small_grid(self):
        for F in range(1, 80):
            bound = q.trig_sum_bound(F)
            for K in range(0, F + 1):
                assert q.trig_sum_direct(K, F) <= bound + 1e-9


def direct_dft(m, c, chi, alpha):
    """sum_{n=0}^{F-1} chi(n) S(m,n;c) e^(2 pi i n alpha / F), F = lcm(c, D),
    term by term from kloosterman_direct."""
    F = math.lcm(c, chi.D)
    return sum(
        chi(n) * q.kloosterman_direct(m, n, c) * cmath.exp(2j * math.pi * n * alpha / F)
        for n in range(F)
    )


class TestTwistedSums:
    def test_dft_examples(self):
        chi3 = q.make_character(3)
        vals = twisted_dft_all(1, 1, chi3)
        assert abs(vals[1]) == pytest.approx(math.sqrt(3), abs=1e-9)
        assert abs(vals[0]) < 1e-12
        chi4 = q.make_character(4)
        assert abs(twisted_dft_all(1, 6, chi4)[5]) <= 6 * 2 + 1e-6

    def test_dft_all_matches_single(self):
        chi = q.make_character(7)
        c = 10
        F = math.lcm(c, 7)
        vals = twisted_dft_all(3, c, chi)
        assert vals.shape == (F,)
        for alpha in range(F):
            assert vals[alpha] == pytest.approx(direct_dft(3, c, chi, alpha), abs=1e-8)

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


# The numeric-certify primes: the first admissible prime above 50 D^(1/4) log D.
CERTIFY_PAIRS = ((15, 269), (19, 311), (20, 317), (23, 347), (24, 353), (31, 409))


def _weil_tail(D, m, d_max):
    return D * math.sqrt(m) * q.tail_bounds(d_max + 1).tau_tail


def hybrid_d_tail_per_d_max(D, m, N, d_max):
    """bounds.hybrid_d_tail as it was when it searched the minimiser of
    the smooth part from each d_max."""
    k = bounds._abel_scale(D, m, N)
    weil_scale = D * math.sqrt(m)
    log0 = math.log(D * d_max) + 1.5

    def split(d1):
        log1 = math.log(D * d1) + 1.5
        weil = weil_scale * q.tail_bounds(d1 + 1).tau_tail
        if d_max < D <= d1:
            weil += tau(D) * math.sqrt(m) / math.sqrt(D)
        return bounds.DTail(k * (log1 * log1 - log0 * log0) / 2.0, weil, d1)

    def smooth(d1):
        log1 = math.log(D * d1) + 1.5
        return k * log1 * log1 / 2.0 + weil_scale * q.tail_bounds(d1 + 1).tau_tail

    best = bounds._first_rise(smooth, d_max)
    candidates = [d_max, best]
    if d_max < D:
        candidates = [d_max, min(best, D - 1), max(best, D)]
    return min((split(d1) for d1 in candidates), key=lambda t: t.total)


class TestHybridDTail:
    """The Abel/Weil d-tail of B and the two facts it rests on."""

    def test_partial_sums_below_bound_at_the_SB_argument(self):
        # chi(n) S(a, n; d) at a = m Nbar mod d, the sequence S_B(d) sums
        rng = np.random.default_rng(2012)
        for D, p in CERTIFY_PAIRS:
            chi = q.make_character(D)
            sampled = rng.choice(np.arange(61, 2001), size=6, replace=False).tolist()
            for m, N in ((1, p * p), (1, p), (p, p)):
                for d in list(range(1, 61)) + sampled + [2000]:
                    if d == D or math.gcd(d, N) != 1:
                        continue
                    a = m * pow(N, -1, d) % d
                    sup = q.twisted_partial_sup(a, d, chi)
                    assert sup <= q.twisted_partial_bound(d, D), (D, p, m, d)

    def test_abel_constant_against_mpmath(self):
        # V = int_0^inf |J2(y)|/y dy, the total variation of J1(y)/y.  J2 keeps
        # its sign between consecutive zeros and (J1(y)/y)' = -J2(y)/y, so each
        # lobe integrates to |J1(a)/a - J1(b)/b|.  Past the last zero y0,
        # |J2(y)| <= sqrt(J2^2 + Y2^2)(y) <= sqrt(y0 M0^2 / y), M0^2 the value
        # at y0, because y (J2^2 + Y2^2) decreases (order > 1/2); integrating
        # that majorant against 1/y leaves at most 2 M0.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            zeros = [mpmath.mpf(0)] + [mpmath.besseljzero(2, k) for k in range(1, 201)]

            def f(y):
                return mpmath.besselj(1, y) / y if y else mpmath.mpf(1) / 2

            lobes = [abs(f(a) - f(b)) for a, b in zip(zeros, zeros[1:])]
            for a, b, lobe in list(zip(zeros, zeros[1:], lobes))[:3]:
                quad = mpmath.quad(lambda y: abs(mpmath.besselj(2, y)) / y, [a, b])
                assert abs(quad - lobe) < 1e-15
            y0 = zeros[-1]

            def modulus_sq(y):
                return mpmath.besselj(2, y) ** 2 + mpmath.bessely(2, y) ** 2

            ys = [y0 * (1 + k / 4) for k in range(9)]
            decay = [y * modulus_sq(y) for y in ys]
            assert decay == sorted(decay, reverse=True)
            remainder = 2 * mpmath.sqrt(modulus_sq(y0))
            v_upper = mpmath.fsum(lobes) + remainder
        assert 0.974 < mpmath.fsum(lobes) < 0.975 and remainder < 0.064
        assert 0.5 + v_upper <= ABEL_C

    @pytest.mark.parametrize("D, p", [(15, 271), (31, 431), (3, 73)])
    def test_never_above_weil(self, D, p):
        for m, N in ((1, p * p), (1, p), (p, p)):
            for d_max in range(1, 801):
                tail = q.hybrid_d_tail(D, m, N, d_max)
                assert tail.total <= _weil_tail(D, m, d_max), (m, N, d_max)
                assert tail.d1 >= d_max and tail.abel >= 0.0

    @pytest.mark.parametrize("D, p, d_max", [
        (15, 271, 27), (15, 271, 1), (31, 431, 1), (31, 431, 40), (3, 73, 300), (15, 7, 5),
    ])
    def test_split_and_minimum(self, D, p, d_max):
        # the parts are the formulas at d1, and no d1 up to 4x beyond does better
        N = p * p
        tail = q.hybrid_d_tail(D, 1, N, d_max)
        k = 16 * ABEL_C * math.sqrt(D) / (math.pi * p)

        def total(d1):
            log0, log1 = math.log(D * d_max) + 1.5, math.log(D * d1) + 1.5
            t = k * (log1**2 - log0**2) / 2 + _weil_tail(D, 1, d1)
            return t + (d_max < D <= d1) * tau(D) / math.sqrt(D)

        assert tail.total == pytest.approx(total(tail.d1), rel=1e-12)
        assert tail.abel == pytest.approx(k * ((math.log(D * tail.d1) + 1.5) ** 2
                                               - (math.log(D * d_max) + 1.5) ** 2) / 2,
                                          rel=1e-12, abs=1e-15)
        # every d1 near the minimum, and a grid of 2000 up to 4 d1
        step = max(1, tail.d1 // 500)
        grid = list(range(max(d_max, tail.d1 - 50), tail.d1 + 51))
        grid += list(range(d_max, 4 * tail.d1 + 2, step))
        assert tail.total <= min(map(total, grid)) * (1 + 1e-12)

    def test_d_equals_D_keeps_its_weil_term(self):
        # (31, 431) at d_max = 1: d1 lies beyond D = 31, so its Weil term is in
        tail = q.hybrid_d_tail(31, 1, 431**2, 1)
        assert tail.d1 > 31
        rest = _weil_tail(31, 1, tail.d1)
        assert tail.weil == pytest.approx(rest + tau(31) / math.sqrt(31), rel=1e-12)

    def test_cap_is_the_smallest(self):
        for D, p in ((15, 271), (31, 431), (19, 311), (3, 73)):
            for m, N in ((1, p * p), (1, p), (p, p)):
                cap = q.hybrid_d_cap(D, m, N, 800)
                target = _weil_tail(D, m, 800)
                assert q.hybrid_d_tail(D, m, N, cap).total <= target
                if cap > 1:
                    assert q.hybrid_d_tail(D, m, N, cap - 1).total > target
        assert q.hybrid_d_cap(15, 1, 271**2, 800) == 27
        assert q.hybrid_d_cap(31, 1, 431**2, 800) == 1
        # at N = p the Abel bound's 1/sqrt(N) gains too little: the cap stays
        assert q.hybrid_d_cap(15, 1, 271, 800) == 800
        assert q.hybrid_d_cap(15, 271, 271, 800) == 800

    @pytest.mark.parametrize("D", [3, 8, 15, 31, 403])
    def test_one_search_serves_every_d_max(self, D):
        # the minimiser of the smooth part, searched once per shape, gives
        # the tail a search from each d_max gave, also where the d = D term
        # falls inside the Abel range (d_max < D <= d1), as at D = 403
        p = q.threshold_prime(D)
        d_maxes = [*range(1, 100), *range(100, 1601, 37), D - 1, D, D + 1]
        splits = 0
        for m, N in ((1, p * p), (1, p), (p, p)):
            for d_max in d_maxes:
                tail = q.hybrid_d_tail(D, m, N, d_max)
                assert tail == hybrid_d_tail_per_d_max(D, m, N, d_max), (m, N, d_max)
                splits += d_max < D <= tail.d1
        assert splits > 0

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_ladder_is_its_caps_one_at_a_time(self, data):
        # the ladder form computes each d1's log and Weil part once for all
        # its caps; every tail must be that cap's own, by repr, and the one
        # a search from each d_max gave.  Caps fall on both sides of D, so
        # some put the d = D term in their Abel range and some do not.
        D = data.draw(st.sampled_from(q.fundamental_discriminants(3, 403)), label="D")
        p = q.threshold_prime(D)
        below = data.draw(st.lists(st.integers(1, D - 1), min_size=1, max_size=6))
        above = data.draw(st.lists(st.integers(D, 1600), min_size=1, max_size=30))
        caps = data.draw(st.permutations(below + above), label="caps")
        for m, N in ((1, p * p), (1, p), (p, p)):
            ladder = q.hybrid_d_tail(D, m, N, caps)
            assert repr(ladder) == repr([q.hybrid_d_tail(D, m, N, d) for d in caps])
            assert ladder == [hybrid_d_tail_per_d_max(D, m, N, d) for d in caps]

    def test_rejects_d_max_below_one(self):
        with pytest.raises(ValueError, match="d_max"):
            q.hybrid_d_tail(15, 1, 271**2, 0)
        with pytest.raises(ValueError, match="d_max"):
            q.hybrid_d_tail(15, 1, 271**2, [5, 0, 7])
