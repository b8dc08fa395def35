"""Trace-formula series, closed-form bounds and nonvanishing certificates."""

import inspect
import math

import numpy as np
import pytest

import qcbounds as q
from qcbounds import bessel, trace
from qcbounds.errors import (
    DividesDiscriminant,
    LevelMismatch,
    NotPrime,
    UnsupportedCase,
)
from qcbounds.kernels import kloosterman_row

CHI3 = q.make_character(3)
CHI4 = q.make_character(4)
CHI15 = q.make_character(15)
CHI23 = q.make_character(23)


class TestSeriesSA:
    def test_weil_induced_bound_at_level(self):
        sv = q.series_SA(1, CHI3, 49, 49, 2000)
        assert abs(sv.value) <= 2 * 3 * 7 * 1 / math.sqrt(49)  # = 6
        assert sv.tail_bound < 1e-12 * abs(sv.value)

    def test_weil_induced_bound_double_level(self):
        sv = q.series_SA(1, CHI3, 49, 98, 2000)
        assert abs(sv.value) <= 2 * 3 * 7 * 2 / math.sqrt(98)

    def test_level_must_divide(self):
        with pytest.raises(LevelMismatch):
            q.series_SA(1, CHI3, 49, 50, 100)

    def test_tail_decreases(self):
        tails = [q.series_SA(1, CHI3, 49, 49, n).tail_bound for n in (10, 50, 200)]
        assert tails == sorted(tails, reverse=True)


class TestSeriesSB:
    def test_trivial_modulus(self):
        # d = 1: the Kloosterman factor is identically 1
        from qcbounds.bessel import bessel_j1

        sv = q.series_SB(1, CHI3, 49, 1, 500)
        n = np.arange(1, 501)
        x = 2 * math.pi / (3 * 7)
        expect = float(
            np.sum(
                CHI3.values(n)
                / np.sqrt(n)
                * bessel_j1(4 * math.pi * np.sqrt(n.astype(float)) / 7)
                * np.exp(-n * x)
            )
        )
        assert sv.value == pytest.approx(expect, rel=1e-12)

    def test_weil_induced_bound(self):
        sv = q.series_SB(1, CHI3, 49, 2, 2000)
        assert abs(sv.value) <= 3 * 2 / math.sqrt(2)

    def test_coprimality_enforced(self):
        with pytest.raises(LevelMismatch):
            q.series_SB(1, CHI3, 49, 7, 100)

    def test_tail_small(self):
        assert q.series_SB(1, CHI3, 49, 5, 2000).tail_bound < 1e-10

    @pytest.mark.parametrize("m,N,d,k", [
        (1, 49, 1, 300), (1, 49, 12, 300), (7, 7, 10, 95), (1, 9, 37, 37),
        (1, 121, 500, 300), (13, 13, 641, 640),
    ])
    def test_folded_sum_matches_per_term_gather(self, m, N, d, k):
        # d = 1, a partial last period, d = k and d above the cutoff k
        v = np.random.default_rng(d).standard_normal(k)
        n = np.arange(1, k + 1)
        terms = v * kloosterman_row(m * pow(N, -1, d) % d, d)[n % d]
        got = trace._sb_sum(m, N, d, v)
        assert abs(got - terms.sum()) <= 1e-13 * np.abs(terms).sum()


class TestWeightedJ1:
    @pytest.mark.parametrize("k,xmax", [
        (1, 3.0), (3000, 0.01), (3000, 1.0), (50000, 5.0), (1200, 11.99),
        (1200, 12.5), (700, 40.0),
    ])
    def test_matches_weight_times_bessel_j1(self, k, xmax):
        # bessel_j1's series below the crossover, its Hankel branch from 12 on
        x = 2 * math.pi / (23 * math.sqrt(349))
        beta = xmax / math.sqrt(k)
        got = trace._weighted_j1(trace._n_grid(CHI23, x, k), beta, k)
        n = np.arange(1, k + 1)
        w = CHI23.values(n) / np.sqrt(n) * np.exp(-n * x)
        terms = w * q.bessel_j1(beta * np.sqrt(n.astype(float)))
        assert np.abs(got - terms).sum() <= 1e-15 * np.abs(terms).sum()

    def test_one_bessel_j1_call_per_modulus(self, monkeypatch):
        # bench/tracer.py counts a series' terms by its bessel_j1 calls
        calls = []
        j1 = bessel.bessel_j1
        monkeypatch.setattr(bessel, "bessel_j1", lambda x: calls.append(x.size) or j1(x))
        q.A_numeric(1, CHI3, 49, t_max=5)
        assert len(calls) == 5
        calls.clear()
        q.B_numeric(1, CHI3, 49, d_max=10)
        assert len(calls) == 9  # d = 1..10 without 7


class TestNumericSeries:
    def test_A_within_closed_bound(self):
        a = q.A_numeric(1, CHI3, 49)
        assert abs(a.value) <= q.A_bound(1, CHI3, 49) + a.error_bound
        assert abs(a.value) <= 14 * 3 / 49 + a.error_bound

    def test_A_level_7(self):
        a = q.A_numeric(1, CHI3, 7)
        assert abs(a.value) <= 14 * 3 / 7 + a.error_bound

    def test_B_within_closed_bound(self):
        b = q.B_numeric(1, CHI3, 49, d_max=300)
        assert abs(b.value) <= 7 * 3 + b.error_bound
        b2 = q.B_numeric(7, CHI3, 7, d_max=300)
        assert abs(b2.value) <= 7 * 3 * math.sqrt(7) + b2.error_bound

    def test_self_consistency_under_cutoff_doubling(self):
        a1 = q.A_numeric(1, CHI3, 49, t_max=40)
        a2 = q.A_numeric(1, CHI3, 49, t_max=80)
        assert abs(a2.value - a1.value) <= a1.error_bound

    def test_error_shrinks_with_t_max(self):
        # more moduli push the c-tail out and shrink the reported truncation error
        short = q.A_numeric(1, CHI3, 49, t_max=1)
        long = q.A_numeric(1, CHI3, 49, t_max=64)
        assert long.error_bound < short.error_bound

    def test_caps_are_keyword_only(self):
        # bench/tracer.py binds the caps by name; keyword-only keeps a stray
        # positional argument from becoming a cap
        for fn, cap in ((q.A_numeric, "t_max"), (q.B_numeric, "d_max")):
            param = inspect.signature(fn).parameters[cap]
            assert param.kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            q.A_numeric(1, CHI3, 49, 1e-6)

    def test_caps_below_one_rejected(self):
        with pytest.raises(ValueError, match="t_max"):
            q.A_numeric(1, CHI3, 49, t_max=0)
        with pytest.raises(ValueError, match="d_max"):
            q.B_numeric(1, CHI3, 49, d_max=0)

    def test_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            q.A_numeric(2, CHI3, 49)
        with pytest.raises(UnsupportedCase):
            q.A_numeric(1, CHI3, 10)


class TestClosedFormBounds:
    def test_A_bound_weil_branch(self):
        assert q.A_bound(1, CHI3, 49) == pytest.approx(6 / 7)
        ld, ln = math.log(3), math.log(49)
        abel = math.sqrt(3) / 49 * (9 * ld * ld + 6 * ld * ln)
        assert abel == pytest.approx(1.29068, abs=1e-4)  # losing branch

    def test_B_bound_weil_branch(self):
        assert q.B_bound(1, CHI3, 49) == pytest.approx(21.0)

    def test_A_bound_abel_branch_large_D(self):
        # The Abel branch wins once D is large (the paper: only improves
        # the Weil bound when D is large enough, ~1e3 and beyond).
        Dbig = 100003  # = 3 mod 4, squarefree
        chi = q.make_character(Dbig)
        p = 101
        weil = 14 * Dbig / p**2
        assert q.A_bound(1, chi, p * p) < weil

    def test_rejects_divisible_conductor(self):
        with pytest.raises(DividesDiscriminant):
            q.A_bound(1, CHI3, 9)  # N = 3^2 shares a factor with D = 3


class TestPairing:
    def test_triangle_inequality_envelope(self):
        for (m, N) in [(1, 49), (1, 7), (7, 7)]:
            res = q.pairing_numeric(m, N, CHI3, t_max=64, d_max=200)
            x = 2 * math.pi / (3 * math.sqrt(N))
            lead = 4 * math.pi * CHI3(m) * math.exp(-m * x)
            envelope = (
                8 * math.pi**2 * math.sqrt(m)
                * (q.A_bound(m, CHI3, N) + q.B_bound(m, CHI3, N) / math.sqrt(N))
            )
            assert abs(res.value - lead) <= envelope + res.error_bound

    def test_leading_term_positive(self):
        # 4 pi chi(1) e^(-x) > 0 always
        assert CHI3(1) == 1 and CHI4(1) == 1 and CHI15(1) == 1


class TestNewPlusPairing:
    def test_advisory_positive_73_3(self):
        res = q.new_plus_pairing(73, CHI3, t_max=72, d_max=300)
        assert res.value > 0

    def test_frozen_anchor_271_15(self):
        # Frozen from the engine that built one row per (m, c); rows read
        # from the per-modulus base row differ from those by rounding only.
        res = q.new_plus_pairing(271, CHI15, t_max=64, d_max=300)
        assert res.error_bound == 5.3286327878170345
        assert res.value == pytest.approx(12.519165051681355, rel=1e-12)

    def test_frozen_certificate_31_431(self):
        # The largest n-grid of the numeric-certify domain (D = 15..31 near
        # the threshold).  The error bound depends on cutoffs only.
        cert = q.certify_numeric(431, q.make_character(31))
        assert cert.components["error_bound"] == 4.544043085213125
        assert cert.components["value"] == 12.539310509256302
        assert cert.lower_bound == 0.6362431659390382

    def test_guards(self):
        with pytest.raises(NotPrime):
            q.new_plus_pairing(72, CHI3)
        with pytest.raises(DividesDiscriminant):
            q.new_plus_pairing(3, CHI3)
        with pytest.raises(DividesDiscriminant):
            q.new_plus_pairing(5, CHI15)


class TestCertificates:
    def test_positive_case(self):
        cert = q.certify_nonvanishing(271, CHI15)
        assert cert.verdict == "certified-positive"
        assert cert.lower_bound == pytest.approx(0.0798, abs=2e-4)
        assert cert.mode == "closed-form"
        assert set(cert.components) >= {
            "A(1,p^2)", "A(1,p)", "A(p,p)", "B(1,p^2)", "B(1,p)", "B(p,p)",
        }

    def test_indeterminate_small_D(self):
        cert = q.certify_nonvanishing(73, CHI3)
        assert cert.verdict == "indeterminate"
        assert cert.lower_bound == pytest.approx(-1.361, abs=2e-3)

    def test_guards(self):
        with pytest.raises(DividesDiscriminant):
            q.certify_nonvanishing(3, CHI3)
        with pytest.raises(NotPrime):
            q.certify_nonvanishing(100, CHI3)
        with pytest.raises(UnsupportedCase):
            q.certify_nonvanishing(5, CHI3)

    def test_small_D_gated_indeterminate(self):
        # below D = 15 the closed form is not claimed (the verdict is
        # gated even when the raw number sneaks above zero, as it does by
        # 8e-4 at D = 11, p = 223)
        for D, p in [(3, 73), (7, 163), (8, 179), (11, 223)]:
            cert = q.certify_nonvanishing(p, q.make_character(D))
            assert cert.verdict == "indeterminate"
            assert cert.diagnostic is not None

    def test_weil_mix_mode(self):
        # The sketched alternative mix certifies D = 7, 8, 11 just above
        # their thresholds.
        for D, p in [(7, 163), (8, 179), (11, 223)]:
            mixed = q.certify_weil_mix(p, q.make_character(D))
            assert mixed.verdict == "certified-positive"
            assert mixed.mode == "weil-mix"
        # ... but not D = 3 or 4 (delegated to external computations)
        assert q.certify_weil_mix(73, CHI3).verdict == "indeterminate"

    def test_certificate_soundness_against_numeric(self):
        cert = q.certify_nonvanishing(271, CHI15)
        res = q.new_plus_pairing(271, CHI15, t_max=96, d_max=300)
        assert abs(res.value) > 4 * math.pi * cert.lower_bound - res.error_bound

    def test_numeric_mode(self):
        cert = q.certify_numeric(73, CHI3, t_max=72, d_max=300)
        assert cert.mode == "numeric-advisory"
        assert cert.components["value"] > 0


class TestNonsplitThreshold:
    def test_values(self):
        assert q.nonsplit_threshold(3) == pytest.approx(72.2928, abs=1e-3)
        assert q.nonsplit_threshold(4) == pytest.approx(98.0259, abs=1e-3)
        assert q.nonsplit_threshold(15) == pytest.approx(266.471, abs=1e-2)
