"""Trace-formula series, closed-form bounds and nonvanishing certificates."""

import bisect
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcbounds as q
from qcbounds import bessel, trace
from qcbounds.errors import (
    DividesDiscriminant,
    NotPrime,
    UnsupportedCase,
)
from qcbounds.bounds import tail_bounds
from qcbounds.kernels import kloosterman_row, series_kloosterman

from conftest import n_cutoff, n_tail, sa_prefactor, sb_prefactor

CHI3 = q.make_character(3)
CHI4 = q.make_character(4)
CHI15 = q.make_character(15)
CHI23 = q.make_character(23)


class TestSeriesSA:
    def test_weil_induced_bound_at_level(self, series):
        value, tail = series("A", 1, CHI3, 49, 49, 2000)
        assert abs(value) <= 2 * 3 * 7 * 1 / math.sqrt(49)  # = 6
        assert tail < 1e-12 * abs(value)

    def test_weil_induced_bound_double_level(self, series):
        value, _ = series("A", 1, CHI3, 49, 98, 2000)
        assert abs(value) <= 2 * 3 * 7 * 2 / math.sqrt(98)

    def test_tail_decreases(self, series):
        tails = [series("A", 1, CHI3, 49, 49, n)[1] for n in (10, 50, 200)]
        assert tails == sorted(tails, reverse=True)


class TestSeriesSB:
    def test_trivial_modulus(self, series):
        # d = 1: the Kloosterman factor is identically 1
        from qcbounds.bessel import bessel_j1

        value, _ = series("B", 1, CHI3, 49, 1, 500)
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
        assert value == pytest.approx(expect, rel=1e-12)

    def test_weil_induced_bound(self, series):
        value, _ = series("B", 1, CHI3, 49, 2, 2000)
        assert abs(value) <= 3 * 2 / math.sqrt(2)

    def test_tail_small(self, series):
        assert series("B", 1, CHI3, 49, 5, 2000)[1] < 1e-10

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
        got = trace._weighted_j1(trace._n_grid(CHI23, x, k, coprime=False), beta, k)
        n = np.arange(1, k + 1)
        w = CHI23.values(n) / np.sqrt(n) * np.exp(-n * x)
        terms = w * q.bessel_j1(beta * np.sqrt(n.astype(float)))
        assert np.abs(got - terms).sum() <= 1e-15 * np.abs(terms).sum()

    def test_one_bessel_j1_call_per_modulus(self, monkeypatch):
        # bench/tracer.py counts a series' terms by its bessel_j1 calls
        calls = []
        j1 = bessel.bessel_j1
        monkeypatch.setattr(
            bessel, "bessel_j1", lambda x, out=None: calls.append(x.size) or j1(x, out=out)
        )
        q.A_numeric(1, CHI3, 49, t_max=5)
        assert len(calls) == 5
        calls.clear()
        q.B_numeric(1, CHI3, 49, d_max=10)
        assert len(calls) == 9  # d = 1..10 without 7

    def test_result_is_a_view_of_the_grid_buffer(self):
        # each modulus writes its J1 values into the grid, not a fresh array
        grid = trace._n_grid(CHI23, 0.01, 3000, coprime=False)
        for beta in (0.05, 1.0):  # all-series, then series and Hankel
            v = trace._weighted_j1(grid, beta, 2500)
            assert np.shares_memory(v, grid.j1)


def full_grid_A(m, chi, N, t_max):
    """A(m, chi, N) term by term over every n <= k of each modulus: the
    value, the sum of |terms| and the error bound."""
    p = trace._level_prime(N)
    x = 2 * math.pi / (chi.D * math.sqrt(N))
    value = size = err = 0.0
    cutoffs = []
    for c in range(N, (t_max + 1) * N, N):
        f = sa_prefactor(m, c, q.divisor_count(c))
        k = n_cutoff(f, x)
        cutoffs.append(k)
        n = np.arange(1, k + 1)
        w = chi.values(n) / np.sqrt(n) * np.exp(-n * x)
        j1 = q.bessel_j1(4 * math.pi * math.sqrt(m) / c * np.sqrt(n.astype(float)))
        terms = w * j1 * series_kloosterman(m, p, N, c // N, n) / c
        value += terms.sum()
        size += np.abs(terms).sum()
        err += n_tail(f, x, k) / c
    err += 2.0 * chi.D / N * tail_bounds(t_max + 1).tau_tail
    return value, size, err, cutoffs


class TestCoprimeGrid:
    # (D, m, N, t_max), each with a cutoff k that is a multiple of D
    CASES = [(15, 1, 49, 8), (15, 7, 7, 3), (24, 1, 121, 8), (24, 7, 7, 6)]

    @pytest.mark.parametrize("D", [15, 24, 23])
    def test_A_grid_is_the_n_coprime_to_D(self, monkeypatch, D):
        calls = []
        n_grid = trace._n_grid
        monkeypatch.setattr(
            trace, "_n_grid", lambda *a: calls.append((a, n_grid(*a))) or calls[-1][1]
        )
        q.A_numeric(1, q.make_character(D), 49, t_max=4)
        [((_, _, n_max, _), grid)] = calls
        assert grid.n.tolist() == [n for n in range(1, n_max + 1) if math.gcd(n, D) == 1]
        assert grid.root.size == grid.w.size == grid.j1.size == grid.n.size
        assert np.all(grid.w != 0)

    @pytest.mark.parametrize("D,m,N,t_max", CASES)
    def test_A_matches_full_grid(self, monkeypatch, D, m, N, t_max):
        chi = q.make_character(D)
        value, size, err, cutoffs = full_grid_A(m, chi, N, t_max)
        assert any(k % D == 0 for k in cutoffs)
        assert any(math.gcd(k, D) == 1 for k in cutoffs)
        summed = []
        sa_partial = trace._sa_partial
        monkeypatch.setattr(
            trace, "_sa_partial",
            lambda *a: summed.append(a[-2].n[: a[-1]].tolist()) or sa_partial(*a),
        )
        a = q.A_numeric(m, chi, N, t_max=t_max)
        # each modulus sums exactly the n <= k coprime to D
        assert summed == [
            [n for n in range(1, k + 1) if math.gcd(n, D) == 1] for k in cutoffs
        ]
        assert abs(a.value - value) <= 1e-15 * size
        assert repr(a.error_bound) == repr(err)


class TestNumericSeries:
    def test_A_within_closed_bound(self):
        a = q.A_numeric(1, CHI3, 49, t_max=240)
        assert abs(a.value) <= q.A_bound(1, CHI3, 49) + a.error_bound
        assert abs(a.value) <= 14 * 3 / 49 + a.error_bound

    def test_A_level_7(self):
        a = q.A_numeric(1, CHI3, 7, t_max=240)
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

    def test_B_explicit_cap_keeps_value_with_hybrid_tail(self):
        # explicit caps sum exactly those moduli: the value is the one the
        # Weil d-tail engine gave (error 29.234176293947236 then); only the
        # tail past d_max changed
        b = q.B_numeric(1, CHI15, 271**2, d_max=60)
        assert b.value == -0.013674232353845508
        weil = 15 * tail_bounds(61).tau_tail
        hybrid = q.hybrid_d_tail(15, 1, 271**2, 60).total
        assert b.error_bound == pytest.approx(29.234176293947236 - weil + hybrid, rel=1e-12)
        assert b.error_bound <= 29.234176293947236

    @pytest.mark.parametrize("D, p", [(15, 271), (31, 431)])
    def test_abel_bound_holds_per_modulus(self, series, D, p):
        # |S_B(d)| over the full n-series (partial sum plus its n-tail) lies
        # below the per-d Abel bound for every d != D; at d = D, where the
        # period sum need not vanish, it does not, so the tail takes the
        # Weil term there
        chi, N = q.make_character(D), p * p
        n_max = int(40 * D * p / (2 * math.pi))  # e^(-n x) < e^(-40) beyond
        rng = np.random.default_rng(D)
        sampled = rng.choice(np.arange(801, 40_001), size=8, replace=False).tolist()
        for d in list(range(1, 51)) + sampled + [40_000]:
            if math.gcd(d, N) != 1:
                continue
            value, tail = series("B", 1, chi, N, d, n_max)
            ratio = (abs(value) + tail) / q.abel_sb_bound(D, 1, N, d)
            if d == D:
                assert ratio > 1.1, d
            else:
                assert ratio < 1.0, d

    def test_default_cap_resolved_before_B(self, monkeypatch):
        # B_numeric (and bench/tracer.py's cap count) always sees an int: a
        # planned cap or the explicit one
        m, N = 1, 271**2
        [(_, planned)] = trace._plan(
            CHI15, [(m, N)], lambda e: trace._pairing_error(m, N, *e)
        ).caps
        seen = []
        b_numeric = trace.B_numeric
        monkeypatch.setattr(
            trace, "B_numeric",
            lambda m, chi, N, *, d_max: seen.append(d_max) or b_numeric(m, chi, N, d_max=d_max),
        )
        q.pairing_numeric(m, N, CHI15)
        q.pairing_numeric(m, N, CHI15, t_max=4, d_max=9)
        assert seen == [planned, 9] and isinstance(planned, int)

    def test_caps_are_keyword_only(self):
        # bench/tracer.py binds the caps by name; keyword-only keeps a stray
        # positional argument from becoming a cap
        for fn, cap in ((q.A_numeric, "t_max"), (q.B_numeric, "d_max")):
            param = inspect.signature(fn).parameters[cap]
            assert param.kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            q.A_numeric(1, CHI3, 49, 1e-6)

    def test_caps_below_one_rejected(self):
        # t_max = 0 is allowed (A unevaluated); a negative t_max is not
        with pytest.raises(ValueError, match="t_max"):
            q.A_numeric(1, CHI3, 49, t_max=-1)
        with pytest.raises(ValueError, match="d_max"):
            q.B_numeric(1, CHI3, 49, d_max=0)
        for t_max, d_max, name in ((-1, 9, "t_max"), (4, 0, "d_max")):
            with pytest.raises(ValueError, match=f"{name} must be"):
                q.pairing_numeric(1, 49, CHI3, t_max=t_max, d_max=d_max)

    def test_exactly_one_cap_rejected(self, monkeypatch):
        # both caps or neither; the error comes before any plan
        monkeypatch.setattr(trace, "_plan", lambda *a: pytest.fail("planned"))
        calls = (
            lambda **caps: q.pairing_numeric(1, 49, CHI3, **caps),
            lambda **caps: q.certify_numeric(73, CHI3, **caps),
        )
        for call in calls:
            for caps in ({"t_max": 4}, {"d_max": 9}, {"t_max": 0, "d_max": None}):
                with pytest.raises(ValueError, match="both t_max and d_max, or neither"):
                    call(**caps)

    @pytest.mark.parametrize("D, m, N", [(3, 1, 49), (15, 271, 271), (24, 1, 359**2)])
    def test_t_max_zero_leaves_A_unevaluated(self, D, m, N):
        # the value 0 and the whole Weil c-tail 14 D/N, A_bound's Weil branch
        res = q.A_numeric(m, q.make_character(D), N, t_max=0)
        assert res.value == 0.0
        assert res.error_bound == pytest.approx(14 * D / N, rel=1e-15)

    @pytest.mark.parametrize("N", [0, 1, -49])
    def test_level_below_two_rejected(self, N):
        # the level's shape is checked before gcd(m N, D)
        with pytest.raises(UnsupportedCase, match=f"level {N} is neither p nor p\\^2"):
            q.pairing_numeric(1, N, CHI3)

    def test_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            q.A_numeric(2, CHI3, 49, t_max=1)
        with pytest.raises(UnsupportedCase):
            q.A_numeric(1, CHI3, 10, t_max=1)


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


class TestShapeCheck:
    # every entry point checks (m, N, D) the same way, in one order: the
    # level, then the shape, then gcd(m N, D)
    ENTRY_POINTS = {
        "A_numeric": lambda m, chi, N: q.A_numeric(m, chi, N, t_max=1),
        "B_numeric": lambda m, chi, N: q.B_numeric(m, chi, N, d_max=1),
        "pairing_numeric": lambda m, chi, N: q.pairing_numeric(m, N, chi, t_max=1, d_max=1),
        "A_bound": q.A_bound,
        "B_bound": q.B_bound,
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("m, D, N, error, message", [
        (2, 3, 7, UnsupportedCase, "(m, N) = (2, 7) outside cases (1,p^2), (1,p), (p,p)"),
        (1, 3, 1, UnsupportedCase, "level 1 is neither p nor p^2"),
        (1, 3, 12, UnsupportedCase, "level 12 is neither p nor p^2"),
        (1, 3, 343, UnsupportedCase, "level 343 is neither p nor p^2"),
        (2, 3, 12, UnsupportedCase, "level 12 is neither p nor p^2"),
        (2, 15, 5, UnsupportedCase, "(m, N) = (2, 5) outside cases (1,p^2), (1,p), (p,p)"),
        (1, 15, 9, DividesDiscriminant, "gcd(1*9, 15) must be 1"),
        (5, 15, 5, DividesDiscriminant, "gcd(5*5, 15) must be 1"),
        (1, 4, 2, DividesDiscriminant, "gcd(1*2, 4) must be 1"),
    ])
    def test_rejects_with_one_message(self, entry, m, D, N, error, message):
        with pytest.raises(error) as info:
            self.ENTRY_POINTS[entry](m, q.make_character(D), N)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_cap_checked_before_shape(self):
        # A_numeric and B_numeric check their cap first; pairing_numeric
        # checks the shape first
        with pytest.raises(ValueError, match="^t_max must be >= 0$"):
            q.A_numeric(2, CHI3, 7, t_max=-1)
        with pytest.raises(ValueError, match="^d_max must be >= 1$"):
            q.B_numeric(1, CHI3, 12, d_max=0)
        with pytest.raises(UnsupportedCase):
            q.pairing_numeric(2, 7, CHI3, t_max=-1, d_max=0)


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
        cert = q.certify_numeric(73, CHI3, t_max=72, d_max=300)
        assert cert.components["value"] > 0

    def test_frozen_anchor_271_15(self):
        # Frozen from the engine that built one row per (m, c); rows read
        # from the per-modulus base row differ from those by rounding only.
        # The hybrid d-tail took the error bound from 5.3286327878170345.
        comp = q.certify_numeric(271, CHI15, t_max=64, d_max=300).components
        assert comp["error_bound"] == 3.143876520552363
        assert comp["error_bound"] <= 5.3286327878170345
        assert comp["value"] == pytest.approx(12.519165051681355, rel=1e-12)

    def test_frozen_certificate_31_431(self):
        # The largest n-grid of the numeric-certify domain (D = 15..31 near
        # the threshold), at the caps it used before the hybrid d-tail: the
        # value is unchanged, the error bound (4.544043085213125 under the
        # Weil d-tail) depends on cutoffs only.
        cert = q.certify_numeric(431, q.make_character(31), t_max=240, d_max=800)
        assert cert.components["value"] == 12.539310509256302
        assert cert.components["error_bound"] == 2.239763050780716
        assert cert.components["error_bound"] <= 4.544043085213125
        assert cert.lower_bound == 0.8196119448129785

    def test_frozen_default_certificate_31_431(self):
        # The planned caps leave A(1,p^2) unevaluated and take B(1,p^2) to
        # d = 34.  The former fixed caps (t_max = 240, B(1,p^2) at d = 1)
        # gave error 3.339114662497137 and lower bound 0.7317691238413886.
        cert = q.certify_numeric(431, q.make_character(31))
        assert cert.components["value"] == 12.540268134552237
        assert cert.components["error_bound"] == 3.334994162684036
        assert cert.components["error_bound"] <= 3.339114662497137
        assert cert.lower_bound == 0.7325324275689945
        assert cert.verdict == "certified-positive"

    def test_numeric_certificate_reports_its_caps(self):
        cert = q.certify_numeric(271, CHI15)
        comp = cert.components
        caps = [comp[f"{s} {cap}"] for s, cap in (
            ("A(1,p^2)", "t_max"), ("B(1,p^2)", "d_max"), ("A(1,p)", "t_max"),
            ("B(1,p)", "d_max"), ("A(p,p)", "t_max"), ("B(p,p)", "d_max"),
        )]
        assert caps == [5, 146, 38, 184, 3, 184]  # 240, 27, 240, 800, 240, 800 before
        assert comp["B(1,p^2) abel_tail"] == 1.6252178989802963
        assert comp["B(1,p^2) weil_tail"] == 1.0546810747957827
        # the parts are B(1,p^2)'s d-tail in units of error_bound
        tail = q.hybrid_d_tail(15, 1, 271**2, 146)
        scale = 8 * math.pi**2 / 271
        assert comp["B(1,p^2) abel_tail"] == pytest.approx(scale * tail.abel, rel=1e-15)
        assert comp["B(1,p^2) weil_tail"] == pytest.approx(scale * tail.weil, rel=1e-15)
        assert comp["error_bound"] == 3.583658468594206
        assert comp["error_bound"] <= 3.6021287676857296  # the former fixed caps
        assert comp["value"] == 12.519017497555447

    def test_guards(self):
        with pytest.raises(NotPrime):
            q.certify_numeric(72, CHI3)
        with pytest.raises(DividesDiscriminant):
            q.certify_numeric(3, CHI3)
        with pytest.raises(DividesDiscriminant):
            q.certify_numeric(5, CHI15)


def former_default_error(p, chi):
    """The error bound of the new-plus pairing at the former fixed caps:
    A over t_max = 240 moduli, B up to hybrid_d_cap(D, m, N, 800).  No
    series is evaluated; the n-tails are summed in the engine's order."""
    D, w = chi.D, p * p - 1
    pairings = []
    for m, N in ((1, p * p), (1, p), (p, p)):
        x = 2 * math.pi / (D * math.sqrt(N))
        a = 0.0
        for c in range(N, 241 * N, N):
            f = sa_prefactor(m, c, q.divisor_count(c))
            a += n_tail(f, x, n_cutoff(f, x)) / c
        a += 2.0 * D / N * tail_bounds(241).tau_tail
        d_max = q.hybrid_d_cap(D, m, N, 800)
        b = 0.0
        for d in range(1, d_max + 1):
            if math.gcd(d, N) == 1:
                f = sb_prefactor(m, d, N, q.divisor_count(d))
                b += n_tail(f, x, n_cutoff(f, x)) / d
        b += q.hybrid_d_tail(D, m, N, d_max).total
        pairings.append(8 * math.pi**2 * math.sqrt(m) * (a + b / math.sqrt(N)))
    e1, e2, e3 = pairings
    return e1 + p / w * e2 + e3 / w


@st.composite
def near_threshold(draw):
    """A fundamental D in 3..60 and one of the first four admissible primes
    from its nonsplit threshold on."""
    D = draw(st.sampled_from(q.fundamental_discriminants(3, 60)))
    p = q.threshold_prime(D)
    for _ in range(draw(st.integers(0, 3))):
        p = q.next_prime(p)
    while D % p == 0:
        p = q.next_prime(p)
    return D, p


class TestPlanner:
    @given(near_threshold())
    @settings(max_examples=25, deadline=None)
    def test_never_looser_than_the_former_caps(self, case):
        D, p = case
        chi = q.make_character(D)
        plan = trace._new_plus_plan(p, chi)
        assert plan.error <= former_default_error(p, chi)
        for t, d in plan.caps:
            assert 0 <= t <= 240 and 1 <= d <= 1600

    @pytest.mark.parametrize("D, p", [(3, 73), (24, 359), (31, 421)])
    def test_predicted_error_is_reported(self, D, p):
        chi = q.make_character(D)
        plan = trace._new_plus_plan(p, chi)
        cert = q.certify_numeric(p, chi)
        assert cert.components["error_bound"] == plan.error
        caps = [(cert.components[f"A{s} t_max"], cert.components[f"B{s} d_max"])
                for s in ("(1,p^2)", "(1,p)", "(p,p)")]
        assert caps == plan.caps

    @pytest.mark.parametrize("D, p", [(3, 73), (15, 271), (31, 431)])
    def test_model_is_a_scalar_loop_bit_for_bit(self, D, p):
        # _model's array passes against one pass of scalar math per modulus
        chi = q.make_character(D)
        for m, N in ((1, p * p), (1, p), (p, p)):
            x = trace._x(D, N)
            for kind, caps in (("A", [0, 7, 240]), ("B", [1, 7, 1600])):
                terms, cost, _ = trace._model(kind, m, N, chi, caps)
                if kind == "A":
                    moduli = list(range(N, 241 * N, N))
                    f = [sa_prefactor(m, c, q.divisor_count(c)) for c in moduli]
                    share = q.euler_phi(D) / D * (1.0 if N == p else trace._SALIE_TERM_COST)
                else:
                    moduli = [d for d in range(1, 1601) if math.gcd(d, N) == 1]
                    f = [sb_prefactor(m, d, N, q.divisor_count(d)) for d in moduli]
                    share = 1.0
                cutoffs = [n_cutoff(v, x) for v in f]
                tails = (n_tail(v, x, k) / c for v, k, c in zip(f, cutoffs, moduli))
                n_err = list(itertools.accumulate(tails, initial=0.0))
                assert repr(terms) == repr(trace._Terms(moduli, cutoffs, n_err))
                acc = [0.0, *itertools.accumulate(k * share + trace._MODULUS_COST for k in cutoffs)]
                counts = caps if kind == "A" else [bisect.bisect_right(moduli, d) for d in caps]
                assert repr(cost) == repr([acc[j] for j in counts])

    def test_bare_pairing_is_planned(self):
        m, N = 1, 271
        plan = trace._plan(CHI15, [(m, N)], lambda e: trace._pairing_error(m, N, *e))
        [(t, d)] = plan.caps
        res = q.pairing_numeric(m, N, CHI15)
        assert res.error_bound == plan.error
        assert res == q.pairing_numeric(m, N, CHI15, t_max=t, d_max=d)
        assert res.error_bound <= q.pairing_numeric(m, N, CHI15, t_max=240, d_max=800).error_bound

    def test_explicit_caps_skip_the_planner(self, monkeypatch):
        monkeypatch.setattr(trace, "_plan", lambda *a: pytest.fail("planned"))
        p, w = 73, 73 * 73 - 1
        p1, p2, p3 = (q.pairing_numeric(m, N, CHI3, t_max=4, d_max=9)
                      for m, N in ((1, p * p), (1, p), (p, p)))
        cert = q.certify_numeric(p, CHI3, t_max=4, d_max=9)
        # the new-plus combination of the three pairings, at the given caps
        assert cert.components["value"] == p1.value - p / w * p2.value + CHI3(p) / w * p3.value
        for s in ("(1,p^2)", "(1,p)", "(p,p)"):
            assert (cert.components[f"A{s} t_max"], cert.components[f"B{s} d_max"]) == (4, 9)


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
        # 8e-4 at D = 11, p = 223); the diagnostic points to the numeric
        # mode, which certifies each of them
        for D, p in [(3, 73), (7, 163), (8, 179), (11, 223)]:
            chi = q.make_character(D)
            cert = q.certify_nonvanishing(p, chi)
            assert cert.verdict == "indeterminate"
            assert "certify --mode numeric" in cert.diagnostic
            assert q.certify_numeric(p, chi).certified

    def test_certificate_soundness_against_numeric(self):
        cert = q.certify_nonvanishing(271, CHI15)
        num = q.certify_numeric(271, CHI15, t_max=96, d_max=300).components
        assert abs(num["value"]) > 4 * math.pi * cert.lower_bound - num["error_bound"]

    def test_numeric_mode(self):
        cert = q.certify_numeric(73, CHI3, t_max=72, d_max=300)
        assert cert.mode == "numeric-advisory"
        assert cert.components["value"] > 0
        # an explicit cap serves every B shape
        for shape in ("B(1,p^2)", "B(1,p)", "B(p,p)"):
            assert cert.components[f"{shape} d_max"] == 300


def lemma_g(D, lib=math):
    """g(D) of certify_nonvanishing's lemma: its lower bound at p* with the
    first term 19/20 and tau(D) <= 2 sqrt(D); lib is math or mpmath.iv.
    The float 0.95 lies below 19/20, so the interval stays a lower bound."""
    ld = lib.log(D)
    p_star = 50 * lib.sqrt(lib.sqrt(D)) * ld
    r = lib.log(p_star) / ld
    main = (294 + 416 * r + 227 * r * r) / 2500
    return 0.95 - main - 4 * lib.pi * (1 / p_star + 1 / (p_star - 1))


class TestClosedFormLemma:
    """certify_nonvanishing is certified-positive for every D >= 15 and
    every prime p >= 50 D^(1/4) log D (the lemma in its docstring)."""

    GRID = [(D, q.threshold_prime(D)) for D in q.fundamental_discriminants(15, 403)]

    def test_g15_in_interval_arithmetic(self):
        from mpmath import iv

        assert lemma_g(iv.mpf(15), iv).a >= 0.008
        assert lemma_g(15) == pytest.approx(0.00847, abs=1e-5)

    def test_g_rises_in_D(self):
        values = [lemma_g(10 ** (k / 100)) for k in range(118, 3001)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_lower_bound_dominates_g(self):
        assert len(self.GRID) == 118
        larger = [
            (D, p) for D in q.fundamental_discriminants(404, 200_000)[::4001]
            for p in (q.threshold_prime(D), q.next_prime(int(10 * q.nonsplit_threshold(D))),
                      q.next_prime(10**9 + D))
        ]
        for D, p in self.GRID + larger:
            if D % p == 0:
                continue
            cert = q.certify_nonvanishing(p, q.make_character(D))
            assert cert.certified and cert.lower_bound >= lemma_g(D), (D, p)

    def test_weighted_components_within_assembled_form(self):
        # 2 pi times the six component bounds, weighted as the new-plus
        # pairing weighs its series, stay below abel_main + tau_term
        ratios = []
        for D, p in self.GRID:
            comp = q.certify_nonvanishing(p, q.make_character(D)).components
            shapes = zip(((1, p * p), (1, p), (p, p)), ("(1,p^2)", "(1,p)", "(p,p)"))
            errors = [trace._pairing_error(m, N, comp[f"A{k}"], comp[f"B{k}"])
                      for (m, N), k in shapes]
            weighted = trace._new_plus_error(p, *errors) / (4 * math.pi)
            ratios.append(weighted / (comp["abel_main"] + comp["tau_term"]))
        assert max(ratios) == pytest.approx(0.861, abs=1e-3)

    @pytest.mark.parametrize("D, p", [(15, 257), (24, 313), (403, 887)])
    def test_prime_below_threshold_is_indeterminate(self, D, p):
        # the largest prime below p* that is not certified; nothing is
        # claimed below p*, and the primes between it and p* certify
        assert p < q.nonsplit_threshold(D)
        cert = q.certify_nonvanishing(p, q.make_character(D))
        assert cert.verdict == "indeterminate" and cert.diagnostic is None
        assert cert.lower_bound <= 1e-6


class TestNonsplitThreshold:
    def test_values(self):
        assert q.nonsplit_threshold(3) == pytest.approx(72.2928, abs=1e-3)
        assert q.nonsplit_threshold(4) == pytest.approx(98.0259, abs=1e-3)
        assert q.nonsplit_threshold(15) == pytest.approx(266.471, abs=1e-2)
