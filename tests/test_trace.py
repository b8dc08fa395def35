"""Trace-formula series, closed-form bounds and nonvanishing certificates."""

import bisect
import hashlib
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
    DomainError,
    NotPrime,
    UnsupportedCase,
)
from qcbounds.bounds import tail_bounds
from qcbounds.kernels import kloosterman_row, series_kloosterman

from conftest import n_cutoff, n_tail, per_series_pick, sa_prefactor, sb_prefactor

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
        [got] = trace._weighted_j1(trace._n_grid(CHI23, x, k, coprime=False), [beta], [k])
        n = np.arange(1, k + 1)
        w = CHI23.values(n) / np.sqrt(n) * np.exp(-n * x)
        terms = w * q.bessel_j1(beta * np.sqrt(n.astype(float)))
        assert np.abs(got - terms).sum() <= 1e-15 * np.abs(terms).sum()

    def test_block_equals_its_moduli_one_at_a_time(self):
        # a modulus's values do not depend on the moduli beside it: all
        # series, straddling 12, all Hankel, an empty cutoff, falling and
        # rising series depths
        grid = trace._n_grid(CHI23, 0.01, 3000, coprime=False)
        betas = [0.05, 1.0, 0.002, 0.3, 30.0, 0.2, 0.01]
        counts = [2500, 700, 3000, 0, 40, 900, 1]
        alone = [trace._weighted_j1(grid, [b], [k])[0].tolist() for b, k in zip(betas, counts)]
        block = [v.tolist() for v in trace._weighted_j1(grid, betas, counts)]
        assert repr(block) == repr(alone)

    def test_one_bessel_j1_call_per_block(self, monkeypatch):
        # bench/tracer.py counts a series' terms by its direct bessel_j1
        # calls, which are blocks of moduli; their sizes sum to the moduli's
        # cutoffs on the grid, so every term of every modulus is evaluated
        # exactly once
        calls = []
        j1 = bessel.bessel_j1
        monkeypatch.setattr(
            bessel, "bessel_j1", lambda x, out=None: calls.append(x.size) or j1(x, out=out),
        )
        for kind, cap, moduli in (("A", 5, 5), ("B", 10, 9)):  # B: d = 1..10 without 7
            calls.clear()
            if kind == "A":
                q.A_numeric(1, CHI3, 49, t_max=cap)
            else:
                q.B_numeric(1, CHI3, 49, d_max=cap)
            series = trace._series(kind, 1, 49, CHI3, [cap])
            cutoffs = trace._at_cutoffs(series, trace._N_TAIL_EPS)[0].tolist()
            counts = [k - k // 3 if kind == "A" else k for k in cutoffs]
            assert len(counts) == moduli
            assert len(calls) == len(trace._blocks(counts))
            assert sum(calls) == sum(counts)
            assert calls == [sum(counts[lo:hi]) for lo, hi in trace._blocks(counts)]

    @pytest.mark.parametrize("counts, runs", [
        ([], []),
        ([8192], [(0, 1)]),
        ([5000, 3192, 1], [(0, 2), (2, 3)]),
        ([100, 9000, 100], [(0, 1), (1, 2), (2, 3)]),
        ([20000, 10, 20], [(0, 1), (1, 3)]),
        ([0, 8192, 0], [(0, 3)]),
    ])
    def test_blocks_fill_up_to_the_block_size(self, counts, runs):
        assert trace._BLOCK == 8192
        assert trace._blocks(counts) == runs

    def test_result_is_a_view_of_the_grid_buffer(self):
        # a block writes its J1 values side by side into the grid, not into
        # fresh arrays
        grid = trace._n_grid(CHI23, 0.01, 3000, coprime=False)
        for beta in (0.05, 1.0):  # all-series, then series and Hankel
            views = trace._weighted_j1(grid, [beta, beta / 2, beta / 3], [2500, 3000, 1700])
            assert all(np.shares_memory(v, grid.j1) for v in views)
            assert [v.size for v in views] == [2500, 3000, 1700]
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(views, 2))


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
        assert grid.root.size == grid.w.size == grid.n.size
        assert grid.x.size == grid.j1.size == max(grid.n.size, trace._BLOCK)
        assert np.all(grid.w != 0)

    def test_grid_out_of_memory_is_a_domain_error(self, monkeypatch):
        # the allocation is faked to fail: a real one may be paged in rather
        # than fail where memory is overcommitted
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "arange", no_memory)
        with pytest.raises(DomainError, match="too large for memory"):
            trace._n_grid(CHI15, 1e-9, 10**11, coprime=False)

    def test_int64_residue_products_are_a_domain_error(self, monkeypatch):
        # A(1, chi_-3, p^2) at p = 1,200,007 and t_max = 2 cuts its moduli
        # off at 21.0 M and 21.2 M terms, under _N_MAX, but at c = 2 p^2 the
        # Kloosterman factor's int64 residue times n passes 2^63 (see
        # test_kernels); the guard refuses before the grid is built, so an
        # arange that long fails the test instead of paging in
        arange = np.arange

        def no_long_arange(*args, **kwargs):
            assert max(args, default=0) < 1 << 24, f"np.arange{args} would allocate"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", no_long_arange)
        with pytest.raises(DomainError, match="pass the int64 limit"):
            q.A_numeric(1, CHI3, 1_200_007**2, t_max=2)

    def test_series_past_its_total_terms_is_a_domain_error(self, monkeypatch):
        # the planned A(1,7) at D = 1000003 cuts its moduli off at 631 M
        # n-terms in all, though no grid passes 3.7 M, within _N_MAX; the
        # pairing ran 57 s to an error bound of 4.6e7.  The bound on the
        # sum of the cutoffs refuses before the grid is built, so an arange
        # of 2^20 fails the test instead
        arange = np.arange

        def no_long_arange(*args, **kwargs):
            assert max(args, default=0) < 1 << 20, f"np.arange{args} would allocate"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", no_long_arange)
        with pytest.raises(DomainError, match="^a series of 631486475 n-terms is past the limit"):
            q.pairing_numeric(1, 7, q.make_character(1000003))

    @pytest.mark.parametrize("D,m,N,t_max", CASES)
    def test_A_matches_full_grid(self, monkeypatch, D, m, N, t_max):
        chi = q.make_character(D)
        value, size, err, cutoffs = full_grid_A(m, chi, N, t_max)
        assert any(k % D == 0 for k in cutoffs)
        assert any(math.gcd(k, D) == 1 for k in cutoffs)
        summed = []
        sa_sum = trace._sa_sum
        monkeypatch.setattr(
            trace, "_sa_sum", lambda *a: summed.append(a[-2].tolist()) or sa_sum(*a)
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
        # Weil d-tail engine gave (error 29.234176293947236 then) to within
        # 2e-17; only the tail past d_max changed
        b = q.B_numeric(1, CHI15, 271**2, d_max=60)
        assert b.value == -0.013674232353845526
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
            lambda m, chi, N, *, d_max, tail_eps=trace._N_TAIL_EPS: seen.append(d_max)
            or b_numeric(m, chi, N, d_max=d_max, tail_eps=tail_eps),
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
        # The planned caps sum A(1,p^2) to t = 3 and B(1,p^2) to d = 53, at
        # the n-cutoffs of the plan's second pass.  Its first pass alone
        # left A(1,p^2) unevaluated and took B(1,p^2) to d = 34: value
        # 12.540268134552237, error 3.334994162684036, lower bound
        # 0.7325324275689945.  The former fixed caps (t_max = 240, B(1,p^2)
        # at d = 1) gave error 3.339114662497137 and lower bound
        # 0.7317691238413886.
        cert = q.certify_numeric(431, q.make_character(31))
        assert cert.components["value"] == 12.53950537749631
        assert cert.components["error_bound"] == 3.3233061820560654
        assert cert.components["error_bound"] <= 3.334994162684036
        assert cert.lower_bound == 0.7334018292369319
        assert cert.verdict == "certified-positive"

    def test_numeric_certificate_reports_its_caps(self):
        cert = q.certify_numeric(271, CHI15)
        comp = cert.components
        caps = [comp[f"{s} {cap}"] for s, cap in (
            ("A(1,p^2)", "t_max"), ("B(1,p^2)", "d_max"), ("A(1,p)", "t_max"),
            ("B(1,p)", "d_max"), ("A(p,p)", "t_max"), ("B(p,p)", "d_max"),
        )]
        # [5, 146, 38, 184, 3, 184] at the first pass's n-cutoffs alone;
        # [240, 27, 240, 800, 240, 800] at the former fixed caps
        assert caps == [14, 206, 27, 131, 1, 131]
        assert comp["B(1,p^2) abel_tail"] == 1.519256194464934  # 1.6252178989802963
        assert comp["B(1,p^2) weil_tail"] == 1.0546810747957827
        # the parts are B(1,p^2)'s Abel and Weil d-tail parts at its own cap
        # times its weight 8 pi^2/p in error_bound
        tail = q.hybrid_d_tail(15, 1, 271**2, 206)
        assert comp["B(1,p^2) abel_tail"] == trace._EIGHT_PI_SQ * tail.abel / 271
        assert comp["B(1,p^2) weil_tail"] == trace._EIGHT_PI_SQ * tail.weil / 271
        assert comp["error_bound"] == 3.55915266403307
        assert comp["error_bound"] <= 3.583658468594206  # the first pass alone
        assert comp["error_bound"] <= 3.6021287676857296  # the former fixed caps
        assert comp["value"] == 12.518980276352291  # 12.519017497555447

    def test_guards(self):
        with pytest.raises(NotPrime):
            q.certify_numeric(72, CHI3)
        with pytest.raises(DividesDiscriminant):
            q.certify_numeric(3, CHI3)
        with pytest.raises(DividesDiscriminant):
            q.certify_numeric(5, CHI15)


class TestNumericEngineBits:
    def test_digest_of_the_envelope_grid_at_explicit_caps(self):
        # Every bit of the numeric engine's values at explicit caps: the
        # envelope suite's 72 series at its explicit caps and its (15, 269)
        # soundness certificate.  A change that moves any value, error bound
        # or part of one changes the digest; no numpy SIMD dispatch or BLAS
        # kernel does (grid weights from libm's exp, no np.dot).
        results = []
        for p in (7, 11, 13, 73):
            for D in (3, 4, 15):
                chi = q.make_character(D)
                for m, N in ((1, p * p), (1, p), (p, p)):
                    results.append(q.A_numeric(m, chi, N, t_max=64))
                    results.append(q.B_numeric(m, chi, N, d_max=200))
        assert len(results) == 72
        results.append(q.certify_numeric(269, CHI15, t_max=96, d_max=300))
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "2442dc4385b41dfff2b76bcac45d72da5a667df3cd11a81f0788e1447d6e2a85"

    def test_digest_of_the_planned_threshold_certificates(self):
        # numeric-certify's six threshold-prime certificates (D = 15..31) at
        # planned caps and n-cutoffs.  The planner's first pass alone reaches
        # the error bounds on the right, those of the one-pass planner, bit
        # for bit, and each certificate's error bound is at most that.
        first_pass = {
            15: 3.6267015370612476, 19: 3.904078030135388, 20: 4.039434293047243,
            23: 3.9046998035514098, 24: 4.1726108614684225, 31: 3.6426455229906134,
        }
        results = []
        for D in q.fundamental_discriminants(15, 31):
            p, chi = q.threshold_prime(D), q.make_character(D)
            total = trace._new_plus_total(p)
            ladders = trace._ladders(chi, trace._new_plus_shapes(p), total)
            assert trace._pass(ladders, total, [trace._N_TAIL_EPS] * 6).error == first_pass[D]
            results.append(q.certify_numeric(p, chi))
            assert results[-1].components["error_bound"] <= first_pass[D]
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        assert digest == "5adacc5216a88bc19d21362b8313ae7028e74beb93a5f6d1f817219b20a48325"


class TestErrorLedger:
    @pytest.mark.parametrize("D, p", [(15, 271), (3, 73)])
    @pytest.mark.parametrize("planned", [False, True])
    def test_series_parts_sum_to_their_error_bound(self, D, p, planned):
        # Each series of the three shapes carries its error bound's parts,
        # each against its own reference: the n-tail as a scalar loop over
        # the moduli, A's Weil c-tail from tail_bounds, B's Abel and Weil
        # parts from hybrid_d_tail at the same cap.  They sum to the error
        # bound by repr in the engine's order, n + c and n + (abel + weil)
        # (B(1,p^2)'s (n + abel) + weil at (15, 271) and d = 60 is one ulp
        # off); a pairing carries none.  At planned caps, or at explicit
        # ones with A(1,p^2) unevaluated.
        chi = q.make_character(D)
        shapes = trace._new_plus_shapes(p)
        if planned:
            plan = trace._plan(chi, shapes, trace._new_plus_total(p))
            caps, tail_eps = plan.caps, plan.tail_eps
        else:
            caps = [(0, 60), (8, 60), (8, 60)]
            tail_eps = [(trace._N_TAIL_EPS, trace._N_TAIL_EPS)] * 3
        for (m, N), (t, d), (a_eps, b_eps) in zip(shapes, caps, tail_eps):
            pairing, a, b = trace._pairing(m, N, chi, (t, d), (a_eps, b_eps))
            x = trace._x(D, N)

            def n_tails(moduli, prefactor, eps):
                fs = [prefactor(c) for c in moduli]
                return sum((n_tail(f, x, n_cutoff(f, x, eps)) / c for f, c in zip(fs, moduli)), 0.0)

            a_moduli = range(N, (t + 1) * N, N)
            n_a = n_tails(a_moduli, lambda c: sa_prefactor(m, c, q.divisor_count(c)), a_eps)
            c_tail = 2.0 * D / N * tail_bounds(t + 1).tau_tail
            assert a.parts == (n_a, c_tail)
            assert repr(a.error_bound) == repr(n_a + c_tail)
            b_moduli = [k for k in range(1, d + 1) if math.gcd(k, N) == 1]
            n_b = n_tails(b_moduli, lambda k: sb_prefactor(m, k, N, q.divisor_count(k)), b_eps)
            tail = q.hybrid_d_tail(D, m, N, d)
            assert b.parts == (n_b, tail.abel, tail.weil)
            assert repr(b.error_bound) == repr(n_b + (tail.abel + tail.weil))
            for res in (a, b):
                assert repr(res.error_bound) == repr(res.parts[0] + sum(res.parts[1:]))
            assert pairing == q.NumericResult(
                pairing.value, trace._pairing_error(m, N, a.error_bound, b.error_bound)
            )


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
        plan = trace._plan(chi, trace._new_plus_shapes(p), trace._new_plus_total(p))
        assert plan.error <= former_default_error(p, chi)
        for t, d in plan.caps:
            assert 0 <= t <= 240 and 1 <= d <= 1600

    @pytest.mark.parametrize("D, p", [(3, 73), (24, 359), (31, 421)])
    def test_predicted_error_is_reported(self, D, p):
        chi = q.make_character(D)
        plan = trace._plan(chi, trace._new_plus_shapes(p), trace._new_plus_total(p))
        cert = q.certify_numeric(p, chi)
        assert cert.components["error_bound"] == plan.error
        caps = [(cert.components[f"A{s} t_max"], cert.components[f"B{s} d_max"])
                for s in ("(1,p^2)", "(1,p)", "(p,p)")]
        assert caps == plan.caps

    @pytest.mark.parametrize("D, p", [(3, 73), (15, 271), (31, 431)])
    @pytest.mark.parametrize("eps", [trace._N_TAIL_EPS, 1e-4])
    def test_model_is_a_scalar_loop_bit_for_bit(self, D, p, eps):
        # the error model's array passes (_series, _at_cutoffs) against one
        # pass of scalar math per modulus, at the default n-tail allowance
        # and at one a planner might give
        chi = q.make_character(D)
        for m, N in ((1, p * p), (1, p), (p, p)):
            x = trace._x(D, N)
            for kind, caps in (("A", [0, 7, 240]), ("B", [1, 7, 1600])):
                series = trace._series(kind, m, N, chi, caps)
                got_cutoffs, got_n_err, cost, _ = trace._at_cutoffs(series, eps)
                terms = (series.moduli.tolist(), got_cutoffs.tolist(), got_n_err.tolist())
                if kind == "A":
                    moduli = list(range(N, 241 * N, N))
                    f = [sa_prefactor(m, c, q.divisor_count(c)) for c in moduli]
                    share = q.euler_phi(D) / D * (1.0 if N == p else trace._SALIE_TERM_COST)
                else:
                    moduli = [d for d in range(1, 1601) if math.gcd(d, N) == 1]
                    f = [sb_prefactor(m, d, N, q.divisor_count(d)) for d in moduli]
                    share = 1.0
                cutoffs = [n_cutoff(v, x, eps) for v in f]
                tails = (n_tail(v, x, k) / c for v, k, c in zip(f, cutoffs, moduli))
                n_err = list(itertools.accumulate(tails, initial=0.0))
                assert repr(terms) == repr((moduli, cutoffs, n_err))
                acc = [0.0, *itertools.accumulate(k * share + trace._MODULUS_COST for k in cutoffs)]
                counts = caps if kind == "A" else [bisect.bisect_right(moduli, d) for d in caps]
                assert repr(cost.tolist()) == repr([acc[j] for j in counts])

    @pytest.mark.parametrize(
        "x", [trace._x(15, 269), trace._x(31, 409 * 409), trace._x(403, 1361 * 1361), 0.7]
    )
    @pytest.mark.parametrize("eps", [trace._N_TAIL_EPS, 1e-4])
    def test_cutoffs_are_the_scalar_loop_at_libm_log(self, monkeypatch, x, eps):
        # _terms takes numpy's log and libm's only inside the band, and libm's
        # exp once per distinct cutoff: against n_cutoff and n_tail, one
        # modulus at a time in libm, on random z = f/(eps (1 - e^(-x))) and on
        # z whose log(z)/x lands within a few ulp of an integer k, where a
        # one-ulp gap between the two logs can move int().  log(z) runs up
        # to 60, past every certificate's (z <= 1e26 there).
        geom = 1.0 - math.exp(-x)
        rng = np.random.default_rng(35)
        ks = rng.integers(9, int(60.0 / x), size=300)
        adversarial = [
            math.ldexp(math.frexp(f)[0] + j * 2.0**-53, math.frexp(f)[1])
            for f in (eps * geom * math.exp(k * x) for k in ks.tolist()) for j in range(-3, 4)
        ]
        random = (eps * geom * np.exp(rng.uniform(0.0, 60.0, 3000))).tolist()
        libm = trace._libm
        for prefactors, adversarial_case in ((random, False), (adversarial, True)):
            sent = []
            monkeypatch.setattr(
                trace, "_libm", lambda f, v: sent.append((f, v.size)) or libm(f, v)
            )
            moduli = np.arange(1, len(prefactors) + 1)
            cutoffs, n_err = trace._terms(moduli, np.array(prefactors), x, eps)
            want = [n_cutoff(f, x, eps) for f in prefactors]
            tails = (n_tail(f, x, k) / c for f, k, c in zip(prefactors, want, moduli.tolist()))
            assert cutoffs.tolist() == want
            assert repr(n_err.tolist()) == repr(list(itertools.accumulate(tails, initial=0.0)))
            logs = sum(size for f, size in sent if f is math.log)
            exps = sum(size for f, size in sent if f is math.exp)
            assert exps == len(set(want))
            # numpy's log alone, without the band, would have moved this many
            z = np.array(prefactors) / (eps * geom)
            moved = int((np.maximum((np.log(z) / x).astype(np.int64) + 1, 8) != want).sum())
            print(f"x = {x:.3g}: the band sent {logs} of {len(prefactors)} logs to libm;"
                  f" numpy's log alone moves {moved} cutoffs")
            # the band takes every adversarial z and few random ones
            assert logs == len(prefactors) if adversarial_case else logs <= 0.05 * len(prefactors)

    @pytest.mark.parametrize("D, p", [(3, 73), (15, 269), (31, 409)])
    def test_pick_is_a_per_series_argmin(self, D, p):
        # _pick's one argmin over _prices' padded rows against one argmin
        # per series on its unpadded ladder (conftest.per_series_pick), at
        # lam = 0, at sampled lam and at 1e60, where the upward search
        # stops, in both passes' n-tail allowances; padding is never picked
        chi = q.make_character(D)
        shapes, total = trace._new_plus_shapes(p), trace._new_plus_total(p)
        ladders = trace._ladders(chi, shapes, total)
        kinds = [(kind, m, N) for m, N in shapes for kind in "AB"]
        rng = np.random.default_rng(D)
        lams = [0.0, 1e60, *(10.0 ** rng.uniform(-6.0, 12.0, 60)).tolist()]
        for eps in ([trace._N_TAIL_EPS] * 6, [1e-6, 1e-4, 1e-3, 1e-2, 1e-9, 1e-5]):
            costs, weighted, errs = trace._prices(ladders, eps)
            models = [trace._at_cutoffs(trace._series(kind, m, N, chi, s.caps), e)[2:]
                      for (kind, m, N), s, e in zip(kinds, ladders.series, eps)]
            assert errs == [err.tolist() for _, err in models]
            ref_costs = [cost for cost, _ in models]
            ref_weighted = [w * err for w, (_, err) in zip(ladders.weights, models)]
            picks = set()
            for lam in lams:
                idx = trace._pick(costs, weighted, lam)
                assert list(idx) == per_series_pick(ref_costs, ref_weighted, lam), lam
                assert all(i < len(s.caps) for i, s in zip(idx, ladders.series))
                picks.add(idx)
            assert len(picks) > 5

    @given(near_threshold())
    @settings(max_examples=25, deadline=None)
    def test_second_pass_never_looser_than_the_first(self, case):
        # The plan's error is at most E0, the first pass's, and each
        # series' n-tails, weighted as in the total, stay within 1e-3 E0
        # unless its allowance is the 1e-15 floor.
        D, p = case
        chi = q.make_character(D)
        shapes, total = trace._new_plus_shapes(p), trace._new_plus_total(p)
        ladders = trace._ladders(chi, shapes, total)
        e0 = trace._pass(ladders, total, [trace._N_TAIL_EPS] * 6).error
        assert e0 <= former_default_error(p, chi)
        plan = trace._plan(chi, shapes, total)
        assert plan.error <= e0
        weights = iter(ladders.weights)
        for (m, N), caps, allowances in zip(shapes, plan.caps, plan.tail_eps):
            for kind, cap, eps in zip("AB", caps, allowances):
                n_err = trace._at_cutoffs(trace._series(kind, m, N, chi, [cap]), eps)[1].tolist()
                assert eps >= trace._N_TAIL_EPS
                assert next(weights) * n_err[-1] <= 1e-3 * e0 or eps == trace._N_TAIL_EPS

    @pytest.mark.parametrize("D, p", [(3, 73), (15, 271), (31, 431)])
    def test_budgeted_cutoffs_stay_within_their_n_tails(self, D, p):
        # Every planned series summed to its budgeted n-cutoffs against the
        # same series at the 1e-15 cutoffs: they differ by the terms between
        # the two, which the n-tail majorants at the budgeted cutoffs bound,
        # plus a rounding allowance of 1e-12 (1 + |value|).  Those majorants
        # reach 1e-2 to 5 here, against 1e-14 at the 1e-15 cutoffs.
        chi = q.make_character(D)
        plan = trace._plan(chi, trace._new_plus_shapes(p), trace._new_plus_total(p))
        shifted = 0
        for (m, N), (t, d), (a_eps, b_eps) in zip(
            trace._new_plus_shapes(p), plan.caps, plan.tail_eps
        ):
            for kind, fn, caps, eps in (
                ("A", q.A_numeric, {"t_max": t}, a_eps), ("B", q.B_numeric, {"d_max": d}, b_eps),
            ):
                budgeted = fn(m, chi, N, **caps, tail_eps=eps)
                full = fn(m, chi, N, **caps)
                series = trace._series(kind, m, N, chi, [*caps.values()])
                n_err = trace._at_cutoffs(series, eps)[1].tolist()
                gap = abs(budgeted.value - full.value)
                assert gap <= n_err[-1] + 1e-12 * (1.0 + abs(full.value))
                shifted += gap > 0
        assert shifted >= 5

    def test_bare_pairing_is_planned(self):
        # the plan's caps and n-cutoffs; the first pass alone planned
        # (184, 898), value 8.281437126069491, error 60.643164297943365
        m, N = 1, 271
        plan = trace._plan(CHI15, [(m, N)], lambda e: trace._pairing_error(m, N, *e))
        [(t, d)], [(a_eps, b_eps)] = plan.caps, plan.tail_eps
        res = q.pairing_numeric(m, N, CHI15)
        assert res.error_bound == plan.error
        a = q.A_numeric(m, CHI15, N, t_max=t, tail_eps=a_eps)
        b = q.B_numeric(m, CHI15, N, d_max=d, tail_eps=b_eps)
        lead = 4 * math.pi * math.exp(-trace._x(15, N))
        value = lead - 8 * math.pi**2 * (a.value + CHI15(N) / math.sqrt(N) * b.value)
        assert res == q.NumericResult(value, trace._pairing_error(m, N, a.error_bound, b.error_bound))
        assert res.error_bound <= 60.643164297943365
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

    def test_both_modes_read_the_margin(self, monkeypatch):
        # lower must exceed the margin, not only 0, in either mode: at (15, 271)
        # both lower bounds (0.080 and 0.713) lie below a margin of 1
        closed, numeric = q.certify_nonvanishing(271, CHI15), q.certify_numeric(271, CHI15)
        assert closed.certified and numeric.certified
        monkeypatch.setattr(trace, "_CERT_MARGIN", 1.0)
        assert not q.certify_nonvanishing(271, CHI15).certified
        assert not q.certify_numeric(271, CHI15).certified

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
