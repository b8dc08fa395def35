"""Closed-form isogeny/surjectivity bounds and the threshold sweeps."""

import math

import numpy as np
import pytest

import qcbounds as q
from qcbounds.errors import DomainError, NotFundamental
from qcbounds.isogeny import HEIGHT_FLOOR, SERRE_CONSTANT


class TestFaltingsFromJ:
    def test_values(self):
        assert q.faltings_upper_from_j_height(0.0) == pytest.approx(2.38)
        assert q.faltings_upper_from_j_height(12.0) == pytest.approx(3.38)
        assert q.faltings_upper_from_j_height(24.0) == pytest.approx(4.38)


class TestSerreBound:
    def test_floor_case(self):
        assert q.serre_uniform_bound(1, 500.0) == pytest.approx(9.70225e12)

    def test_degree_two(self):
        expect = 4e7 * (1000.0 + 4 * math.log(2)) ** 2
        assert q.serre_uniform_bound(2, 1000.0) == pytest.approx(expect)

    def test_monotone_in_height(self):
        prev = 0.0
        for h in (0.0, 100.0, 985.0, 986.0, 2000.0, 1e4):
            v = q.serre_uniform_bound(3, h)
            assert v >= prev
            prev = v


class TestProductInequality:
    def test_empty(self):
        r = q.serre_product_inequality(1, 0.0, [], [])
        assert r.lhs == 1.0 and r.satisfied

    def test_borel_boundary(self):
        limit = q.serre_uniform_bound(1, 0.0)
        below = q.serre_product_inequality(1, 0.0, [int(limit) - 1], [])
        above = q.serre_product_inequality(1, 0.0, [int(limit) + 10], [])
        assert below.satisfied and not above.satisfied

    def test_cartan_unsatisfiable(self):
        rhs = q.serre_product_inequality(1, 0.0, [], [3]).rhs
        big_q = int(2 * math.sqrt(rhs)) + 10
        assert not q.serre_product_inequality(1, 0.0, [], [big_q]).satisfied

    def test_specializes_to_uniform_bound(self):
        # singleton Borel list with no Cartan factor reproduces the
        # surjectivity threshold exactly
        for deg, h in [(1, 0.0), (2, 985.0), (3, 1200.0)]:
            r = q.serre_product_inequality(deg, h, [], [])
            assert r.rhs == pytest.approx(q.serre_uniform_bound(deg, h))
            assert r.rhs == pytest.approx(q.qcurve_case_bounds(deg, h).borel_dp)


class TestQCurveCaseBounds:
    def test_values(self):
        b = q.qcurve_case_bounds(1, 0.0)
        assert b.borel_dp == pytest.approx(9.70225e12)
        b2 = q.qcurve_case_bounds(2, 985.0)
        assert b2.borel_dp == pytest.approx(4e7 * (985 + 4 * math.log(2)) ** 2)
        # deg^2 = 4 is part of the displayed bound (the paper's Corollary
        # carries [K:Q]^2 in both cases)
        assert b2.cartan_dp2 == pytest.approx(16e7 * (985 + 4 * math.log(4)) ** 2)
        # the Cartan case is the Serre bound at degree 2 deg, bit for bit
        # equal to its expanded form 4*10^7 deg^2 (max(h_F,985) + 4 log(2 deg))^2
        for h in (0.0, 1.5, 500.0, 985.0, 1200.0, 3700.0, 5000.0, 1e6):
            for deg in range(1, 200):
                expanded = (4.0 * SERRE_CONSTANT * deg**2
                            * (max(h, HEIGHT_FLOOR) + 4.0 * math.log(2 * deg)) ** 2)
                assert q.qcurve_case_bounds(deg, h).cartan_dp2 == expanded, (deg, h)

    def test_monotone(self):
        for deg in (1, 2, 3):
            prev = (0.0, 0.0)
            for h in (0.0, 985.0, 2000.0):
                cur = q.qcurve_case_bounds(deg, h)
                assert cur.borel_dp >= prev[0] and cur.cartan_dp2 >= prev[1]
                prev = cur


class TestExceptional:
    def test_values(self):
        assert q.exceptional_bound(1) == 31
        assert q.exceptional_bound(2) == 61
        assert q.exceptional_bound(3) == 91

    def test_main_theorem_consistency(self):
        # smallest prime above 61 is 67, the theorem's fourth bullet
        assert q.next_prime(q.exceptional_bound(2)) == 67


class TestMainThresholds:
    def test_small_discriminants(self):
        for D in (3, 4):
            r = q.main_thresholds(D)
            assert (r.borel, r.split_cartan, r.nonsplit_cartan, r.exceptional) == (
                2e13, 1e7, 1e7, 67,
            )

    def test_nonsplit_crossover(self):
        # 50 D^(1/4) log D crosses 1e7 near D = 1.3e15; every discriminant
        # the artifact can actually factor stays on the 1e7 branch, so the
        # crossover itself is checked on the bare threshold formula.
        assert q.main_thresholds(3).nonsplit_cartan == 1e7
        assert q.nonsplit_threshold(10**16) > 1e7
        assert q.nonsplit_threshold(10**14) < 1e7

    def test_rejects_nonfundamental(self):
        with pytest.raises(NotFundamental):
            q.main_thresholds(9)

    def test_nonsplit_threshold_values(self):
        assert q.nonsplit_threshold(3) == pytest.approx(72.2928, abs=1e-3)
        assert q.nonsplit_threshold(4) == pytest.approx(98.0259, abs=1e-3)
        assert q.nonsplit_threshold(15) == pytest.approx(266.471, abs=1e-2)

    def test_threshold_prime(self):
        for D in q.fundamental_discriminants(3, 403):
            p = q.next_prime(math.floor(q.nonsplit_threshold(D)))
            while D % p == 0:
                p = q.next_prime(p)
            assert q.threshold_prime(D) == p, D
        assert [q.threshold_prime(D) for D in (3, 4, 15, 24, 403)] == [73, 101, 269, 353, 1361]
        # 25796 = 4 * 6449, and 6449 is the first prime above its threshold
        assert math.floor(q.nonsplit_threshold(25796)) < 6449 < q.threshold_prime(25796) == 6451


def sieve_contradiction_search(case, d_limit):
    """The sweep over every 2 <= d <= d_limit that the closed form replaces."""
    spf = np.zeros(d_limit + 1, dtype=np.int64)
    for i in range(2, d_limit + 1):
        if spf[i] == 0:
            spf[i::i][spf[i::i] == 0] = i
    d = np.arange(2, d_limit + 1, dtype=np.float64)
    d0 = spf[2 : d_limit + 1].astype(np.float64)
    h_f = (2.0 * math.pi * np.sqrt(d0) + 6.0 * np.log(d0) + 8.0) / 12.0 + 3.0
    m = np.maximum(h_f, HEIGHT_FLOOR)
    if case == "borel":
        allowed = SERRE_CONSTANT * 4.0 * (m + 4.0 * math.log(2.0)) ** 2 / d
    else:
        allowed = np.sqrt(4.0 * SERRE_CONSTANT * 4.0 * (m + 4.0 * math.log(4.0)) ** 2 / d)
    i = int(np.argmax(allowed))
    return float(allowed[i]), int(d[i])


class TestContradictionSearch:
    @pytest.mark.parametrize("case", ["borel", "cartan"])
    @pytest.mark.parametrize("d_limit", [10**3, 10**5])
    def test_matches_sieve(self, case, d_limit):
        assert tuple(q.contradiction_search(case, d_limit)) == sieve_contradiction_search(
            case, d_limit
        )

    def test_default_values(self):
        assert tuple(q.contradiction_search("borel")) == (19513893740620.703, 2)
        assert tuple(q.contradiction_search("cartan")) == (8859705.406201791, 2)

    def test_rejects_limit_past_height_floor(self):
        q.contradiction_search("borel", 3_458_970)
        with pytest.raises(DomainError):
            q.contradiction_search("borel", 3_458_971)
        with pytest.raises(DomainError):
            q.contradiction_search("cartan", 1)

    def test_borel_dominated(self):
        sweep = q.contradiction_search("borel", d_limit=10**5)
        assert 1.9e13 < sweep.max_allowed_p <= 2e13
        assert sweep.argmax_d == 2

    def test_cartan_dominated(self):
        sweep = q.contradiction_search("cartan", d_limit=10**5)
        assert sweep.max_allowed_p < 1e7
        assert sweep.argmax_d == 2

    def test_threshold_domination(self):
        r = q.main_thresholds(3)
        assert q.contradiction_search("borel", 10**5).max_allowed_p < r.borel
        assert q.contradiction_search("cartan", 10**5).max_allowed_p < r.split_cartan
