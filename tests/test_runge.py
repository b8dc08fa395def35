"""Modular units, fundamental-domain reduction and the Runge bound."""

import cmath
import math

import mpmath
import numpy as np
import pytest

import qcbounds as q
from qcbounds import runge
from qcbounds.errors import DomainError, NonConvergence, NotPrime
from qcbounds.runge import UpperHalfPoint, log_abs_unit_g
from qcbounds.verify import runge_suite


def pt(re, im):
    return UpperHalfPoint(re, im)


class TestUpperHalfPoint:
    @pytest.mark.parametrize("re,im", [
        (0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (0.0, math.nan),
        (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf),
    ])
    def test_rejects_points_off_the_open_half_plane(self, re, im):
        with pytest.raises(DomainError):
            UpperHalfPoint(re, im)

    def test_replace_checks_the_new_point(self):
        with pytest.raises(DomainError):
            pt(0.3, 1.1)._replace(im=0.0)
        assert pt(0.3, 1.1)._replace(re=0.5) == pt(0.5, 1.1)

    def test_fields_cannot_be_reassigned(self):
        tau = pt(0.3, 1.1)
        for field in ("re", "im"):
            with pytest.raises(AttributeError):
                setattr(tau, field, 2.0)
        assert tau.z == complex(0.3, 1.1)


class TestDelta:
    def test_periodicity(self):
        d1 = q.delta(pt(0.3, 1.1))
        d2 = q.delta(pt(1.3, 1.1))
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_weight_12_modularity(self):
        tau = pt(0.3, 1.1)
        lhs = q.delta(UpperHalfPoint.from_complex(-1 / tau.z))
        rhs = tau.z**12 * q.delta(tau)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_real_positive_on_imaginary_axis(self):
        d = q.delta(pt(0.0, 1.0))
        assert abs(d.imag) < 1e-18 and d.real > 0

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            pt(0.0, -1.0)


class TestUnitG:
    def test_leading_power(self):
        # log|g(10i, 2)| = 20 pi up to 25 e^(-20 pi)
        got = log_abs_unit_g(pt(0.0, 10.0), 2)
        assert abs(got - 20 * math.pi) <= 25 * math.exp(-20 * math.pi) + 1e-12

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_inversion_functional_equation(self, p):
        tau = pt(1.0, 1.0)
        v = q.unit_g(UpperHalfPoint.from_complex(-1 / tau.z), p) * q.unit_g(
            UpperHalfPoint.from_complex(tau.z / p), p
        )
        assert abs(v - p**12) <= 1e-8 * p**12

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_atkin_lehner_form(self, p):
        tau = pt(0.2, 1.3)
        v = q.unit_g(UpperHalfPoint.from_complex(-1 / (p * tau.z)), p) * q.unit_g(tau, p)
        assert abs(v - p**12) <= 1e-8 * p**12

    def test_g0_is_g_after_inversion(self):
        tau = pt(0.1, 1.4)
        assert q.unit_g0(tau, 5) == pytest.approx(
            q.unit_g(UpperHalfPoint.from_complex(-1 / tau.z), 5), rel=1e-10
        )


class TestJInvariant:
    def test_special_values(self):
        assert q.j_invariant(pt(0.0, 1.0)) == pytest.approx(1728.0, rel=1e-6)
        assert abs(q.j_invariant(pt(0.5, math.sqrt(3) / 2))) < 1e-6

    def test_periodicity(self):
        assert q.j_invariant(pt(0.37, 1.2)) == pytest.approx(
            q.j_invariant(pt(1.37, 1.2)), rel=1e-10
        )

    @pytest.mark.parametrize("re_, im", [(0.3, 0.01), (0.1, 0.05)])
    def test_invariance_near_the_real_line(self, re_, im):
        # tau, tau + 1 and -1/tau reduce to one point up to rounding; the
        # unreduced q-series drifted by up to 4.5e-11 relative here
        tau = complex(re_, im)
        j0, j1, j2 = (q.j_invariant(UpperHalfPoint.from_complex(z)) for z in (tau, tau + 1, -1 / tau))
        assert j1 == pytest.approx(j0, rel=1e-13)
        assert j2 == pytest.approx(j0, rel=1e-13)


class TestReduction:
    def test_fixed_point(self):
        r, g = q.reduce_to_fundamental_domain(pt(0.0, 1.0))
        assert (r.re, r.im) == (0.0, 1.0) and g == ((1, 0), (0, 1))

    def test_inversion(self):
        r, g = q.reduce_to_fundamental_domain(pt(0.0, 0.2))
        assert r.im == pytest.approx(5.0) and g == ((0, -1), (1, 0))

    def test_translation(self):
        r, g = q.reduce_to_fundamental_domain(pt(7.3, 2.0))
        assert r.re == pytest.approx(0.3) and r.im == 2.0
        assert g == ((1, -7), (0, 1))

    def test_random_cloud(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tau = pt(float(rng.uniform(-3, 3)), float(rng.uniform(0.02, 4.0)))
            r, g = q.reduce_to_fundamental_domain(tau)
            assert abs(r.re) <= 0.5 + 1e-12
            assert abs(r.z) >= 1.0 - 1e-12
            (a, b), (c, d) = g
            assert a * d - b * c == 1
            moved = (a * tau.z + b) / (c * tau.z + d)
            assert moved == pytest.approx(r.z, abs=1e-9)
            # |q| on the reduced point is below e^(-pi sqrt 3) < 0.005
            assert math.exp(-2 * math.pi * r.im) <= math.exp(-math.pi * math.sqrt(3)) + 1e-9
            jv = q.j_invariant(tau)
            assert q.j_invariant(r) == pytest.approx(jv, rel=1e-6)

    def test_denormal_height_still_reduces(self):
        # each inversion multiplies im by 1/|z|^2 > 1, so even im = 1e-300
        # escapes in a few hundred steps
        r, _ = q.reduce_to_fundamental_domain(pt(math.sqrt(2), 1e-300))
        assert r.im >= math.sqrt(3) / 2 - 1e-9

    def test_inversion_overflow_is_a_domain_error(self):
        # -1/z is infinite at z = 5e-324 i; at 1e-308 i it is still 1e308 i
        with pytest.raises(DomainError, match="reduction overflowed"):
            q.reduce_to_fundamental_domain(pt(0.0, 5e-324))
        r, _ = q.reduce_to_fundamental_domain(pt(0.0, 1e-308))
        assert r.im == pytest.approx(1e308)

    def test_nonconvergence_guard(self, monkeypatch):
        import qcbounds.runge as runge_mod

        monkeypatch.setattr(runge_mod, "_MAX_REDUCTION_STEPS", 3)
        with pytest.raises(NonConvergence):
            q.reduce_to_fundamental_domain(pt(math.sqrt(2), 1e-300))


class TestCuspLocation:
    def test_already_reduced(self):
        loc = q.locate_near_cusp(pt(0.0, 1.0), 5)
        assert loc.cusp == "c_infinity" and loc.tau.z == 1j

    def test_inverted_point(self):
        loc = q.locate_near_cusp(pt(0.0, 0.2), 5)
        assert loc.cusp == "c_zero" and loc.tau.z == pytest.approx(5j)

    def test_gamma_membership(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            tau = pt(float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2.0)))
            for p in (2, 3, 5, 7, 11):
                loc = q.locate_near_cusp(tau, p)
                (a, b), (c, d) = loc.gamma
                assert a * d - b * c == 1
                moved = (a * tau.z + b) / (c * tau.z + d)
                assert moved == pytest.approx(loc.tau.z, abs=1e-9)
                if loc.cusp == "c_infinity":
                    assert c % p == 0
                else:
                    # w * gamma lands in Gamma_0(p): -1/tau' ~ tau under it
                    w_gamma = ((c, d), (-a, -b))
                    assert w_gamma[1][0] % p == 0

    def test_unit_transport(self):
        # g is Gamma_0(p)-invariant, so the unit transported to the located
        # representative matches g at the original point.
        tau = pt(0.123, 0.37)
        for p in (2, 3, 5, 7):
            loc = q.locate_near_cusp(tau, p)
            val = q.unit_g0(loc.tau, p) if loc.cusp == "c_zero" else q.unit_g(loc.tau, p)
            ref = q.unit_g(tau, p)
            assert val == pytest.approx(ref, rel=1e-9)


class TestProductLogBounds:
    def test_values(self):
        b = q.log_abs_product_bounds(0.005 + 0j, 0.005)
        assert b.small_q == pytest.approx(0.0050377, abs=1e-6)
        b2 = q.log_abs_product_bounds(cmath.exp(-math.pi * math.sqrt(3)), 0.5)
        # pi^2 / (6 log|q^-1|) with log|q^-1| = pi sqrt(3)
        assert b2.general == pytest.approx(math.pi / (6 * math.sqrt(3)), abs=1e-9)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            q.log_abs_product_bounds(1.5 + 0j, 0.5)
        with pytest.raises(DomainError):
            q.log_abs_product_bounds(0.4 + 0j, 0.2)

    def test_dominates_direct_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            r = 0.005
            aq = float(rng.uniform(0.0005, r))
            phase = float(rng.uniform(0, 2 * math.pi))
            qq = aq * cmath.exp(1j * phase)
            direct = 0.0
            qn = 1.0 + 0j
            for _n in range(10_000):
                qn *= qq
                direct += abs(math.log(abs(1 - qn)))
                if abs(qn) < 1e-300:
                    break
            b = q.log_abs_product_bounds(qq, r)
            assert direct <= b.small_q + 1e-12
            assert direct <= b.general + 1e-12


class TestDeviations:
    def test_near_infinity(self):
        dev = q.g_deviation(pt(0.0, 2.0), 5)
        assert dev.near_inf_dev <= 25 * math.exp(-4 * math.pi)

    def test_near_zero_at_corner(self):
        rho = pt(0.5, math.sqrt(3) / 2)
        dev = q.g_deviation(rho, 3)
        bound = 4 * math.pi**2 * 3 / (math.pi * math.sqrt(3)) + 12 * math.log(3)
        assert 0 <= dev.near_zero_dev <= bound

    def test_bounds_on_sample(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            tau = pt(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2.0)))
            r, _ = q.reduce_to_fundamental_domain(tau)
            abs_q = math.exp(-2 * math.pi * r.im)
            for p in (2, 3, 7):
                dev = q.g_deviation(r, p)
                assert dev.near_inf_dev <= 25 * abs_q
                assert dev.near_zero_dev <= (
                    4 * math.pi**2 * p / (2 * math.pi * r.im) + 12 * math.log(p)
                )

    def test_near_infinity_high_in_the_cusp(self):
        # |q| ~ 2.3e-14 is below the rounding of log|g| ~ 31; the deviation
        # 24 sum log|1-q^n| ~ -24 q must keep its digits anyway.
        tau = pt(0.0, 5.0)
        abs_q = math.exp(-2 * math.pi * 5.0)
        for p in (2, 3, 11):
            assert q.g_deviation(tau, p).near_inf_dev == pytest.approx(24 * abs_q, rel=1e-9)

    @pytest.mark.parametrize("seed", [7, 10])
    def test_runge_suite_seeds(self, seed):
        res = runge_suite(seed=seed)
        assert res.passed, res.failures[:5]


class TestEstimateChains:
    """The two chains behind the Runge bound hold for every p >= 3 (the
    lemma in runge_suite's docstring), not only on the suite's p <= 10^4."""

    SAMPLES = sorted({3, 4, 5, 10, 97, 10_001} | {int(10 ** (k / 4)) for k in range(17, 49)})

    @staticmethod
    def margin_bound(p):
        return 7 - mpmath.pi * mpmath.sqrt(p) / (p - 1) - 6 * mpmath.log(p) / (p - 1)

    def test_near_zero_margin_is_at_least_its_bound(self):
        # the margin subtracts two terms of size 2 pi sqrt(p) that agree to
        # within pi/sqrt(p): evaluate it at 50 digits
        with mpmath.workdps(50):
            bounds = []
            for p in map(mpmath.mpf, self.SAMPLES):
                margin = (2 * mpmath.pi * mpmath.sqrt(p) + 6 * mpmath.log(p) + 7
                          - 2 * mpmath.pi * p / mpmath.sqrt(p - 1)
                          - 6 * p * mpmath.log(p) / (p - 1))
                bounds.append(self.margin_bound(p))
                assert margin >= bounds[-1], p
            assert bounds == sorted(bounds) and 0.98 < bounds[0] < 0.99 and bounds[-1] < 7

    def test_near_infinity_sides_are_monotone(self):
        lhs = [(25.0 * 0.005 + 12.0 * math.log(p)) / (p - 1) for p in [2, *self.SAMPLES]]
        rhs = [2.0 * math.pi * math.sqrt(p) for p in [2, *self.SAMPLES]]
        assert lhs == sorted(lhs, reverse=True) and rhs == sorted(rhs)
        assert lhs[0] <= rhs[0]

    def test_runge_suite_keeps_its_checks(self):
        assert runge_suite().checks == 122_899


class TestRungeBound:
    def test_values(self):
        assert q.runge_j_bound(2) == pytest.approx(21.045, abs=1e-3)
        assert q.runge_j_bound(11) == pytest.approx(43.2263, abs=1e-3)

    def test_monotone(self):
        vals = [q.runge_j_bound(p) for p in (2, 3, 5, 7, 11, 13, 101)]
        assert vals == sorted(vals)


class TestPrimeCheck:
    # the unit g and the two cusps of X0(p) need p prime: X0(4) has three
    # cusps, and locate_near_cusp inverts c mod p
    CALLS = {
        "unit_g": lambda p: q.unit_g(pt(0.0, 1.5), p),
        "unit_g0": lambda p: q.unit_g0(pt(0.0, 1.5), p),
        "log_abs_unit_g": lambda p: log_abs_unit_g(pt(0.0, 1.5), p),
        "g_deviation": lambda p: q.g_deviation(pt(0.0, 1.5), p),
        "locate_near_cusp": lambda p: q.locate_near_cusp(pt(0.3, 0.08), p),
        "runge_j_bound": q.runge_j_bound,
    }

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("p", [4, 9, -5, 1])
    def test_rejects_a_composite_or_unit(self, name, p):
        with pytest.raises(NotPrime, match=f"^{p} is not prime$"):
            self.CALLS[name](p)


class TestExpansionLength:
    # every q-product and q-series takes its length from _product_terms,
    # which refuses past 2^20 terms: at Im tau = 1e-6 that is 7.77 M terms,
    # which took 2.4 s, and at 1e-9 8.9e9, still running after 20 s
    CALLS = {
        "delta": runge.delta,
        "unit_g": lambda tau: runge.unit_g(tau, 2),
        "log_abs_unit_g": lambda tau: runge.log_abs_unit_g(tau, 2),
        "g_deviation": lambda tau: runge.g_deviation(tau, 2),
        "eisenstein_e4": runge.eisenstein_e4,
    }

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("im, terms", [(1e-6, 7769785), (1e-9, 8869187741)])
    def test_past_the_bound_is_a_domain_error(self, name, im, terms):
        with pytest.raises(DomainError, match=f"needs {terms} terms, past 2\\^20$"):
            self.CALLS[name](pt(0.0, im))

    def test_bound_lies_near_im_tau_seven_millionths(self):
        assert runge._product_terms(abs(pt(0.0, 7.2e-6).q)) <= runge._MAX_TERMS
        with pytest.raises(DomainError, match="needs 1065727 terms"):
            runge._product_terms(abs(pt(0.0, 7.0e-6).q))
