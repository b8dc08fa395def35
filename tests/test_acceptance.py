"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <n>: PASS/FAIL" line (visible with
pytest -s; the assertions fail loudly either way) and enforces the
stated tolerance and runtime budget.
"""

import contextlib
import math
import time

import pytest

import qcbounds as q
from qcbounds import verify


@contextlib.contextmanager
def criterion(num: int, description: str, budget_s: float):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num}: PASS - {description} [{elapsed:.1f}s / {budget_s:.0f}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_nonvanishing_grid():
    with criterion(1, "nonvanishing certificates for 15 <= D <= 403", 60):
        for D in q.fundamental_discriminants(15, 403):
            chi = q.make_character(D)
            p = q.next_prime(math.floor(q.nonsplit_threshold(D)))
            while D % p == 0:
                p = q.next_prime(p)
            cert = q.certify_nonvanishing(p, chi)
            assert cert.verdict == "certified-positive", (D, p, cert.lower_bound)


def test_criterion_2_certificate_numeric_agreement():
    with criterion(2, "numeric pairing exceeds 4*pi*lower_bound - error", 10):
        for D, p in [(15, 271), (19, 311), (20, 317)]:
            chi = q.make_character(D)
            num = q.certify_numeric(p, chi).components
            cert = q.certify_nonvanishing(p, chi)
            assert num["value"] > 0, (D, p, num)
            assert num["value"] > 4 * math.pi * cert.lower_bound - num["error_bound"], (D, p)


def test_criterion_3_weil_suite():
    with criterion(3, "Weil bounds on 1<=m,n<=12, c<=400 at 1e-6", 10):
        result = verify.weil_suite(max_c=400, max_mn=12)
        assert result.passed, result.failures[:5]
        assert result.checks == 116153


def test_criterion_4_trig_inequality():
    with criterion(4, "S_{K,F} <= (4F/pi^2)(log F + 1.5) for F<=300", 10):
        result = verify.trig_suite(max_f=300)
        assert result.passed, result.failures[:5]
        assert result.checks == 45449


def test_criterion_5_twisted_sums():
    with criterion(5, "twisted DFT bound/zero structure and partial sups", 10):
        result = verify.twisted_suite(discs=(3, 4, 7, 8, 11, 15), max_c=60, max_m=5)
        assert result.passed, result.failures[:5]
        assert result.checks == 665740


def test_criterion_6_tau_tail():
    with criterion(6, "tau-tail bound for lambda <= 1000 against 1e6 cutoff", 10):
        result = verify.tails_suite(max_lambda=1000, cutoff=10**6)
        assert result.passed, result.failures[:5]
        assert result.checks == 2002


def test_criterion_7_runge():
    with criterion(7, "unit functional equations, deviations, Runge bound", 10):
        result = verify.runge_suite(seed=verify.DEFAULT_SEED, samples=200)
        assert result.passed, result.failures[:5]
        assert result.checks == 122899
        assert q.runge_j_bound(2) == pytest.approx(21.045, abs=1e-3)


def test_criterion_8_component_groups():
    with criterion(8, "component groups, rho table, two-torsion sweep", 30):
        result = verify.compgroup_suite(seed=verify.DEFAULT_SEED)
        assert result.passed, result.failures[:5]
        assert result.checks == 433


def test_criterion_9_thresholds():
    with criterion(9, "main thresholds and contradiction sweeps", 10):
        report = q.main_thresholds(3)
        assert report.borel == 2e13
        assert report.split_cartan == 1e7
        assert report.nonsplit_cartan == 1e7
        assert report.exceptional == 67
        borel = q.contradiction_search("borel")
        assert 1.9e13 < borel.max_allowed_p <= 2e13, borel
        cartan = q.contradiction_search("cartan")
        assert cartan.max_allowed_p < 1e7, cartan


def test_criterion_10_displayed_constants():
    # Full reproduction of the uniform-surjectivity theorems is a
    # mathematical statement, not a computation; what is checkable is that
    # the closed-form evaluators expose the displayed constants exactly,
    # on top of criteria 8 and 9.
    with criterion(10, "closed-form evaluators match the displayed constants", 10):
        assert q.faltings_upper_from_j_height(0.0) == 2.38
        assert q.serre_uniform_bound(1, 500.0) == pytest.approx(9.70225e12)
        assert q.exceptional_bound(1) == 31
        assert q.exceptional_bound(2) == 61
        assert q.next_prime(q.exceptional_bound(2)) == 67
        assert q.runge_j_bound(2) == pytest.approx(
            2 * math.pi * math.sqrt(2) + 6 * math.log(2) + 8
        )
        # certificate main term carries the 294/416/227 coefficients
        D, p = 15, 271
        cert = q.certify_nonvanishing(p, q.make_character(D))
        ld, lp = math.log(D), math.log(p)
        expected_main = math.sqrt(D) / p**2 * (
            294 * ld**2 + 416 * ld * lp + 227 * lp**2
        )
        assert cert.components["abel_main"] == pytest.approx(expected_main, rel=1e-12)
        # tau-tail closed form (2 log lambda + 7)/sqrt(lambda)
        assert q.tail_bounds(1).tau_tail == 7.0
        # partial-sum bound 4 c sqrt(D)/pi^2 (log(Dc) + 1.5)
        assert q.twisted_partial_bound(1, 3) == pytest.approx(
            4 * math.sqrt(3) / math.pi**2 * (math.log(3) + 1.5)
        )


def test_criterion_11_numeric_certificates_at_planned_caps():
    with criterion(11, "numeric certificates at planned caps for 15 <= D <= 31", 5):
        for D in q.fundamental_discriminants(15, 31):
            p = q.next_prime(math.floor(q.nonsplit_threshold(D)))
            while D % p == 0:
                p = q.next_prime(p)
            cert = q.certify_numeric(p, q.make_character(D))
            assert cert.verdict == "certified-positive", (D, p, cert.lower_bound)


def test_criterion_2_frozen_numeric_snapshot():
    # Regression anchor for the numeric engine at modest cost: the three
    # series pieces at (D, p) = (3, 73) reproduce frozen values within
    # their own error bounds.
    chi3 = q.make_character(3)
    res = q.pairing_numeric(1, 73**2, chi3, t_max=64, d_max=300)
    lead = 4 * math.pi * math.exp(-2 * math.pi / (3 * 73))
    assert abs(res.value - lead) < 1.0
    # the error bound is dominated by the tau-tail majorant of the d-sum
    assert res.error_bound < 4.0
    assert res.value == pytest.approx(12.4743175, abs=1e-4)
