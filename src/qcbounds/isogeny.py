"""Closed-form height, isogeny and surjectivity bounds.

Everything here is elementary arithmetic on the explicit constants: the
Faltings-height/j-height comparison h_F <= h(j)/12 + 2.38, the effective
surjectivity bound 10^7 [K:Q]^2 (max(h_F, 985) + 4 log[K:Q])^2 and its
product form over Borel/Cartan prime sets, the per-case degree-weighted
corollaries, the final four thresholds, and the sharp Runge-plus-isogeny
contradiction that the round numbers dominate, in closed form for every
degree (the lemma in contradiction_search).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .arith import make_character, next_prime

SERRE_CONSTANT = 1e7
HEIGHT_FLOOR = 985.0
FALTINGS_SHIFT = 2.38
BOREL_THRESHOLD = 2e13
CARTAN_THRESHOLD = 1e7


class ThresholdReport(NamedTuple):
    discriminant: int
    borel: float
    split_cartan: float
    nonsplit_cartan: float
    exceptional: int


def faltings_upper_from_j_height(h_j: float) -> float:
    """h_F(E) <= h(j(E))/12 + 2.38."""
    if h_j < 0:
        raise ValueError("heights are nonnegative")
    return h_j / 12.0 + FALTINGS_SHIFT


def serre_uniform_bound(deg_K: int, h_F: float) -> float:
    """10^7 [K:Q]^2 (max(h_F, 985) + 4 log[K:Q])^2."""
    if deg_K < 1:
        raise ValueError("field degree must be >= 1")
    base = max(h_F, HEIGHT_FLOOR) + 4.0 * math.log(deg_K)
    return SERRE_CONSTANT * deg_K**2 * base**2


class ProductInequality(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool


def serre_product_inequality(
    deg_K: int,
    h_F: float,
    borel_primes: Iterable[int],
    cartan_primes: Iterable[int],
) -> ProductInequality:
    """prod_B p * prod_C q^2/4 <= 10^7 deg^2 (max(h_F,985) + 4 log deg
    + 4 |C| log 2)^2."""
    if deg_K < 1:
        raise ValueError("field degree must be >= 1")
    borel = list(borel_primes)
    cartan = list(cartan_primes)
    lhs = 1.0
    for p in borel:
        lhs *= p
    for q in cartan:
        lhs *= q * q / 4.0
    base = max(h_F, HEIGHT_FLOOR) + 4.0 * math.log(deg_K) + 4.0 * len(cartan) * math.log(2.0)
    rhs = SERRE_CONSTANT * deg_K**2 * base**2
    return ProductInequality(lhs, rhs, lhs <= rhs)


class QCurveCaseBounds(NamedTuple):
    borel_dp: float
    cartan_dp2: float


def qcurve_case_bounds(deg_K: int, h_F: float) -> QCurveCaseBounds:
    """Reducible case: d(E) p <= 10^7 deg^2 (max(h_F,985) + 4 log deg)^2,
    the Serre bound at degree deg.  Cartan case: d(E) p^2 <= 4*10^7 deg^2
    (max(h_F,985) + 4 log(2 deg))^2, the Serre bound at degree 2 deg."""
    return QCurveCaseBounds(serre_uniform_bound(deg_K, h_F), serre_uniform_bound(2 * deg_K, h_F))


def exceptional_bound(deg_K: int) -> int:
    """Exceptional images die above 30 [K:Q] + 1."""
    if deg_K < 1:
        raise ValueError("field degree must be >= 1")
    return 30 * deg_K + 1


def nonsplit_threshold(D: int) -> float:
    """50 D^(1/4) log D, the nonvanishing threshold of the nonsplit case."""
    if D < 3:
        raise ValueError("need D >= 3")
    return 50.0 * D**0.25 * math.log(D)


def threshold_prime(D: int) -> int:
    """The smallest prime above nonsplit_threshold(D) that does not divide D,
    the prime at which the certificates of D are made."""
    p = next_prime(math.floor(nonsplit_threshold(D)))
    while D % p == 0:
        p = next_prime(p)
    return p


def main_thresholds(D: int) -> ThresholdReport:
    """The four per-case prime thresholds for a given discriminant."""
    make_character(D)  # the one check of D, NotFundamental unless -D is fundamental
    return ThresholdReport(
        discriminant=D,
        borel=BOREL_THRESHOLD,
        split_cartan=CARTAN_THRESHOLD,
        nonsplit_cartan=max(CARTAN_THRESHOLD, nonsplit_threshold(D)),
        exceptional=next_prime(exceptional_bound(2)),
    )


class ContradictionSweep(NamedTuple):
    max_allowed_p: float
    argmax_d: int


def contradiction_search(case: str) -> ContradictionSweep:
    """Largest prime p compatible with the Runge and isogeny bounds, over
    every degree surrogate d >= 2.

    Let d0 be the smallest prime factor of d.  The Runge bound gives
    h_F <= h(d0) = runge_j_bound(d0)/12 + 3 = (2 pi sqrt(d0) + 6 log d0
    + 8)/12 + 3 (the proof rounds 2.38 up to 3); the isogeny corollary at
    [K:Q] = 2 then caps d*p by B(h) = 4*10^7 (max(h, 985) + 4 log 2)^2
    (Borel) or d*p^2 by C(h) = 16*10^7 (max(h, 985) + 4 log 4)^2
    (Cartan).  All d count, not just squarefree ones, which only
    strengthens the check.

    Lemma: the allowed p is largest at d = 2, where it is B(985)/2 or
    sqrt(C(985)/2).  Proof: h rises with d0, and h(3458970) = 984.99995
    < 985 < h(3458971) = 985.00009.
    - d0 <= 3458970: max(h, 985) = 985, and the allowed p, B/d or
      sqrt(C/d), is largest at d = 2.
    - d0 > 3458970: as d >= d0, p <= B(h(d0))/d0 = 4*10^7 ((h + c)/sqrt(d0))^2
      with c = 4 log 2, or p <= sqrt(C(h(d0))/d0) = sqrt(16*10^7)
      (h + c)/sqrt(d0) with c = 4 log 4, where
      (h + c)/sqrt(d0) = pi/6 + (log(d0)/2 + 11/3 + c)/sqrt(d0).  For
      x >= 1, (a log x + b)/sqrt(x) decreases when b > 2a, so both bounds
      fall in d0 from their values at d0 = 3458971, 1.128*10^7 (Borel)
      and 6.74*10^3 (Cartan), far below the d = 2 values.  As d0 grows
      the Borel bound tends to 4*10^7 pi^2/36 = 1.097*10^7.
    """
    if case not in ("borel", "cartan"):
        raise ValueError("case must be 'borel' or 'cartan'")
    bounds = qcurve_case_bounds(2, HEIGHT_FLOOR)
    if case == "borel":
        return ContradictionSweep(bounds.borel_dp / 2, 2)
    return ContradictionSweep(math.sqrt(bounds.cartan_dp2 / 2), 2)
