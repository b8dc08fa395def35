"""Closed-form height, isogeny and surjectivity bounds.

Everything here is elementary arithmetic on the explicit constants: the
Faltings-height/j-height comparison h_F <= h(j)/12 + 2.38, the effective
surjectivity bound 10^7 [K:Q]^2 (max(h_F, 985) + 4 log[K:Q])^2 and its
product form over Borel/Cartan prime sets, the per-case degree-weighted
corollaries, and the final four thresholds together with the sweep that
confirms the round numbers dominate the sharp Runge-plus-isogeny
contradiction.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .arith import is_fundamental_negative, next_prime
from .errors import DomainError, NotFundamental

SERRE_CONSTANT = 1e7
HEIGHT_FLOOR = 985.0
FALTINGS_SHIFT = 2.38
BOREL_THRESHOLD = 2e13
CARTAN_THRESHOLD = 1e7
EXCEPTIONAL_THRESHOLD = 67


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
    if not is_fundamental_negative(D):
        raise NotFundamental(f"-{D} is not a fundamental discriminant")
    return ThresholdReport(
        discriminant=D,
        borel=BOREL_THRESHOLD,
        split_cartan=CARTAN_THRESHOLD,
        nonsplit_cartan=max(CARTAN_THRESHOLD, nonsplit_threshold(D)),
        exceptional=EXCEPTIONAL_THRESHOLD,
    )


class ContradictionSweep(NamedTuple):
    max_allowed_p: float
    argmax_d: int


def contradiction_search(case: str, d_limit: int = 10**6) -> ContradictionSweep:
    """Largest prime p compatible with the Runge and isogeny bounds.

    For each degree surrogate 2 <= d <= d_limit with smallest prime factor
    d0, the Runge bound gives h_F <= (2 pi sqrt(d0) + 6 log d0 + 8)/12 + 3
    (the proof rounds 2.38 up to 3); the isogeny corollary at [K:Q] = 2
    then caps d*p (Borel) or d*p^2 (Cartan).  Returns the supremum over d
    of the implied maximal p; all d count, not just squarefree ones, which
    only strengthens the check.  The height bound increases with
    d0 <= d_limit; while it stays at or below HEIGHT_FLOOR at d_limit, the
    floor replaces it for every d, and the allowed p, bound/d or
    sqrt(bound/d), is largest at d = 2.  Past d_limit = 3458970 that
    closed form no longer holds: DomainError.
    """
    if case not in ("borel", "cartan"):
        raise ValueError("case must be 'borel' or 'cartan'")
    if d_limit < 2:
        raise DomainError(f"d_limit must be >= 2 (got {d_limit})")
    h_max = (2.0 * math.pi * math.sqrt(d_limit) + 6.0 * math.log(d_limit) + 8.0) / 12.0 + 3.0
    if h_max > HEIGHT_FLOOR:
        raise DomainError(
            f"the Runge height bound exceeds {HEIGHT_FLOOR} at d_limit = {d_limit}"
        )
    bounds = qcurve_case_bounds(2, HEIGHT_FLOOR)
    if case == "borel":
        return ContradictionSweep(bounds.borel_dp / 2, 2)
    return ContradictionSweep(math.sqrt(bounds.cartan_dp2 / 2), 2)
