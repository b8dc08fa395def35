"""qcbounds: explicit computational bounds around modular curves.

Exact character/Kloosterman arithmetic, verified Weil and twisted-sum
inequalities, trace-formula nonvanishing certificates for twisted
L-sums, Runge-method modular-unit estimates, explicit isogeny and
surjectivity thresholds, and component groups of J0(p) by Smith normal
form.

The names below resolve on first access (PEP 562): `import qcbounds`
imports no submodule, so a CLI command that needs only closed-form
arithmetic starts without loading numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arith": (
        "MultiplicativeValues", "QuadraticCharacter", "divisor_count", "divisor_counts",
        "euler_phi",
        "factorize", "fundamental_discriminants", "gauss_sum", "is_fundamental_negative",
        "is_prime", "kloosterman_direct", "kloosterman_fast", "kronecker",
        "make_character", "multiplicative_functions", "next_prime",
    ),
    "bessel": ("bessel_j1",),
    "bounds": (
        "DTail", "TailBounds", "WeilCase", "abel_sb_bound", "hybrid_d_cap", "hybrid_d_tail",
        "tail_bounds", "trig_sum_bound", "trig_sum_direct", "twisted_partial_bound",
        "twisted_partial_sup", "weil_bound",
    ),
    "compgroup": (
        "ComponentGroup", "RhoValueSet", "SupersingularCounts", "component_group",
        "eisenstein_n", "relation_matrix", "rho_value_set", "smith_normal_form",
        "supersingular_counts", "two_torsion_obstruction",
    ),
    "isogeny": (
        "ThresholdReport", "contradiction_search", "exceptional_bound",
        "faltings_upper_from_j_height", "main_thresholds", "nonsplit_threshold",
        "qcurve_case_bounds", "serre_product_inequality", "serre_uniform_bound",
        "threshold_prime",
    ),
    "runge": (
        "CuspLocation", "UpperHalfPoint", "delta", "g_deviation", "j_invariant",
        "locate_near_cusp", "reduce_to_fundamental_domain", "runge_j_bound", "unit_g",
        "unit_g0",
    ),
    "trace": (
        "A_bound", "A_numeric", "B_bound", "B_numeric", "Certificate", "NumericResult",
        "certify_nonvanishing", "certify_numeric", "pairing_numeric",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
