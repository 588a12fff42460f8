"""Signature-based Groebner basis computation over prime fields.

The three drivers f5, f5r, and f5c compute Groebner bases of homogeneous
ideals incrementally with signature-based pruning; buchberger_reduced is an
independent oracle.  katsura and cyclic generate the standard benchmark
families, and compare_variants collects per-run instrumentation.
"""

from .algebra import (
    ArityError,
    ExponentOverflowError,
    NonHomogeneousError,
    NotDivisibleError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    TermOrder,
    ZeroPolynomialError,
    homogenize,
    interreduce,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    normal_form,
    order_cmp,
    spoly,
    top_reduce_step,
)
from .bench import RunStats, compare_variants, cyclic, katsura
from .drivers import (
    BasisResult,
    VariantConfig,
    buchberger_reduced,
    f5,
    f5c,
    f5r,
    groebner_check,
    setup_reduced_basis,
)
from .sigcore import Signature, StoreCapExceeded, admissible_check, sig_cmp, sig_mul

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BasisResult",
    "ExponentOverflowError",
    "NonHomogeneousError",
    "NotDivisibleError",
    "Polynomial",
    "PolynomialRing",
    "PrimeField",
    "RunStats",
    "Signature",
    "StoreCapExceeded",
    "TermOrder",
    "VariantConfig",
    "ZeroPolynomialError",
    "admissible_check",
    "buchberger_reduced",
    "compare_variants",
    "cyclic",
    "f5",
    "f5c",
    "f5r",
    "groebner_check",
    "homogenize",
    "interreduce",
    "katsura",
    "monomial_div",
    "monomial_divides",
    "monomial_lcm",
    "monomial_mul",
    "normal_form",
    "order_cmp",
    "sig_cmp",
    "sig_mul",
    "spoly",
    "setup_reduced_basis",
    "top_reduce_step",
]
