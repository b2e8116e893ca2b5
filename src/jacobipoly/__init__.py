"""Exact classification of bivariate polynomial identity solutions.

The package answers, over the integers, prime fields, and univariate
prime-field extensions: which bivariate polynomials P make the cyclic
composition sum P(P(x,y),z) + P(P(y,z),x) + P(P(z,x),y) vanish formally,
and what do the related one-sided variants force?  It provides the sparse
polynomial arithmetic, the defect computation for four identity forms, a
closed-form family classification with violation witnesses, exhaustive
enumeration oracles that cross-check the classification, and base-p digit
machinery for the binomial residues behind the degree bound.
"""

from .classify import (
    Char3Affine,
    Char3Product,
    ClassificationResult,
    FamilyParams,
    LinearBC,
    SystemResiduals,
    classify,
    constant_solutions,
    family_members,
    make_family,
    system_check,
)
from .errors import AlgebraError
from .jacobi import EquationForm, defect, least_defect_term, satisfies, swap
from .numtheory import (
    Cor2aReport,
    base_p_digits,
    binom_mod_p,
    cor2a_check,
    cor2b_check,
    digit_sum,
    in_s_m,
    is_prime,
    is_s1_by_divisibility,
    lucas_factors,
    s2_parts,
)
from .oracle import (
    EnumReport,
    EnumSpace,
    enumerate_solutions,
    predicted_solutions,
)
from .poly import Monomial, MultiPoly
from .rings import RingElement, RingSpec

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "Char3Affine",
    "Char3Product",
    "ClassificationResult",
    "Cor2aReport",
    "EnumReport",
    "EnumSpace",
    "EquationForm",
    "FamilyParams",
    "LinearBC",
    "Monomial",
    "MultiPoly",
    "RingElement",
    "RingSpec",
    "SystemResiduals",
    "base_p_digits",
    "binom_mod_p",
    "classify",
    "constant_solutions",
    "cor2a_check",
    "cor2b_check",
    "defect",
    "digit_sum",
    "enumerate_solutions",
    "family_members",
    "in_s_m",
    "is_prime",
    "is_s1_by_divisibility",
    "least_defect_term",
    "lucas_factors",
    "make_family",
    "predicted_solutions",
    "s2_parts",
    "satisfies",
    "swap",
    "system_check",
]
