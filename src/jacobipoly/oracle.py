"""Exhaustive enumeration of identity solutions over finite coefficient
spaces, cross-checked against the classification families.

A space fixes the ring, a per-variable degree cap, and (over the integers)
a coefficient box [-bound, bound].  Candidates are walked in a fixed
odometer order: coefficient positions follow the graded-lex descending
monomial list, and the last position (the constant term) varies fastest,
so identical spaces always produce identical reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .classify import _families, classify, make_family
from .errors import BudgetExceeded, ConditionViolated, UnsupportedSpec
from .jacobi import EquationForm, defect, swap
from .poly import MultiPoly, _grade
from .rings import EXTENSION, INTEGERS, RingSpec

_XY = ("x", "y")


def _int_text(n) -> str:
    """Decimal text of n, or its bit length past the interpreter's
    int-to-text limit."""
    try:
        return str(n)
    except ValueError:
        return f"({n.bit_length()}-bit number)"


@dataclass(frozen=True)
class EnumSpace:
    """One finite candidate space of bivariate polynomials."""

    spec: RingSpec
    max_deg_per_var: int
    coeff_bound: int | None = None
    budget: int = 10**8

    def __post_init__(self):
        if self.spec.kind == EXTENSION:
            raise UnsupportedSpec(
                "exhaustive enumeration over an extension ring is not "
                "supported (the coefficient set is infinite)")
        if self.max_deg_per_var < 0:
            raise ValueError("max_deg_per_var must be nonnegative")
        if self.spec.kind == INTEGERS:
            if self.coeff_bound is None or self.coeff_bound < 1:
                raise ValueError(
                    "a positive coeff_bound is required over the integers")
        elif self.coeff_bound is not None:
            raise ValueError("coeff_bound only applies to the integers")
        n, positions = self._value_count(), (self.max_deg_per_var + 1) ** 2
        # every space has n >= 2 values, so the count passes any budget
        # within log2(budget) + 1 factors; the full power is never formed
        count = 1
        for _ in range(positions):
            count *= n
            if count > self.budget:
                raise BudgetExceeded(
                    f"{_int_text(n)}^{_int_text(positions)} candidates "
                    f"exceed the budget of {_int_text(self.budget)}")

    @property
    def monomials(self) -> tuple[tuple[int, int], ...]:
        """Exponent pairs up to the degree cap, graded-lex descending."""
        k = self.max_deg_per_var
        pairs = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        pairs.sort(key=_grade, reverse=True)
        return tuple(pairs)

    @property
    def coefficient_values(self) -> tuple[int, ...]:
        """Raw coefficient values in their documented odometer order."""
        if self.spec.kind == INTEGERS:
            b = self.coeff_bound
            return tuple(range(-b, b + 1))
        return tuple(range(self.spec.p))

    def _value_count(self) -> int:
        """len(coefficient_values), without building them."""
        if self.spec.kind == INTEGERS:
            return 2 * self.coeff_bound + 1
        return self.spec.p

    @property
    def candidate_count(self) -> int:
        return self._value_count() ** (self.max_deg_per_var + 1) ** 2

    def candidates(self):
        """Yield every polynomial of the space, in odometer order."""
        spec = self.spec
        monos = self.monomials
        for combo in itertools.product(self.coefficient_values,
                                       repeat=len(monos)):
            yield MultiPoly._from_raw(
                spec, _XY, {m: v for m, v in zip(monos, combo) if v})


@dataclass(frozen=True)
class EnumReport:
    """Outcome of one exhaustive scan."""

    form: EquationForm
    space: EnumSpace
    solutions: tuple[MultiPoly, ...]
    agreement: bool
    max_solution_degrees: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "form": self.form.value,
            "ring": str(self.space.spec),
            "max_deg_per_var": self.space.max_deg_per_var,
            "coeff_bound": self.space.coeff_bound,
            "candidates": self.space.candidate_count,
            "solutions": [str(s) for s in self.solutions],
            "agreement": self.agreement,
            "max_solution_degrees": list(self.max_solution_degrees),
        }


def family_members(space: EnumSpace) -> frozenset[MultiPoly]:
    """Every family member whose coefficients lie in the space."""
    spec = space.spec
    out = set()
    for family in _families(spec.characteristic):
        for params in itertools.product(space.coefficient_values,
                                        repeat=len(family.__match_args__)):
            try:
                out.add(make_family(family(*params), spec))
            except ConditionViolated:
                pass
    k = space.max_deg_per_var
    return frozenset(p for p in out
                     if p.deg_in("x") <= k and p.deg_in("y") <= k)


def predicted_solutions(space: EnumSpace, form: EquationForm) -> frozenset[MultiPoly]:
    """The solution set the classification implies for the space: the
    families for J1, their swap image for J2, and {0} for J5 and J6."""
    if form is EquationForm.J1:
        return family_members(space)
    if form is EquationForm.J2:
        return frozenset(swap(p) for p in family_members(space))
    return frozenset({MultiPoly.zero(space.spec, _XY)})


def enumerate_solutions(space: EnumSpace, form: EquationForm) -> EnumReport:
    """Scan the whole space and compare against the predicted set.

    For J1 the agreement flag additionally requires every found solution
    to classify as a family member.
    """
    solutions = [p for p in space.candidates() if not defect(p, form)]
    agreement = set(solutions) == predicted_solutions(space, form)
    if agreement and form is EquationForm.J1:
        agreement = all(classify(p).is_solution for p in solutions)
    dx = max((p.deg_in("x") for p in solutions), default=-1)
    dy = max((p.deg_in("y") for p in solutions), default=-1)
    return EnumReport(
        form=form,
        space=space,
        solutions=tuple(solutions),
        agreement=agreement,
        max_solution_degrees=(dx, dy),
    )
