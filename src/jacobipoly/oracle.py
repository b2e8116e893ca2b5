"""Exhaustive enumeration of identity solutions over finite coefficient
spaces, cross-checked against the classification families.

A space fixes the ring, a per-variable degree cap, and (over the integers)
a coefficient box [-bound, bound].  Candidates are walked in a fixed
odometer order: coefficient positions follow the graded-lex descending
monomial list, and the last position (the constant term) varies fastest,
so identical spaces always produce identical reports.

A scan is a depth-first search over the odometer positions, in that
order.  Each (x, y, z) coefficient of the form's generic defect is an
integer polynomial in the coefficients c_n of P (`generic_defect`).  Once
a prefix of the c_n is set, such a polynomial may be decided: every term
that has an unset c_n also has a set c_n equal to 0.  A decided polynomial
that is nonzero in the ring rules out every candidate with that prefix, so
the search skips the whole subtree (splitting with propagation; Davis,
Logemann and Loveland 1962).  A leaf of the search is a candidate at which
every coefficient is zero, and each one still goes through the formal
`defect`, so the search only ever rejects candidates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .classify import _ABCD, _families, classify, make_family, system_check
from .errors import BudgetExceeded, UnsupportedSpec
from .jacobi import EquationForm, defect, generic_defect, swap
from .poly import MultiPoly, _grade
from .rings import EXTENSION, INTEGERS, RingSpec

_XY = ("x", "y")

# The search first expands the generic defect of the degree cap.  At degree
# 5 that has 13.5 M terms and takes gigabytes, so larger caps are refused.
_MAX_SCAN_DEGREE = 4


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
        # not len(): it raises OverflowError past sys.maxsize values
        values = self.coefficient_values
        n = values.stop - values.start
        positions = (self.max_deg_per_var + 1) ** 2
        # every space has n >= 2 values, so the count passes any budget
        # within log2(budget) + 1 factors; the full power is never formed
        count = 1
        for _ in range(positions):
            count *= n
            if count > self.budget:
                raise BudgetExceeded(
                    f"{_int_text(n)}^{_int_text(positions)} candidates "
                    f"exceed the budget of {_int_text(self.budget)}")
        if self.max_deg_per_var > _MAX_SCAN_DEGREE:
            raise BudgetExceeded(
                f"a degree cap of {self.max_deg_per_var} per variable is past "
                f"the scan budget of degree {_MAX_SCAN_DEGREE}")

    @functools.cached_property
    def monomials(self) -> tuple[tuple[int, int], ...]:
        """Exponent pairs up to the degree cap, graded-lex descending."""
        k = self.max_deg_per_var
        pairs = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        pairs.sort(key=_grade, reverse=True)
        return tuple(pairs)

    @property
    def coefficient_values(self) -> range:
        """Raw coefficient values in their documented odometer order."""
        if self.spec.kind == INTEGERS:
            b = self.coeff_bound
            return range(-b, b + 1)
        return range(self.spec.p)

    @property
    def candidate_count(self) -> int:
        values = self.coefficient_values  # not len(): see __post_init__
        return (values.stop - values.start) ** (self.max_deg_per_var + 1) ** 2

    def _poly(self, combo) -> MultiPoly:
        return MultiPoly._from_raw(
            self.spec, _XY, {m: v for m, v in zip(self.monomials, combo) if v})

    def candidates(self):
        """Every polynomial of the space, lazily, in odometer order."""
        return map(self._poly, itertools.product(self.coefficient_values,
                                                 repeat=len(self.monomials)))


@dataclass(frozen=True)
class EnumReport:
    """Outcome of one exhaustive scan."""

    form: EquationForm
    space: EnumSpace
    solutions: tuple[MultiPoly, ...]
    agreement: bool
    max_solution_degrees: tuple[int, int]
    # candidates that the search let through to the formal defect
    checked: int

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
            "formally_checked": self.checked,
        }


def family_members(space: EnumSpace) -> frozenset[MultiPoly]:
    """Every family member whose coefficients lie in the space.

    Each family's parameters but the last are walked and the last one is
    solved from the coefficient system, so a family of n parameters over
    the values V costs at most 2*|V|^(n-1) system checks, not |V|^n."""
    spec, k = space.spec, space.max_deg_per_var
    out = set()
    for family in _families(spec.characteristic):
        # a parameter sets the coefficient its name stands for, which is 0
        # where that monomial is past the degree cap
        *heads, last = [
            space.coefficient_values if max(_ABCD[name]) <= k else (0,)
            for name in family.__match_args__]
        for head in itertools.product(*heads):
            for t in _solve_last(family, head, last, spec):
                out.add(make_family(family(*head, t), spec))
    return frozenset(out)


def _solve_last(family, head, values, spec: RingSpec):
    """The t among `values` at which every residual of family(*head, t)
    is zero.

    Every residual of `system_check` is affine in each family's last
    parameter, R(t) = R(0) + t*(R(1) - R(0)), so each one is an equation
    a*t = -r over the integers or F_p."""
    zero, p = spec.zero(), spec.characteristic
    at = [system_check(*family.image(*head, t, zero), spec).residuals
          for t in (0, 1)]
    solved = None
    for r0, r1 in zip(*at):
        a, r = (r1 - r0).value, r0.value
        if not a:
            if r:
                return ()
            continue
        if p:
            t = -r * pow(a, -1, p) % p
        else:
            t, rest = divmod(-r, a)
            if rest:
                return ()
        if solved is not None and t != solved:
            return ()
        solved = t
    if solved is None:
        return values
    return (solved,) if solved in values else ()


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
    solutions, checked = [], 0
    for combo in _search(space, form):
        checked += 1
        p = space._poly(combo)
        if not defect(p, form):
            solutions.append(p)
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
        checked=checked,
    )


def _search(space: EnumSpace, form: EquationForm):
    """The raw coefficient tuples of the space at which every coefficient
    of the generic defect is zero in the ring, in odometer order."""
    p = space.spec.characteristic
    values = space.coefficient_values
    n = len(space.monomials)
    # per position, the coefficient polynomials that contain its c_n: only
    # setting one of its c_n can decide a polynomial
    watch = [[] for _ in range(n)]
    for poly in generic_defect(space.monomials, form, p).values():
        for k in {i for _, mono in poly for i in mono}:
            watch[k].append(poly)
    combo = [0] * n

    def nonzero(poly, k: int) -> bool:
        """Whether poly is decided nonzero with c_0, ..., c_k set."""
        total = 0
        for v, mono in poly:
            for i in mono:  # the set c_n come first
                if i > k:
                    if v:
                        return False  # a live term with an unset c_n
                    break
                v *= combo[i]
            else:
                total += v
        return bool(total % p if p else total)

    def descend(k: int):
        for c in values:
            combo[k] = c
            if any(nonzero(poly, k) for poly in watch[k]):
                continue
            if k + 1 < n:
                yield from descend(k + 1)
            else:
                yield tuple(combo)

    return descend(0)
