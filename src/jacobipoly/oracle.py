"""Exhaustive enumeration of identity solutions over finite coefficient
spaces, cross-checked against the classification families.

A space fixes the ring, a per-variable degree cap, and (over the integers)
a coefficient box [-bound, bound].  Candidates are walked in a fixed
odometer order: coefficient positions follow the graded-lex descending
monomial list, and the last position (the constant term) varies fastest,
so identical spaces always produce identical reports.

A scan first evaluates each candidate's signed composition sum at a few
fixed points of a small field GF(p^k), p the ring's characteristic (over
the integers, a fixed prime that the coefficients are reduced modulo).
Evaluation is a ring homomorphism, so a nonzero value proves the formal
defect nonzero and rejects the candidate (Schwartz 1980; Zippel 1979).
Pointwise evidence never accepts one: every survivor goes through the
formal `defect`.  The points lie in GF(p^k) and not in F_p, because F_p
cannot tell apart polynomials that agree as functions on it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .classify import _families, classify, make_family
from .errors import BudgetExceeded, ConditionViolated, UnsupportedSpec
from .jacobi import _COMPOSITIONS, EquationForm, defect, swap
from .poly import MultiPoly, _grade
from .rings import EXTENSION, INTEGERS, RingSpec

_XY = ("x", "y")

# The scan filter evaluates at _FILTER_POINTS seeded points of GF(p^k), k
# the least exponent with p^k >= _MIN_FIELD unless that passes _MAX_FIELD,
# so its add and mul tables never hold more than 2 * _MAX_FIELD**2
# entries.  A ring of characteristic above _MAX_FIELD is not filtered.
# Over the integers the field is F_127, the largest prime field in the cap.
_FILTER_POINTS = 8
_FILTER_SEED = 1980
_MIN_FIELD = 16
_MAX_FIELD = 128
_INT_FILTER_PRIME = 127


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

    @functools.cached_property
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

    def _odometer(self):
        """Raw coefficient tuples, aligned with `monomials`, in odometer
        order: one per candidate."""
        return itertools.product(self.coefficient_values,
                                 repeat=len(self.monomials))

    def _poly(self, combo) -> MultiPoly:
        return MultiPoly._from_raw(
            self.spec, _XY, {m: v for m, v in zip(self.monomials, combo) if v})

    def candidates(self):
        """Every polynomial of the space, lazily, in odometer order."""
        return map(self._poly, self._odometer())


@dataclass(frozen=True)
class EnumReport:
    """Outcome of one exhaustive scan."""

    form: EquationForm
    space: EnumSpace
    solutions: tuple[MultiPoly, ...]
    agreement: bool
    max_solution_degrees: tuple[int, int]
    # candidates that the point filter let through to the formal defect
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
    """Every family member whose coefficients lie in the space."""
    spec, k = space.spec, space.max_deg_per_var
    out = set()
    for family in _families(spec.characteristic):
        # members have degree <= 1 per variable, so only a degree-0 space
        # cuts them: there every parameter but D, the constant term, is 0
        # (parameters are named after the coefficients they set)
        ranges = [space.coefficient_values if k or name == "D" else (0,)
                  for name in family.__match_args__]
        for params in itertools.product(*ranges):
            try:
                out.add(make_family(family(*params), spec))
            except ConditionViolated:
                pass
    return frozenset(out)


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
    field = _filter_field(space.spec)
    rejects = _PointFilter(space, form, *field).rejects if field else None
    solutions, checked = [], 0
    for combo in space._odometer():
        if rejects and rejects(combo):
            continue
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


def _filter_field(spec: RingSpec) -> tuple[int, int] | None:
    """(p, k) of the field GF(p^k) that the scan filter evaluates in, or
    None when F_p alone has more than _MAX_FIELD elements."""
    p = _INT_FILTER_PRIME if spec.kind == INTEGERS else spec.p
    if p > _MAX_FIELD:
        return None
    k = 1
    while p ** k < _MIN_FIELD and p ** (k + 1) <= _MAX_FIELD:
        k += 1
    return p, k


def _digit_add(p: int, k: int) -> list[list[int]]:
    """Digitwise sum mod p of the ints below p^k: the addition of GF(p^k)."""
    if k == 0:
        return [[0]]
    high, q = _digit_add(p, k - 1), p ** k
    return [[(a + b) % p + p * high[a // p][b // p] for b in range(q)]
            for a in range(q)]


def _field_tables(p: int, k: int) -> tuple[list[list[int]], list[list[int]]]:
    """Add and mul tables of GF(q), q = p^k, as lists of rows.

    An element is the int whose base-p digits, lowest first, are the
    coefficients of a polynomial in X of degree below k, taken modulo a
    monic f of degree k; F_p embeds as 0..p-1.  f is found by brute force:
    the first, reading its lower coefficients as such an int, modulo which
    X^0, ..., X^(q-2) are q - 1 distinct residues.  Then every nonzero
    residue is a power of the unit X, so f is irreducible, the residues
    form a field, and those powers are its exp table.
    """
    q, top = p ** k, p ** (k - 1)
    add = _digit_add(p, k)
    for low in range(1, q):
        if low % p == 0:
            continue  # f(0) = 0 makes X a zero divisor
        # X^k = -low, so X * (h X^(k-1)) = scaled[h]
        scaled = [sum(-h * (low // p ** i % p) % p * p ** i
                      for i in range(k)) for h in range(p)]
        exp = [1]
        for _ in range(q - 2):
            e = exp[-1]
            exp.append(add[e % top * p][scaled[e // top]])
        if len(set(exp)) == q - 1:
            break
    else:
        raise ArithmeticError(f"no primitive polynomial of degree {k} "
                              f"over F_{p}")
    log = [0] * q
    for n, e in enumerate(exp):
        log[e] = n
    exp += exp
    mul = [[0] * q] + [[0] + [exp[log[a] + log[b]] for b in range(1, q)]
                       for a in range(1, q)]
    return add, mul


class _PointFilter:
    """Rejects a candidate, given as its raw coefficient tuple, when the
    form's signed composition sum is nonzero at one of _FILTER_POINTS
    seeded points of GF(p^k).

    At a point, P(u, v) is a polynomial in u whose coefficients G(v)_i =
    sum_j c_ij v^j depend on v alone, and a polynomial in v with
    coefficients H(u)_j = sum_i c_ij u^i.  So a base L = P(P(a,b), c) is
    G(b) evaluated at a, then G(c) at that value, and R = P(a, P(b,c)) is
    H(b) at c, then H(a) at that value, each by Horner's rule.  All the
    vectors a form needs at a point sit in one list, d + 1 slots each.
    """

    def __init__(self, space: EnumSpace, form: EquationForm, p: int, k: int):
        self.add, self.mul = add, mul = _field_tables(p, k)
        self.neg = [row.index(0) for row in add]
        self.modulus = p if space.spec.kind == INTEGERS else None
        d = space.max_deg_per_var
        self.width = d + 1
        vectors = []  # (side, variable): side 0 is G, side 1 is H
        terms = []    # (sign, inner vector, inner variable, outer vector)
        for sign, base, (a, b, c) in _COMPOSITIONS[form]:
            inner, arg, outer = (((0, b), a, (0, c)) if base == "L"
                                 else ((1, b), c, (1, a)))
            for key in (inner, outer):
                if key not in vectors:
                    vectors.append(key)
            terms.append((sign, vectors.index(inner), arg,
                          vectors.index(outer)))
        self.slots = len(vectors) * self.width
        rnd = random.Random(_FILTER_SEED)
        q = len(add)
        self.points = []
        for _ in range(_FILTER_POINTS):
            at = dict(zip("xyz", (rnd.randrange(1, q) for _ in "xyz")))
            powers = {v: [1] for v in at}
            for v, pw in powers.items():
                while len(pw) <= d:
                    pw.append(mul[pw[-1]][at[v]])
            # per monomial position, the (slot, row) pairs it adds to:
            # coefficient c adds row[c] = c * v^e to that slot
            feeds = [tuple((n * self.width + (i, j)[side],
                            mul[powers[v][(j, i)[side]]])
                           for n, (side, v) in enumerate(vectors))
                     for i, j in space.monomials]
            self.points.append((feeds, [
                (sign, n_in * self.width + d, at[v], n_out * self.width + d)
                for sign, n_in, v, n_out in terms]))

    def rejects(self, combo) -> bool:
        add, mul, neg = self.add, self.mul, self.neg
        if self.modulus:
            combo = [c % self.modulus for c in combo]
        width = self.width
        for feeds, terms in self.points:
            acc = [0] * self.slots
            for c, pairs in zip(combo, feeds):
                if c:
                    for s, row in pairs:
                        acc[s] = add[acc[s]][row[c]]
            total = 0
            for sign, top_in, u, top_out in terms:
                t, mu = acc[top_in], mul[u]
                for s in range(top_in - 1, top_in - width, -1):
                    t = add[mu[t]][acc[s]]
                v, mt = acc[top_out], mul[t]
                for s in range(top_out - 1, top_out - width, -1):
                    v = add[mt[v]][acc[s]]
                total = add[total][v if sign > 0 else neg[v]]
            if total:
                return True
        return False
