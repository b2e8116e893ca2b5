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

The first point is evaluated along the odometer rather than per
candidate.  Its sums are kept per odometer depth, so a step redoes only
the positions that changed, and the constant term, which varies fastest,
is added last: per setting of the other coefficients, each composition
is prepared once and then costs a few table lookups per constant value.
Only the candidates that vanish there are evaluated at the other points,
one at a time.
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
    combos = (_PointFilter(space, form, *field).walk() if field
              else space._odometer())
    solutions, checked = [], 0
    for combo in combos:
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
    digits = list(range(p))
    rows = [digits[a:] + digits[:a] for a in range(p)]  # F_p: rotations
    if k == 1:
        return rows
    # a + p*h plus b + p*g is (a + b) % p + p * high[h][g]: row a + p*h is
    # row a of F_p, shifted by p * high[h][g] in block g
    high, top = _digit_add(p, k - 1), p ** (k - 1)
    blocks = [[[x + p * s for x in row] for s in range(top)] for row in rows]
    return [list(itertools.chain.from_iterable(map(blocks[a].__getitem__,
                                                   high[h])))
            for h in range(top) for a in range(p)]


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
        # X^k = -low, so X * (h X^(k-1)) = scaled[h] = h * -low
        scaled, minus = [0], add[low].index(0)
        for _ in range(p - 1):
            scaled.append(add[scaled[-1]][minus])
        # X is a unit, so its powers are distinct up to the first 1
        exp = [1]
        for _ in range(q - 2):
            e = exp[-1]
            exp.append(add[e % top * p][scaled[e // top]])
            if exp[-1] == 1:
                break
        else:
            break
    else:
        raise ArithmeticError(f"no primitive polynomial of degree {k} "
                              f"over F_{p}")
    log = [0] * q
    for n, e in enumerate(exp):
        log[e] = n
    # a * b = exp[log a + log b]: row a is exp from log a on, read at the
    # logs of 1..q-1
    exp += exp
    logs = log[1:]
    mul = [[0] * q] + [[0, *map(exp[log[a]:].__getitem__, logs)]
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
    vectors a form needs at a point sit in one list, d + 1 slots each,
    from the highest degree down.

    `walk` runs the whole odometer at the first point.  It keeps one
    accumulator list per odometer depth: accs[k] holds the slots after
    positions 0..k-1 of the current prefix, the positions before the
    constant term's.  From one prefix to the next, the odometer changes the
    last position not at the first coefficient value and resets the ones
    after it, so only the depths from there on are redone.  The constant
    term c adds c to the lowest slot of every vector, which adds c to each
    term's inner value, and c (signed) to the term after its outer Horner
    loop.  So per prefix each term's inner value and outer coefficients are
    computed once; per constant value a term costs one add and the outer
    loop.  `rejects` checks the candidates that vanish there at the other
    points, and is the per-candidate reference the walk is tested against.
    """

    def __init__(self, space: EnumSpace, form: EquationForm, p: int, k: int):
        self.add, self.mul = add, mul = _field_tables(p, k)
        self.neg = [row.index(0) for row in add]
        self.modulus = p if space.spec.kind == INTEGERS else None
        self.values = space.coefficient_values
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
            # coefficient c adds row[c] = c * v^e to that slot; a vector's
            # slots run from its highest degree down
            feeds = [tuple((n * self.width + d - (i, j)[side],
                            mul[powers[v][(j, i)[side]]])
                           for n, (side, v) in enumerate(vectors))
                     for i, j in space.monomials]
            self.points.append((feeds, [
                (sign, n_in * self.width, at[v], n_out * self.width)
                for sign, n_in, v, n_out in terms]))

    def rejects(self, combo, first: int = 0) -> bool:
        """Whether the sum is nonzero at one of the points from `first` on."""
        add, mul, neg = self.add, self.mul, self.neg
        if self.modulus:
            combo = [c % self.modulus for c in combo]
        width = self.width
        for feeds, terms in self.points[first:]:
            acc = [0] * self.slots
            for c, pairs in zip(combo, feeds):
                if c:
                    for s, row in pairs:
                        acc[s] = add[acc[s]][row[c]]
            total = 0
            for sign, inner, u, outer in terms:
                t, mu = acc[inner], mul[u]
                for s in range(inner + 1, inner + width):
                    t = add[mu[t]][acc[s]]
                v, mt = acc[outer], mul[t]
                for s in range(outer + 1, outer + width):
                    v = add[mt[v]][acc[s]]
                total = add[total][v if sign > 0 else neg[v]]
            if total:
                return True
        return False

    def walk(self):
        """The raw coefficient tuples of the space that `rejects` lets
        through, in odometer order."""
        add, mul, neg, values = self.add, self.mul, self.neg, self.values
        width, slots = self.width, self.slots
        reduced = ([c % self.modulus for c in values] if self.modulus
                   else values)
        feeds, terms = self.points[0]
        # per prefix position and value index, the (slot, add row) pairs
        # the value adds through; a zero adds nothing, so its depth shares
        # the list of the depth before
        steps = [[tuple((s, add[row[c]]) for s, row in pairs) if c else ()
                  for c in reduced] for pairs in feeds[:-1]]
        n = len(steps)
        last = max(n - 1, 0)
        sub = [list(map(row.__getitem__, neg)) for row in add]  # a - b
        # each term adds sign * c after its outer Horner loop
        shift = [0] * len(add)
        for sign, *_ in terms:
            shift = [(add if sign > 0 else sub)[t][c]
                     for c, t in enumerate(shift)]
        terms = [(inner, mul[u], outer, add if sign > 0 else sub)
                 for sign, inner, u, outer in terms]
        accs = [[0] * slots] * (n + 1)
        # value indices of every position but the constant term's
        for prefix in itertools.product(range(len(values)), repeat=n):
            k = last  # the first changed position
            while k and not prefix[k]:
                k -= 1
            for k in range(k, n):
                step, acc = steps[k][prefix[k]], accs[k]
                if step:
                    acc = acc[:]
                    for s, row in step:
                        acc[s] = row[acc[s]]
                accs[k + 1] = acc
            acc = accs[n]
            prep = []  # per term: add row of its inner value, outer slots
            for inner, mu, outer, srow in terms:
                t = acc[inner]
                for s in range(inner + 1, inner + width):
                    t = add[mu[t]][acc[s]]
                prep.append((add[t], acc[outer], acc[outer + 1:outer + width],
                             srow))
            for i, c in enumerate(reduced):
                total = shift[c]
                for trow, v, rest, srow in prep:
                    mt = mul[trow[c]]
                    for co in rest:
                        v = add[mt[v]][co]
                    total = srow[total][v]
                if not total:
                    combo = tuple(values[j] for j in prefix) + (values[i],)
                    if not self.rejects(combo, 1):
                        yield combo
