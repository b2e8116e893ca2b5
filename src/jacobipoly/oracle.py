"""Exhaustive enumeration of identity solutions over finite coefficient
spaces, cross-checked against the classification families.

A space fixes the ring, a per-variable degree cap, and (over the integers)
a coefficient box [-bound, bound].  Candidates are walked in a fixed
odometer order: coefficient positions follow the graded-lex descending
monomial list, and the last position (the constant term) varies fastest,
so identical spaces always produce identical reports.

A scan is a depth-first search over the odometer positions, in that
order.  Each (x, y, z) coefficient of the form's generic defect is an
integer polynomial in the coefficients c_n of P (`_generic_defect`).  The
search keeps each one reduced by the c_n set so far and filed under its
least unset c_n, so setting c_k = v rewrites, once, only the polynomials
filed under c_k, and files each result under its next unset c_n.  A
polynomial with no unset c_n left is decided, and a nonzero one rules out
every candidate with that prefix: the search skips the whole subtree and
undoes the rewrites on its way back (splitting with propagation; Davis,
Logemann and Loveland 1962).  The polynomials in c_k alone, the closing
ones, are read before c_k is set, and one of a fixing shape names the only
value of c_k that can zero it, or none (unit propagation,
`_closing_values`).  Only a position that no closing polynomial fixes
tries every value, and every value tried still goes through them all.  A
leaf of the search is a candidate at which every coefficient is zero, and
each one still goes through the formal `defect`, so the search only ever
rejects candidates.  The search sets the x-heavy positions first, so J2
and J5, whose terms mostly nest in y, are searched as the swap images of
J1 and J6 (`_SWAP_IMAGE`), and `swap` turns each leaf back into P.  The
generic defect depends only on the degree cap, the form and p, so the last
four expansions are kept (`_defect_coefficients`), each distinct
coefficient once, as a repeat prunes exactly what the first one does: J1
and J2, unchanged by x -> y -> z -> x, have most of theirs at three keys.

The search raises `BudgetExceeded` past `_MAX_SEARCH_WORK` units of work,
values tried plus terms rewritten, or past `_MAX_SCAN_LEAVES` leaves.  A
space with more coefficient values than the work bound is refused when it
is built: a position that no closing polynomial fixes tries every one.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .classify import classify, family_members
from .errors import BudgetExceeded, UnsupportedSpec
from .jacobi import _XY, EquationForm, _compose, defect, swap
from .poly import MultiPoly, _grade
from .rings import RingSpec

# The search first expands the generic defect of the degree cap.  At degree
# 5 that has 13.5 M terms and takes gigabytes, so larger caps are refused.
# A c_n of P(P(u,v), w) or P(u, P(v,w)) comes from P once and from a power
# of P up to the cap, so an exponent in `_generic_defect` is at most cap + 1.
_MAX_SCAN_DEGREE = 4
_EXP_BITS = (_MAX_SCAN_DEGREE + 1).bit_length()
# A unit of search work, a value tried or a term rewritten, took 0.23-1.6 us
# over 25 spaces (Python 3.11, 2.1 GHz Xeon), so a search ends within about
# 5-32 s.  At degree 4, zp:31 for j1 and j2, 18.5 M units (123 683 values
# tried, 11.8 s), is accepted, and zp:37, 30.5 M units, is refused.
_MAX_SEARCH_WORK = 2 * 10**7
# A leaf costs a `defect` and a family member, about 0.1 ms: zp:10007 at
# degree 1 (10 006 leaves) takes 1.1 s, and zp:1000003 there took 197 s.
_MAX_SCAN_LEAVES = 10**4

# P solves J2 (J5) exactly when swap(P) solves J1 (J6).  The terms of J2 all
# nest in the second argument, and most of J5's: the forms fix this rule.
_SWAP_IMAGE = {EquationForm.J2: EquationForm.J1,
               EquationForm.J5: EquationForm.J6}


@functools.cache
def _monomials(k: int) -> tuple[tuple[int, int], ...]:
    """Exponent pairs up to the degree cap k, graded-lex descending: built
    once per cap and shared by every space of that cap."""
    pairs = [(i, j) for i in range(k + 1) for j in range(k + 1)]
    pairs.sort(key=_grade, reverse=True)
    return tuple(pairs)


class EnumSpace(namedtuple("EnumSpace", "spec max_deg_per_var coeff_bound")):
    """One finite candidate space of bivariate polynomials."""

    __slots__ = ()

    def __new__(cls, spec, max_deg_per_var, coeff_bound=None):
        self = super().__new__(cls, spec, max_deg_per_var, coeff_bound)
        sizes = [self.max_deg_per_var]
        if self.coeff_bound is not None:
            sizes.append(self.coeff_bound)
        if any(isinstance(n, bool) or not isinstance(n, int) for n in sizes):
            raise TypeError("max_deg_per_var and coeff_bound must be ints")
        if not isinstance(self.spec, RingSpec):
            raise TypeError("spec must be a RingSpec")
        if self.spec.var_name is not None:
            raise UnsupportedSpec(
                "exhaustive enumeration over an extension ring is not "
                "supported (the coefficient set is infinite)")
        if self.max_deg_per_var < 0:
            raise ValueError("max_deg_per_var must be nonnegative")
        if self.spec.p is None:
            if self.coeff_bound is None or self.coeff_bound < 1:
                raise ValueError(
                    "a positive coeff_bound is required over the integers")
        elif self.coeff_bound is not None:
            raise ValueError("coeff_bound only applies to the integers")
        # neither message formats an input, which may be past the
        # interpreter's int-to-text limit
        if self.max_deg_per_var > _MAX_SCAN_DEGREE:
            raise BudgetExceeded(f"a degree cap above {_MAX_SCAN_DEGREE} "
                                 f"is past the scan budget")
        # not len(): it raises OverflowError past sys.maxsize values
        values = self.coefficient_values
        if values.stop - values.start > _MAX_SEARCH_WORK:
            raise BudgetExceeded(
                f"more than {_MAX_SEARCH_WORK} coefficient values are past "
                f"the search budget: a position that no closing polynomial "
                f"fixes still tries every one")
        return self

    # `_replace` builds through `_make`, which would skip the checks above
    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def monomials(self) -> tuple[tuple[int, int], ...]:
        """Exponent pairs up to the degree cap, graded-lex descending."""
        return _monomials(self.max_deg_per_var)

    @property
    def coefficient_values(self) -> range:
        """Raw coefficient values in their documented odometer order."""
        if self.spec.p is None:
            b = self.coeff_bound
            return range(-b, b + 1)
        return range(self.spec.p)

    @property
    def candidate_count(self) -> int:
        return len(self.coefficient_values) ** len(self.monomials)

    def _poly(self, combo) -> MultiPoly:
        return MultiPoly._from_raw(
            self.spec, _XY, {m: v for m, v in zip(self.monomials, combo) if v})

    def candidates(self):
        """Every polynomial of the space, lazily, in odometer order."""
        return map(self._poly, itertools.product(self.coefficient_values,
                                                 repeat=len(self.monomials)))


# Outcome of one exhaustive scan.  `checked` counts the candidates that the
# search let through to the formal defect, and `nodes` the values it tried at
# a position, pruned or not.
EnumReport = namedtuple(
    "EnumReport", "solutions agreement max_solution_degrees checked nodes")


def predicted_solutions(space: EnumSpace, form: EquationForm) -> frozenset[MultiPoly]:
    """The solution set the classification implies for the space: the
    families for J1, {0} for J6, and for J2 and J5 the swap image of the
    set for their `_SWAP_IMAGE` form."""
    if form in _SWAP_IMAGE:
        return frozenset(map(swap, predicted_solutions(space,
                                                       _SWAP_IMAGE[form])))
    if form is EquationForm.J1:
        return family_members(space)
    if form is EquationForm.J6:
        return frozenset({MultiPoly.zero(space.spec, _XY)})
    raise TypeError(f"expected an EquationForm, got {form!r}")


def enumerate_solutions(space: EnumSpace, form: EquationForm) -> EnumReport:
    """Scan the whole space and compare against the predicted set.

    J2 and J5 are searched as the swap images of J1 and J6, so their node
    count is the image's.  For J1 the agreement flag additionally requires
    every found solution to classify as a family member.
    """
    image = _SWAP_IMAGE.get(form, form)
    leaves, nodes = _search(space, image)
    polys = map(space._poly, leaves)
    if image is not form:
        # a leaf is swap(P); P's coefficients in monomial order are its place
        # in the odometer order
        polys = sorted(map(swap, polys), key=lambda p: [
            p._terms.get(m, space.spec._rzero) for m in space.monomials])
    solutions = [p for p in polys if not defect(p, form)]
    agreement = set(solutions) == predicted_solutions(space, form)
    if agreement and form is EquationForm.J1:
        agreement = all(classify(p).is_solution for p in solutions)
    dx = max((p.deg_in("x") for p in solutions), default=-1)
    dy = max((p.deg_in("y") for p in solutions), default=-1)
    return EnumReport(
        solutions=tuple(solutions),
        agreement=agreement,
        max_solution_degrees=(dx, dy),
        checked=len(leaves),
        nodes=nodes,
    )


def _generic_defect(monomials, form: EquationForm, p: int) -> dict:
    """The defect of the generic P = sum of c_n x^i y^j, (i, j) =
    monomials[n] within the degree cap, as its nonzero coefficients, keyed
    by (x, y, z) exponent triples.

    A coefficient is a dict {monomial: int}, a polynomial in the c_n.  A
    monomial holds the exponent of c_n in its bits from n*_EXP_BITS up, so
    the product of two monomials is their sum: {1 | 2 << 2 * _EXP_BITS: 3}
    is 3*c_0*c_2^2.  Integers are reduced mod p as they are expanded (not
    at all for p = 0), so the result holds in every ring of characteristic
    p.
    """
    # every product `_compose` takes has a one-term factor, a c_n or -1, so
    # the products of the terms have distinct monomials
    def mul(f: dict, g: dict) -> dict:
        return {m + n: v * w for m, v in f.items() for n, w in g.items()}

    def add(out: dict, key, f: dict) -> None:
        into = out.setdefault(key, {})
        for m, v in f.items():
            v += into.get(m, 0)
            if v := v % p if p else v:
                into[m] = v
            else:
                into.pop(m, None)
        if not into:
            del out[key]

    terms = {mono: {1 << _EXP_BITS * n: 1}
             for n, mono in enumerate(monomials)}
    return _compose(form, terms, {0: 1}, {0: -1}, mul, add)


# at degree 4 an entry holds 12 MiB for j1 and j2 and 34 MiB for j5 and j6
# (0.7 and 1.7 MiB over zp:3)
@functools.lru_cache(maxsize=4)
def _defect_coefficients(monomials, form: EquationForm, p: int) -> tuple:
    """Each distinct coefficient of `_generic_defect` once, in its order,
    as a tuple of (int, monomial) terms that no search can change.  Equal
    ones are found within buckets of equal length and monomial sum."""
    buckets: dict = {}
    kept = []
    for f in _generic_defect(monomials, form, p).values():
        bucket = buckets.setdefault((len(f), sum(f)), [])
        if f not in bucket:
            bucket.append(f)
            kept.append(tuple((v, m) for m, v in f.items()))
    return tuple(kept)


def _closing_values(closing, spec: RingSpec, values):
    """The values of c_k that the search tries, given the closing
    polynomials, those in c_k alone, as (coefficient, exponent) pairs.  A
    polynomial of one of two shapes names the one value that can zero it,
    or none (unit propagation): a single term c*c_k^e names 0, as the ring
    is an integral domain, and a*c_k + b names the t with a*t = -b in the
    ring (`RingSpec._div`), kept only if it is among `values`.  Otherwise
    every value is tried."""
    for poly in closing:
        if len(poly) == 1:
            return (spec._rzero,)
        if len(poly) == 2 and poly[0][1] + poly[1][1] == 1:
            (a, e), (b, _) = poly
            if not e:
                a, b = b, a
            t = spec._div(spec._rneg(b), a)
            return () if t is None or t not in values else (t,)
    return values


def _search(space: EnumSpace, form: EquationForm):
    """The raw coefficient tuples of the space at which every coefficient
    of the generic defect is zero in the ring, in odometer order, and the
    number of nodes visited: the values tried at each position, pruned or
    not.  It starts from the cached `_defect_coefficients` of the space's
    degree cap, the form and p.  Raises `BudgetExceeded` once the nodes
    plus the terms rewritten pass `_MAX_SEARCH_WORK`, or the leaves
    `_MAX_SCAN_LEAVES`."""
    spec = space.spec
    p, reduce = spec.characteristic, spec._reduce
    values = space.coefficient_values
    n = len(space.monomials)
    field = (1 << _EXP_BITS) - 1
    # bucket k holds (mask, terms) for each polynomial whose least unset c_n
    # is c_k, reduced by c_0, ..., c_(k-1); mask is the OR of its monomials.
    # filed logs the bucket of every filing, so a node can undo its own
    buckets = [[] for _ in range(n)]
    filed: list[int] = []

    def file(terms) -> bool:
        """File a reduced polynomial; False when it is a nonzero constant."""
        mask = 0
        for _, m in terms:
            mask |= m
        if not mask:  # a constant, nonzero unless no term is left
            return not terms
        k = ((mask & -mask).bit_length() - 1) // _EXP_BITS
        buckets[k].append((mask, terms))
        filed.append(k)
        return True

    for terms in _defect_coefficients(space.monomials, form, p):
        file(terms)  # every term has a c_n, so none is a constant
    combo = [0] * n
    leaves = []
    nodes = rewritten = 0

    def descend(k: int) -> None:
        nonlocal nodes, rewritten
        s = k * _EXP_BITS
        top = 1 << s + _EXP_BITS
        # a polynomial in c_k alone is decided by the value of c_k, so these
        # are read before anything is rewritten (filing them instead made
        # the counted work 2-3x: zp:10007 at degree 0, zp:1009 at 1)
        closing = [[(c, m >> s) for c, m in terms]
                   for mask, terms in buckets[k] if mask < top]
        rest = [terms for mask, terms in buckets[k] if mask >= top]
        for v in _closing_values(closing, spec, values):
            nodes += 1
            if nodes + rewritten > _MAX_SEARCH_WORK:
                raise BudgetExceeded(
                    f"the search passed its budget of {_MAX_SEARCH_WORK} "
                    f"values tried and terms rewritten")
            if any(reduce(sum(c * v ** e for c, e in poly))
                   for poly in closing):
                continue
            combo[k] = v
            mark = len(filed)
            for terms in rest:
                rewritten += len(terms)
                # dropping at c_k = 0 beat rewriting 1.6x on zp:5 d4 j1
                if v:
                    out: dict = {}
                    for c, m in terms:
                        e = m >> s & field
                        if e:
                            c *= v ** e
                            m ^= e << s
                        out[m] = out.get(m, 0) + c
                    terms = [(r, m) for m, c in out.items()
                             if (r := reduce(c))]
                else:
                    terms = [t for t in terms if not t[1] >> s & field]
                if not file(terms):
                    break
            else:
                if k + 1 < n:
                    descend(k + 1)
                elif len(leaves) < _MAX_SCAN_LEAVES:
                    leaves.append(tuple(combo))
                else:
                    raise BudgetExceeded(f"the search passed its bound of "
                                         f"{_MAX_SCAN_LEAVES} leaves")
            while len(filed) > mark:
                buckets[filed.pop()].pop()

    descend(0)
    return leaves, nodes
