"""Complete classification of the bivariate solutions of the J1 identity.

Every solution over an integral domain has degree at most 1 in each
variable, so it is P = A*x*y + B*x + C*y + D, and P satisfies J1 exactly
when the coefficient system

    3*A^2 = 0,  3*D*(B+1) = 0,  A*(2*B+C) = 0,  B^2+B*C+C+A*D = 0

holds.  Outside characteristic 3 this forces A = D = 0, leaving
P = B*x + C*y with B^2+B*C+C = 0.  In characteristic 3 there are two
families: A != 0 forces C = B and A*D = B^2-B (the product family), and
A = 0 leaves the affine family B*x + C*y + D with B^2+B*C+C = 0.  The
overlap (A = 0 with C = B) is reported as the affine family.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import AlgebraError, CharMismatch, ConditionViolated
from .jacobi import _XY, EquationForm, _require_xy, least_defect_term
from .poly import MultiPoly
from .rings import RingSpec

# The monomial of each coefficient of A*x*y + B*x + C*y + D, in the order
# `image` returns them.
_ABCD = {"A": (1, 1), "B": (1, 0), "C": (0, 1), "D": (0, 0)}


class FamilyParams:
    """The parameters of one family member.  Each family is a namedtuple of
    its parameters, and its `image` maps them to the coefficients (A, B, C,
    D) of A*x*y + B*x + C*y + D, with 0 for a coefficient it lacks.  A
    member equals only members of its own family."""

    __slots__ = ()

    # as bare tuples, Char3Product(1, 1, 0), which is xy + x + y, would
    # equal Char3Affine(1, 1, 0), which is x + y
    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    # tuple's own __ne__ would answer != by value alone
    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def coefficients(self):
        # each field by name, in the order of __match_args__
        return self._asdict()


class LinearBC(FamilyParams, namedtuple("LinearBC", "B C")):
    """P = B*x + C*y with B^2 + B*C + C = 0 (any characteristic)."""

    __slots__ = ()
    name = "linear_bc"
    shape = "B*x + C*y"
    condition = "B^2 + B*C + C = 0"
    image = staticmethod(lambda B, C: (0, B, C, 0))


class Char3Product(FamilyParams, namedtuple("Char3Product", "A B D")):
    """P = A*x*y + B*(x+y) + D with A*D = B^2 - B, characteristic 3 only."""

    __slots__ = ()
    name = "char3_product"
    shape = "A*x*y + B*(x+y) + D"
    condition = "A*D = B^2 - B"
    image = staticmethod(lambda A, B, D: (A, B, B, D))


class Char3Affine(FamilyParams, namedtuple("Char3Affine", "B C D")):
    """P = B*x + C*y + D with B^2 + B*C + C = 0, characteristic 3 only."""

    __slots__ = ()
    name = "char3_affine"
    shape = "B*x + C*y + D"
    condition = "B^2 + B*C + C = 0"
    image = staticmethod(lambda B, C, D: (0, B, C, D))


# The solution families of each characteristic, in the order `families`
# prints them; a row's members are all the J1 solutions over an integral
# domain of that characteristic.  A characteristic without a row of its own
# reads the `None` row, whose members solve J1 in every characteristic.
# Where two families of a row share a member (A = 0, C = B), `classify`
# names the later one.
FAMILY_TABLE = {
    3: (Char3Product, Char3Affine),
    None: (LinearBC,),
}


def _families(characteristic) -> tuple:
    """The FAMILY_TABLE row of a characteristic; the `None` row's members
    solve J1 in every characteristic."""
    return FAMILY_TABLE.get(characteristic, FAMILY_TABLE[None])


def make_family(params: FamilyParams, spec: RingSpec) -> MultiPoly:
    """Build the family member A*x*y + B*x + C*y + D over (x, y),
    validating characteristic and the defining coefficient condition."""
    values = [spec.element(v) for v in params]
    valid = _families(spec.characteristic) + _families(None)
    if type(params) not in valid:
        raise CharMismatch(f"{params.name} is not a family over {spec}")
    abcd = params.image(*values)
    if not system_check(*abcd, spec).all_zero:
        raise ConditionViolated(f"{params.condition} fails for {params}")
    return MultiPoly._from_raw(spec, _XY, {
        m: v.value for m, v in zip(_ABCD.values(), abcd) if v})


_RESIDUAL_NAMES = ("3*A^2", "3*D*(B+1)", "A*(2*B+C)", "B^2+B*C+C+A*D")


class SystemResiduals(namedtuple("SystemResiduals", "residuals")):
    """The four residuals of the coefficient system, a tuple of ring
    elements in the order 3*A^2, 3*D*(B+1), A*(2*B+C), B^2+B*C+C+A*D."""

    __slots__ = ()

    @property
    def all_zero(self) -> bool:
        return all(r.is_zero for r in self.residuals)

    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, r in zip(_RESIDUAL_NAMES, self.residuals)
                     if not r.is_zero)


def system_check(A, B, C, D, spec: RingSpec) -> SystemResiduals:
    """Evaluate the coefficient system at (A, B, C, D) over spec."""
    A, B, C, D = (spec.element(v) for v in (A, B, C, D))
    return SystemResiduals((3*A*A, 3*D*(B+1), A*(2*B+C), B*B+B*C+C+A*D))


def family_members(space) -> frozenset[MultiPoly]:
    """Every family member whose coefficients lie in the `EnumSpace`.

    Each family's parameters but the last are walked and the last one is
    solved from the coefficient system, so a family of n parameters over
    the values V costs at most 2*|V|^(n-1) system checks, not |V|^n."""
    spec = space.spec
    out = set()
    for family in _families(spec.characteristic):
        # a parameter sets the coefficient its name stands for, which is 0
        # where the space has no such monomial
        *heads, last = [
            space.coefficient_values if _ABCD[name] in space.monomials
            else (spec._rzero,) for name in family.__match_args__]
        for head in itertools.product(*heads):
            for t in _solve_last(family, head, last, spec):
                out.add(make_family(family(*head, t), spec))
    return frozenset(out)


def _solve_last(family, head, values, spec: RingSpec):
    """The t among `values` at which every residual of family(*head, t)
    is zero.

    Every residual of `system_check` is affine in each family's last
    parameter, R(t) = R(0) + t*(R(1) - R(0)), so each one is an equation
    a*t = -r in the ring, solved by its division (`RingSpec._div`)."""
    at = [system_check(*family.image(*head, t), spec).residuals
          for t in (0, 1)]
    for r0, r1 in zip(*at):
        a, r = (r1 - r0).value, r0.value
        if a:
            t = spec._div(spec._rneg(r), a)
            values = (t,) if t is not None and t in values else ()
        elif r:
            return ()
    return values


class ClassificationResult(namedtuple("ClassificationResult",
                                      "family witness")):
    """Either a family membership (FamilyParams) or a nonzero J1 defect
    term (a (Monomial, RingElement) pair); the other field is None."""

    __slots__ = ()

    @property
    def is_solution(self) -> bool:
        return self.family is not None


def classify(p: MultiPoly) -> ClassificationResult:
    """Decide whether P satisfies J1 and name its family if it does.

    Non-solutions come back with the graded-lex least nonzero term of the
    J1 defect as the violation witness.
    """
    _require_xy(p)
    spec = p.spec
    if p.deg_in("x") <= 1 and p.deg_in("y") <= 1:
        named = {name: p.coeff(m) for name, m in _ABCD.items()}
        abcd = tuple(named.values())
        # P solves J1 exactly when make_family accepts it as the image of a
        # listed family's parameters.  Every family tests the same system,
        # so the first one of P's shape decides; walking the row backwards
        # names a member that two families share after the later one.
        for listed in reversed(_families(spec.characteristic)):
            params = [named[name] for name in listed.__match_args__]
            if listed.image(*params) == abcd:
                family = listed(*params)
                try:
                    member = make_family(family, spec)
                except ConditionViolated:
                    break
                if member != p:
                    raise AlgebraError(
                        f"internal: {family} does not rebuild {p}")
                return ClassificationResult(family=family, witness=None)
    lt = least_defect_term(p, EquationForm.J1)
    if lt is None:
        raise AlgebraError(
            "internal: J1 defect vanished for a polynomial no listed family "
            "contains")
    return ClassificationResult(family=None, witness=lt)


def constant_solutions(spec: RingSpec) -> bool:
    """Whether every constant satisfies J1 over spec; otherwise only zero
    does.  The constants are the A = B = C = 0 slice of the system, where
    only 3*D*(B+1) = 3*D is left, so D = 1 solves it exactly when every D
    does."""
    return system_check(0, 0, 0, 1, spec).all_zero
