"""Defect polynomials for the four composition identities.

For a bivariate polynomial P over (x, y) the defect of each form is a
polynomial over (x, y, z):

  J1 = P(P(x,y), z) + P(P(y,z), x) + P(P(z,x), y)
  J2 = P(x, P(y,z)) + P(y, P(z,x)) + P(z, P(x,y))
  J5 = P(P(x,y), z) + P(y, P(x,z)) - P(x, P(y,z))
  J6 = P(x, P(y,z)) + P(P(x,z), y) - P(P(x,y), z)

Every term is one of two bases, L(u,v,w) = P(P(u,v), w) or
R(u,v,w) = P(u, P(v,w)), with its arguments permuted: J1 is
L(x,y,z) + L(y,z,x) + L(z,x,y), and J5 is L(x,y,z) + R(y,x,z) - R(x,y,z).

P satisfies a form when its defect is the zero polynomial, as a formal
identity on coefficients: finite fields conflate distinct polynomials as
functions, so no evaluation at points can accept one.

The one expansion of the compositions, `_compose`, takes any coefficient
ring: `defect` runs it over the integer lift of P's ring
(`RingSpec._lift`: F_p[t] packed into ints), and the exhaustive scan over
the integer polynomials (mod p) in the coefficients of a generic P.
`defect` maps every lifted coefficient back to the ring.  The witness that
`verify` and `classify` print, `least_defect_term`, maps them back in
graded-lex order only up to the first nonzero one, so a violation does not
map back the whole defect; a zero defect is still mapped back in full.
"""

from __future__ import annotations

import enum
import heapq
import math

from .errors import BudgetExceeded, WrongArity
from .poly import Monomial, MultiPoly
from .rings import RingElement


class EquationForm(enum.Enum):
    J1 = "j1"
    J2 = "j2"
    J5 = "j5"
    J6 = "j6"

    @classmethod
    def from_tag(cls, tag: str) -> "EquationForm":
        return cls(tag.lower())


# One entry per term: (sign, base, args), where the base is "L" = P(P(u,v), w)
# or "R" = P(u, P(v,w)) and args names the variables put in for (u, v, w);
# (1, "L", "yzx") is +P(P(y,z), x).
_COMPOSITIONS = {
    EquationForm.J1: ((1, "L", "xyz"), (1, "L", "yzx"), (1, "L", "zxy")),
    EquationForm.J2: ((1, "R", "xyz"), (1, "R", "yzx"), (1, "R", "zxy")),
    EquationForm.J5: ((1, "L", "xyz"), (1, "R", "yxz"), (-1, "R", "xyz")),
    EquationForm.J6: ((1, "R", "xyz"), (1, "L", "xzy"), (-1, "L", "xyz")),
}

_XY = ("x", "y")
_XYZ = ("x", "y", "z")

# Largest |P| * dmax * N * f, with N a bound on the terms of P^dmax and f
# the coefficient-size factor below, that `defect` accepts: it bounds the
# work of computing the powers of P, in ring operations on coefficients of
# size 0, before any is computed.  A dense P of degree 5 per variable with
# constant coefficients is at 121 680.  With coefficients of degree at most
# 4, the slowest accepted shapes measured take about 0.35 s on a 2.1 GHz
# Xeon: x^272 + y over F_q[t], q the largest prime below _MR_LIMIT, whose
# lifted coefficients grow unreduced to about 22 000 bits.
_MAX_DEFECT_WORK = 150_000


def _require_xy(p: MultiPoly) -> None:
    if p.vars != _XY:
        raise WrongArity(
            f"expected a bivariate polynomial over {_XY}, got {p.vars}")


def _compose(form: EquationForm, terms, one, minus_one, mul, add) -> dict:
    """The form's defect of P = sum of c x^i y^j, terms {(i, j): c}, keyed
    by (x, y, z) exponent triples.

    The c lie in any commutative ring, given by its one and minus_one, its
    product mul and add(out, key, v), which adds v into out[key] in place.
    The powers of P are computed once, each base the form uses is expanded
    once from them, and each term adds its base permuted to its arguments.
    """
    compositions = _COMPOSITIONS.get(form)
    if compositions is None:
        raise TypeError(f"expected an EquationForm, got {form!r}")
    pows = [{(0, 0): one}]
    for _ in range(max(map(max, terms), default=0)):
        out: dict = {}
        for (a, b), v in pows[-1].items():
            for (i, j), c in terms.items():
                add(out, (a + i, b + j), mul(v, c))
        pows.append(out)

    bases: dict = {}
    acc: dict = {}
    for sign, base, args in compositions:
        if base not in bases:
            # keyed by the exponents of (u, v, w)
            bases[base] = out = {}
            for (i, j), c in terms.items():
                for (a, b), v in pows[i if base == "L" else j].items():
                    key = (a, b, j) if base == "L" else (i, a, b)
                    add(out, key, mul(c, v))
        # the base slots (u, v, w) = (0, 1, 2) that x, y and z fill
        i, j, k = (args.index(v) for v in "xyz")
        for e, v in bases[base].items():
            add(acc, (e[i], e[j], e[k]), v if sign > 0 else mul(minus_one, v))
    return acc


def _add_int(out: dict, key, v: int) -> None:
    out[key] = out.get(key, 0) + v


def _lifted_defect(p: MultiPoly, form: EquationForm):
    """The form's defect of P over the integer lift of its ring, keyed by
    (x, y, z) exponent triples, and the map back to raw values, which may
    give zero; refuses a P whose powers take too much work."""
    _require_xy(p)
    spec = p.spec
    terms = p._terms
    dx, dy = map(max, zip((0, 0), *terms))
    dmax, n = max(dx, dy), len(terms)
    # P^k has coefficients of size up to k*s, so one of its ring operations
    # counts as 1 + dmax*s*(s + 512)/2048 operations of size 0.  Over F_p[t]
    # an operation is one on ints of k*s + 1 packed slots, each wide enough
    # for 3*(p-1)*S^(dmax+1), S the sum of P's residues (`RingSpec._lift`),
    # so long coefficients cost more as p grows: at the bound, a dense P of
    # degree 2 with coefficients of degree 381 takes 0.13 s over zp:3[t],
    # 0.2-0.5 s over zp:1000003[t] and 2.3 s over F_q[t].  The factor is
    # the same for every ring, and weighting it to F_q[t]'s cost would
    # refuse a 15 000-bit int, whose products are fast, which must pass.
    s = spec._size(*terms.values())
    work = n * dmax * (1 + dmax * s * (s + 512) // 2048)
    # P^dmax has at most (dmax*dx+1)(dmax*dy+1) terms by degree, and at most
    # C(dmax+n-1, dmax) as a product of dmax of the n terms of P
    if (work * (dmax * dx + 1) * (dmax * dy + 1) > _MAX_DEFECT_WORK
            and work * math.comb(dmax + n - 1, dmax) > _MAX_DEFECT_WORK):
        raise BudgetExceeded(f"the powers of this {n}-term polynomial take "
                             f"more than {_MAX_DEFECT_WORK} ring operations")
    lifts, mul, minus_one, back = spec._lift(terms.values(), dmax)
    acc = _compose(form, dict(zip(terms, lifts)), 1, minus_one, mul, _add_int)
    return acc, back


def defect(p: MultiPoly, form: EquationForm) -> MultiPoly:
    """The form's defect polynomial of P, over (x, y, z)."""
    acc, back = _lifted_defect(p, form)
    zero = p.spec._rzero
    return MultiPoly._from_raw(p.spec, _XYZ, {
        e: r for e, v in acc.items() if (r := back(v)) != zero})


def least_defect_term(p: MultiPoly, form: EquationForm):
    """The graded-lex least nonzero term of the form's defect of P, as
    `defect(p, form).least_term()` gives it, or None when P satisfies the
    form.  The lifted coefficients are mapped back in graded-lex order
    and only until one is nonzero, so only a zero defect maps back all."""
    acc, back = _lifted_defect(p, form)
    zero = p.spec._rzero
    # (total degree, exponents) is the graded-lex rank `poly._grade` gives
    heap = list(zip(map(sum, acc), acc))
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        if (r := back(acc[e])) != zero:
            return Monomial(e), RingElement(p.spec, r)
    return None


def satisfies(p: MultiPoly, form: EquationForm) -> bool:
    """Whether the defect of P under the form is the zero polynomial."""
    return least_defect_term(p, form) is None


def swap(p: MultiPoly) -> MultiPoly:
    """Q(x, y) = P(y, x): transpose every exponent pair."""
    _require_xy(p)
    return MultiPoly._from_raw(
        p.spec, p.vars, {(j, i): v for (i, j), v in p._terms.items()})
