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

`generic_defect` expands the defect of the generic P, whose coefficients
c_n are indeterminates: each (x, y, z) coefficient of the defect is then an
integer polynomial in the c_n, and the defect of any P over a ring of that
characteristic is read off by putting P's coefficients in for the c_n.
The exhaustive scan prunes with these polynomials and confirms each
candidate it keeps with `defect`.
"""

from __future__ import annotations

import enum
import math

from .errors import BudgetExceeded, WrongArity
from .poly import MultiPoly, _accumulate, _mul_raw


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

_XYZ = ("x", "y", "z")

# Largest |P| * dmax * N * f, with N a bound on the terms of P^dmax and f
# the coefficient-size factor below, that `defect` accepts: it bounds the
# work of computing the powers of P, in ring operations on coefficients of
# size 0, before any is computed.  A dense P of degree 5 per variable with
# constant coefficients is at 121 680.  With coefficients of degree at most
# 4, the slowest accepted shapes measured take about 0.35 s on a 2.1 GHz
# Xeon.
_MAX_DEFECT_WORK = 150_000


def _require_xy(p: MultiPoly) -> None:
    if p.vars != ("x", "y"):
        raise WrongArity(
            f"expected a bivariate polynomial over ('x', 'y'), got {p.vars}")


def defect(p: MultiPoly, form: EquationForm) -> MultiPoly:
    """The form's defect polynomial of P, over (x, y, z).

    The powers of P are computed once, each base the form uses is expanded
    once from them, and each term adds its base with the exponent triples
    permuted to its arguments.
    """
    _require_xy(p)
    spec = p.spec
    rmul, rneg = spec._rmul, spec._rneg
    terms = p._terms
    dx, dy = map(max, zip((0, 0), *terms))
    dmax, n = max(dx, dy), len(terms)
    # P^k has coefficients of size up to k*s, so one of its ring operations
    # counts as 1 + dmax*s*(s + 512)/2048 operations of size 0.  Products of
    # long F_p[t] coefficients cost more than this, about dmax*s*s/64, but a
    # 15 000-bit int, whose products are fast, must still pass.
    s = spec._size(*terms.values())
    work = n * dmax * (1 + dmax * s * (s + 512) // 2048)
    # P^dmax has at most (dmax*dx+1)(dmax*dy+1) terms by degree, and at most
    # C(dmax+n-1, dmax) as a product of dmax of the n terms of P
    if (work * (dmax * dx + 1) * (dmax * dy + 1) > _MAX_DEFECT_WORK
            and work * math.comb(dmax + n - 1, dmax) > _MAX_DEFECT_WORK):
        raise BudgetExceeded(f"the powers of this {n}-term polynomial take "
                             f"more than {_MAX_DEFECT_WORK} ring operations")
    pows = [{(0, 0): spec._rone}]
    for _ in range(dmax):
        pows.append(_mul_raw(spec, pows[-1], terms))

    bases: dict = {}
    acc: dict = {}
    for sign, base, args in _COMPOSITIONS[form]:
        if base not in bases:
            # keyed by the exponents of (u, v, w)
            bases[base] = out = {}
            for (i, j), c in terms.items():
                for (a, b), v in pows[i if base == "L" else j].items():
                    key = (a, b, j) if base == "L" else (i, a, b)
                    _accumulate(spec, out, key, rmul(c, v))
        # the base slots (u, v, w) = (0, 1, 2) that x, y and z fill
        i, j, k = (args.index(v) for v in "xyz")
        for e, v in bases[base].items():
            _accumulate(spec, acc, (e[i], e[j], e[k]),
                        v if sign > 0 else rneg(v))
    return MultiPoly._from_raw(spec, _XYZ, acc)


def generic_defect(monomials, form: EquationForm, p: int) -> dict:
    """The defect of the generic P = sum of c_n x^i y^j, (i, j) =
    monomials[n], as its nonzero coefficients, keyed by (x, y, z) exponent
    triples.

    A coefficient is a list of (int, index tuple) terms, a polynomial in the
    c_n: (3, (0, 0, 2)) is 3*c_0^2*c_2.  Integers are reduced mod p as they
    are expanded (not at all for p = 0), so the result holds in every ring
    of characteristic p.
    """
    def reduce(poly: dict) -> dict:
        return {m: r for m, v in poly.items() if (r := v % p if p else v)}

    def add(out: dict, key, poly: dict, n=None, sign=1) -> None:
        """out[key] += sign * c_n * poly, or sign * poly for n None."""
        into = out.setdefault(key, {})
        for mono, v in poly.items():
            if n is not None:
                mono = tuple(sorted(mono + (n,)))
            into[mono] = into.get(mono, 0) + sign * v

    # P^k as {(a, b): {index tuple: int}}, each a product of k of the c_n
    pows = [{(0, 0): {(): 1}}]
    for _ in range(max(map(max, monomials))):
        out: dict = {}
        for (a, b), poly in pows[-1].items():
            for n, (i, j) in enumerate(monomials):
                add(out, (a + i, b + j), poly, n)
        pows.append({e: reduce(poly) for e, poly in out.items()})

    bases: dict = {}
    acc: dict = {}
    for sign, base, args in _COMPOSITIONS[form]:
        if base not in bases:
            # c_n P(u,v)^i w^j for L, c_n u^i P(v,w)^j for R, keyed by the
            # exponents of (u, v, w)
            out = {}
            for n, (i, j) in enumerate(monomials):
                for (a, b), poly in pows[i if base == "L" else j].items():
                    key = (a, b, j) if base == "L" else (i, a, b)
                    add(out, key, poly, n)
            bases[base] = {e: reduce(poly) for e, poly in out.items()}
        i, j, k = (args.index(v) for v in "xyz")
        for e, poly in bases[base].items():
            add(acc, (e[i], e[j], e[k]), poly, sign=sign)
    reduced = ((e, reduce(poly)) for e, poly in acc.items())
    return {e: [(v, mono) for mono, v in poly.items()]
            for e, poly in reduced if poly}


def satisfies(p: MultiPoly, form: EquationForm) -> bool:
    """Whether the defect of P under the form is the zero polynomial."""
    return not defect(p, form)


def swap(p: MultiPoly) -> MultiPoly:
    """Q(x, y) = P(y, x): transpose every exponent pair."""
    _require_xy(p)
    return MultiPoly._from_raw(
        p.spec, p.vars, {(j, i): v for (i, j), v in p._terms.items()})
