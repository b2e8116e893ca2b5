"""Sparse multivariate polynomials over the rings in :mod:`.rings`.

Representation
--------------
A polynomial carries its RingSpec, an ordered tuple of distinct variable
names, and a dict mapping exponent tuples to nonzero raw coefficient
values.  The dict is always canonical: no zero values, exponents
nonnegative, every key the same length as the variable list.  Equality is
structural, so two polynomials are equal exactly when they agree as formal
sums; nothing is ever compared pointwise.

Ordering
--------
Terms are ranked graded lexicographically: first by total degree, ties by
the exponent tuple in variable-list order.  Printing walks terms in
descending order; `least_term` picks the minimal nonzero term, which is
what violation witnesses use.  deg of the zero polynomial is -1.

Text grammar
------------
``poly := ['+'|'-'] term (('+'|'-') term)*`` where a term is a product of
factors joined by optional ``*``.  A factor is an integer literal, a
variable, or (over an extension ring only) a parenthesized coefficient,
e.g. ``(1+2*t^2)*x*y``; any factor may carry one ``^uint``.  A
parenthesized coefficient is read by the same grammar, with the extension
variable as its only name, nested at most 100 deep.  Whitespace is
insignificant.  `parse` and `str` round trip: parse(str(p)) == p, and str
picks one canonical spelling.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain
from operator import add

from .errors import (
    BudgetExceeded,
    CoefficientNotInRing,
    ParseError,
    SpecMismatch,
    UnknownVariable,
    VarListMismatch,
)
from .rings import _IDENT, RingElement, RingSpec, _square_multiply


# Largest floor(log2 |a|) * e over int, or degree of a^e over F_p[t], that a
# coefficient power a^e in polynomial text may reach, and largest degree of
# a term's coefficient over F_p[t].  Larger ones are refused before they are
# computed, so a short text cannot demand unbounded work.  F_p needs no
# bound: a^e mod p takes about 2*log2(e) steps.
_MAX_POWER_SIZE = 1024

# Largest len(a) * len(b) that a product of term dicts may take: 2*10^5
# term products take 0.13 s over int and F_p and 0.6 s over F_3[t] with
# degree-4 coefficients (2.1 GHz Xeon).  (x+y+1)**57 is the last accepted.
_MAX_PRODUCT_TERMS = 2 * 10**5

# Deepest nesting of parenthesized coefficients the parser reads.  Each level
# takes three Python frames, so the cap stays far below the recursion limit.
_MAX_NESTING = 100

# One token per match; the group that matched names its kind.
_TOKEN = re.compile(
    rf"(?P<space>\s+)|(?P<int>[0-9]+)|(?P<name>{_IDENT.pattern})"
    r"|(?P<punct>[-+*^()])|(?P<other>.)", re.DOTALL)


def _grade(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Monomial(namedtuple("Monomial", "exponents")):
    """Exponent vector of one term, positions matching a variable list."""

    __slots__ = ()

    def text(self, vars: tuple[str, ...]) -> str:
        return _mono_body(_exponents(self, len(vars)), vars) or "1"


def _exponents(monomial, n: int) -> tuple[int, ...]:
    """The exponent tuple of a Monomial or an exponent sequence of arity n."""
    if isinstance(monomial, Monomial):
        monomial = monomial.exponents
    if len(exps := tuple(monomial)) != n:
        raise VarListMismatch(f"monomial arity {len(exps)} vs {n} variables")
    return exps


def _mono_body(exps, vars) -> str:
    parts = []
    for v, e in zip(vars, exps):
        if e == 1:
            parts.append(v)
        elif e:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def _check_vars(spec: RingSpec, vars) -> tuple[str, ...]:
    vars = tuple(vars)
    if not vars:
        raise VarListMismatch("variable list is empty")
    if len(set(vars)) != len(vars):
        raise VarListMismatch(f"repeated variable in {vars}")
    for v in vars:
        if not isinstance(v, str) or not _IDENT.fullmatch(v):
            raise VarListMismatch(f"bad variable name {v!r}")
    if spec.var_name in vars:
        raise VarListMismatch(
            f"variable {spec.var_name!r} collides with the extension variable")
    return vars


def _collect(spec: RingSpec, pairs) -> dict:
    """The term dict of (exponent tuple, raw value) pairs: each monomial's
    values summed once with `RingSpec._rsum`, and a monomial whose sum is zero
    left out.  Every term dict that adds contributions is built here."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    zero = spec._rzero
    return {key: total for key, values in groups.items()
            if (total := spec._rsum(values)) != zero}


def _mul_raw(spec: RingSpec, a: dict, b: dict) -> dict:
    if len(a) * len(b) > _MAX_PRODUCT_TERMS:
        raise BudgetExceeded(f"a product of {len(a)} by {len(b)} terms "
                             f"passes {_MAX_PRODUCT_TERMS} term products")
    rmul = spec._rmul
    return _collect(spec, ((tuple(map(add, ma, mb)), rmul(va, vb))
                           for ma, va in a.items() for mb, vb in b.items()))


class MultiPoly:
    """Immutable sparse polynomial; supports +, -, *, ** and substitution."""

    __slots__ = ("spec", "vars", "_terms")

    def __init__(self, spec: RingSpec, vars, terms=None):
        if not isinstance(spec, RingSpec):
            raise TypeError("spec must be a RingSpec")
        self.spec = spec
        self.vars = _check_vars(spec, vars)
        pairs = []
        n = len(self.vars)
        for key, value in (terms or {}).items():
            key = _exponents(key, n)
            if any(isinstance(e, bool) or not isinstance(e, int) or e < 0
                   for e in key):
                raise ValueError(f"bad exponents {key}")
            pairs.append((key, spec._coerce_raw(value)))
        self._terms = _collect(spec, pairs)

    @classmethod
    def _from_raw(cls, spec, vars, terms: dict) -> MultiPoly:
        self = object.__new__(cls)
        self.spec = spec
        self.vars = vars
        self._terms = terms
        return self

    @classmethod
    def zero(cls, spec: RingSpec, vars) -> MultiPoly:
        return cls(spec, vars)

    @classmethod
    def constant(cls, spec: RingSpec, vars, value) -> MultiPoly:
        vars = _check_vars(spec, vars)
        return cls(spec, vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, spec: RingSpec, vars, name: str) -> MultiPoly:
        vars = _check_vars(spec, vars)
        if name not in vars:
            raise UnknownVariable(f"{name!r} not among {vars}")
        exps = tuple(int(v == name) for v in vars)
        return cls(spec, vars, {exps: 1})

    # -- queries ----------------------------------------------------------

    def deg(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self._terms), default=-1)

    def deg_in(self, var: str) -> int:
        """Highest exponent of one variable; -1 for the zero polynomial."""
        if var not in self.vars:
            raise UnknownVariable(f"{var!r} not among {self.vars}")
        i = self.vars.index(var)
        return max((m[i] for m in self._terms), default=-1)

    def coeff(self, monomial) -> RingElement:
        """Coefficient at a monomial (zero when absent)."""
        monomial = _exponents(monomial, len(self.vars))
        return RingElement(self.spec, self._terms.get(monomial, self.spec._rzero))

    def terms(self):
        """Yield (Monomial, coefficient) pairs, graded-lex descending."""
        for m in sorted(self._terms, key=_grade, reverse=True):
            yield Monomial(m), RingElement(self.spec, self._terms[m])

    def least_term(self):
        """Graded-lex least nonzero term, or None for the zero polynomial."""
        if not self._terms:
            return None
        m = min(self._terms, key=_grade)
        return Monomial(m), RingElement(self.spec, self._terms[m])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic -------------------------------------------------------

    def _operand(self, other):
        if isinstance(other, MultiPoly):
            if other.spec != self.spec:
                raise SpecMismatch(
                    f"cannot combine polynomials over {self.spec} and {other.spec}")
            if other.vars != self.vars:
                raise VarListMismatch(
                    f"variable lists differ: {self.vars} vs {other.vars}")
            return other._terms
        # a zero operand leaves a zero term, which `_collect` drops
        raw = self.spec._operand(other)
        return None if raw is None else {(0,) * len(self.vars): raw}

    def __add__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        return MultiPoly._from_raw(self.spec, self.vars, _collect(
            self.spec, chain(self._terms.items(), t.items())))

    __radd__ = __add__

    def __sub__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        return self + -MultiPoly._from_raw(self.spec, self.vars, t)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        t = self._operand(other)
        if t is None:
            return NotImplemented
        return MultiPoly._from_raw(self.spec, self.vars,
                                   _mul_raw(self.spec, self._terms, t))

    __rmul__ = __mul__

    def __neg__(self):
        rneg = self.spec._rneg
        return MultiPoly._from_raw(self.spec, self.vars,
                                   {m: rneg(v) for m, v in self._terms.items()})

    def __pow__(self, e: int) -> MultiPoly:
        spec, one = self.spec, {(0,) * len(self.vars): self.spec._rone}
        out = _square_multiply(lambda a, b: _mul_raw(spec, a, b), one,
                               self._terms, e)
        return MultiPoly._from_raw(self.spec, self.vars, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.spec == other.spec and self.vars == other.vars
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.spec, self.vars, frozenset(self._terms.items())))

    # -- substitution -----------------------------------------------------

    def substitute(self, bindings: dict[str, MultiPoly]) -> MultiPoly:
        """Simultaneously replace bound variables by polynomials.

        All replacement polynomials must share this polynomial's spec and a
        common variable list (the target list); unbound variables must exist
        in the target list and map to themselves.  Binding each variable to
        itself over a new list re-indexes the polynomial over that list.
        """
        if not bindings:
            return self
        for name in bindings:
            if name not in self.vars:
                raise UnknownVariable(f"{name!r} not among {self.vars}")
        repls = list(bindings.values())
        for q in repls:
            if not isinstance(q, MultiPoly):
                raise TypeError("replacements must be polynomials")
            if q.spec != self.spec:
                raise SpecMismatch(
                    f"replacement over {q.spec}, expected {self.spec}")
        target = repls[0].vars
        for q in repls:
            if q.vars != target:
                raise VarListMismatch(
                    f"replacement variable lists differ: {target} vs {q.vars}")
        spec = self.spec
        width = len(target)
        unit = {(0,) * width: spec._rone}
        repl_terms = [bindings[v]._terms if v in bindings
                      else MultiPoly.variable(spec, target, v)._terms
                      for v in self.vars]
        powers: list[list[dict]] = [[unit, t] for t in repl_terms]

        def power(vi: int, e: int) -> dict:
            cache = powers[vi]
            while len(cache) <= e:
                cache.append(_mul_raw(spec, cache[-1], repl_terms[vi]))
            return cache[e]

        rmul = spec._rmul
        pairs = []
        for mono, c in self._terms.items():
            prod = unit
            for vi, e in enumerate(mono):
                if e:
                    pw = power(vi, e)
                    prod = pw if prod is unit else _mul_raw(spec, prod, pw)
            pairs.extend((m, rmul(c, v)) for m, v in prod.items())
        return MultiPoly._from_raw(spec, target, _collect(spec, pairs))

    def evaluate(self, values: dict) -> RingElement:
        """Plug in a ring element for every variable."""
        for name in values:
            if name not in self.vars:
                raise UnknownVariable(f"{name!r} not among {self.vars}")
        point = []
        for v in self.vars:
            if v not in values:
                raise UnknownVariable(f"no value for {v!r}")
            point.append(self.spec._coerce_raw(values[v]))
        spec = self.spec
        radd, rmul = spec._radd, spec._rmul
        acc = spec._rzero
        for mono, c in self._terms.items():
            t = c
            for vi, e in enumerate(mono):
                if e:
                    t = rmul(t, spec._rpow(point[vi], e))
            acc = radd(acc, t)
        return RingElement(spec, acc)

    # -- text -------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, spec: RingSpec, vars=("x", "y")) -> MultiPoly:
        """Parse the canonical text grammar over the given variables."""
        vars = _check_vars(spec, vars)
        terms = _Parser(text, spec, vars).expr()
        return cls._from_raw(spec, vars, terms)

    def __str__(self) -> str:
        pieces = []
        for m in sorted(self._terms, key=_grade, reverse=True):
            body = _mono_body(m, self.vars)
            # "-" leads a negative literal; one not all digits is parenthesized
            coeff = self.spec._literal(self._terms[m])
            neg = coeff.startswith("-")
            coeff = coeff.removeprefix("-")
            if not coeff.isdigit():
                coeff = f"({coeff})"
            elif coeff == "1" and body:
                coeff = ""
            term = "*".join(p for p in (coeff, body) if p)
            sign = (" - " if neg else " + ") if pieces else ("-" if neg else "")
            pieces.append(sign + term)
        return "".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"<{self} over {self.spec} in {'/'.join(self.vars)}>"


class _Parser:
    """Recursive descent over the text grammar in the module docstring.

    The same routines read the polynomial and its parenthesized
    coefficients.  Between parentheses (``depth > 0``) the extension
    variable is the only name and ``)`` ends the expression.
    """

    def __init__(self, text: str, spec: RingSpec, vars: tuple[str, ...]):
        self.spec = spec
        self.vars = vars
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses open around the current token

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self) -> dict:
        """Signed sum of terms, as raw coefficients keyed by exponent tuple."""
        spec = self.spec
        inner = self.depth > 0
        pairs = []  # (exponent tuple, signed coefficient) per term read
        kind = self.peek()[0]
        negate = kind == "-"
        if kind in ("+", "-"):
            self.take()
        while True:
            coeff, exps = self.term()
            if negate:
                coeff = spec._rneg(coeff)
            pairs.append((tuple(exps), coeff))
            kind, _, pos = self.peek()
            if kind in ("+", "-"):
                negate = kind == "-"
                self.take()
            elif kind == (")" if inner else "end"):
                return _collect(spec, pairs)
            elif inner:
                raise ParseError("expected '+', '-' or ')'", pos)
            else:
                raise ParseError(f"expected '+' or '-', got {kind!r}", pos)

    def term(self):
        exps = [0] * len(self.vars)
        coeff = self.factor(self.spec._rone, exps)
        while (kind := self.peek()[0]) in ("*", "int", "name", "("):
            if kind == "*":
                self.take()
            coeff = self.factor(coeff, exps)
        return coeff, exps

    def factor(self, coeff, exps: list):
        """Multiply one factor into the term: a coefficient into ``coeff``,
        a variable's exponent into ``exps``."""
        spec = self.spec
        kind, value, pos = self.take()
        if kind == "int":
            raw = spec._coerce_raw(value)
        elif kind == "(":
            if spec.var_name is None:
                raise CoefficientNotInRing(
                    f"parenthesized coefficients are not valid over {spec}")
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{_MAX_NESTING} levels", pos)
            self.depth += 1
            raw = self.expr().get((0,) * len(self.vars), spec._rzero)
            self.take()  # the ")" that ended the inner expression
            self.depth -= 1
        elif kind == "name" and self.depth:
            if value != spec.var_name:
                raise UnknownVariable(f"{value!r} is not the extension "
                                      f"variable {spec.var_name!r}")
            raw = spec._rgen
        elif kind == "name":
            if value not in self.vars:
                if value == spec.var_name:
                    raise UnknownVariable(
                        f"extension variable {value!r} must appear inside "
                        "parentheses")
                raise UnknownVariable(f"{value!r} not among {self.vars}")
            exps[self.vars.index(value)] += self.exponent()
            return coeff
        else:
            raise ParseError("expected a coefficient factor" if self.depth
                             else "expected a factor", pos)
        caret = self.peek()[2]
        e = self.exponent()
        if e != 1:
            size = spec._size(raw)
            if size * e > _MAX_POWER_SIZE:
                raise ParseError(
                    f"coefficient power too large: size {size} times "
                    f"exponent {e} exceeds {_MAX_POWER_SIZE}", caret)
            raw = spec._rpow(raw, e)
        # degrees add up in a product; int products stay unbounded, since
        # their multiplication is fast and their printing is checked
        size = spec._size(coeff) + spec._size(raw)
        if spec.var_name is not None and size > _MAX_POWER_SIZE:
            raise ParseError(f"coefficient product too large: degree {size} "
                             f"exceeds {_MAX_POWER_SIZE}", pos)
        # a term's first coefficient factor would multiply the ring's one,
        # which over F_p[t] walks every slot of t^i
        return raw if coeff == spec._rone else spec._rmul(coeff, raw)

    def exponent(self) -> int:
        """The ``^uint`` after a factor, or 1 when there is none."""
        if self.peek()[0] != "^":
            return 1
        self.take()
        kind, value, pos = self.take()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        return value


def _tokenize(text: str):
    """(kind, value, position) triples; an "int" token's value is its int."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind, tok, i = m.lastgroup, m.group(), m.start()
        if kind == "int":
            try:
                toks.append(("int", int(tok), i))
            except ValueError:  # past the interpreter's text-to-int limit
                raise ParseError(f"integer literal of {len(tok)} digits "
                                 "is too long", i) from None
        elif kind == "name":
            toks.append(("name", tok, i))
        elif kind == "punct":
            toks.append((tok, tok, i))
        elif kind == "other":
            raise ParseError(f"unexpected character {tok!r}", i)
    toks.append(("end", "", len(text)))
    return toks
