"""Exact coefficient domains: the integers, prime fields, and univariate
polynomial extensions of prime fields.

A RingSpec names the domain and owns the raw arithmetic; a RingElement is a
thin wrapper pairing a spec with a canonical raw value.  Raw values are

  * Integers        -- Python int (arbitrary precision),
  * PrimeField(p)   -- int residue in [0, p),
  * F_p[v]          -- tuple of residues, least significant first, no
                       trailing zeros, () for zero.

All three are integral domains; the extension is one level deep by
construction (the base of an extension is always a prime field).  Specs are
value objects: equal parameters compare equal, and elements of unequal
specs never mix (SpecMismatch).

Text syntax, round-tripped by parse()/str(): ``int``, ``zp:<p>``,
``zp:<p>[<var>]``.
"""

from __future__ import annotations

import operator
import re
from itertools import compress, count

from .errors import (CoefficientTooLarge, ModulusTooLarge, ParseError,
                     SpecMismatch)
from .numtheory import _MR_LIMIT, _require_prime

# The one rule for variable names, in ring specs and polynomials alike.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RING_TEXT = re.compile(rf"int|zp:([0-9]+)(\[({_IDENT.pattern})\])?")


def _ext_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class RingSpec:
    """Identity and arithmetic of one coefficient domain.  A ring is its
    (p, var_name): the integers without a p, F_p, or F_p[var_name]."""

    # _reduce (an int to its raw value) and _div(b, a) (the raw t with
    # a*t = b, or None) are set over int and F_p, the rings a scan takes
    __slots__ = ("p", "var_name", "_radd", "_rmul", "_rneg", "_rzero", "_rone",
                 "_rgen", "_reduce", "_div")

    def __init__(self, p: int | None = None, var_name: str | None = None):
        if p is not None:
            _require_prime(p)
        elif var_name is not None:
            raise ValueError("a prime modulus is required")
        if var_name is not None:
            # re refuses a non-str with a bare TypeError that names no argument
            if not isinstance(var_name, str):
                raise TypeError(f"the variable name must be a str, got "
                                f"{type(var_name).__name__}")
            if not _IDENT.fullmatch(var_name):
                raise ValueError("extension needs an identifier variable name")
        self.p = p
        self.var_name = var_name

        self._rzero, self._rone, self._rgen = (
            (0, 1, None) if var_name is None else ((), (1,), (0, 1)))
        if p is None:
            self._radd = operator.add
            self._rmul = operator.mul
            self._rneg = operator.neg
            self._reduce = operator.pos
            self._div = _int_div
        elif var_name is None:
            self._radd = lambda a, b, p=p: (a + b) % p
            self._rmul = lambda a, b, p=p: a * b % p
            self._rneg = lambda a, p=p: -a % p
            self._reduce = p.__rmod__
            self._div = lambda b, a, p=p: b * pow(a, -1, p) % p
        else:
            self._radd = lambda a, b, p=p: _ext_add(a, b, p)
            self._rmul = lambda a, b, p=p: _ext_mul(a, b, p)
            self._rneg = lambda a, p=p: tuple((-c) % p for c in a)

    # -- identity ---------------------------------------------------------

    @classmethod
    def integers(cls) -> RingSpec:
        return cls()

    @classmethod
    def prime_field(cls, p: int) -> RingSpec:
        if p is None:  # RingSpec(None) is the integers
            raise ValueError("a prime modulus is required")
        return cls(p)

    @classmethod
    def extension(cls, p: int, var_name: str) -> RingSpec:
        if var_name is None:  # RingSpec(p, None) is the prime field
            raise ValueError("extension needs an identifier variable name")
        return cls(p, var_name)

    @classmethod
    def parse(cls, text: str) -> RingSpec:
        """Parse ``int``, ``zp:<p>``, or ``zp:<p>[<var>]``."""
        m = _RING_TEXT.fullmatch(text.strip())
        if not m:
            raise ParseError(f"bad ring spec {text!r}")
        if m.group(0) == "int":
            return cls()
        digits = m.group(1).lstrip("0")
        # more digits than the primality limit has means at least the limit,
        # and int() refuses texts past the interpreter's conversion limit
        if len(digits) > len(str(_MR_LIMIT)):
            raise ModulusTooLarge(
                f"a modulus of {len(digits)} digits is too large to decide "
                f"primality (limit {_MR_LIMIT})")
        return cls(int(digits or "0"), m.group(3))

    def __str__(self) -> str:
        if self.p is None:
            return "int"
        if self.var_name is None:
            return f"zp:{self.p}"
        return f"zp:{self.p}[{self.var_name}]"

    def __repr__(self) -> str:
        return f"RingSpec({str(self)!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingSpec)
                and self.p == other.p
                and self.var_name == other.var_name)

    def __hash__(self) -> int:
        return hash((self.p, self.var_name))

    # a ring pickles as its (p, var_name): the arithmetic it holds over F_p
    # and F_p[t] is lambdas, which do not pickle, and is rebuilt from them
    def __reduce__(self):
        return RingSpec, (self.p, self.var_name)

    @property
    def characteristic(self) -> int:
        return self.p or 0

    # -- elements ---------------------------------------------------------

    def _operand(self, value):
        """The raw value of an int or element operand; None for other types."""
        if isinstance(value, (int, RingElement)) and not isinstance(value, bool):
            return self._coerce_raw(value)
        return None

    def _coerce_raw(self, value):
        """The raw value of an element of this ring, of an int, or (for
        extensions) of a little-endian sequence of ints: the one path by
        which outside values enter the ring."""
        if isinstance(value, RingElement):
            if value.spec is not self and value.spec != self:
                raise SpecMismatch(f"element of {value.spec} used in {self}")
            return value.value
        coeffs = (value if self.var_name is not None
                  and isinstance(value, (list, tuple)) else (value,))
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"cannot interpret {c!r} in {self}")
        if self.var_name is None:
            return self._reduce(value)
        return _ext_trim([c % self.p for c in coeffs])

    def element(self, value) -> RingElement:
        """Coerce a ring element, an int, or (for extensions) a
        little-endian coefficient sequence into this ring."""
        return RingElement(self, self._coerce_raw(value))

    def zero(self) -> RingElement:
        return RingElement(self, self._rzero)

    def one(self) -> RingElement:
        return RingElement(self, self._rone)

    def generator(self) -> RingElement:
        """The extension variable as a ring element."""
        if self.var_name is None:
            raise ValueError(f"{self} has no generator")
        return RingElement(self, self._rgen)

    def _size(self, *raws) -> int:
        """The largest size of the raw values: floor(log2 |a|) over int and
        the degree of a over F_p[t] (-1 for zero in both), 0 over F_p.  The
        work bounds of the parser and of `defect` count this size."""
        if self.p is None:
            return max(map(abs, raws), default=0).bit_length() - 1
        if self.var_name is not None:
            return max(map(len, raws), default=0) - 1
        return 0

    def _rsum(self, values: list):
        """The sum of raw values, taken once.  Over F_p[t] the values add into
        one list of residues, their zero slots skipped, which is reduced and
        trimmed at the end: adding them pairwise copies the partial sum each
        time, so a long sum of t^i is quadratic."""
        if len(values) == 1:
            return values[0]
        if self.var_name is None:
            return self._reduce(sum(values))
        out = [0] * max(map(len, values))
        for v in values:
            for i in compress(count(), v):
                out[i] += v[i]
        return _ext_trim([c % self.p for c in out])

    def _rpow(self, a, e: int):
        # t^e is one monomial, which squaring would build in log2(e) products
        if a == self._rgen and type(e) is int and e >= 0:
            return (0,) * e + (1,)
        return _square_multiply(self._rmul, self._rone, a, e)

    def _lift(self, raws, dmax: int):
        """The integer lift in which `jacobi.defect` composes a P of degree
        at most dmax per variable with these raw coefficients: returns the
        lifts, their product, the lift of -1 and the map back to raw
        values, which may give zero.  Lifts add with plain int `+`.

        Over int and F_p a value, -1 too, lifts to itself and the product
        is the ring's, which reduces into [0, p) over F_p; back is the
        ring's `_reduce`.  Over F_p[t] a value packs at t = 2^w,
        one w-bit slot per residue, and the product is one int product.
        """
        if self.var_name is None:
            return raws, self._rmul, -1, self._reduce
        p = self.p
        raws = list(raws)
        # No slot overflows, so each slot is the coefficient of the same
        # product or sum taken over Z[t].  Every lift has slots in [0, p)
        # and -1 lifts to p - 1, so no slot is negative.  For nonnegative
        # coefficients their total is multiplicative, so with S the total
        # of P's (S = 0 only for P = 0) the coefficients of P^k (k <= dmax)
        # total at most S^k, those of a base, the sum of c*P^i over P's
        # coefficients c, at most S^(dmax+1), and those of a sum of three
        # bases, a negated one multiplied by p - 1, at most
        # 3*(p-1)*S^(dmax+1) < 2^w.
        w = max(1, (3 * (p - 1) * sum(map(sum, raws)) ** (dmax + 1))
                .bit_length())
        mask = (1 << w) - 1

        # Values of more than 32 slots are split in halves first, since
        # packing or unpacking them slot by slot copies them once per slot.
        def pack(a):
            if len(a) > 32:
                h = len(a) // 2
                return pack(a[:h]) | pack(a[h:]) << h * w
            out = 0
            for c in reversed(a):
                out = out << w | c
            return out

        def residues(a, n):
            if n > 32:
                h = n // 2
                return (residues(a & (1 << h * w) - 1, h)
                        + residues(a >> h * w, n - h))
            out = []
            while a:
                out.append((a & mask) % p)
                a >>= w
            return out + [0] * (n - len(out))

        def back(a):
            return _ext_trim(residues(a, a.bit_length() // w + 1))

        return list(map(pack, raws)), operator.mul, p - 1, back

    def _literal(self, raw) -> str:
        """Canonical literal text of a raw value, without outer parentheses."""
        if self.var_name is None:
            try:
                return str(raw)
            except ValueError:  # past the interpreter's int-to-text limit
                raise CoefficientTooLarge(
                    f"a coefficient of {raw.bit_length()} bits has too many "
                    "decimal digits to print") from None
        if not raw:
            return "0"
        parts = []
        for i, c in enumerate(raw):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                v = self.var_name if i == 1 else f"{self.var_name}^{i}"
                parts.append(v if c == 1 else f"{c}*{v}")
        return "+".join(parts)


def _square_multiply(mul, one, base, e: int):
    """base^e by repeated squaring, for an associative mul with unit one;
    the one check of the exponent, which both `**` operators reach."""
    if isinstance(e, bool) or not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    out = one
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def _int_div(b, a):
    q, r = divmod(b, a)
    return None if r else q


def _ext_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _ext_trim(out)


def _ext_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] = (out[i + j] + c * d) % p
    return tuple(out)


class RingElement:
    """A value of one specific RingSpec, kept in canonical form."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: RingSpec, value):
        self.spec = spec
        self.value = value

    def __add__(self, other):
        raw = self.spec._operand(other)
        if raw is None:
            return NotImplemented
        return RingElement(self.spec, self.spec._radd(self.value, raw))

    __radd__ = __add__

    def __sub__(self, other):
        raw = self.spec._operand(other)
        if raw is None:
            return NotImplemented
        return RingElement(self.spec,
                           self.spec._radd(self.value, self.spec._rneg(raw)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        raw = self.spec._operand(other)
        if raw is None:
            return NotImplemented
        return RingElement(self.spec, self.spec._rmul(self.value, raw))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.spec, self.spec._rneg(self.value))

    def __pow__(self, e: int):
        return RingElement(self.spec, self.spec._rpow(self.value, e))

    def __eq__(self, other) -> bool:
        if isinstance(other, RingElement):
            return self.spec == other.spec and self.value == other.value
        raw = self.spec._operand(other)
        return NotImplemented if raw is None else self.value == raw

    def __hash__(self) -> int:
        return hash((self.spec, self.value))

    @property
    def is_zero(self) -> bool:
        return self.value == self.spec._rzero

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return self.spec._literal(self.value)

    def __repr__(self) -> str:
        return f"<{self} in {self.spec}>"
