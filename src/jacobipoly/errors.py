"""Exception hierarchy shared by the whole package.

Everything derives from AlgebraError so callers (notably the CLI) can map
any domain failure to a single usage-error path.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AlgebraError):
    """Malformed ring-spec or polynomial text.  Carries the offset of the
    first offending character in ``position`` when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotPrime(AlgebraError):
    """A modulus that must be prime is not."""


class ModulusTooLarge(AlgebraError):
    """A modulus too large for `is_prime` to decide exactly."""


class CoefficientTooLarge(AlgebraError):
    """An integer coefficient too long for the interpreter to print."""


class SpecMismatch(AlgebraError):
    """Operands built over different ring specs were mixed."""


class VarListMismatch(AlgebraError):
    """Variable lists (or a monomial's arity) do not line up."""


class UnknownVariable(AlgebraError):
    """A variable name outside the declared variable list."""


class CoefficientNotInRing(AlgebraError):
    """A coefficient literal that the target ring cannot hold, e.g. a
    parenthesized extension element over Integers or a prime field."""


class WrongArity(AlgebraError):
    """An operation that needs a bivariate polynomial over exactly (x, y)
    got something else."""


class CharMismatch(AlgebraError):
    """A characteristic-3 family was requested over a ring whose
    characteristic is not 3."""


class ConditionViolated(AlgebraError):
    """Family parameters fail the defining coefficient condition."""


class NotInS2(AlgebraError):
    """The integer's base-p digits do not sum to 2."""


class UnsupportedSpec(AlgebraError):
    """The operation does not support this ring spec (e.g. exhaustive
    enumeration over an extension ring)."""


class BudgetExceeded(AlgebraError):
    """A computation would pass a fixed work bound: `defect`'s ring
    operations, a product's term products, the scan's degree cap, work and
    leaves, or numtheory's n and m, in its C(n, m) scans and digit loops."""
