"""Base-p digit machinery: Lucas residues and the digit-sum classes s_m(p).

s_m(p) is the set of positive integers whose base-p digits sum to m.  Digit
vectors are little-endian (least significant digit first) throughout.

`binom_mod_p` keeps its own digit loop, apart from `lucas_factors`: it
stops at the first digit m_i > n_i and builds no list.  Read off
`lucas_factors`, it took 2.3-2.6x as long, and a residue plus a breakdown
per (n, m <= 200, p <= 7) 1.3-1.4x (Python 3.11, 2.1 GHz Xeon).

`is_prime` is deterministic Miller-Rabin with the first k prime bases,
k the fewest that are exact for its n: the first k primes leave no odd
composite strong pseudoprime below psi_k (Jaeschke 1993), so a modulus
near 10^8 runs 4 bases and one near 10^12 runs 5.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections import namedtuple

from .errors import BudgetExceeded, ModulusTooLarge, NotInS2, NotPrime


# Miller-Rabin with the first k primes as bases is exact below psi_k, the
# least odd composite that is a strong pseudoprime to all of them
# (Jaeschke 1993 up to psi_8, Jiang and Deng 2014 for psi_9 to psi_11,
# Sorenson and Webster 2015 for psi_12 and psi_13 = _MR_LIMIT).  n = psi_k
# itself needs base k + 1, so n takes the bases _MR_BASES[:bisect(_PSI, n)
# + 1].  The bases are also the primes up to 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = frozenset(_MR_BASES)
_MR_LIMIT = 3317044064679887385961981
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051,
        318665857834031151167461, _MR_LIMIT)

# Largest n at which `is_s1_by_divisibility`, `cor2a_check` and `cor2b_check`
# walk every C(n, m), 0 < m < n.  The walk takes time linear in n, 0.8-1.3 s
# at n up to 2^20 (Python 3.11, 2.1 GHz Xeon); past it they raise
# BudgetExceeded before it starts.
_MAX_BINOMIAL_SCAN = 2**20

# Longest n or m, in bits, of the digit loops, whose time is quadratic in it:
# digit_sum takes 0.06 s here (2.1 GHz Xeon); CLI input stops at 14 284 bits.
_MAX_DIGIT_BITS = 2**14


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check, exact for n < 3.3e24
    with as many bases as n needs.

    Raises ModulusTooLarge from there on rather than guess.
    """
    # a float or bool compares and hashes equal to its int, so it would
    # pass for one here and print as itself in a ring built on it
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
        raise TypeError(f"the modulus must be an int, got {type(n).__name__}")
    if n <= 41:
        return n in _SMALL_PRIMES
    if n >= _MR_LIMIT:  # n's size: n may be past the int-to-text limit
        raise ModulusTooLarge(f"a {n.bit_length()}-bit n is too large to "
                              f"decide primality (limit {_MR_LIMIT})")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES[:bisect(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"modulus {p} is not prime")


def _require_digit_args(n: int, m: int, p: int) -> None:
    # the digit loops' checks, in order, once their fast test fails: a bool
    # passes for 0 or 1 in the loops, and a float fails inside math.comb
    _require_prime(p)
    for x in (n, m):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"n and m must be ints, got {type(x).__name__}")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    # formats neither: a value past the bound is past the int-to-text limit
    if (n | m) >> _MAX_DIGIT_BITS:
        raise BudgetExceeded(f"an n or m longer than {_MAX_DIGIT_BITS} bits "
                             f"is past the budget of a base-p digit loop")


def base_p_digits(n: int, p: int) -> tuple[int, ...]:
    """Expand n >= 0 in base p.  Zero expands to the empty digit vector."""
    return tuple(ni for ni, _, _ in lucas_factors(n, 0, p))


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    return sum(base_p_digits(n, p))


def in_s_m(n: int, p: int, m: int) -> bool:
    """Whether n lies in s_m(p), i.e. its base-p digits sum to m."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return digit_sum(n, p) == m


def lucas_factors(n: int, m: int, p: int) -> list[tuple[int, int, int]]:
    """Digitwise breakdown of C(n, m) mod p: one (n_i, m_i, C(n_i, m_i) mod p)
    triple per base-p position, padded with zero digits on the shorter side."""
    # the type tests keep 5.0 and True out of the set; n | m < 0 if n or m is
    if (type(p) is not int or p not in _SMALL_PRIMES or type(n) is not int
            or type(m) is not int or (n | m) >> _MAX_DIGIT_BITS):
        _require_digit_args(n, m, p)
    factors = []
    while n or m:
        n, ni = divmod(n, p)
        m, mi = divmod(m, p)
        # math.comb(ni, mi) is 0 when mi > ni, matching the C(a, b) = 0
        # convention the product relies on
        factors.append((ni, mi, math.comb(ni, mi) % p))
    return factors


def binom_mod_p(n: int, m: int, p: int) -> int:
    """C(n, m) mod p via the digitwise product of small binomials."""
    if (type(p) is not int or p not in _SMALL_PRIMES or type(n) is not int
            or type(m) is not int or (n | m) >> _MAX_DIGIT_BITS):
        _require_digit_args(n, m, p)
    out = 1
    while m or n:
        n, ni = divmod(n, p)
        m, mi = divmod(m, p)
        if mi > ni:
            return 0
        out = out * math.comb(ni, mi) % p
    return out


def _require_scannable(n: int) -> None:
    # the message does not format n, which may be past the interpreter's
    # int-to-text limit
    if n > _MAX_BINOMIAL_SCAN:
        raise BudgetExceeded(
            f"n above {_MAX_BINOMIAL_SCAN} is past the budget of a scan "
            f"over every C(n, m) with 0 < m < n")


def is_s1_by_divisibility(n: int, p: int) -> bool:
    """Whether every interior binomial C(n, m), 0 < m < n, vanishes mod p.

    Equivalent to n being in s_1(p), i.e. n a power of p.  Raises
    BudgetExceeded for n above _MAX_BINOMIAL_SCAN.
    """
    _require_prime(p)
    if n < 2:
        raise ValueError("n must be at least 2")
    _require_scannable(n)
    return all(binom_mod_p(n, m, p) == 0 for m in range(1, n))


def s2_parts(n: int, p: int) -> tuple[int, int]:
    """Split n in s_2(p) as n = n1 + n2 with n1 >= n2 powers of p.

    The split is read off the digit vector: its two positions, counted
    with multiplicity, are the exponents (one digit 2 gives n1 = n2).
    Raises NotInS2 when the digits do not sum to 2.
    """
    digits = base_p_digits(n, p)
    if sum(digits) != 2:
        raise NotInS2(f"a {n.bit_length()}-bit n has base-{p} digit sum "
                      f"{sum(digits)}, not 2")
    low, high = (i for i, d in enumerate(digits) for _ in range(d))
    return p**high, p**low


Cor2aReport = namedtuple("Cor2aReport",
                         "n1 n2 interior_divisible edge_residue")


def cor2a_check(n: int, p: int) -> Cor2aReport:
    """Interior/edge binomial residues for n in s_2(p).

    Interior binomials are C(n, m) for 0 < m < n with m not a split point;
    the edge residue is C(n, n1) mod p, expected to be (1 + [n1 = n2]) mod p.
    Raises BudgetExceeded for n above _MAX_BINOMIAL_SCAN.
    """
    n1, n2 = s2_parts(n, p)
    _require_scannable(n)
    interior = all(binom_mod_p(n, m, p) == 0
                   for m in range(1, n) if m != n1 and m != n2)
    return Cor2aReport(n1=n1, n2=n2, interior_divisible=interior,
                       edge_residue=binom_mod_p(n, n1, p))


def cor2b_check(n: int, p: int) -> bool:
    """Check one implication instance: if C(n, m) * C(m, l) vanishes mod p for
    all 0 < l < m < n, then n is in s_1(p) or s_2(p).

    True when the implication holds for this n (conclusion true, or some
    product is a counterexample to the hypothesis).  A digit sum of 1 or 2
    answers True at any n of at most _MAX_DIGIT_BITS bits; any other n above
    _MAX_BINOMIAL_SCAN raises BudgetExceeded.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if digit_sum(n, p) in (1, 2):
        return True
    _require_scannable(n)
    for m in range(1, n):
        top = binom_mod_p(n, m, p)
        if top == 0:
            continue
        for l in range(1, m):
            if top * binom_mod_p(m, l, p) % p:
                return True
    return False
