import math
import time

import pytest

from jacobipoly import (
    RingSpec,
    base_p_digits,
    binom_mod_p,
    cor2a_check,
    cor2b_check,
    digit_sum,
    in_s_m,
    is_prime,
    is_s1_by_divisibility,
    lucas_factors,
    s2_parts,
)
from jacobipoly import numtheory
from jacobipoly.errors import BudgetExceeded, ModulusTooLarge, NotInS2, NotPrime
from jacobipoly.numtheory import (_MAX_BINOMIAL_SCAN, _MAX_DIGIT_BITS,
                                  _MR_BASES, _MR_LIMIT, _PSI)


def strong_probable_prime(n, bases):
    """Whether odd n > 41 passes Miller-Rabin to every base; with all 13
    bases this is exact below _MR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(7919)
    assert not is_prime(7917)


def test_is_prime_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if is_prime(n) != trial_division(n)] == []


def test_is_prime_large():
    # strong pseudoprimes to the bases 2..7 and 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * 1000003)
    # 2^89 - 1 is prime, but beyond the range the bases decide exactly
    with pytest.raises(ModulusTooLarge):
        is_prime(2**89 - 1)


def test_psi_table():
    assert list(_PSI) == sorted(_PSI) and _PSI[-1] == _MR_LIMIT
    assert len(_PSI) == len(_MR_BASES)


def test_every_psi_is_rejected():
    # the distinct psi_1 .. psi_12 (OEIS A014233), each with the k of its
    # first occurrence: psi_k passes the first k bases, so it is where base
    # k + 1 comes in
    for k, psi in ((1, 2047), (2, 1373653), (3, 25326001), (4, 3215031751),
                   (5, 2152302898747), (6, 3474749660383),
                   (7, 341550071728321), (9, 3825123056546413051),
                   (12, 318665857834031151167461)):
        assert strong_probable_prime(psi, _MR_BASES[:k])
        assert not is_prime(psi), psi


def test_is_prime_matches_all_bases_in_every_psi_interval(rng):
    # about 200 odd n per interval [psi_(k-1), psi_k), psi_0 = 43, and the
    # 20 integers on either side of each psi_k
    ns = []
    for low, high in zip((43,) + _PSI, _PSI):
        if low < high:
            ns += [rng.randrange(low, high) | 1 for _ in range(200)]
    for psi in _PSI:
        ns += range(psi - 20, psi + 21)
    below = [n for n in ns if n < _MR_LIMIT]
    assert [n for n in below if is_prime(n) != (
        n % 2 == 1 and strong_probable_prime(n, _MR_BASES))] == []
    for n in set(ns) - set(below):
        with pytest.raises(ModulusTooLarge):
            is_prime(n)


def test_a_modulus_must_be_an_int():
    # 7.0 and True compare equal to ints; only their type tells them apart
    for call, name in ((lambda: is_prime(7.0), "float"),
                       (lambda: is_prime(True), "bool"),
                       (lambda: binom_mod_p(6, 1, 5.0), "float"),
                       (lambda: lucas_factors(6, 1, 5.0), "float")):
        with pytest.raises(TypeError, match=f"got {name}$"):
            call()


def test_binomial_arguments_must_be_ints():
    # True would pass for C(1, 1) and 6.0 would fail inside math.comb
    for call, name in ((lambda: binom_mod_p(True, 1, 5), "bool"),
                       (lambda: binom_mod_p(6.0, 1, 5), "float"),
                       (lambda: binom_mod_p(6, False, 5), "bool"),
                       (lambda: lucas_factors(6, 1.0, 5), "float"),
                       (lambda: lucas_factors(True, 0, 5), "bool")):
        with pytest.raises(TypeError, match=f"ints, got {name}$"):
            call()
    # an int subclass that is no bool is an int
    class Count(int):
        pass
    assert binom_mod_p(Count(6), Count(1), 5) == 1
    assert lucas_factors(Count(6), 1, 5) == [(1, 1, 1), (1, 0, 1)]


def test_base_p_digits_examples():
    assert base_p_digits(0, 3) == ()
    assert base_p_digits(10, 2) == (0, 1, 0, 1)
    assert base_p_digits(5, 3) == (2, 1)
    assert digit_sum(5, 3) == 3


def test_base_p_digits_reconstructs(rng):
    for _ in range(300):
        n = rng.randrange(10**6)
        p = rng.choice((2, 3, 5, 7, 11))
        d = base_p_digits(n, p)
        assert sum(c * p**i for i, c in enumerate(d)) == n
        assert all(0 <= c < p for c in d)
        assert not d or d[-1] != 0
        assert digit_sum(n, p) == sum(d)


def test_digits_validation():
    with pytest.raises(NotPrime):
        base_p_digits(10, 4)
    with pytest.raises(ValueError):
        base_p_digits(-1, 3)


def test_in_s_m_examples():
    assert in_s_m(9, 3, 1)
    assert in_s_m(4, 2, 1)
    assert in_s_m(10, 2, 2)
    assert in_s_m(7, 2, 3)
    assert not in_s_m(10, 2, 1)
    with pytest.raises(ValueError):
        in_s_m(0, 2, 1)
    with pytest.raises(ValueError):
        in_s_m(3, 2, 0)


def test_s1_membership_is_powers_of_p():
    for p in (2, 3, 5):
        powers = {p**k for k in range(9) if p**k <= 300}
        got = {n for n in range(1, 301) if in_s_m(n, p, 1)}
        assert got == powers


def test_binom_examples():
    assert binom_mod_p(10, 3, 2) == 0
    assert binom_mod_p(5, 2, 3) == 1
    assert binom_mod_p(6, 3, 3) == 2
    for p in (2, 3, 5, 7):
        assert binom_mod_p(17, 0, p) == 1
        assert binom_mod_p(0, 0, p) == 1
        assert binom_mod_p(3, 9, p) == math.comb(3, 9) % p == 0
    for n, m in ((-1, 0), (0, -1), (-5, -2)):
        with pytest.raises(ValueError, match="nonnegative"):
            binom_mod_p(n, m, 3)


def test_binom_against_pascal():
    # arbitrary precision Pascal triangle as the independent oracle
    rows = [[1]]
    for n in range(1, 81):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    for p in (2, 3, 5, 7):
        for n in range(81):
            for m in range(81):
                exact = rows[n][m] if m <= n else 0
                assert binom_mod_p(n, m, p) == exact % p


def test_lucas_factors_multiply_to_residue(rng):
    for _ in range(300):
        n = rng.randrange(5000)
        m = rng.randrange(5000)
        p = rng.choice((2, 3, 5, 7))
        fs = lucas_factors(n, m, p)
        prod = 1
        for ni, mi, f in fs:
            assert 0 <= ni < p and 0 <= mi < p
            assert f == math.comb(ni, mi) % p
            prod = prod * f % p
        assert prod == binom_mod_p(n, m, p)


def test_s1_divisibility_examples():
    assert is_s1_by_divisibility(4, 2)
    assert not is_s1_by_divisibility(6, 2)
    assert is_s1_by_divisibility(9, 3)
    assert not is_s1_by_divisibility(10, 3)
    with pytest.raises(ValueError):
        is_s1_by_divisibility(1, 2)


def test_s1_divisibility_matches_digit_sum():
    for p in (2, 3, 5):
        for n in range(2, 200):
            assert is_s1_by_divisibility(n, p) == in_s_m(n, p, 1)


def test_fermat_exponents():
    # a^m = a in F_p whenever m is in s_1(p)
    for p in (2, 3, 5):
        for k in range(1, 6):
            m = p**k
            assert all(pow(a, m, p) == a for a in range(p))


def test_s2_parts():
    assert s2_parts(4, 3) == (3, 1)
    assert s2_parts(6, 3) == (3, 3)
    assert s2_parts(10, 2) == (8, 2)
    assert s2_parts(50, 5) == (25, 25)
    for n, p in ((2, 2), (9, 3), (1, 2), (7, 2)):
        with pytest.raises(NotInS2):
            s2_parts(n, p)


def test_cor2a_examples():
    rep = cor2a_check(4, 3)
    assert (rep.n1, rep.n2) == (3, 1)
    assert rep.interior_divisible
    assert rep.edge_residue == 1

    rep = cor2a_check(6, 3)
    assert (rep.n1, rep.n2) == (3, 3)
    assert rep.interior_divisible
    assert rep.edge_residue == 2  # (1 + 1) mod 3, repeated part

    rep = cor2a_check(10, 2)
    assert (rep.n1, rep.n2) == (8, 2)
    assert rep.interior_divisible
    assert rep.edge_residue == 1


def test_cor2a_rejects_outside_s2():
    with pytest.raises(NotInS2):
        cor2a_check(9, 3)
    # 2 = 10 base 2 has digit sum 1: it is in s_1(2), not s_2(2), and the
    # repeated-part split cannot arise in base 2 at all.  The underlying
    # arithmetic fact still holds: C(2,1) = (1 + 1) mod 2 = 0.
    with pytest.raises(NotInS2):
        cor2a_check(2, 2)
    assert binom_mod_p(2, 1, 2) == 0


def test_cor2a_both_edges_agree():
    for n, p in ((4, 3), (6, 3), (30, 5), (10, 2)):
        rep = cor2a_check(n, p)
        assert binom_mod_p(n, rep.n1, p) == binom_mod_p(n, rep.n2, p)


def test_cor2b_examples():
    assert cor2b_check(4, 2)    # conclusion holds: 4 is in s_1(2)
    assert cor2b_check(5, 3)    # hypothesis fails: C(5,2)*C(2,1) = 20 != 0 mod 3
    assert cor2b_check(10, 2)   # conclusion holds: 10 is in s_2(2)
    with pytest.raises(ValueError):
        cor2b_check(0, 3)


def test_cor2b_is_false_when_every_product_vanishes(monkeypatch):
    # no n satisfies the hypothesis outside s_1 and s_2, so only a patched
    # binom_mod_p reaches the answer False; 7 has base-2 digit sum 3
    monkeypatch.setattr(numtheory, "binom_mod_p", lambda n, m, p: 0)
    assert cor2b_check(7, 2) is False


def test_digit_loops_refuse_long_arguments_at_once():
    # the loops divide once per digit, so their time is quadratic in the
    # length of n and m; one bit more than the bound is refused at once
    long = 2**_MAX_DIGIT_BITS
    for call in (lambda: digit_sum(long, 2),
                 lambda: cor2b_check(long + 1, 2),
                 lambda: s2_parts(long + 1, 2),
                 lambda: binom_mod_p(5, long, 1000003),
                 lambda: lucas_factors(long - 1, long, 3)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="budget"):
            call()
        assert time.perf_counter() - t0 < 0.1
    assert digit_sum(2**(_MAX_DIGIT_BITS - 1), 2) == 1
    # the checks keep their order: the prime, the types, then the sign
    with pytest.raises(NotPrime):
        binom_mod_p(long, 1.0, 4)
    with pytest.raises(TypeError):
        lucas_factors(long, 1.0, 3)
    with pytest.raises(ValueError):
        binom_mod_p(long, -1, 3)


def test_cor2b_scan_small():
    for p in (2, 3, 5):
        for n in range(2, 100):
            assert cor2b_check(n, p)


def test_binomial_scans_refuse_n_past_their_bound_at_once():
    # each check walks every m < n, so its time is linear in n; 2^40 would
    # run for days.  n = 2^40 + 3 and 3^40 + 3^20 + 1 have digit sum 3.
    big = (lambda: is_s1_by_divisibility(2**40, 2),
           lambda: is_s1_by_divisibility(_MAX_BINOMIAL_SCAN + 1, 3),
           lambda: cor2a_check(2**40 + 1, 2),
           lambda: cor2a_check(2 * 5**30, 5),
           lambda: cor2b_check(2**40 + 3, 2),
           lambda: cor2b_check(3**40 + 3**20 + 1, 3))
    for call in big:
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="budget"):
            call()
        assert time.perf_counter() - t0 < 0.1
    # the bound itself is accepted; these answers come at the first m
    assert not is_s1_by_divisibility(_MAX_BINOMIAL_SCAN - 1, 2)
    assert cor2b_check(_MAX_BINOMIAL_SCAN - 1, 2)
    # input errors still come first, and a digit sum of 1 or 2 answers
    # through cor2b's shortcut at any n
    with pytest.raises(NotInS2):
        cor2a_check(2**40 + 3, 2)
    assert cor2b_check(2**40, 2) and cor2b_check(2**40 + 1, 2)
    assert cor2b_check(2 * 7**300, 7)


# n past the interpreter's int-to-text limit of 4 300 digits: an error
# message that formatted n would raise a bare ValueError instead
HUGE, HUGE_S3 = 10**5000, 2**16000 + 2**10 + 1


@pytest.mark.parametrize("call, error", [
    (lambda: is_prime(HUGE), ModulusTooLarge),
    (lambda: RingSpec(HUGE), ModulusTooLarge),
    (lambda: RingSpec(HUGE, "t"), ModulusTooLarge),
    (lambda: binom_mod_p(3, 1, HUGE), ModulusTooLarge),
    (lambda: lucas_factors(3, 1, HUGE), ModulusTooLarge),
    (lambda: digit_sum(5, HUGE), ModulusTooLarge),
    (lambda: s2_parts(HUGE_S3, 2), NotInS2),
    (lambda: cor2a_check(HUGE_S3, 2), NotInS2),
], ids=["is_prime", "RingSpec", "RingSpec-t", "binom_mod_p",
        "lucas_factors", "digit_sum", "s2_parts", "cor2a_check"])
def test_huge_integers_raise_their_named_error(call, error):
    with pytest.raises(error, match="-bit n"):
        call()
