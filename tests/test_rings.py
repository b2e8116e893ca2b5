"""Ring spec construction, canonical element arithmetic, and the axioms."""

import functools
import time

import pytest

from conftest import largest_prime_field, random_element
from jacobipoly import RingSpec
from jacobipoly.errors import (ModulusTooLarge, NotPrime, ParseError,
                               SpecMismatch)

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)
E3 = RingSpec.extension(3, "t")
E5 = RingSpec.extension(5, "u")
F1000003 = RingSpec.prime_field(1000003)
E1000003 = RingSpec.extension(1000003, "t")

ALL_SPECS = (Z, F2, F3, F5, E3, E5, F1000003, E1000003)
# the prime fields whose raw values a scan reduces and divides
FIELDS = (F2, F3, F1000003, largest_prime_field())


def test_parse_round_trip():
    for text in ("int", "zp:3", "zp:5", "zp:3[t]", "zp:7[alpha]"):
        assert str(RingSpec.parse(text)) == text
        assert repr(RingSpec.parse(text)) == f"RingSpec({text!r})"


def test_parse_rejects_garbage():
    for text in ("", "zp", "zp:", "zp:x", "int[t]", "zp:3[t][u]", "zp:3[2t]",
                 "gf:3", "zp:3 [t]"):
        with pytest.raises(ParseError):
            RingSpec.parse(text)


def test_nonprime_modulus_rejected():
    for p in (0, 1, 4, 6, 9, 15, -3):
        with pytest.raises(NotPrime):
            RingSpec.prime_field(p)
    with pytest.raises(NotPrime):
        RingSpec.extension(8, "t")


def test_constructor_rejects_bad_parameters():
    # no modulus is the integers, a modulus F_p, and a variable F_p[var]
    assert RingSpec() == RingSpec.integers()
    assert RingSpec(3) == RingSpec.prime_field(3)
    assert RingSpec(3, "t") == RingSpec.extension(3, "t")
    rings = (RingSpec(), RingSpec(3), RingSpec(3, "t"))
    assert [str(r) for r in rings] == ["int", "zp:3", "zp:3[t]"]
    assert [r.characteristic for r in rings] == [0, 3, 3]
    assert len({RingSpec(), RingSpec(3), RingSpec(3, "t"),
                RingSpec(3, "u")}) == 4
    for args, message in (
            ((None, "t"), "prime modulus is required"),
            ((3, "2t"), "identifier variable name")):
        with pytest.raises(ValueError, match=message):
            RingSpec(*args)
    # a named constructor refuses what would build another kind of ring
    with pytest.raises(ValueError, match="prime modulus is required"):
        RingSpec.prime_field(None)
    with pytest.raises(ValueError, match="identifier variable name"):
        RingSpec.extension(3, None)


def test_modulus_must_be_an_int():
    # 3.0 == 3, so a float modulus built a ring equal to zp:3 that printed
    # as zp:3.0 and put 2.0 in its polynomials' text
    for p in (3.0, 43.0, 2.5, True, "3"):
        with pytest.raises(TypeError, match="modulus must be an int"):
            RingSpec.prime_field(p)
    with pytest.raises(TypeError, match="modulus must be an int"):
        RingSpec.extension(2.0, "t")


def test_variable_name_must_be_a_str():
    # re raised its own TypeError on these, naming no argument
    for build in (lambda: RingSpec(3, 5), lambda: RingSpec.extension(3, 5),
                  lambda: RingSpec(3, b"t")):
        with pytest.raises(TypeError, match="variable name must be a str"):
            build()


def test_large_modulus_is_decided_quickly():
    start = time.perf_counter()
    assert RingSpec.parse("zp:1000000000000000003").p == 10**18 + 3
    assert time.perf_counter() - start < 1
    with pytest.raises(ModulusTooLarge):
        RingSpec.parse(f"zp:{2**89 - 1}")
    # refused by its length, before int() meets the interpreter's limit on
    # converting text to int
    start = time.perf_counter()
    with pytest.raises(ModulusTooLarge):
        RingSpec.parse("zp:" + "1" * 5000)
    assert time.perf_counter() - start < 1
    assert RingSpec.parse("zp:" + "0" * 5000 + "7") == RingSpec.prime_field(7)


def test_spec_equality_and_hash():
    assert RingSpec.parse("zp:3") == F3
    assert RingSpec.parse("zp:3[t]") == E3
    assert F3 != F5 and F3 != E3 and Z != F2
    assert RingSpec.extension(3, "t") != RingSpec.extension(3, "u")
    assert len({Z, F3, RingSpec.prime_field(3), E3}) == 3


def test_characteristic():
    assert Z.characteristic == 0
    assert F3.characteristic == 3
    assert E3.characteristic == 3
    assert F5.characteristic == 5


def test_integer_examples():
    assert Z.element(2) + Z.element(-2) == Z.zero()
    assert Z.element(3) * Z.zero() == 0
    assert Z.element(-7).value == -7


def test_prime_field_examples():
    assert F3.element(2) + F3.element(2) == F3.element(1)
    assert F5.element(3) * F5.element(4) == F5.element(2)
    assert F3.element(5).value == 2
    assert (-F3.element(1)).value == 2


def test_extension_examples():
    t = E3.generator()
    assert E3.element([1, 2]) + E3.element([2, 1]) == E3.zero()
    assert (1 + t) * (1 - t) == E3.element([1, 0, 2])
    assert str((1 + t) * (1 - t)) == "1+2*t^2"
    assert str(E3.zero()) == "0"
    assert E3.element(4) == E3.one()


def test_extension_values_stay_trimmed(rng):
    t = E3.generator()
    for _ in range(200):
        a = random_element(E3, rng)
        b = random_element(E3, rng)
        for v in (a + b, a * b, a - b, -a, a**3):
            assert v.value == () or v.value[-1] != 0
            assert all(0 <= c < 3 for c in v.value)


def test_residues_stay_canonical(rng):
    for _ in range(200):
        a = random_element(F5, rng)
        b = random_element(F5, rng)
        for v in (a + b, a * b, a - b, -a, a**7):
            assert 0 <= v.value < 5


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_ring_axioms(spec, rng):
    zero, one = spec.zero(), spec.one()
    for _ in range(1000):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        c = random_element(spec, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_no_zero_divisors(spec, rng):
    zero = spec.zero()
    seen = 0
    while seen < 300:
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        if a.is_zero or b.is_zero:
            continue
        assert a * b != zero
        seen += 1


@pytest.mark.parametrize("spec", (F2, F3, F5, E3, E5), ids=str)
def test_freshman_dream(spec, rng):
    p = spec.characteristic
    for _ in range(300):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        assert (a + b) ** p == a**p + b**p


def test_powers(rng):
    for spec in ALL_SPECS:
        for _ in range(50):
            a = random_element(spec, rng)
            assert a**0 == spec.one()
            assert a**1 == a
            assert a**4 == a * a * a * a
    with pytest.raises(ValueError):
        F3.element(2) ** -1


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        F3.element(1) + F5.element(1)
    with pytest.raises(SpecMismatch):
        Z.element(1) * F3.element(1)
    with pytest.raises(SpecMismatch):
        E3.element([0, 1]) + RingSpec.extension(3, "u").element([0, 1])
    with pytest.raises(SpecMismatch):
        F5.element(F3.element(1))


def test_int_coercion_in_operators():
    assert F3.element(1) + 5 == F3.zero()
    assert 2 * Z.element(3) == Z.element(6)
    assert 1 - F5.element(2) == F5.element(4)
    # other operands fall back to NotImplemented
    for op in (lambda e: e + 1.5, lambda e: e - 1.5, lambda e: e * 1.5):
        with pytest.raises(TypeError):
            op(F3.element(1))
    assert F3.element(1) != "a"
    assert (F3.element(1) == "x") is False
    with pytest.raises(TypeError):
        E3.generator() + True


def test_element_construction():
    assert E3.element([0, 0, 0]).is_zero
    assert E3.element([4, 3, 3]).value == (1,)
    assert F2.element(-1).value == 1
    with pytest.raises(TypeError):
        Z.element("3")
    with pytest.raises(TypeError):
        F3.element(True)
    # every entry of an F_p[t] sequence is an int, never a bool
    for bad in ([2.7], ["3", 1], [True, 1], (1, None)):
        with pytest.raises(TypeError):
            E3.element(bad)
    with pytest.raises(TypeError):
        F3.element([1])
    # an element enters its own ring as itself, and no other ring
    assert E3.element(E3.element([1, 2])).value == (1, 2)
    assert F3.element(F3.element(4)) == F3.element(1)
    assert hash(F3.element(4)) == hash(F3.element(1))
    assert F3.element(1) and not F3.element(3)
    for spec, other in ((F3, F5), (E3, F3), (E3, E5), (Z, F2)):
        with pytest.raises(SpecMismatch):
            spec.element(other.one())


def test_generator_only_for_extensions():
    assert E3.generator().value == (0, 1)
    with pytest.raises(ValueError):
        F3.generator()


def test_generator_powers_are_one_monomial():
    t = E3.generator()
    for e in (0, 1, 1024):
        assert E3._rpow(t.value, e) == (0,) * e + (1,)
        assert t**e == E3.element([0] * e + [1])
    for e in (-1, True):
        with pytest.raises(ValueError, match="nonnegative integer"):
            t**e


# -- the raw arithmetic a scan and the family solve read ----------------------

@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_reduce_is_the_residue_mod_p(spec, rng):
    p = spec.p
    ints = [0, 1, -1, p - 1, p, -p, p + 1, p * p + 3, -p**3 - 2, 10**40 + 7]
    ints += [rng.randrange(-p**3, p**3) for _ in range(200)]
    for v in ints:
        assert spec._reduce(v) == v % p
    for v in (0, 5, -5, -10**40):
        assert Z._reduce(v) == v


def test_div_over_the_integers_is_exact():
    for a in (1, -1, 2, -2, 3, -7, 12, -12):
        for t in range(-20, 21):
            assert Z._div(a * t, a) == t
    assert (Z._div(-6, -2), Z._div(6, -2), Z._div(-6, 2)) == (3, -3, -3)
    assert Z._div(0, -5) == 0
    # an indivisible pair has no quotient, whatever the signs
    for b, a in ((7, 2), (-7, 2), (7, -2), (-7, -2), (1, 3), (-1, -3),
                 (5, -10), (10**40 + 1, 10**20)):
        assert Z._div(b, a) is None


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_div_over_fp_is_the_unique_solution(spec, rng):
    p = spec.p
    if p < 10:
        pairs = [(b, a) for a in range(1, p) for b in range(-p, p)]
    else:
        units = [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(100)]
        pairs = [(b, a) for a in units
                 for b in (0, 1, -1, p - 1, -(p - 1), rng.randrange(-p, p))]
    for b, a in pairs:
        t = spec._div(b, a)
        assert t in range(p) and (a * t - b) % p == 0
        if p < 10:
            assert [s for s in range(p) if (a * s - b) % p == 0] == [t]


@pytest.mark.parametrize("spec", (Z, *FIELDS, E3, E1000003), ids=str)
def test_rsum_is_the_pairwise_sum(spec, rng):
    def check(raws):
        assert spec._rsum(raws) == functools.reduce(spec._radd, raws)

    for _ in range(300):
        raws = [random_element(spec, rng).value
                for _ in range(rng.randrange(1, 9))]
        check(raws)
        # terms that cancel leave the ring's zero
        check(raws + [spec._rneg(v) for v in raws])
    if spec.var_name is not None:
        # a long sum of t^i, taken once and three times, which is 0 mod 3
        powers = [(0,) * i + (1,) for i in range(500)]
        check(powers)
        check(powers * 3)
        assert spec._rsum(powers * 3) == (() if spec.p == 3 else (3,) * 500)


@pytest.mark.parametrize("spec", (Z, *FIELDS), ids=str)
def test_lift_maps_back_through_reduce(spec, rng):
    raws = [random_element(spec, rng).value for _ in range(4)]
    assert spec._lift(raws, 2)[3] is spec._reduce
