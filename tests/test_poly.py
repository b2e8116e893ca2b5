"""Polynomial construction, canonical text, arithmetic, and substitution."""

import time

import pytest

from conftest import random_element, random_poly
from jacobipoly import Monomial, MultiPoly, RingSpec, errors, poly
from jacobipoly.errors import (
    CoefficientNotInRing,
    ParseError,
    SpecMismatch,
    UnknownVariable,
    VarListMismatch,
)
from jacobipoly.poly import _MAX_NESTING, _MAX_POWER_SIZE

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)
E3 = RingSpec.extension(3, "t")
F1000003 = RingSpec.prime_field(1000003)
E1000003 = RingSpec.extension(1000003, "t")

XY = ("x", "y")
XYZ = ("x", "y", "z")

GOLDEN = ("(1+2*t^2)*x*y + (1+t+2*t^2+2*t^3)*x + (1+t+2*t^2+2*t^3)*y"
          " + (t+t^3+2*t^4)")


def test_parse_zero():
    p = MultiPoly.parse("0", Z)
    assert p.is_zero and p.deg() == -1 and str(p) == "0"
    assert MultiPoly.parse("x - x", Z).is_zero
    assert MultiPoly.parse("3*x*y", F3).is_zero


def test_parse_sums_the_terms_of_one_monomial():
    # a sum that reaches zero on the way, or at the end, drops its monomial,
    # and every builder of a term dict sums a monomial's terms the same way
    t = E3.generator()
    sums = (  # ring, text, its terms as (monomial, coefficient), the sum
        (Z, "x + 2*y - x + 3*x",
         [((1, 0), 1), ((0, 1), 2), ((1, 0), -1), ((1, 0), 3)], "3*x + 2*y"),
        (F3, "2*x + 2*x + y + 2*y",
         [((1, 0), 2), ((1, 0), 2), ((0, 1), 1), ((0, 1), 2)], "x"),
        (E3, "(t + 2*t + t^2)*x + (1 - t^2)*x + (t^3)*y",
         [((1, 0), t + 2 * t + t**2), ((1, 0), 1 - t**2), ((0, 1), t**3)],
         "x + (t^3)*y"),
    )

    def no_zero_value(p):
        return all(v != p.spec._rzero for v in p._terms.values())

    for spec, text, terms, total in sums:
        want = MultiPoly.parse(total, spec)
        x, y = (MultiPoly.variable(spec, XY, v) for v in XY)
        zero = MultiPoly.zero(spec, XY)
        # the first term of each monomial under a Monomial key, the sum of
        # the rest under the equal tuple key
        first, rest = {}, {}
        for m, c in terms:
            if m in first:
                rest[m] = rest.get(m, 0) + c
            else:
                first[m] = c
        spread = MultiPoly(spec, XYZ, {m + (k,): c
                                       for k, (m, c) in enumerate(terms)})
        built = (
            MultiPoly.parse(text, spec),
            MultiPoly(spec, XY, {**{Monomial(m): c for m, c in first.items()},
                                 **rest}),
            sum((x**i * y**j * c for (i, j), c in terms), zero),
            sum((c * x**i * y**j for (i, j), c in terms), zero),
            zero - sum((x**i * y**j * (-c) for (i, j), c in terms), zero),
            # z -> 1 leaves every term of one monomial to substitute's sum
            spread.substitute({"x": x, "y": y,
                               "z": MultiPoly.constant(spec, XY, 1)}),
        )
        for p in built:
            assert p == want and no_zero_value(p), (spec, p)
        assert (want * 3).is_zero == (spec.p == 3)
        square = (want + 1) ** 2
        assert square == want * want + want * 2 + 1 and no_zero_value(square)
    # (x + y)^3 = x^3 + y^3 over F_3: each middle coefficient is two
    # products whose sum is zero
    for spec in (F3, E3):
        x, y = (MultiPoly.variable(spec, XY, v) for v in XY)
        assert (x + y) ** 3 == x**3 + y**3
        assert no_zero_value((x + y) ** 3)
    long = "(" + "+".join(f"t^{i}" for i in range(1025)) + ")*x"
    assert MultiPoly.parse(long, E3).coeff((1, 0)) == E3.element([1] * 1025)
    assert MultiPoly.parse(long, E3) == MultiPoly(
        E3, XY, {Monomial((1, 0)): [1] * 512, (1, 0): [0] * 512 + [1] * 513})


def test_parse_linear_example():
    p = MultiPoly.parse("-2*x + 4*y", Z)
    assert p.coeff((1, 0)) == -2
    assert p.coeff((0, 1)) == 4
    assert str(p) == "-2*x + 4*y"


def test_parse_extension_coefficients():
    p = MultiPoly.parse(GOLDEN, E3)
    t = E3.generator()
    assert p.coeff((1, 1)) == 1 + 2 * t**2
    assert p.coeff((1, 0)) == (1 + t) * (1 - t**2)
    assert p.coeff((0, 1)) == p.coeff((1, 0))
    assert p.coeff((0, 0)) == t * (1 + t) * (1 - t - t**2)
    assert str(p) == GOLDEN


def test_parse_is_permissive_about_spelling():
    assert MultiPoly.parse("2x", Z) == MultiPoly.parse("2*x", Z)
    assert MultiPoly.parse("x y", Z) == MultiPoly.parse("x*y", Z)
    assert MultiPoly.parse(" -2*x+ 4 * y ", Z) == MultiPoly.parse("-2*x + 4*y", Z)
    assert MultiPoly.parse("+x", Z) == MultiPoly.parse("x", Z)
    assert MultiPoly.parse("x^2*x", Z) == MultiPoly.parse("x^3", Z)
    assert MultiPoly.parse("(1+t)(1+t)", E3) == MultiPoly.parse("(1+t)^2", E3)
    E5 = RingSpec.extension(5, "t")
    assert MultiPoly.parse("(2)^2*x", E5) == MultiPoly.parse("4*x", E5)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        MultiPoly.parse("x + ", Z)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        MultiPoly.parse("x ^", Z)
    with pytest.raises(ParseError):
        MultiPoly.parse("x^-1", Z)
    with pytest.raises(ParseError):
        MultiPoly.parse("x * * y", Z)
    with pytest.raises(ParseError):
        MultiPoly.parse("", Z)
    with pytest.raises(ParseError):
        MultiPoly.parse("(1+t", E3)
    with pytest.raises(ParseError) as info:
        MultiPoly.parse("x + $", Z)
    assert info.value.position == 4
    for text, position in (("x^2^3", 3), ("x )", 2)):
        with pytest.raises(ParseError, match="expected '\\+' or '-'") \
                as info:
            MultiPoly.parse(text, Z)
        assert info.value.position == position


def test_parenthesized_coefficients_use_the_polynomial_grammar():
    assert MultiPoly.parse("((1+t))^2*x", E3) == \
        MultiPoly.parse("(1+2*t+t^2)*x", E3)
    assert MultiPoly.parse("(t)^0*x", E3) == MultiPoly.parse("x", E3)
    assert MultiPoly.parse("2^0*x", Z) == MultiPoly.parse("x", Z)
    for text, position in (("(1+)*x", 3), ("(1+t", 4)):
        with pytest.raises(ParseError) as info:
            MultiPoly.parse(text, E3)
        assert info.value.position == position
    with pytest.raises(UnknownVariable):
        MultiPoly.parse("(x)*y", E3)


def test_coefficient_powers_are_bounded():
    for text, spec in (("2^999999999*x", Z), ("(1+t)^999999999*x", E3)):
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            MultiPoly.parse(text, spec)
        assert time.perf_counter() - start < 1
        assert info.value.position == text.index("^")
    # reduced as it is computed, so F_p takes any exponent
    assert MultiPoly.parse("2^999999999*x", F3) == MultiPoly.parse("2*x", F3)
    # the bound is on the result, so 1 and -1 take any exponent
    assert MultiPoly.parse("1^999999999*x", Z) == MultiPoly.parse("x", Z)
    assert MultiPoly.parse("(-1)^999999999*x", E3) == \
        MultiPoly.parse("2*x", E3)
    e = _MAX_POWER_SIZE
    assert MultiPoly.parse(f"2^{e}*x", Z).coeff((1, 0)) == 2**e
    assert MultiPoly.parse(f"(1+t)^{e}", E3).coeff((0, 0)) == \
        (1 + E3.generator())**e
    with pytest.raises(ParseError):
        MultiPoly.parse(f"2^{e + 1}*x", Z)
    with pytest.raises(ParseError):
        MultiPoly.parse(f"(1+t)^{e + 1}", E3)
    with pytest.raises(ParseError):
        MultiPoly.parse(f"((1+t)^{e})^2", E3)


def test_coefficient_nesting_is_bounded():
    def nested(depth):
        return "(" * depth + "t" + ")" * depth + "*x"

    assert MultiPoly.parse(nested(_MAX_NESTING), E3) == \
        MultiPoly.parse("(t)*x", E3)
    with pytest.raises(ParseError) as info:
        MultiPoly.parse(nested(_MAX_NESTING + 1), E3)
    assert info.value.position == _MAX_NESTING


def test_coefficient_products_are_bounded():
    # each factor is within the power bound, but F_p[t] degrees add up in
    # a product; the second factor takes the coefficient past the bound
    text = "*".join(["(1+t)^1024"] * 60) + "*x"
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        MultiPoly.parse(text, E3)
    assert time.perf_counter() - start < 1
    assert info.value.position == len("(1+t)^1024*")
    e = _MAX_POWER_SIZE
    assert MultiPoly.parse(f"(t)^{e - 24}*(1+t)^24*x", E3) == \
        MultiPoly.parse(f"(t^{e - 24}*(1+t)^24)*x", E3)
    for text in (f"(t)^{e - 24}*(1+t)^25*x", f"(t^{e}*t)*x"):
        with pytest.raises(ParseError):
            MultiPoly.parse(text, E3)


def test_integers_past_the_text_limit_raise_named_errors():
    # the interpreter converts ints of at most a few thousand decimal
    # digits to and from text
    with pytest.raises(ParseError) as info:
        MultiPoly.parse("1" * 5000 + "*x", Z)
    assert info.value.position == 0
    with pytest.raises(errors.CoefficientTooLarge):
        str(MultiPoly(Z, XY, {(1, 0): 10**5000}))


def test_parse_unknown_variables():
    with pytest.raises(UnknownVariable):
        MultiPoly.parse("x + q", Z)
    with pytest.raises(UnknownVariable):
        MultiPoly.parse("t*x", E3)  # extension variable needs parentheses
    with pytest.raises(UnknownVariable):
        MultiPoly.parse("(1+u)*x", E3)


def test_parens_need_an_extension_ring():
    with pytest.raises(CoefficientNotInRing):
        MultiPoly.parse("(3)*x", Z)
    with pytest.raises(CoefficientNotInRing):
        MultiPoly.parse("(1)*x", F3)


def test_print_round_trip_random(rng):
    for spec in (Z, F2, F3, F5, E3):
        for _ in range(200):
            p = random_poly(spec, XY, rng)
            assert MultiPoly.parse(str(p), spec) == p
            assert str(MultiPoly.parse(str(p), spec)) == str(p)


# one case per branch of the printer: signs of int terms, 1 and -1 with and
# without a monomial, zero, and F_p[t] constants, (t), (t^3) and sums
PRINTED = [
    (Z, {(1, 0): -3, (0, 1): 5, (0, 0): -7}, "-3*x + 5*y - 7"),
    (Z, {(1, 0): 1, (0, 1): -1}, "x - y"),
    (Z, {(1, 0): -1, (0, 0): 1}, "-x + 1"),
    (Z, {(0, 0): -1}, "-1"),
    (Z, {}, "0"),
    (F3, {(1, 0): 2, (0, 0): 1}, "2*x + 1"),
    (E3, {(1, 0): [2], (0, 1): [0, 1], (0, 0): [0, 0, 0, 1]},
     "2*x + (t)*y + (t^3)"),
    (E3, {(1, 1): [1, 0, 2], (1, 0): [1], (0, 0): [1]},
     "(1+2*t^2)*x*y + x + 1"),
    (E3, {(0, 0): [2, 1]}, "(2+t)"),
]


@pytest.mark.parametrize("spec, terms, text", PRINTED)
def test_print_golden_cases(spec, terms, text):
    p = MultiPoly(spec, XY, terms)
    assert str(p) == text
    assert MultiPoly.parse(text, spec) == p


def test_print_order_is_graded_lex_descending():
    p = MultiPoly.parse("y + x + x*y + 1 + x^2", Z)
    assert str(p) == "x^2 + x*y + x + y + 1"
    q = MultiPoly.parse("y^2 + x^2 + x*y", F5)
    assert str(q) == "x^2 + x*y + y^2"


def test_constructor_and_helpers():
    p = MultiPoly(Z, XY, {(1, 0): -2, Monomial((0, 1)): 4})
    assert p == MultiPoly.parse("-2*x + 4*y", Z)
    assert repr(p) == "<-2*x + 4*y over int in x/y>"
    mono = Monomial((1, 0))
    assert repr(mono) == "Monomial(exponents=(1, 0))"
    assert mono == Monomial(exponents=(1, 0)) and mono.text(XY) == "x"
    assert p.coeff(mono) == -2
    with pytest.raises(AttributeError):
        mono.exponents = (0, 1)
    assert MultiPoly.zero(F3, XY).is_zero
    assert MultiPoly.constant(F3, XY, 5) == MultiPoly.parse("2", F3)
    assert MultiPoly.variable(Z, XYZ, "z") == MultiPoly.parse("z", Z, XYZ)
    with pytest.raises(UnknownVariable):
        MultiPoly.variable(Z, XY, "w")


def test_constructor_validation():
    with pytest.raises(TypeError):
        MultiPoly("int", XY, {})
    with pytest.raises(VarListMismatch):
        MultiPoly(Z, ("x", "x"), {})
    with pytest.raises(VarListMismatch):
        MultiPoly(Z, (), {})
    with pytest.raises(VarListMismatch):
        MultiPoly(E3, ("x", "t"), {})  # collides with the extension variable
    with pytest.raises(VarListMismatch):
        MultiPoly(Z, XY, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(Z, XY, {(-1, 0): 1})
    with pytest.raises(SpecMismatch):
        MultiPoly(Z, XY, {(1, 0): F3.element(1)})
    with pytest.raises(VarListMismatch):
        MultiPoly(Z, ("x y", "z"), {})  # parse(str(p)) could not read it
    with pytest.raises(VarListMismatch):
        MultiPoly(Z, ("a^2",), {})


def test_zero_coefficients_are_dropped():
    p = MultiPoly(F3, XY, {(1, 0): 3, (0, 1): 1})
    assert (1, 0) not in p._terms
    q = MultiPoly.parse("x + y", Z) - MultiPoly.parse("x", Z)
    assert set(q._terms) == {(0, 1)}


def test_arithmetic_examples():
    x_minus_y = MultiPoly.parse("x - y", Z)
    x_plus_y = MultiPoly.parse("x + y", Z)
    assert x_minus_y * x_plus_y == MultiPoly.parse("x^2 - y^2", Z)
    p = MultiPoly.parse("x^2*y - x*y + y", Z)
    assert p + (-p) == MultiPoly.zero(Z, XY)
    assert MultiPoly.parse("x + y", F3) ** 3 == MultiPoly.parse("x^3 + y^3", F3)
    assert MultiPoly.parse("x - y", F3) ** 3 == MultiPoly.parse("x^3 + 2*y^3", F3)
    assert MultiPoly.parse("x + y", F2) ** 2 == MultiPoly.parse("x^2 + y^2", F2)


def test_scalar_mixing():
    p = MultiPoly.parse("x + y", Z)
    assert 2 * p == MultiPoly.parse("2*x + 2*y", Z)
    assert p + 1 == MultiPoly.parse("x + y + 1", Z)
    assert p + 0 == p
    assert 1 - p == MultiPoly.parse("1 - x - y", Z)
    t = E3.generator()
    q = MultiPoly.parse("x", E3)
    assert t * q == MultiPoly.parse("(t)*x", E3)
    # other operands fall back to NotImplemented
    for op in (lambda p: p + "x", lambda p: p - "x", lambda p: p * "x"):
        with pytest.raises(TypeError):
            op(p)
    assert p != "x + y"


def test_cross_spec_arithmetic_rejected():
    with pytest.raises(SpecMismatch):
        MultiPoly.parse("x", Z) + MultiPoly.parse("x", F3)
    # a ring element of another ring, on either side
    with pytest.raises(SpecMismatch):
        MultiPoly.parse("x", Z) + F3.one()
    with pytest.raises(SpecMismatch):
        E3.generator() * MultiPoly.parse("x", F3)
    with pytest.raises(VarListMismatch):
        MultiPoly.parse("x", Z) + MultiPoly.parse("x", Z, XYZ)


def test_pow_validation():
    p = MultiPoly.parse("x + 1", Z)
    assert p**0 == MultiPoly.constant(Z, XY, 1)
    assert p**1 == p
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-2)
    # one exponent rule for polynomials and ring elements: a bool, a
    # non-int or a negative exponent is a ValueError
    for e in (2.0, True, False, -1):
        with pytest.raises(ValueError, match="nonnegative integer"):
            p ** e
        with pytest.raises(ValueError, match="nonnegative integer"):
            Z.element(2) ** e


def test_degrees():
    p = MultiPoly.parse("x^2*y + y", Z)
    assert p.deg() == 3
    assert p.deg_in("x") == 2
    assert p.deg_in("y") == 1
    zero = MultiPoly.zero(Z, XY)
    assert zero.deg() == -1 and zero.deg_in("x") == -1
    with pytest.raises(UnknownVariable):
        p.deg_in("q")


def test_degree_multiplicativity(rng):
    for spec in (Z, F3, F5, E3):
        done = 0
        while done < 150:
            p = random_poly(spec, XY, rng)
            q = random_poly(spec, XY, rng)
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).deg() == p.deg() + q.deg()
            done += 1


def test_coeff_lookup():
    p = MultiPoly.parse("x^2*y + 5", Z)
    assert p.coeff((2, 1)) == 5 - 4
    assert p.coeff(Monomial((0, 0))) == 5
    assert p.coeff((3, 3)).is_zero
    with pytest.raises(VarListMismatch):
        p.coeff((1, 0, 0))


def test_terms_iteration_order():
    p = MultiPoly.parse("y + x^2 + x*y + 1", Z)
    monos = [m.exponents for m, _ in p.terms()]
    assert monos == [(2, 0), (1, 1), (0, 1), (0, 0)]
    assert p.least_term()[0].exponents == (0, 0)
    assert MultiPoly.zero(Z, XY).least_term() is None


def test_least_term_breaks_degree_ties_lexicographically():
    p = MultiPoly.parse("x^2 + x*y + y^2", Z)
    mono, coeff = p.least_term()
    assert mono.exponents == (0, 2) and coeff == 1


def test_monomial_text():
    assert Monomial((1, 1, 1)).text(XYZ) == "x*y*z"
    assert Monomial((0, 0)).text(XY) == "1"
    assert Monomial((2, 0, 1)).text(XYZ) == "x^2*z"
    with pytest.raises(VarListMismatch):
        Monomial((1, 0)).text(XYZ)


def test_substitute_examples():
    xy = MultiPoly.parse("x*y", Z)
    x = MultiPoly.parse("x", Z)
    assert xy.substitute({"x": x, "y": x}) == MultiPoly.parse("x^2", Z)

    p = MultiPoly.parse("-2*x + 4*y", Z)
    px = MultiPoly.parse("-2*x + 4*y", Z, XYZ)
    z = MultiPoly.parse("z", Z, XYZ)
    assert p.substitute({"x": px, "y": z}) == \
        MultiPoly.parse("4*x - 8*y + 4*z", Z, XYZ)

    sq = MultiPoly.parse("x^2", F2)
    assert sq.substitute({"x": MultiPoly.parse("x + y", F2)}) == \
        MultiPoly.parse("x^2 + y^2", F2)


def test_substitute_no_bindings_is_identity():
    p = MultiPoly.parse("x + y", Z)
    assert p.substitute({}) is p


def test_substitute_validation():
    p = MultiPoly.parse("x + y", Z)
    x3 = MultiPoly.parse("x", Z, XYZ)
    with pytest.raises(UnknownVariable):
        p.substitute({"q": x3})
    with pytest.raises(TypeError):
        p.substitute({"x": 1})
    with pytest.raises(SpecMismatch):
        p.substitute({"x": MultiPoly.parse("x", F3, XYZ)})
    with pytest.raises(VarListMismatch):
        p.substitute({"x": x3, "y": MultiPoly.parse("a", Z, ("a",))})
    # unbound y does not exist in the replacement variable list
    with pytest.raises(UnknownVariable):
        p.substitute({"x": MultiPoly.parse("a", Z, ("a",))})


def test_substitution_is_a_homomorphism(rng):
    for spec in (Z, F3, E3, F1000003, E1000003):
        for _ in range(120):
            p = random_poly(spec, XY, rng)
            q = random_poly(spec, XY, rng)
            sub = {"x": random_poly(spec, XYZ, rng, max_deg=1),
                   "y": random_poly(spec, XYZ, rng, max_deg=1)}
            assert (p + q).substitute(sub) == \
                p.substitute(sub) + q.substitute(sub)
            assert (p * q).substitute(sub) == \
                p.substitute(sub) * q.substitute(sub)


def test_evaluation_consistency(rng):
    for spec in (F5, E3, Z):
        for _ in range(100):
            p = random_poly(spec, XY, rng)
            q = random_poly(spec, XY, rng)
            point = {"x": random_element(spec, rng),
                     "y": random_element(spec, rng)}
            assert (p + q).evaluate(point) == \
                p.evaluate(point) + q.evaluate(point)
            assert (p * q).evaluate(point) == \
                p.evaluate(point) * q.evaluate(point)


def test_evaluate_examples():
    p = MultiPoly.parse("-2*x + 4*y", Z)
    assert p.evaluate({"x": 1, "y": 2}) == 6
    with pytest.raises(UnknownVariable):
        p.evaluate({"x": 1})
    with pytest.raises(UnknownVariable):
        p.evaluate({"x": 1, "y": 2, "z": 3})


def test_with_vars():
    # substitute re-indexes over new variables when each is bound to itself
    p = MultiPoly.parse("x*y + x", Z)

    def reindex(vars):
        return p.substitute({v: MultiPoly.variable(Z, vars, v)
                             for v in p.vars})

    q = reindex(XYZ)
    assert q.vars == XYZ
    assert q.coeff((1, 1, 0)) == 1 and q.coeff((1, 0, 0)) == 1
    assert q.deg_in("z") == 0
    reordered = reindex(("y", "x"))
    assert reordered.coeff((1, 1)) == 1 and reordered.deg_in("y") == 1
    with pytest.raises(UnknownVariable):
        reindex(("x", "z"))


def test_hash_consistency(rng):
    for _ in range(50):
        p = random_poly(F3, XY, rng)
        q = MultiPoly.parse(str(p), F3)
        assert p == q and hash(p) == hash(q)
    assert len({MultiPoly.parse("x", Z), MultiPoly.parse("x", Z)}) == 1


def test_non_integer_exponents_are_value_errors():
    with pytest.raises(ValueError):
        MultiPoly(Z, XY, {("a", 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(Z, XY, {(1.5, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(Z, XY, {(True, False): 2})


def test_products_are_bounded(monkeypatch):
    # (x+y+1)**200 would square 2 145 terms after the 561 of (x+y+1)**32:
    # it used to run 38 s, and the 561 squared are refused at once
    p = MultiPoly.parse("x + y + 1", Z)
    t0 = time.perf_counter()
    with pytest.raises(errors.BudgetExceeded, match="561 by 561 terms"):
        p ** 200
    assert time.perf_counter() - t0 < 0.1
    assert len((p ** 50)._terms) == 1326  # 190 by 561 terms
    # the bound is on len(a) * len(b), at *, ** and substitute alike
    monkeypatch.setattr(poly, "_MAX_PRODUCT_TERMS", 6)
    q = MultiPoly.parse("x^2 + x + 1", Z)
    assert q * MultiPoly.parse("y + 1", Z) == MultiPoly.parse(
        "x^2*y + x*y + y + x^2 + x + 1", Z)
    for call in (lambda: q * q, lambda: q ** 2,
                 lambda: q.substitute({"x": q})):
        with pytest.raises(errors.BudgetExceeded, match="3 by 3 terms"):
            call()
