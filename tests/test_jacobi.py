"""Defect computation for the four identity forms.

The tuned engine in jacobi.defect is cross-checked here against a naive
expansion built only from generic substitution, term by term from the
definitions, on random polynomials over every ring kind.
"""

import itertools
import time

import pytest

from conftest import largest_prime_field, random_element, random_poly
from jacobipoly import (
    EquationForm,
    Monomial,
    MultiPoly,
    RingSpec,
    defect,
    jacobi,
    least_defect_term,
    oracle,
    satisfies,
    swap,
)
from jacobipoly.errors import BudgetExceeded, WrongArity

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)
E3 = RingSpec.extension(3, "t")
E5 = RingSpec.extension(5, "u")

XY = ("x", "y")
XYZ = ("x", "y", "z")

GOLDEN = ("(1+2*t^2)*x*y + (1+t+2*t^2+2*t^3)*x + (1+t+2*t^2+2*t^3)*y"
          " + (t+t^3+2*t^4)")


def _vars3(spec):
    return tuple(MultiPoly.variable(spec, XYZ, v) for v in XYZ)


def naive_defect(p, form):
    """The defining composition sums, expanded with substitute() only."""
    x, y, z = _vars3(p.spec)

    def P(a, b):
        return p.substitute({"x": a, "y": b})

    if form is EquationForm.J1:
        return P(P(x, y), z) + P(P(y, z), x) + P(P(z, x), y)
    if form is EquationForm.J2:
        return P(x, P(y, z)) + P(y, P(z, x)) + P(z, P(x, y))
    if form is EquationForm.J5:
        return P(P(x, y), z) + P(y, P(x, z)) - P(x, P(y, z))
    return P(x, P(y, z)) + P(P(x, z), y) - P(P(x, y), z)


def random_inputs(rng, specs):
    """40 random P per ring of degree <= 2 per variable, then 10 per ring of
    degree <= 3."""
    for max_deg, count in ((2, 40), (3, 10)):
        for spec in specs:
            for _ in range(count):
                yield random_poly(spec, XY, rng, max_deg)


def maximal_inputs():
    """Dense P of degree <= 2 per variable whose every coefficient is
    maximal: p - 1 in each of 1-4 t-slots over F_p[t], +-2^4096 over int
    (up to degree 1, where the defect bound still accepts it) and q - 1
    over the largest prime field."""
    def dense(spec, d, c):
        return MultiPoly(spec, XY, {(i, j): c for i in range(d + 1)
                                    for j in range(d + 1)})

    for p in (2, 3, 1000003):
        spec = RingSpec.extension(p, "t")
        for slots in range(1, 5):
            for d in range(3):
                yield dense(spec, d, [p - 1] * slots)
    for sign in (1, -1):
        for d in range(2):
            yield dense(Z, d, sign << 4096)
    fq = largest_prime_field()
    for d in range(3):
        yield dense(fq, d, fq.p - 1)


def test_defect_matches_naive_expansion(rng):
    for p in itertools.chain(random_inputs(rng, (Z, F2, F3, F5, E3, F7, E5)),
                             maximal_inputs()):
        for form in EquationForm:
            assert defect(p, form) == naive_defect(p, form), (p.spec, p, form)


def test_long_coefficients_specialize_to_the_prime_field():
    # t-coefficients of degree 1 024, dense and with zeros inside: the
    # defect over F_p[t], evaluated at t = a, is the F_p defect of P
    # evaluated at t = a
    ext = RingSpec.extension(1000003, "t")
    fp = RingSpec.prime_field(ext.p)

    def at(q, a):
        return MultiPoly(fp, q.vars, {
            m.exponents: sum(c * pow(a, i, fp.p)
                             for i, c in enumerate(v.value))
            for m, v in q.terms()})

    for c in ([1] * 1025, [1] + [0] * 1023 + [1]):
        p = MultiPoly(ext, XY, {(4, 0): c, (0, 1): 1})
        for form in (EquationForm.J1, EquationForm.J5):
            d = defect(p, form)
            for a in (2, 7, fp.p - 1):
                assert at(d, a) == defect(at(p, a), form), (form, a)


def test_defect_frozen_examples():
    assert defect(MultiPoly.parse("x*y", Z), EquationForm.J1) == \
        MultiPoly.parse("3*x*y*z", Z, XYZ)
    assert defect(MultiPoly.parse("x", Z), EquationForm.J1) == \
        MultiPoly.parse("x + y + z", Z, XYZ)
    assert defect(MultiPoly.parse("x^2", Z), EquationForm.J1) == \
        MultiPoly.parse("x^4 + y^4 + z^4", Z, XYZ)
    assert defect(MultiPoly.parse("x + y", F2), EquationForm.J1) == \
        MultiPoly.parse("x + y + z", F2, XYZ)
    assert defect(MultiPoly.parse("-2*x + 4*y", Z), EquationForm.J1).is_zero
    assert defect(MultiPoly.parse("x*y", F3), EquationForm.J1).is_zero
    assert defect(MultiPoly.zero(Z, XY), EquationForm.J5).is_zero


def test_satisfies_examples():
    assert satisfies(MultiPoly.parse(GOLDEN, E3), EquationForm.J1)
    assert satisfies(MultiPoly.parse("x*y + x + y", F3), EquationForm.J1)
    assert not satisfies(MultiPoly.parse("x", Z), EquationForm.J1)
    assert not satisfies(MultiPoly.parse("x*y", Z), EquationForm.J1)
    assert satisfies(MultiPoly.parse("x*y", F3), EquationForm.J2)


def test_least_defect_term_is_the_defects_least_term(rng):
    E1000003 = RingSpec.extension(1000003, "t")
    specs = (Z, F2, F3, E3, E1000003)
    # a J1 solution per ring; F_2 has only the zero one
    solutions = [MultiPoly.parse(text, spec) for text, spec in (
        ("-2*x + 4*y", Z), ("x*y + x + y", F3), (GOLDEN, E3),
        ("x + 500001*y", E1000003))]
    inputs = [MultiPoly.zero(spec, XY) for spec in specs] + solutions
    inputs += [random_poly(spec, XY, rng, max_deg, max_terms)
               for spec in specs
               for max_deg, max_terms in ((1, 4), (2, 9), (3, 6))
               for _ in range(6)]
    for p in inputs:
        for form in EquationForm:
            assert least_defect_term(p, form) == defect(p, form).least_term(), \
                (p.spec, p, form)
    for p in solutions:
        assert least_defect_term(p, EquationForm.J1) is None
    # the least lifted coefficient of x + 1's J1 defect over F_3 is nonzero
    # as an int but zero in the ring, so the witness is the next one, z
    p = MultiPoly.parse("x + 1", F3)
    lifted, back = jacobi._lifted_defect(p, EquationForm.J1)
    assert min(lifted, key=lambda e: (sum(e), e)) == (0, 0, 0)
    assert lifted[0, 0, 0] == 6 and back(6) == 0
    assert least_defect_term(p, EquationForm.J1) == (Monomial((0, 0, 1)),
                                                     F3.one())
    with pytest.raises(BudgetExceeded):
        least_defect_term(MultiPoly.parse("x^100000 + y", Z),
                          EquationForm.J1)


def test_formal_identity_not_pointwise():
    # x^2 + x is the zero function on F_2 but not the zero polynomial; its
    # defect is likewise pointwise zero everywhere yet formally nonzero.
    p = MultiPoly.parse("x^2 + x", F2)
    d = defect(p, EquationForm.J1)
    assert d == MultiPoly.parse("x^4 + x + y^4 + y + z^4 + z", F2, XYZ)
    assert not satisfies(p, EquationForm.J1)
    for point in itertools.product(range(2), repeat=3):
        values = dict(zip(XYZ, point))
        assert d.evaluate(values).is_zero


def test_satisfied_defects_vanish_pointwise():
    cases = [
        (MultiPoly.parse("x*y + x + y", F3), 3),
        (MultiPoly.parse("x + 2*y", F5), 5),
        (MultiPoly.parse("2", F3), 3),
    ]
    for p, q in cases:
        d = defect(p, EquationForm.J1)
        assert d.is_zero
        for point in itertools.product(range(q), repeat=3):
            assert d.evaluate(dict(zip(XYZ, point))).is_zero


def test_constant_defect_is_three_c():
    one = MultiPoly.constant(Z, XY, 1)
    d = defect(one, EquationForm.J1)
    assert d == MultiPoly.constant(Z, XYZ, 3)
    assert satisfies(MultiPoly.constant(F3, XY, 2), EquationForm.J1)
    assert not satisfies(MultiPoly.constant(F5, XY, 2), EquationForm.J1)


def test_constant_j1_rule():
    def solves(spec, value):
        return satisfies(MultiPoly.constant(spec, XY, value), EquationForm.J1)

    assert solves(F3, 2)
    assert solves(E3, E3.generator())
    assert solves(Z, 0)
    assert not solves(Z, 1)
    assert not solves(F5, 1)
    assert solves(F2, 0) and not solves(F2, 1)


def test_swap():
    p = MultiPoly.parse("x^2 + 3*x*y - y", Z)
    q = swap(p)
    assert q == MultiPoly.parse("y^2 + 3*x*y - x", Z)
    assert swap(q) == p
    assert swap(MultiPoly.parse("x*y", Z)) == MultiPoly.parse("x*y", Z)


def test_swap_carries_j2_to_j1(rng):
    # defect identity: the J2 defect of P is the J1 defect of swap(P) with
    # y and z exchanged
    for p in random_inputs(rng, (Z, F3, F7, E5)):
        yv, zv = _vars3(p.spec)[1:]
        d2 = defect(p, EquationForm.J2)
        d1 = defect(swap(p), EquationForm.J1)
        assert d2 == d1.substitute({"y": zv, "z": yv})


def test_swap_carries_j6_to_j5(rng):
    for p in random_inputs(rng, (Z, F3, F7, E5)):
        xv, _, zv = _vars3(p.spec)
        d6 = defect(p, EquationForm.J6)
        d5 = defect(swap(p), EquationForm.J5)
        assert d6 == d5.substitute({"x": zv, "z": xv})


def test_j5_diagonal_collapses(rng):
    # substituting y -> x into the J5 defect leaves exactly P(P(x,x), z)
    for spec in (Z, F3, F5):
        xv = MultiPoly.variable(spec, XYZ, "x")
        zv = MultiPoly.variable(spec, XYZ, "z")
        for _ in range(40):
            p = random_poly(spec, XY, rng)
            diag = defect(p, EquationForm.J5).substitute({"y": xv})
            pxx = p.substitute({"x": xv, "y": xv})
            assert diag == p.substitute({"x": pxx, "y": zv})


def test_defect_work_is_bounded():
    # the powers of x^a + y have a + 1 terms at most, so it is accepted
    # while 2a(a + 1) stays within the limit, whatever its degree box
    a = 1
    while 2 * (a + 1) * (a + 2) <= jacobi._MAX_DEFECT_WORK:
        a += 1
    p = MultiPoly(Z, XY, {(a, 0): 1, (0, 1): 1})
    assert defect(p, EquationForm.J1).deg() == a * a
    for p in (MultiPoly(Z, XY, {(a + 1, 0): 1, (0, 1): 1}),
              MultiPoly(Z, XY, {(100000, 0): 1, (0, 1): 1})):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            defect(p, EquationForm.J1)
        assert time.perf_counter() - start < 1


def test_defect_work_counts_coefficient_size():
    # long coefficients make every ring operation on the powers of P dearer
    def ones(d):
        return "(1" + "".join(f"+t^{i}" for i in range(1, d + 1)) + ")"

    for text, spec in (("2^1024*x^273 + y", Z),
                       (ones(20) + "*x^100 + y", E3),
                       (ones(50) + "*x^100 + y", E3)):
        p = MultiPoly.parse(text, spec)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            defect(p, EquationForm.J1)
        assert time.perf_counter() - start < 1
    # a dense P of degree 4 with coefficients of degree 2 is accepted
    dense = {(i, j): [1, 2, 1] for i in range(5) for j in range(5)}
    assert defect(MultiPoly(E3, XY, dense), EquationForm.J5)


def test_wrong_arity():
    with pytest.raises(WrongArity):
        defect(MultiPoly.parse("x", Z, XYZ), EquationForm.J1)
    with pytest.raises(WrongArity):
        defect(MultiPoly.parse("a + b", Z, ("a", "b")), EquationForm.J1)
    with pytest.raises(WrongArity):
        swap(MultiPoly.parse("x", Z, ("y", "x")))


def test_form_tags():
    assert EquationForm.from_tag("j1") is EquationForm.J1
    assert EquationForm.from_tag("J5") is EquationForm.J5
    assert [f.value for f in EquationForm] == ["j1", "j2", "j5", "j6"]
    with pytest.raises(ValueError):
        EquationForm.from_tag("j3")


def test_generic_defect_is_the_defect(rng):
    # each coefficient of the generic defect, evaluated in the ring at P's
    # coefficients, is that coefficient of P's defect: the reduction mod
    # the characteristic holds in every ring of it, F_p[t] included.  Both
    # defects run one expansion, so the evaluated one is also compared with
    # the substitution-only naive_defect
    bits = oracle._EXP_BITS
    for spec in (Z, F2, F3, F5, F7, E3):
        for d in range(4):
            monomials = [(i, j) for i in range(d + 1) for j in range(d + 1)]
            for form in EquationForm:
                generic = oracle._generic_defect(monomials, form,
                                                 spec.characteristic)
                for _ in range(2 if d < 3 else 1):
                    c = [random_element(spec, rng) for _ in monomials]
                    p = MultiPoly(spec, XY, dict(zip(monomials, c)))
                    value = {}
                    for e, terms in generic.items():
                        total = spec.zero()
                        for mono, k in terms.items():
                            t = spec.element(k)
                            # c_n has field N - 1 - n of N
                            for n, f in enumerate(reversed(range(
                                    len(monomials)))):
                                for _ in range(mono >> bits * f
                                               & (1 << bits) - 1):
                                    t = t * c[n]
                            total = total + t
                        value[e] = total
                    evaluated = MultiPoly(spec, XYZ, value)
                    assert evaluated == defect(p, form)
                    assert evaluated == naive_defect(p, form)


def test_generic_defect_exponents_fit_their_field():
    # a c_n has exponent up to 1 + the degree cap, and of N monomials each
    # has the field of _EXP_BITS bits from bit (N - 1 - n)*_EXP_BITS up of a
    # packed monomial.  At the cap, P = c_0*x^cap + c_1*y gives
    # c_0^(cap + 1), and every term of its defect is c_1 or of degree
    # cap + 1 in the c_n, so a carry out of c_1's field would show in c_0's,
    # and one out of c_0's past it.  Two terms keep it small
    cap, bits = oracle._MAX_SCAN_DEGREE, oracle._EXP_BITS
    field = (1 << bits) - 1
    generic = oracle._generic_defect([(cap, 0), (0, 1)], EquationForm.J1, 0)
    monos = [m for terms in generic.values() for m in terms]
    assert max(m >> bits for m in monos) == cap + 1 <= field
    assert all(m >> 2 * bits == 0 for m in monos)
    assert {(m & field) + (m >> bits) for m in monos} == {1, cap + 1}
    # read with the field width, it is the defect of 2*x^cap + 3*y
    value = {e: sum(k * 2 ** (m >> bits) * 3 ** (m & field)
                    for m, k in terms.items())
             for e, terms in generic.items()}
    p = MultiPoly(Z, XY, {(cap, 0): 2, (0, 1): 3})
    assert MultiPoly(Z, XYZ, value) == defect(p, EquationForm.J1)
