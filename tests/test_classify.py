"""Family construction, the coefficient system, and the classifier."""

import importlib
import itertools
import random

import pytest

from conftest import random_element, random_poly
from jacobipoly import (
    Char3Affine,
    Char3Product,
    EnumSpace,
    EquationForm,
    LinearBC,
    MultiPoly,
    RingSpec,
    classify,
    constant_solutions,
    defect,
    family_members,
    make_family,
    oracle,
    satisfies,
    system_check,
)
from jacobipoly.classify import _ABCD, FAMILY_TABLE, _families, _solve_last
from jacobipoly.errors import (
    AlgebraError,
    CharMismatch,
    ConditionViolated,
    SpecMismatch,
    WrongArity,
)

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)
E3 = RingSpec.extension(3, "t")
E5 = RingSpec.extension(5, "u")

XY = ("x", "y")

GOLDEN = ("(1+2*t^2)*x*y + (1+t+2*t^2+2*t^3)*x + (1+t+2*t^2+2*t^3)*y"
          " + (t+t^3+2*t^4)")


def test_make_family_linear():
    assert make_family(LinearBC(Z.zero(), Z.zero()), Z).is_zero
    p = make_family(LinearBC(Z.element(-2), Z.element(4)), Z)
    assert p == MultiPoly.parse("-2*x + 4*y", Z)
    assert satisfies(p, EquationForm.J1)


def test_make_family_golden_parameters():
    t = E3.generator()
    fam = Char3Product(
        A=1 - t**2,
        B=(1 + t) * (1 - t**2),
        D=t * (1 + t) * (1 - t - t**2),
    )
    p = make_family(fam, E3)
    assert p == MultiPoly.parse(GOLDEN, E3)
    assert satisfies(p, EquationForm.J1)


def test_make_family_char3_affine():
    p = make_family(Char3Affine(F3.element(1), F3.element(1), F3.element(2)), F3)
    assert p == MultiPoly.parse("x + y + 2", F3)
    assert satisfies(p, EquationForm.J1)
    # equal parameters name different members in the two families, x*y +
    # x + y and x + y, so a record equals only a record of its own family
    product, affine = Char3Product(1, 1, 0), Char3Affine(1, 1, 0)
    assert make_family(product, F3) != make_family(affine, F3)
    assert not product == affine and product != affine
    assert not affine == product and affine != product
    assert product == Char3Product(A=1, B=1, D=0)
    assert not product != Char3Product(A=1, B=1, D=0)
    assert hash(product) == hash(Char3Product(1, 1, 0))
    assert len({product, affine}) == 2
    with pytest.raises(AttributeError):
        affine.B = 2


def test_make_family_coerces_ints():
    assert make_family(LinearBC(-2, 4), Z) == MultiPoly.parse("-2*x + 4*y", Z)
    assert make_family(Char3Product(1, 0, 0), F3) == MultiPoly.parse("x*y", F3)


def test_make_family_condition_violated():
    # the message names the condition and formats the record
    with pytest.raises(ConditionViolated) as exc:
        make_family(LinearBC(Z.element(1), Z.element(1)), Z)
    assert str(exc.value) == ("B^2 + B*C + C = 0 fails for "
                              "LinearBC(B=<1 in int>, C=<1 in int>)")
    with pytest.raises(ConditionViolated) as exc:
        make_family(Char3Product(F3.element(1), F3.element(1), F3.element(1)), F3)
    assert str(exc.value) == ("A*D = B^2 - B fails for Char3Product("
                              "A=<1 in zp:3>, B=<1 in zp:3>, D=<1 in zp:3>)")
    with pytest.raises(ConditionViolated) as exc:
        make_family(Char3Affine(F3.element(2), F3.element(1), F3.zero()), F3)
    assert str(exc.value) == ("B^2 + B*C + C = 0 fails for Char3Affine("
                              "B=<2 in zp:3>, C=<1 in zp:3>, D=<0 in zp:3>)")


def test_make_family_characteristic_checked():
    with pytest.raises(CharMismatch):
        make_family(Char3Product(Z.element(1), Z.zero(), Z.zero()), Z)
    with pytest.raises(CharMismatch):
        make_family(Char3Affine(F5.zero(), F5.zero(), F5.element(1)), F5)
    with pytest.raises(SpecMismatch):
        make_family(LinearBC(F3.element(1), F3.element(1)), F5)


def test_system_check_examples():
    assert system_check(0, 0, 0, 0, spec=Z).all_zero
    assert system_check(0, -2, 4, 0, spec=Z).all_zero
    res = system_check(1, 0, 0, 0, spec=Z)
    assert not res.all_zero
    assert res.failed() == ("3*A^2",)
    assert [r.value for r in res.residuals] == [3, 0, 0, 0]
    assert system_check(1, 0, 0, 0, spec=F3).all_zero
    res = system_check(0, 1, 1, 0, spec=Z)
    assert res.failed() == ("B^2+B*C+C+A*D",)
    assert system_check(0, 1, 1, 0, spec=F3).all_zero
    with pytest.raises(TypeError):
        system_check(0, 0, 0, 0)


def test_coefficient_system_is_the_generic_j1_defect(rng):
    # the J1 defect of the generic P = A*x*y + B*x + C*y + D, composed over
    # Z[A, B, C, D] by the naive substitution oracle; as an identity over
    # the integers it holds in every ring
    names = ("x", "y", "z", "A", "B", "C", "D")
    x, y, z, A, B, C, D = (MultiPoly.variable(Z, names, v) for v in names)
    p = A*x*y + B*x + C*y + D

    def P(u, v):
        return p.substitute({"x": u, "y": v})

    j1 = P(P(x, y), z) + P(P(y, z), x) + P(P(z, x), y)
    grouped = {}
    for mono, coeff in j1.terms():
        grouped.setdefault(mono.exponents[:3], {})[mono.exponents[3:]] = coeff
    abcd = ("A", "B", "C", "D")
    system = {xyz: MultiPoly(Z, abcd, t) for xyz, t in grouped.items()}
    square, const, mixed, single = (
        MultiPoly.parse(text, Z, abcd)
        for text in ("3*A^2", "3*B*D + 3*D", "2*A*B + A*C",
                     "A*D + B^2 + B*C + C"))
    assert system == {
        (1, 1, 1): square,
        (1, 1, 0): mixed, (1, 0, 1): mixed, (0, 1, 1): mixed,
        (1, 0, 0): single, (0, 1, 0): single, (0, 0, 1): single,
        (0, 0, 0): const,
    }
    # the scan's input is this system: the generic defect of the monomials
    # of A, B, C and D, in that order, unpacked with its field width, c_n
    # in field 3 - n
    bits = oracle._EXP_BITS
    generic = oracle._generic_defect([(1, 1), (1, 0), (0, 1), (0, 0)],
                                     EquationForm.J1, 0)
    assert {xyz: MultiPoly(Z, abcd, {
        tuple(m >> bits * (3 - n) & (1 << bits) - 1 for n in range(4)): k
        for m, k in terms.items()})
        for xyz, terms in generic.items()} == system

    # system_check's residuals are these coefficients, in its order
    for spec in (Z, F2, F3, F5, F7, E3, E5):
        residuals = [
            MultiPoly(spec, abcd, {m.exponents: spec.element(c.value)
                                   for m, c in q.terms()})
            for q in (square, const, mixed, single)]
        for _ in range(60):
            point = [random_element(spec, rng) for _ in abcd]
            values = dict(zip(abcd, point))
            assert system_check(*point, spec=spec).residuals == tuple(
                r.evaluate(values) for r in residuals)


def test_classify_linear_over_integers():
    res = classify(MultiPoly.parse("-2*x + 4*y", Z))
    assert res.is_solution
    assert isinstance(res.family, LinearBC)
    assert res.family.B == -2 and res.family.C == 4
    assert res.witness is None


def test_classify_zero_depends_on_characteristic():
    res = classify(MultiPoly.zero(Z, XY))
    assert isinstance(res.family, LinearBC)
    assert res.family.B.is_zero and res.family.C.is_zero
    # in characteristic 3 the A = 0 overlap reports the affine family
    res = classify(MultiPoly.zero(F3, XY))
    assert isinstance(res.family, Char3Affine)
    assert res.family.B.is_zero and res.family.C.is_zero and res.family.D.is_zero


def test_classify_char3_product():
    res = classify(MultiPoly.parse("x*y", F3))
    assert isinstance(res.family, Char3Product)
    assert res.family.A == 1 and res.family.B.is_zero and res.family.D.is_zero
    res = classify(MultiPoly.parse("2*x*y + 2*x + 2*y + 1", F3))
    assert isinstance(res.family, Char3Product)
    assert res.family.A == 2 and res.family.B == 2 and res.family.D == 1


def test_classify_char3_affine_tie_break():
    res = classify(MultiPoly.parse("x + y", F3))
    assert isinstance(res.family, Char3Affine)
    assert res.family.B == 1 and res.family.C == 1 and res.family.D.is_zero


def test_classify_golden():
    res = classify(MultiPoly.parse(GOLDEN, E3))
    assert isinstance(res.family, Char3Product)
    t = E3.generator()
    assert res.family.A == 1 - t**2
    assert res.family.B == (1 + t) * (1 - t**2)
    assert res.family.D == t * (1 + t) * (1 - t - t**2)


def test_classify_non_solutions_carry_witnesses():
    res = classify(MultiPoly.parse("x^2", Z))
    assert not res.is_solution
    mono, coeff = res.witness
    assert mono.exponents == (0, 0, 4) and coeff == 1

    res = classify(MultiPoly.parse("x + y", F2))
    mono, coeff = res.witness
    assert mono.exponents == (0, 0, 1) and coeff == 1

    res = classify(MultiPoly.parse("x", Z))
    mono, coeff = res.witness
    assert mono.exponents == (0, 0, 1) and coeff == 1


def test_witnesses_are_genuine_defect_terms(rng):
    for spec in (Z, F2, F3, F5, E3):
        for _ in range(60):
            p = random_poly(spec, XY, rng)
            res = classify(p)
            if res.is_solution:
                assert satisfies(p, EquationForm.J1)
            else:
                mono, coeff = res.witness
                d = defect(p, EquationForm.J1)
                assert not coeff.is_zero
                assert d.coeff(mono) == coeff


def test_family_members_satisfy_j1_random(rng):
    # linear family: all roots of B^2 + B*C + C over the small fields
    for spec, roots in ((F2, [(0, 0)]),
                        (F5, [(0, 0), (1, 2), (2, 2), (3, 4)]),
                        (Z, [(0, 0), (-2, 4)])):
        for b, c in roots:
            p = make_family(LinearBC(spec.element(b), spec.element(c)), spec)
            assert satisfies(p, EquationForm.J1)

    # char-3 product family over F_3[t]: unit A with solved D, and
    # non-unit A = t with B arranged so t divides B^2 - B
    t = E3.generator()
    for _ in range(60):
        B = E3.element([rng.randrange(3) for _ in range(4)])
        A = E3.element(rng.choice((1, 2)))
        D = (B * B - B) * A  # A in {1, 2} is its own inverse
        p = make_family(Char3Product(A, B, D), E3)
        assert satisfies(p, EquationForm.J1)
    for _ in range(60):
        r = E3.element([rng.randrange(3) for _ in range(3)])
        B = t * r
        D = r * (B - 1)
        p = make_family(Char3Product(t, B, D), E3)
        assert satisfies(p, EquationForm.J1)

    # char-3 affine family: B with 1 + B invertible, C solved, D free
    for _ in range(60):
        b = rng.choice((0, 1))
        c = {0: 0, 1: 1}[b]
        D = E3.element([rng.randrange(3) for _ in range(4)])
        p = make_family(Char3Affine(E3.element(b), E3.element(c), D), E3)
        assert satisfies(p, EquationForm.J1)


def test_classify_round_trips_through_make_family(rng):
    def check(spec, abcd):
        p = MultiPoly(spec, XY, dict(zip(((1, 1), (1, 0), (0, 1), (0, 0)),
                                         abcd)))
        res = classify(p)
        assert res.is_solution == satisfies(p, EquationForm.J1) \
            == system_check(*abcd, spec=spec).all_zero
        if res.is_solution:
            assert make_family(res.family, spec) == p
        return res.is_solution

    for spec in (F2, F3, F5, F7):
        for abcd in itertools.product(range(spec.p), repeat=4):
            check(spec, abcd)
    # seeded random shapes over F_p[t], nearly all of them non-solutions,
    # and members built from valid family parameters
    for spec in (E3, E5):
        for _ in range(150):
            check(spec, [random_element(spec, rng) for _ in range(4)])
    for _ in range(40):
        B = random_element(E3, rng)
        D = random_element(E3, rng)
        assert check(E3, (B, B, B, B - 1))  # A*D = B^2 - B
        assert check(E3, (B - 1, B, B, B))
        assert check(E3, (0, 1, 1, D))  # B^2 + B*C + C = 0
        assert check(E3, (0, 0, 0, D))
    for b, c in ((0, 0), (1, 2), (2, 2), (3, 4)):
        assert check(E5, (0, b, c, 0))


def test_classify_rejects_wrong_shape():
    with pytest.raises(WrongArity):
        classify(MultiPoly.parse("x", Z, ("x", "y", "z")))


def test_constant_solutions_rule():
    # every constant solves J1 in characteristic 3, only zero elsewhere; the
    # `families` command's sentence for it is pinned in test_cli
    assert constant_solutions(Z) is False
    assert constant_solutions(F3) is True
    assert constant_solutions(E3) is True
    assert constant_solutions(F5) is False


def test_family_members_round_trip_beyond_small_fields():
    # rings the exhaustive round trip above does not reach: a larger prime
    # field and the integer box 6, both at degree 1
    for space in (EnumSpace(RingSpec.prime_field(7), 1), EnumSpace(Z, 1, 6)):
        members = family_members(space)
        assert members
        for p in members:
            res = classify(p)
            assert res.is_solution
            assert make_family(res.family, space.spec) == p


def test_family_members_counts():
    assert len(family_members(EnumSpace(F2, 1))) == 1
    assert len(family_members(EnumSpace(F3, 1))) == 12
    assert len(family_members(EnumSpace(F5, 1))) == 4
    assert len(family_members(EnumSpace(Z, 1, 4))) == 2
    # a degree-0 space keeps only the constant members
    assert {str(p) for p in family_members(EnumSpace(F3, 0))} == {"0", "1", "2"}
    assert {str(p) for p in family_members(EnumSpace(F5, 0))} == {"0"}


def _members_by_walk(space):
    """The reference: every parameter tuple of the space goes through
    make_family, which keeps the ones that satisfy the system."""
    spec, k = space.spec, space.max_deg_per_var
    out = set()
    for family in _families(spec.characteristic):
        ranges = [space.coefficient_values if max(_ABCD[name]) <= k else (0,)
                  for name in family.__match_args__]
        for params in itertools.product(*ranges):
            try:
                out.add(make_family(family(*params), spec))
            except ConditionViolated:
                pass
    return frozenset(out)


def test_family_members_equal_the_full_walk():
    # the int boxes hold B = -1, where the condition B^2 + B*C + C = 0 has
    # no C; zp:p holds B = p - 1 likewise.  zp:3 holds the product family's
    # A = 0, B^2 = B heads and the affine family's free D, and every d0
    # space pins the solved parameter to 0
    spaces = [EnumSpace(Z, d, b) for b in (1, 2, 3) for d in (0, 1, 2)]
    spaces += [EnumSpace(RingSpec.prime_field(p), d)
               for p in (2, 3, 5, 7) for d in (0, 1, 2)]
    spaces.append(EnumSpace(RingSpec.prime_field(13), 1))
    for space in spaces:
        assert family_members(space) == _members_by_walk(space), space


def test_residuals_are_affine_in_the_last_parameter():
    # family_members solves each family's last parameter from two points
    # of the system, which is exact only while every residual is affine in it
    rng = random.Random(14)
    for family in (f for row in FAMILY_TABLE.values() for f in row):
        for _ in range(25):
            head = [rng.randint(-50, 50)
                    for _ in family.__match_args__[:-1]]
            r0, r1 = (system_check(*family.image(*head, t), Z).residuals
                      for t in (0, 1))
            for t in (-7, -1, 2, 3, 11, rng.randint(-10**6, 10**6)):
                rt = system_check(*family.image(*head, t), Z).residuals
                assert [r.value for r in rt] == \
                    [(a + t * (b - a)).value for a, b in zip(r0, r1)]


def test_solved_parameter_satisfies_every_residual():
    # no listed family has two residuals that both pin its last parameter,
    # so a stand-in with D = C gives 3*D*(B+1) = 0 next to B^2 + B*C + C = 0
    class Pinned:
        image = staticmethod(lambda B, C: (0, B, C, C))

    assert _solve_last(Pinned, (0,), range(-5, 6), Z) == (0,)
    assert _solve_last(Pinned, (-2,), range(-5, 6), Z) == ()
    assert _solve_last(Pinned, (1,), range(5), F5) == ()


def test_family_members_builds_only_the_solved_members(monkeypatch):
    # 13 values of B solve for C at most once each, where the full walk
    # builds all 169 (B, C) pairs
    calls = []

    def counted(params, spec):
        calls.append(params)
        return make_family(params, spec)

    monkeypatch.setattr(importlib.import_module("jacobipoly.classify"),
                        "make_family", counted)
    members = family_members(EnumSpace(Z, 1, 6))
    assert {str(p) for p in members} == {"0", "-2*x + 4*y"}
    assert len(calls) <= 13


def test_classify_rejects_a_family_that_does_not_rebuild(monkeypatch):
    module = importlib.import_module("jacobipoly.classify")
    monkeypatch.setattr(module, "make_family",
                        lambda params, spec: MultiPoly.zero(spec, XY))
    with pytest.raises(AlgebraError, match="does not rebuild"):
        classify(MultiPoly.parse("-2*x + 4*y", Z))


def test_classify_rejects_a_solution_no_family_contains(monkeypatch):
    module = importlib.import_module("jacobipoly.classify")
    monkeypatch.setattr(module, "_families", lambda characteristic: ())
    with pytest.raises(AlgebraError, match="no listed family contains"):
        classify(MultiPoly.parse("-2*x + 4*y", Z))
