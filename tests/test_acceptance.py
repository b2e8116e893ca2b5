"""Acceptance suite: one test and one printed pass/fail line per criterion.

 1. extension-ring worked example: zero j1 defect, product-family params
 2. enumeration agrees with the families on four spaces (< 60 s total)
 3. every j1 solution found has degree <= 1 per variable
 4. j5/j6 scans over F_2 and F_3 at max deg 2 find only 0 (< 60 s)
 5. j2 solutions = swap(j1 solutions), j6 solutions = swap(j5 solutions)
 6. digitwise binomial residues match a Pascal-triangle oracle (< 5 s)
 7. divisibility <=> digit-sum-1 <=> formal (x+y)^n = x^n + y^n
 8. split-point residues and the pairwise-product implication
 9. coefficient system <=> j1 satisfaction, exhaustively
10. constant solutions are exactly those with 3c = 0
"""

import itertools
import time

from jacobipoly import (
    Char3Product,
    EquationForm,
    MultiPoly,
    RingSpec,
    binom_mod_p,
    classify,
    constant_solutions,
    cor2a_check,
    cor2b_check,
    digit_sum,
    in_s_m,
    is_s1_by_divisibility,
    satisfies,
    swap,
    system_check,
)

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)
E3 = RingSpec.extension(3, "t")

XY = ("x", "y")

GOLDEN = ("(1+2*t^2)*x*y + (1+t+2*t^2+2*t^3)*x + (1+t+2*t^2+2*t^3)*y"
          " + (t+t^3+2*t^4)")

# the four exhaustive J1 spaces: (ring text, max deg per var, coeff bound)
J1_SPACES = (("zp:2", 2, None), ("zp:3", 2, None), ("zp:5", 1, None),
             ("int", 1, 4))


def _report(n: int, ok: bool, desc: str) -> None:
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    p = MultiPoly.parse(GOLDEN, E3)
    ok = satisfies(p, EquationForm.J1)
    t = E3.generator()
    A = 1 - t**2
    B = (1 + t) * (1 - t**2)
    D = t * (1 + t) * (1 - t - t**2)
    ok = ok and A * D == B * B - B
    res = classify(p)
    ok = ok and isinstance(res.family, Char3Product)
    ok = ok and (res.family.A, res.family.B, res.family.D) == (A, B, D)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, "worked example over zp:3[t] satisfies j1 exactly, "
                   f"product family with A*D = B^2 - B ({elapsed:.3f}s < 1s)")


def test_criterion_02_enumeration_matches_families(reports):
    ok = True
    total = 0.0
    for ring, max_deg, bound in J1_SPACES:
        rep, dt = reports.get(ring, "j1", max_deg, bound)
        total += dt
        ok = ok and rep.agreement
    rep, _ = reports.get("int", "j1", 1, 4)
    ok = ok and {str(s) for s in rep.solutions} == {"0", "-2*x + 4*y"}
    ok = ok and total < 60.0
    _report(2, ok, "exhaustive j1 scans equal the predicted families on "
                   "zp:2 d2, zp:3 d2, zp:5 d1, int box 4 d1; integer "
                   f"solutions exactly {{0, -2*x + 4*y}} ({total:.1f}s < 60s)")


def test_criterion_03_degree_bound(reports):
    ok = True
    for ring, max_deg, bound in J1_SPACES:
        rep, _ = reports.get(ring, "j1", max_deg, bound)
        ok = ok and max(rep.max_solution_degrees) <= 1
    _report(3, ok, "every enumerated j1 solution has degree <= 1 in each "
                   "variable")


def test_criterion_04_one_sided_forms_force_zero(reports):
    ok = True
    total = 0.0
    for ring in ("zp:2", "zp:3"):
        for form in ("j5", "j6"):
            rep, dt = reports.get(ring, form, 2)
            total += dt
            ok = ok and [str(s) for s in rep.solutions] == ["0"]
            ok = ok and rep.agreement
    ok = ok and total < 60.0
    _report(4, ok, "j5 and j6 scans over zp:2 and zp:3 at max deg 2 find "
                   f"only the zero polynomial ({total:.1f}s < 60s)")


def test_criterion_05_swap_dualities(reports):
    ok = True
    for ring, max_deg, bound in J1_SPACES:
        r1, _ = reports.get(ring, "j1", max_deg, bound)
        r2, _ = reports.get(ring, "j2", max_deg, bound)
        ok = ok and {swap(s) for s in r1.solutions} == set(r2.solutions)
        ok = ok and r2.agreement
    for ring in ("zp:2", "zp:3"):
        r5, _ = reports.get(ring, "j5", 2)
        r6, _ = reports.get(ring, "j6", 2)
        ok = ok and {swap(s) for s in r5.solutions} == set(r6.solutions)
    _report(5, ok, "j2 solutions are the swap image of j1 solutions on all "
                   "four spaces, and j6 of j5 on both one-sided spaces")


def test_criterion_06_digitwise_binomials():
    t0 = time.perf_counter()
    rows = [[1]]
    for n in range(1, 201):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    comparisons = 0
    mismatches = 0
    for p in (2, 3, 5, 7):
        for n in range(201):
            row = rows[n]
            for m in range(201):
                exact = row[m] % p if m <= n else 0
                if binom_mod_p(n, m, p) != exact:
                    mismatches += 1
                comparisons += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and comparisons > 160_000 and elapsed < 5.0
    _report(6, ok, f"{comparisons} digitwise binomial residues match the "
                   f"Pascal oracle with {mismatches} mismatches "
                   f"({elapsed:.1f}s < 5s)")


def test_criterion_07_power_identity_equivalence():
    ok = True
    for p in (2, 3, 5):
        spec = RingSpec.prime_field(p)
        x_plus_y = MultiPoly.parse("x + y", spec)
        power = x_plus_y
        for n in range(2, 257):
            power = power * x_plus_y
            split = MultiPoly(spec, XY, {(n, 0): 1, (0, n): 1})
            a = is_s1_by_divisibility(n, p)
            b = in_s_m(n, p, 1)
            c = power == split
            ok = ok and a == b == c
    _report(7, ok, "interior-binomial divisibility, digit sum 1, and the "
                   "formal identity (x+y)^n = x^n + y^n agree for "
                   "1 < n <= 256, p in {2, 3, 5}")


def test_criterion_08_split_point_residues():
    ok = True
    checked = 0
    for p in (2, 3, 5):
        members = [n for n in range(2, 257) if digit_sum(n, p) == 2]
        ok = ok and members
        for n in members:
            rep = cor2a_check(n, p)
            expected = (1 + (rep.n1 == rep.n2)) % p
            ok = ok and rep.interior_divisible
            ok = ok and rep.edge_residue == expected
            ok = ok and rep.n1 + rep.n2 == n
            if p == 2:
                ok = ok and rep.n1 != rep.n2
            checked += 1
    for p in (2, 3, 5, 7):
        for n in range(2, 201):
            ok = ok and cor2b_check(n, p)
    _report(8, ok, f"split-point residues equal (1 + repeat) mod p with all "
                   f"interior binomials zero on {checked} members, and the "
                   "pairwise-product implication holds for 1 < n <= 200, "
                   "p in {2, 3, 5, 7}")


def test_criterion_09_system_equals_satisfaction():
    ok = True
    checked = 0
    cases = [(spec, range(spec.p)) for spec in (F2, F3, F5)]
    cases.append((Z, range(-4, 5)))
    for spec, values in cases:
        for a, b, c, d in itertools.product(values, repeat=4):
            p = MultiPoly(spec, XY,
                          {(1, 1): a, (1, 0): b, (0, 1): c, (0, 0): d})
            direct = satisfies(p, EquationForm.J1)
            via_system = system_check(a, b, c, d, spec=spec).all_zero
            ok = ok and direct == via_system
            checked += 1
    ok = ok and checked == 16 + 81 + 625 + 6561
    _report(9, ok, f"coefficient system matches j1 satisfaction on all "
                   f"{checked} degree-<=1 shapes over zp:2, zp:3, zp:5, and "
                   "the integer box [-4, 4]")


def test_criterion_10_constant_rule():
    ok = True
    cases = [(spec, [spec.element(c) for c in range(spec.p)])
             for spec in (F2, F3, F5)]
    cases.append((Z, [Z.element(c) for c in range(-4, 5)]))
    t = E3.generator()
    cases.append((E3, [E3.zero(), E3.one(), t, 1 + 2 * t**3]))
    for spec, values in cases:
        rule = constant_solutions(spec)
        for c in values:
            sat = satisfies(MultiPoly.constant(spec, XY, c), EquationForm.J1)
            ok = ok and sat == (c * 3).is_zero
            ok = ok and sat == system_check(0, 0, 0, c, spec=spec).all_zero
            ok = ok and sat == (rule or c.is_zero)
    _report(10, ok, "a constant satisfies j1 exactly when 3c = 0: every "
                    "constant in characteristic 3, only zero otherwise")
