"""Exhaustive enumeration spaces, reports, and the family cross-checks."""

import json
import random
import time
import tracemalloc

import pytest

from jacobipoly import (
    EnumSpace,
    EquationForm,
    MultiPoly,
    RingSpec,
    defect,
    enumerate_solutions,
    family_members,
    is_prime,
    predicted_solutions,
    swap,
)
from jacobipoly.errors import BudgetExceeded, UnsupportedSpec
from jacobipoly.oracle import _PointFilter, _field_tables, _filter_field

Z = RingSpec.integers()
F2 = RingSpec.prime_field(2)
F3 = RingSpec.prime_field(3)
F5 = RingSpec.prime_field(5)


def test_space_validation():
    with pytest.raises(UnsupportedSpec):
        EnumSpace(RingSpec.extension(3, "t"), 1)
    with pytest.raises(ValueError):
        EnumSpace(Z, 1)  # integers need a coefficient bound
    with pytest.raises(ValueError):
        EnumSpace(Z, 1, 0)
    with pytest.raises(ValueError):
        EnumSpace(F3, 1, 2)  # bound only applies to integers
    with pytest.raises(ValueError):
        EnumSpace(F3, -1)
    with pytest.raises(BudgetExceeded):
        EnumSpace(F3, 2, budget=10_000)
    with pytest.raises(BudgetExceeded):
        EnumSpace(Z, 2, 4)  # 9^9 > 10^8 default budget


def test_over_budget_spaces_are_refused_at_once():
    # the count is never formed in full and the coefficient values are never
    # built, so a space of any size is refused in bounded time and memory.
    # zp:3 at degree 3000 comes first: code that forms the count fails on it
    # within seconds, before the two larger spaces could take gigabytes.
    for args in ((F3, 3000), (F3, 10**6), (Z, 1, 10**12)):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(BudgetExceeded, match="budget"):
                EnumSpace(*args)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2**20


def test_candidate_counts():
    assert EnumSpace(F2, 2).candidate_count == 512
    assert EnumSpace(F3, 2).candidate_count == 19683
    assert EnumSpace(F5, 1).candidate_count == 625
    assert EnumSpace(Z, 1, 4).candidate_count == 6561
    assert EnumSpace(F2, 0).candidate_count == 2


def test_candidate_order_is_documented_odometer():
    space = EnumSpace(F2, 0)
    assert [str(p) for p in space.candidates()] == ["0", "1"]
    space = EnumSpace(F2, 1)
    first = [str(p) for p in list(space.candidates())[:4]]
    # monomials descending (x*y, x, y, 1); the constant slot moves fastest
    assert first == ["0", "1", "y", "y + 1"]
    assert space.monomials == ((1, 1), (1, 0), (0, 1), (0, 0))


def test_enumerate_f2_maxdeg1():
    rep = enumerate_solutions(EnumSpace(F2, 1), EquationForm.J1)
    assert [str(s) for s in rep.solutions] == ["0"]
    assert rep.agreement
    assert rep.max_solution_degrees == (-1, -1)


def test_enumerate_f5_maxdeg1():
    rep = enumerate_solutions(EnumSpace(F5, 1), EquationForm.J1)
    assert {str(s) for s in rep.solutions} == \
        {"0", "x + 2*y", "2*x + 2*y", "3*x + 4*y"}
    assert rep.agreement
    assert rep.max_solution_degrees == (1, 1)


def test_enumerate_f3_maxdeg1():
    rep = enumerate_solutions(EnumSpace(F3, 1), EquationForm.J1)
    assert len(rep.solutions) == 12
    assert rep.agreement
    constants = {MultiPoly.constant(F3, ("x", "y"), c) for c in range(3)}
    assert constants <= set(rep.solutions)


def test_enumerate_integer_box():
    rep = enumerate_solutions(EnumSpace(Z, 1, 4), EquationForm.J1)
    assert {str(s) for s in rep.solutions} == {"0", "-2*x + 4*y"}
    assert rep.agreement


def test_enumerate_j5_j6_small():
    for form in (EquationForm.J5, EquationForm.J6):
        rep = enumerate_solutions(EnumSpace(F3, 1), form)
        assert [str(s) for s in rep.solutions] == ["0"]
        assert rep.agreement


def test_enumerate_j2_is_swap_image():
    rep1 = enumerate_solutions(EnumSpace(F5, 1), EquationForm.J1)
    rep2 = enumerate_solutions(EnumSpace(F5, 1), EquationForm.J2)
    assert rep2.agreement
    assert {swap(s) for s in rep1.solutions} == set(rep2.solutions)
    assert {str(s) for s in rep2.solutions} == \
        {"0", "2*x + y", "2*x + 2*y", "4*x + 3*y"}


def test_family_members_counts():
    assert len(family_members(EnumSpace(F2, 1))) == 1
    assert len(family_members(EnumSpace(F3, 1))) == 12
    assert len(family_members(EnumSpace(F5, 1))) == 4
    assert len(family_members(EnumSpace(Z, 1, 4))) == 2
    # a degree-0 space keeps only the constant members
    assert {str(p) for p in family_members(EnumSpace(F3, 0))} == {"0", "1", "2"}
    assert {str(p) for p in family_members(EnumSpace(F5, 0))} == {"0"}


def test_predicted_solutions_by_form():
    space = EnumSpace(F3, 1)
    assert predicted_solutions(space, EquationForm.J1) == family_members(space)
    assert predicted_solutions(space, EquationForm.J2) == \
        frozenset(swap(p) for p in family_members(space))
    zero_only = frozenset({MultiPoly.zero(F3, ("x", "y"))})
    assert predicted_solutions(space, EquationForm.J5) == zero_only
    assert predicted_solutions(space, EquationForm.J6) == zero_only


def test_j1_scan_agrees_with_families_small():
    for space in (EnumSpace(F2, 1), EnumSpace(F3, 1), EnumSpace(F5, 1),
                  EnumSpace(Z, 1, 2)):
        assert enumerate_solutions(space, EquationForm.J1).agreement


def test_j1_report_degree_bound():
    rep = enumerate_solutions(EnumSpace(F3, 1), EquationForm.J1)
    assert max(rep.max_solution_degrees) <= 1


def test_reports_are_deterministic():
    a = enumerate_solutions(EnumSpace(F3, 1), EquationForm.J1)
    b = enumerate_solutions(EnumSpace(F3, 1), EquationForm.J1)
    assert a == b
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert [str(s) for s in a.solutions] == [str(s) for s in b.solutions]


def test_report_dict_shape():
    rep = enumerate_solutions(EnumSpace(Z, 1, 2), EquationForm.J1)
    d = rep.to_dict()
    assert d["ring"] == "int" and d["coeff_bound"] == 2
    assert d["candidates"] == 625
    assert d["form"] == "j1"
    assert d["agreement"] is True
    assert "0" in d["solutions"]
    json.dumps(d)  # JSON-serializable throughout


def test_point_filter_never_changes_a_result():
    # the filter only rejects: every form's solutions equal those of a loop
    # that runs the formal defect on every candidate
    for space in (EnumSpace(F2, 2), EnumSpace(F3, 1), EnumSpace(F5, 1),
                  EnumSpace(RingSpec.prime_field(7), 1), EnumSpace(Z, 1, 2)):
        for form in EquationForm:
            rep = enumerate_solutions(space, form)
            assert rep.solutions == tuple(
                p for p in space.candidates() if defect(p, form).is_zero)
            assert len(rep.solutions) <= rep.checked < space.candidate_count


def test_filter_fields_are_fields():
    # every prime of the cap that some ring maps to, and the integers' prime
    primes = [p for p in range(2, 129) if is_prime(p)]
    assert _filter_field(Z) == (127, 1)
    assert _filter_field(RingSpec.prime_field(131)) is None
    sizes = {}
    rnd = random.Random(9)
    for p in primes:
        p_, k = _filter_field(RingSpec.prime_field(p))
        assert p_ == p
        add, mul = _field_tables(p, k)
        q = sizes[p] = p ** k
        assert len(add) == len(mul) == q
        assert all(len(row) == q for row in add + mul)
        els = range(q)
        assert [add[0][a] for a in els] == list(els)
        assert [mul[1][a] for a in els] == list(els)
        assert all(mul[0][a] == 0 for a in els)
        assert all(1 in mul[a] for a in range(1, q))  # every inverse exists
        assert all(add[a][b] == (a + b) % p and mul[a][b] == a * b % p
                   for a in range(p) for b in range(p))  # F_p is 0..p-1
        for _ in range(300):
            a, b, c = (rnd.randrange(q) for _ in range(3))
            assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    assert [sizes[p] for p in (2, 3, 5, 7, 11, 13)] == \
        [16, 27, 25, 49, 121, 13]


def test_large_characteristic_is_scanned_without_tables():
    # F_10007 is past the table cap: no table of p^2 = 10^8 entries is
    # built, and every candidate goes to the formal defect
    space = EnumSpace(RingSpec.prime_field(10007), 0)
    t0 = time.perf_counter()
    rep = enumerate_solutions(space, EquationForm.J1)
    assert time.perf_counter() - t0 < 1.0
    assert [str(s) for s in rep.solutions] == ["0"] and rep.agreement
    assert rep.checked == space.candidate_count == 10007
    tracemalloc.start()
    try:
        enumerate_solutions(space, EquationForm.J1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_walk_equals_the_per_candidate_filter():
    # the odometer walk lets through exactly the candidates that the
    # per-candidate check passes, in odometer order; int box 130 has
    # coefficients +-127 that alias 0 mod 127
    F7 = RingSpec.prime_field(7)
    spaces = (EnumSpace(F2, 2), EnumSpace(F2, 3), EnumSpace(F3, 0),
              EnumSpace(F3, 1), EnumSpace(F3, 2), EnumSpace(F5, 1),
              EnumSpace(F7, 1), EnumSpace(Z, 1, 2), EnumSpace(Z, 0, 130))
    for space in spaces:
        for form in EquationForm:
            f = _PointFilter(space, form, *_filter_field(space.spec))
            assert list(f.walk()) == \
                [c for c in space._odometer() if not f.rejects(c)]


def test_perfbench_scans_check_only_their_solutions():
    for space, form, checked in (
            (EnumSpace(F3, 2), EquationForm.J1, 12),
            (EnumSpace(F3, 2), EquationForm.J5, 1),
            (EnumSpace(Z, 1, 6), EquationForm.J1, 2),
            (EnumSpace(Z, 1, 6), EquationForm.J2, 2),
            (EnumSpace(F5, 1), EquationForm.J1, 4),
            (EnumSpace(RingSpec.prime_field(7), 1), EquationForm.J1, 6)):
        rep = enumerate_solutions(space, form)
        assert rep.agreement
        assert rep.checked == len(rep.solutions) == checked


def test_scan_memory_is_flat():
    # 65 536 candidates: neither the odometer nor a list of candidates per
    # prefix is held in memory
    space = EnumSpace(F2, 3)
    tracemalloc.start()
    try:
        rep = enumerate_solutions(space, EquationForm.J1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.agreement and space.candidate_count == 65536
    assert peak < 2**20
