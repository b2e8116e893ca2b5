"""Exhaustive enumeration spaces, reports, and the family cross-checks."""

import importlib
import pickle
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
    predicted_solutions,
    oracle,
    swap,
)
from jacobipoly.errors import BudgetExceeded, UnsupportedSpec

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
    # the same refusals by keyword
    with pytest.raises(UnsupportedSpec):
        EnumSpace(spec=RingSpec.extension(3, "t"), max_deg_per_var=1)
    with pytest.raises(ValueError):
        EnumSpace(spec=Z, max_deg_per_var=1)
    with pytest.raises(ValueError):
        EnumSpace(spec=Z, max_deg_per_var=1, coeff_bound=0)
    with pytest.raises(ValueError):
        EnumSpace(F3, max_deg_per_var=1, coeff_bound=2)
    with pytest.raises(ValueError):
        EnumSpace(spec=F3, max_deg_per_var=-1)
    with pytest.raises(TypeError):
        EnumSpace(spec=F3, max_deg_per_var=True)
    with pytest.raises(BudgetExceeded):
        EnumSpace(spec=F3, max_deg_per_var=5)
    # coeff_bound defaults to None, and a built space is read-only
    space = EnumSpace(F3, 1)
    assert space.coeff_bound is None
    assert space == EnumSpace(spec=F3, max_deg_per_var=1, coeff_bound=None)
    assert repr(space) == ("EnumSpace(spec=RingSpec('zp:3'), "
                           "max_deg_per_var=1, coeff_bound=None)")
    for field in ("spec", "max_deg_per_var", "coeff_bound"):
        with pytest.raises(AttributeError):
            setattr(space, field, getattr(space, field))
    # a size that is not an int, or is a bool, is refused when it is built
    for args in ((F3, 2.5), (F3, True), (F3, None), (F3, "2"), (Z, 1, 2.0),
                 (Z, 1, True), (Z, False, 2), ("zp:3", 2), (None, 1)):
        with pytest.raises(TypeError):
            EnumSpace(*args)
    # 9^9 candidates, which the search never visits one by one
    space = EnumSpace(Z, 2, 4)
    rep = enumerate_solutions(space, EquationForm.J1)
    assert rep.agreement
    assert set(rep.solutions) == predicted_solutions(space, EquationForm.J1)


def test_a_replaced_space_is_checked_again():
    space = EnumSpace(F3, 1)
    assert space._replace(max_deg_per_var=2) == EnumSpace(F3, 2)
    with pytest.raises(BudgetExceeded):
        space._replace(max_deg_per_var=5)
    with pytest.raises(ValueError):
        space._replace(coeff_bound=2)


def test_over_budget_spaces_are_refused_at_once():
    # neither the candidate count nor the coefficient values are formed, so
    # a space of any size is refused in bounded time and memory.  zp:3 at
    # degree 3000 comes first: code that forms the count fails on it within
    # seconds, before the larger spaces could take gigabytes.  A degree cap
    # above 4 is refused before its generic defect is expanded, and a space
    # with more coefficient values than the search's work bound before the
    # search tries them.  The messages name the limits, not the inputs,
    # which may be past the int-to-text limit.
    for args in ((F3, 3000), (F3, 10**6), (F3, 10**5000), (Z, 1, 10**12),
                 (Z, 0, 10**5000), (F2, 5),
                 (RingSpec.prime_field(99999989), 0)):
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
    assert repr(rep) == (
        "EnumReport(solutions=(<0 over zp:2 in x/y>,), agreement=True, "
        "max_solution_degrees=(-1, -1), checked=1, nodes=5)")


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


def _odometer_key(space, p):
    """P's coefficient tuple in `space.monomials` order: sorting by it is
    the odometer order, since every value range ascends."""
    return tuple(p._terms.get(m, 0) for m in space.monomials)


def test_enumerate_j2_is_swap_image():
    rep1 = enumerate_solutions(EnumSpace(F5, 1), EquationForm.J1)
    rep2 = enumerate_solutions(EnumSpace(F5, 1), EquationForm.J2)
    assert rep2.agreement
    assert {swap(s) for s in rep1.solutions} == set(rep2.solutions)
    assert {str(s) for s in rep2.solutions} == \
        {"0", "2*x + y", "2*x + 2*y", "4*x + 3*y"}
    # J2 and J5 are scanned as the swap images of J1 and J6, each leaf read
    # back into P's positions and the leaves sorted.  zp:5 d3 and zp:3 d4
    # are too large to compare with brute force; over zp:7 and the int box
    # the swapped J1 solutions leave odometer order, so only the sort keeps it
    for space in (EnumSpace(F5, 3), EnumSpace(F3, 4),
                  EnumSpace(RingSpec.prime_field(7), 2), EnumSpace(Z, 1, 6)):
        for form, image in ((EquationForm.J2, EquationForm.J1),
                            (EquationForm.J5, EquationForm.J6)):
            rep = enumerate_solutions(space, form)
            dual = enumerate_solutions(space, image)
            assert rep.agreement and dual.agreement
            assert set(rep.solutions) == {swap(s) for s in dual.solutions}
            keys = [_odometer_key(space, p) for p in rep.solutions]
            assert keys == sorted(keys)
            assert rep.checked == dual.checked


def test_dual_forms_agree_with_their_own_search():
    # enumerate_solutions searches J2 and J5 as the swap images of J1 and
    # J6; a search of J2 and J5 themselves, which never swaps, finds the same
    # leaves in odometer order, and each one is a solution
    for space in (EnumSpace(F2, 2), EnumSpace(F3, 2), EnumSpace(F5, 1),
                  EnumSpace(Z, 1, 4), EnumSpace(F5, 3), EnumSpace(F3, 4)):
        for form in (EquationForm.J2, EquationForm.J5):
            leaves, _ = oracle._search(space, form)
            rep = enumerate_solutions(space, form)
            assert tuple(map(space._poly, leaves)) == rep.solutions
            assert len(leaves) == rep.checked


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
    assert [str(s) for s in a.solutions] == [str(s) for s in b.solutions]


def test_a_form_must_be_an_equation_form():
    # the tag "j1" is no EquationForm: neither the prediction nor the scan
    # may read it as J6, or die on it with a bare KeyError
    space = EnumSpace(F3, 1)
    for form in ("j1", "J1", None, 1):
        with pytest.raises(TypeError, match="expected an EquationForm"):
            predicted_solutions(space, form)
        with pytest.raises(TypeError, match="expected an EquationForm"):
            enumerate_solutions(space, form)
        with pytest.raises(TypeError, match="expected an EquationForm"):
            defect(MultiPoly.parse("x", F3), form)


def test_search_never_changes_a_result():
    # the search only rejects: every form's solutions equal those of a loop
    # that runs the formal defect on every candidate
    for space in (EnumSpace(F2, 2), EnumSpace(F3, 1), EnumSpace(F5, 1),
                  EnumSpace(RingSpec.prime_field(7), 1), EnumSpace(Z, 1, 2)):
        for form in EquationForm:
            rep = enumerate_solutions(space, form)
            assert rep.solutions == tuple(
                p for p in space.candidates() if defect(p, form).is_zero)
            assert len(rep.solutions) <= rep.checked < space.candidate_count


def test_large_characteristic_is_scanned_in_constant_memory():
    # a large p costs nothing per field element: the defect coefficient 3*c
    # rules out every constant c != 0 without the formal defect
    space = EnumSpace(RingSpec.prime_field(10007), 0)
    t0 = time.perf_counter()
    rep = enumerate_solutions(space, EquationForm.J1)
    assert time.perf_counter() - t0 < 1.0
    assert [str(s) for s in rep.solutions] == ["0"] and rep.agreement
    assert rep.checked == len(rep.solutions) == 1
    tracemalloc.start()
    try:
        enumerate_solutions(space, EquationForm.J1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_search_checks_only_the_solutions():
    # every leaf of the search is a solution, in odometer order.  At degree
    # 0 the defect is 3*c for J1 and J2 and c for J5 and J6: over zp:3 the
    # first is zero, so every candidate is a leaf, and over the int box 130
    # both rule out every c != 0 at once
    for space in (EnumSpace(F3, 0), EnumSpace(Z, 0, 130)):
        for form in EquationForm:
            rep = enumerate_solutions(space, form)
            assert rep.checked == len(rep.solutions)
            assert rep.solutions == tuple(
                p for p in space.candidates() if defect(p, form).is_zero)


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


def test_search_counts_its_nodes():
    # a node is a value tried at a position, so every leaf is one.  A
    # position tries every value only when no closing polynomial there fixes
    # one, so a search can have fewer nodes than values (zp:10007 at degree
    # 0 has one); these six have more.  J2 and J5 count the nodes of their
    # swap images' searches.  The counts are deterministic, and they rest on
    # rewrites merging like terms mod p, which can decide a coefficient
    # before any of its set c_n is 0
    for space, form, nodes in (
            (EnumSpace(F3, 2), EquationForm.J1, 49),
            (EnumSpace(F3, 2), EquationForm.J5, 9),
            (EnumSpace(Z, 1, 6), EquationForm.J1, 18),
            (EnumSpace(Z, 1, 6), EquationForm.J2, 18),
            (EnumSpace(F5, 1), EquationForm.J1, 14),
            (EnumSpace(RingSpec.prime_field(7), 1), EquationForm.J1, 20)):
        rep = enumerate_solutions(space, form)
        assert rep.nodes == enumerate_solutions(space, form).nodes == nodes
        assert rep.checked <= rep.nodes
        assert len(space.coefficient_values) <= rep.nodes
        image = {EquationForm.J2: EquationForm.J1,
                 EquationForm.J5: EquationForm.J6}.get(form)
        if image:
            assert rep.nodes == enumerate_solutions(space, image).nodes


def _closing_rule(closing, p, values):
    """The rule that fixes c_k at a position, named from the first closing
    polynomial of a fixing shape: a single term, a*c_k + b mod p, or over Z
    a*c_k + b whose a does not divide b or whose -b/a is inside or outside
    the box.  None when no polynomial has such a shape."""
    for poly in closing:
        if len(poly) == 1:
            return "single term"
        if len(poly) == 2 and sorted(e for _, e in poly) == [0, 1]:
            (a,), (b,) = ([c for c, e in poly if e == n] for n in (1, 0))
            if p:
                return "unit"
            if b % a:
                return "indivisible"
            return "inside" if -b // a in values else "outside"
    return None


def test_the_closing_polynomials_fix_the_values_tried(monkeypatch):
    # a closing polynomial is a list of (coefficient, exponent of c_k)
    solve = oracle._closing_values
    box, f7 = range(-5, 6), range(7)
    assert solve([[(2, 1), (-6, 0)]], Z, box) == (3,)
    assert solve([[(-6, 0), (2, 1)]], Z, box) == (3,)
    assert solve([[(2, 1), (5, 0)]], Z, box) == ()
    assert solve([[(1, 1), (-9, 0)]], Z, box) == ()
    assert solve([[(3, 1), (1, 0)]], RingSpec(7), f7) == (2,)
    assert solve([[(4, 3)]], RingSpec(7), f7) == (0,)
    assert solve([[(1, 2), (1, 0)]], RingSpec(7), f7) is f7
    # the first polynomial of a fixing shape decides, and the search still
    # tries the value against them all
    assert solve([[(1, 2), (1, 0)], [(2, 1), (-6, 0)], [(4, 3)]], Z,
                 box) == (3,)

    # each rule is hit in a search, and the search still finds exactly the
    # solutions: those of brute force on the small spaces, and the
    # predicted families on all.  The node counts pin the values tried,
    # which a wrong value fixed over Z changes without changing the leaves
    hits = set()

    def spy(closing, spec, values):
        hits.add(_closing_rule(closing, spec.p, values))
        return solve(closing, spec, values)

    monkeypatch.setattr(oracle, "_closing_values", spy)
    for space, rules, nodes, brute in (
            (EnumSpace(F5, 1), {"unit", "single term"}, 14, True),
            (EnumSpace(RingSpec.prime_field(1009), 1), {"unit"}, 3026, False),
            (EnumSpace(Z, 1, 2), {"indivisible", "outside"}, 8, True),
            (EnumSpace(Z, 1, 100), {"indivisible", "inside"}, 206, False),
            (EnumSpace(Z, 2, 2), {"indivisible", "outside", "inside"}, 33,
             False),
            (EnumSpace(RingSpec.prime_field(10007), 0), {"single term"}, 1,
             True)):
        hits.clear()
        rep = enumerate_solutions(space, EquationForm.J1)
        assert rules <= hits
        assert rep.nodes == nodes
        assert rep.agreement
        assert set(rep.solutions) == predicted_solutions(space,
                                                         EquationForm.J1)
        if brute:
            assert rep.solutions == tuple(
                p for p in space.candidates()
                if defect(p, EquationForm.J1).is_zero)
    # the one closing polynomial at degree 0 is 3*c_0
    assert hits == {"single term"}


def test_search_work_is_bounded(monkeypatch):
    # 16 016 values tried and terms rewritten; filing every rotation of a
    # J1 coefficient took 47 194, past a bound of 20 000
    space = EnumSpace(F5, 3)
    module = importlib.import_module("jacobipoly.oracle")
    monkeypatch.setattr(module, "_MAX_SEARCH_WORK", 20_000)
    assert enumerate_solutions(space, EquationForm.J1).agreement
    monkeypatch.setattr(module, "_MAX_SEARCH_WORK", 10_000)
    with pytest.raises(BudgetExceeded, match="budget"):
        enumerate_solutions(space, EquationForm.J1)


def test_search_leaves_are_bounded(monkeypatch):
    # J1 over F_p, p != 3, has p - 1 solutions at degree 1, and each leaf
    # goes through defect: zp:1000003 ran 197 s and took 912 MB
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="leaves"):
        enumerate_solutions(EnumSpace(RingSpec(1000003), 1), EquationForm.J1)
    assert time.perf_counter() - t0 < 2
    space = EnumSpace(F5, 1)
    monkeypatch.setattr(oracle, "_MAX_SCAN_LEAVES", 4)
    assert enumerate_solutions(space, EquationForm.J1).checked == 4
    monkeypatch.setattr(oracle, "_MAX_SCAN_LEAVES", 3)
    for form in (EquationForm.J1, EquationForm.J2):
        with pytest.raises(BudgetExceeded, match="3 leaves"):
            enumerate_solutions(space, form)


def test_degree_four_scans_agree_with_the_families():
    # 2^25 candidates: the search at the degree cap, whose generic defect
    # has exponents up to 5
    space = EnumSpace(F2, 4)
    for form in EquationForm:
        rep = enumerate_solutions(space, form)
        assert rep.agreement
        assert set(rep.solutions) == predicted_solutions(space, form)
        assert rep.checked == len(rep.solutions) < rep.nodes


def test_scan_memory_is_flat():
    # 65 536 candidates: neither the odometer nor a list of candidates per
    # prefix is held in memory.  The generic defect is expanded in the trace
    space = EnumSpace(F2, 3)
    oracle._defect_coefficients.cache_clear()
    tracemalloc.start()
    try:
        rep = enumerate_solutions(space, EquationForm.J1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.agreement and space.candidate_count == 65536
    assert peak < 2**20


def _rotations(e):
    return e, e[1:] + e[:1], e[2:] + e[:2]


def _kept(monomials, form, p):
    """The generic defect's coefficients that the memo keeps, in its order:
    each distinct one once, first occurrence first, as a tuple of
    (int, monomial) terms."""
    seen, kept = set(), []
    for f in oracle._generic_defect(monomials, form, p).values():
        if (key := frozenset(f.items())) not in seen:
            seen.add(key)
            kept.append(tuple((v, m) for m, v in f.items()))
    return kept


def test_the_memo_holds_the_generic_defect_as_tuples():
    oracle._defect_coefficients.cache_clear()
    for space, form in ((EnumSpace(F3, 2), EquationForm.J1),
                        (EnumSpace(F3, 2), EquationForm.J6),
                        (EnumSpace(Z, 1, 6), EquationForm.J1)):
        p = space.spec.characteristic
        entry = oracle._defect_coefficients(space.monomials, form, p)
        assert list(entry) == _kept(space.monomials, form, p)
        assert type(entry) is tuple
        for terms in entry:
            assert type(terms) is tuple and {type(t) for t in terms} == {tuple}


def test_repeated_scans_read_one_expansion():
    # the same space scanned twice gives the same report from one entry,
    # and J2, searched as J1's swap image, reads J1's entry
    info = oracle._defect_coefficients.cache_info
    oracle._defect_coefficients.cache_clear()
    space = EnumSpace(F3, 2)
    first = enumerate_solutions(space, EquationForm.J1)
    assert (info().hits, info().misses) == (0, 1)
    assert enumerate_solutions(space, EquationForm.J1) == first
    assert (info().hits, info().misses) == (1, 1)
    assert enumerate_solutions(space, EquationForm.J2).nodes == first.nodes
    assert (info().hits, info().misses) == (2, 1)


def test_a_refused_search_leaves_the_memo_intact(monkeypatch):
    space, form = EnumSpace(F5, 3), EquationForm.J1
    oracle._defect_coefficients.cache_clear()
    cold = enumerate_solutions(space, form)
    oracle._defect_coefficients.cache_clear()
    monkeypatch.setattr(oracle, "_MAX_SEARCH_WORK", 10_000)
    with pytest.raises(BudgetExceeded, match="budget"):
        enumerate_solutions(space, form)
    monkeypatch.undo()
    hits = oracle._defect_coefficients.cache_info().hits
    assert enumerate_solutions(space, form) == cold
    assert oracle._defect_coefficients.cache_info().hits == hits + 1
    assert list(oracle._defect_coefficients(space.monomials, form, 5)) == (
        _kept(space.monomials, form, 5))


def test_the_memo_keeps_one_coefficient_per_rotation_orbit():
    # J1 and J2 sum one base at (x, y, z) and its two rotations, so each
    # coefficient of their defect is the one at each rotation of its key,
    # and the memo, which keeps each distinct coefficient once, keeps at
    # most one per orbit.  J5 and J6 are not cyclic above degree 0
    oracle._defect_coefficients.cache_clear()
    for spec, caps in ((Z, range(4)), (F2, range(4)), (F3, range(5)),
                       (F5, range(4))):
        p = spec.characteristic
        for cap in caps:
            monomials = oracle._monomials(cap)
            for form in EquationForm:
                generic = oracle._generic_defect(monomials, form, p)
                cyclic = all(generic.get(r) == f for e, f in generic.items()
                             for r in _rotations(e))
                assert cyclic == (form in (EquationForm.J1, EquationForm.J2)
                                  or cap == 0)
                entry = oracle._defect_coefficients(monomials, form, p)
                assert list(entry) == _kept(monomials, form, p)
                if cyclic:
                    # the coefficients of an orbit are equal, so at most
                    # one of them is kept
                    orbits = {min(_rotations(e)) for e in generic}
                    assert len(entry) <= len(orbits)


def test_the_memo_files_each_distinct_coefficient_once():
    # at d = 1 over Z, J1's distinct coefficients are system_check's four
    # residuals and J6's the seven of the d = 1 classification.  J1 keeps
    # one per rotation orbit, 38 at zp:3 d2 and 1 065 at zp:5 d4, but at
    # zp:2 d4 two orbits coincide mod 2 (606 orbits); J6 keeps 1 252 of
    # its 1 755 coefficients at zp:2 d4
    for spec, cap, form, size in ((Z, 1, EquationForm.J1, 4),
                                  (Z, 1, EquationForm.J6, 7),
                                  (F3, 2, EquationForm.J1, 38),
                                  (F3, 2, EquationForm.J2, 38),
                                  (F5, 4, EquationForm.J1, 1065),
                                  (F2, 4, EquationForm.J1, 605),
                                  (F2, 4, EquationForm.J6, 1252)):
        oracle._defect_coefficients.cache_clear()
        monomials, p = oracle._monomials(cap), spec.characteristic
        entry = oracle._defect_coefficients(monomials, form, p)
        assert len(entry) == size
        assert list(entry) == _kept(monomials, form, p)
    # the four residuals 3A^2, 3BD + 3D, 2AB + AC and AD + B^2 + BC + C,
    # the monomials of A, B, C and D being c_0, c_1, c_2 and c_3
    bits = oracle._EXP_BITS
    entry = oracle._defect_coefficients(oracle._monomials(1),
                                        EquationForm.J1, 0)
    residuals = {frozenset((sum(e << bits * n for n, e in enumerate(mono)), k)
                           for mono, k in terms.items())
                 for terms in ({(2, 0, 0, 0): 3},
                               {(0, 1, 0, 1): 3, (0, 0, 0, 1): 3},
                               {(1, 1, 0, 0): 2, (1, 0, 1, 0): 1},
                               {(1, 0, 0, 1): 1, (0, 2, 0, 0): 1,
                                (0, 1, 1, 0): 1, (0, 0, 1, 0): 1})}
    assert {frozenset((m, k) for k, m in terms) for terms in entry} == (
        residuals)


def test_the_memo_keeps_at_most_four_entries():
    oracle._defect_coefficients.cache_clear()
    for p in (2, 3, 5, 7, 11):
        enumerate_solutions(EnumSpace(RingSpec(p), 1), EquationForm.J6)
    assert oracle._defect_coefficients.cache_info().misses == 5
    assert oracle._defect_coefficients.cache_info().currsize <= 4


def test_spaces_reports_and_their_rings_pickle():
    # a worker process receives its space and returns its report by pickle.
    # An extension ring has no space, so its ring and a polynomial over it
    # are checked alone
    for spec, text, bound in ((Z, "-2*x + 4*y + 1", 4),
                              (F3, "x*y + x + y", None),
                              (RingSpec.extension(3, "t"), "(1+t)*x*y + (t)*y",
                               None)):
        objects = [spec, MultiPoly.parse(text, spec)]
        if spec.var_name is None:
            space = EnumSpace(spec, 1, bound)
            objects += [space, enumerate_solutions(space, EquationForm.J1)]
        for obj in objects:
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and repr(copy) == repr(obj)
        # a loaded ring computes as the one it was dumped from
        a = MultiPoly.parse(text, pickle.loads(pickle.dumps(spec)))
        assert a * a + a == objects[1] * objects[1] + objects[1]
