import random
import time

import pytest

from jacobipoly import EnumSpace, EquationForm, MultiPoly, RingSpec, \
    enumerate_solutions
from jacobipoly.numtheory import _MR_LIMIT, is_prime


def largest_prime_field():
    """F_q for the largest prime q that a ring accepts."""
    q = _MR_LIMIT - 1
    while not is_prime(q):
        q -= 1
    return RingSpec.prime_field(q)


def random_element(spec, rng):
    if spec.p is None:
        return spec.element(rng.randrange(-30, 31))
    if spec.var_name is None:
        return spec.element(rng.randrange(spec.p))
    return spec.element([rng.randrange(spec.p) for _ in range(rng.randrange(5))])


def random_poly(spec, vars, rng, max_deg=2, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_deg + 1) for _ in vars)
        coeff = random_element(spec, rng)
        if mono in terms:
            terms[mono] = terms[mono] + coeff
        else:
            terms[mono] = coeff
    return MultiPoly(spec, vars, terms)


class ReportCache:
    """Each enumeration space is scanned once per session; the elapsed wall
    time of the scan is kept alongside the report for the timing criteria."""

    def __init__(self):
        self._store = {}

    def get(self, ring, form, max_deg, bound=None):
        key = (ring, form, max_deg, bound)
        if key not in self._store:
            space = EnumSpace(RingSpec.parse(ring), max_deg, bound)
            t0 = time.perf_counter()
            report = enumerate_solutions(space, EquationForm.from_tag(form))
            self._store[key] = (report, time.perf_counter() - t0)
        return self._store[key]


@pytest.fixture(scope="session")
def reports():
    return ReportCache()


@pytest.fixture
def rng():
    return random.Random(20260822)
