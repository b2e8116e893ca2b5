"""Fixed reference jobs that calibrated times are scaled by.

It imports nothing but time, so a fresh interpreter can run the jobs
before importing jacobipoly without loading any module the package would
load.  The jobs live outside the package, so no change to it can move
them.
"""

from time import perf_counter_ns

_A = {(i, j): (3 * i + j) % 5 + 1 for i in range(3) for j in range(4)}
_mul = lambda a, b: a * b % 7  # noqa: E731 -- shaped like RingSpec._rmul
_add = lambda a, b: (a + b) % 7  # noqa: E731


class _Term:
    __slots__ = ("exp", "text")

    def __init__(self, exp, text):
        self.exp = exp
        self.text = text


def _dict_job():
    """Sums into a dict keyed by exponent tuples."""
    out: dict = {}
    for ma, va in _A.items():
        for mb, vb in _A.items():
            key = (ma[0] + mb[0], ma[1] + mb[1])
            out[key] = (out.get(key, 0) + va * vb) % 7
    return out


def _lambda_job():
    """A sparse product through per-coefficient lambdas, as in _mul_raw."""
    out: dict = {}
    for ma, va in _A.items():
        for mb, vb in _A.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            prod = _mul(va, vb)
            prev = out.get(key)
            out[key] = prod if prev is None else _add(prev, prod)
    return out


def _int_job():
    """Trial division, as in is_prime."""
    s, d = 0, 3
    while d < 1200:
        s += 1000003 % d
        d += 2
    return s


def _alloc_job():
    """Small objects and string formatting, as in parsing and printing."""
    terms = [_Term(i % 5, str(i)) for i in range(60)]
    return "+".join(f"{t.text}*x^{t.exp}" for t in terms)


JOBS = (_dict_job, _lambda_job, _int_job, _alloc_job)
# Wall time of each job on the least contended core seen on the 2.1 GHz
# Xeon this benchmark was written on (about its 1st percentile there).
# They set only the scale of calibrated times.
NOMINAL_NS = (53_000, 160_000, 45_000, 46_000)


def slowdown() -> float:
    """Geometric mean over the jobs of wall time / nominal time: 1.0 on an
    uncontended core, larger when other tenants slow this one."""
    f = 1.0
    for job, nominal in zip(JOBS, NOMINAL_NS):
        t0 = perf_counter_ns()
        job()
        f *= (perf_counter_ns() - t0) / nominal
    return f ** (1 / len(JOBS))
