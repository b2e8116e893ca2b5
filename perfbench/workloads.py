"""The benchmark's workloads: seeded inputs, timed loops, traced replays
and output checks.

Every workload is a closed loop with one client: each call starts only
after the previous one has returned, in one process, with no threads.
Inputs are built from the seed before any timing starts.  A run repeats
whole passes over its inputs until the next pass would end after the
requested number of seconds, so every run measures the same mix.

Checks run outside the timed regions and are independent of the code they
check where that is cheap: known solution sets written out below, a
composition built with MultiPoly.substitute, a Pascal triangle built by
addition, and a Miller-Rabin test of our own for the prime moduli.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import sys
import timeit
from time import perf_counter, perf_counter_ns

from jacobipoly import (
    EnumSpace,
    EquationForm,
    MultiPoly,
    RingSpec,
    binom_mod_p,
    classify,
    defect,
    enumerate_solutions,
    is_prime,
    lucas_factors,
    predicted_solutions,
)
from jacobipoly.cli import run as cli_run

from refjob import slowdown
from tracing import percentile, weighted_percentile

XYZ = ("x", "y", "z")


class Tally:
    """Counts operations checked and checks failed; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def per_request_medians(costs) -> dict:
    """One latency per distinct request: the median over the run's passes
    of its (request index, cost) samples.  Percentiles over these describe
    the request mix without the pass-to-pass noise of single calls."""
    by_request: dict = {}
    for k, ns in costs:
        by_request.setdefault(k, []).append(ns)
    return {k: statistics.median(v) for k, v in by_request.items()}


def run_passes(seconds: float, one_pass) -> int:
    """Run whole passes until the next one would end after `seconds`."""
    t0 = perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed * (passes + 1) / passes > seconds:
            return passes


# -- exhaustive scans ------------------------------------------------------

SCANS = {
    "scan-deg2": (("zp:3", 2, None, "j1"), ("zp:3", 2, None, "j5")),
    "scan-deg1": (("int", 1, 6, "j1"), ("int", 1, 6, "j2"),
                  ("zp:5", 1, None, "j1"), ("zp:7", 1, None, "j1")),
}

# Solution sets of the scanned spaces as the classification states them
# (README families; j2 is the argument swap of j1, j5 admits only 0).
KNOWN_SOLUTIONS = {
    ("zp:3", 2, "j1"): {
        "0", "1", "2", "x + y", "x + y + 1", "x + y + 2", "x*y",
        "x*y + x + y", "x*y + 2*x + 2*y + 2", "2*x*y", "2*x*y + x + y",
        "2*x*y + 2*x + 2*y + 1"},
    ("zp:3", 2, "j5"): {"0"},
    ("int", 1, "j1"): {"0", "-2*x + 4*y"},
    ("int", 1, "j2"): {"0", "4*x - 2*y"},
    ("zp:5", 1, "j1"): {"0", "x + 2*y", "2*x + 2*y", "3*x + 4*y"},
    ("zp:7", 1, "j1"): {"0", "x + 3*y", "2*x + y", "3*x + 3*y", "4*x + y",
                        "5*x + 4*y"},
}


class ScanWorkload:
    """enumerate_solutions over fixed spaces; the seed sets their order."""

    def __init__(self, spaces, rnd: random.Random):
        self.scans = [
            (EnumSpace(RingSpec.parse(ring), deg, bound),
             EquationForm.from_tag(form), KNOWN_SOLUTIONS[(ring, deg, form)])
            for ring, deg, bound, form in spaces]
        rnd.shuffle(self.scans)

    @staticmethod
    def _name(space, form) -> str:
        box = f" box {space.coeff_bound}" if space.coeff_bound else ""
        return f"{form.value} over {space.spec}{box} deg {space.max_deg_per_var}"

    def _check(self, tally, scan, report) -> None:
        space, form, known = scan
        got = [str(p) for p in report.solutions]
        tally.check(report.agreement and len(got) == len(known)
                    and set(got) == known,
                    f"{self._name(space, form)}: agreement {report.agreement},"
                    f" solutions {sorted(got)}")

    def timed(self, seconds: float, tally: Tally) -> None:
        self.calls = []  # (scan index, start ns, end ns) per call

        def one_pass():
            for k, scan in enumerate(self.scans):
                space, form, _ = scan
                t0 = perf_counter_ns()
                report = enumerate_solutions(space, form)
                self.calls.append((k, t0, perf_counter_ns()))
                self._check(tally, scan, report)

        run_passes(seconds, one_pass)

    def summary(self, cost) -> dict:
        """End-to-end metrics of the timed calls; cost(t0, t1) gives the ns
        charged to a stretch of wall time."""
        sizes = [space.candidate_count for space, _, _ in self.scans]
        costs = [(k, cost(t0, t1)) for k, t0, t1 in self.calls]
        candidates = sum(sizes[k] for k, _ in costs)
        # every candidate of a scan is charged the scan's mean time per
        # candidate; percentiles weigh each scan by its candidates
        medians = per_request_medians(costs)
        per_candidate = [(ns / sizes[k] / 1e6, sizes[k])
                         for k, ns in medians.items()]
        return {
            "throughput_per_s": candidates / (sum(ns for _, ns in costs) / 1e9),
            "latency_p50_ms": weighted_percentile(per_candidate, 0.5),
            "latency_p90_ms": weighted_percentile(per_candidate, 0.9),
            "samples": candidates,
        }

    def traced(self, seconds: float, tally: Tally, tracer) -> dict:
        """Each scan runs once untraced, then is replayed as candidates()
        -> defect -> predicted_solutions -> classify under spans.

        Every traced() returns three lists of (start ns, end ns) wall
        stretches: "plain", the plain public calls; "traced", the same work
        under the tracer; "instrument", the tracer's own counting inside
        the traced stretches."""
        stretches = {"plain": [], "traced": [], "instrument": []}

        def one_pass():
            for scan in self.scans:
                space, form, _ = scan
                t0 = perf_counter_ns()
                report = enumerate_solutions(space, form)
                stretches["plain"].append((t0, perf_counter_ns()))
                self._check(tally, scan, report)
                tracer.request = f"scan {self._name(space, form)} #{len(tracer.spans)}"
                solutions, agreement = self._replay(space, form, tracer, stretches)
                tally.check(tuple(solutions) == report.solutions
                            and agreement == report.agreement,
                            f"replay of {self._name(space, form)} differs "
                            "from enumerate_solutions")

        run_passes(seconds, one_pass)
        return stretches

    @staticmethod
    def _replay(space, form, tracer, stretches):
        root = tracer.begin("oracle.enumerate_solutions")
        s = tracer.begin("oracle.EnumSpace.candidates")
        candidates = list(space.candidates())
        tracer.end(s, len(candidates))
        solutions = []
        for p in candidates:
            s = tracer.begin("jacobi.defect")
            d = defect(p, form)
            tracer.end(s)
            c = tracer.begin("trace.count_terms")
            tracer.add_count(s, sum(1 for _ in d.terms()))
            tracer.end(c)
            stretches["instrument"].append(tracer.stretch(c))
            if d.is_zero:
                solutions.append(p)
        s = tracer.begin("oracle.predicted_solutions")
        predicted = predicted_solutions(space, form)
        tracer.end(s, len(predicted))
        agreement = set(solutions) == predicted
        if agreement and form is EquationForm.J1:
            for p in solutions:
                s = tracer.begin("classify.classify")
                res = classify(p)
                tracer.end(s)
                agreement = agreement and res.is_solution
        tracer.end(root, len(solutions))
        stretches["traced"].append(tracer.stretch(root))
        return solutions, agreement


# -- queries through the CLI -------------------------------------------------

QUERY_RING = "zp:3[t]"
QUERY_P = 3
GOLDEN = ("(1+2*t^2)*x*y + (1+t+2*t^2+2*t^3)*x + (1+t+2*t^2+2*t^3)*y"
          " + (t+t^3+2*t^4)")
FORMS = ("j1", "j2", "j5", "j6")

# Queries per kind and per-variable degree, plus the golden classify query.
# Over all 200 the degree mix is 1: 60, 2: 80, 3: 50, 4: 10, so the
# 100th-fastest call (p50) lies inside the degree-2 class and the 180th
# (p90) inside the degree-3 class.
QUERY_MIX = {
    "verify": {1: 32, 2: 68, 3: 42, 4: 10},
    "verify_member": 8,
    "classify": {1: 4, 2: 12, 3: 8},
    "classify_member": 15,
}
PROBE_QUERY_MIX = {"verify": {2: 1}, "verify_member": 1,
                   "classify": {1: 1}, "classify_member": 0}
GOLDEN_COEFFS = {(1, 1): [1, 0, 2], (1, 0): [1, 1, 2, 2], (0, 1): [1, 1, 2, 2],
                 (0, 0): [0, 1, 0, 1, 2]}


# F_3[t] elements as little-endian coefficient lists, no trailing zeros

def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _ext_add(a, b):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0))
                  % QUERY_P for i in range(n)])


def _ext_scale(a, k):
    return _trim([c * k % QUERY_P for c in a])


def _ext_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = (out[i + j] + c * d) % QUERY_P
    return _trim(out)


def ext_literal(c) -> str:
    """The CLI's canonical spelling of an F_p[t] element, e.g. 1+2*t^2."""
    parts = []
    for i, v in enumerate(c):
        if v:
            if i == 0:
                parts.append(str(v))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if v == 1 else f"{v}*{t}")
    return "+".join(parts) or "0"


def _rand_ext(rnd, n=None):
    """A random F_3[t] element with exactly n coefficients (1 to 3)."""
    n = n or rnd.randint(1, 3)
    return [rnd.randrange(QUERY_P) for _ in range(n - 1)] + [rnd.randint(1, 2)]


def _dense(rnd, d):
    """Every monomial up to degree d per variable.  Coefficient lengths run
    through 1, 2, 3 from a random start, so every P of one degree has
    nearly the same lengths and cost; only the values and forms vary."""
    start = rnd.randrange(3)
    monomials = [(i, j) for i in range(d + 1) for j in range(d + 1)]
    return {m: _rand_ext(rnd, 1 + (start + k) % 3)
            for k, m in enumerate(monomials)}


def _product_member(rnd):
    """A*x*y + B*(x+y) + D with A*D = B^2 - B and A != 0."""
    b = _rand_ext(rnd)
    b1 = _ext_add(b, [QUERY_P - 1])
    bb = _ext_add(_ext_mul(b, b), _ext_scale(b, QUERY_P - 1))
    choices = [(a, d) for a, d in ((b, b1), (b1, b), ([1], bb),
                                   ([2], _ext_scale(bb, 2))) if a]
    a, d = rnd.choice(choices)
    return {(1, 1): a, (1, 0): b, (0, 1): b, (0, 0): d}


def _poly_text(coeffs) -> str:
    terms = []
    for (i, j), c in sorted(coeffs.items(), reverse=True):
        if not c:
            continue
        parts = [str(c[0]) if len(c) == 1 else f"({ext_literal(c)})"]
        parts += [v if e == 1 else f"{v}^{e}"
                  for v, e in (("x", i), ("y", j)) if e]
        terms.append("*".join(parts))
    return " + ".join(terms) or "0"


class Query:
    def __init__(self, command, form, degree, coeffs, text):
        self.command = command
        self.form = form
        self.degree = degree
        self.coeffs = coeffs
        self.text = text
        self.argv = [command, "--ring", QUERY_RING, "--output", "json", text]
        if command == "verify":
            self.argv[3:3] = ["--form", form]
        self.seen = None  # (exit code, output) once checked

    def __str__(self):
        return f"{self.command} {self.form} deg {self.degree}: {self.text}"


def make_queries(rnd: random.Random, mix) -> list[Query]:
    queries = []
    for degree, count in mix["verify"].items():
        forms = [FORMS[k % len(FORMS)] for k in range(count)]
        rnd.shuffle(forms)
        for form in forms:
            c = _dense(rnd, degree)
            queries.append(Query("verify", form, degree, c, _poly_text(c)))
    for k in range(mix["verify_member"]):
        c = _product_member(rnd)
        queries.append(Query("verify", FORMS[k % 2], 1, c, _poly_text(c)))
    for degree, count in mix["classify"].items():
        for _ in range(count):
            c = _dense(rnd, degree)
            queries.append(Query("classify", "j1", degree, c, _poly_text(c)))
    for _ in range(mix["classify_member"]):
        c = _product_member(rnd)
        queries.append(Query("classify", "j1", 1, c, _poly_text(c)))
    queries.append(Query("classify", "j1", 1, GOLDEN_COEFFS, GOLDEN))
    rnd.shuffle(queries)
    return queries


def naive_defect(p: MultiPoly, form: str) -> MultiPoly:
    """The form's defect built by substitution, as the forms are defined."""
    X, Y, Z = (MultiPoly.variable(p.spec, XYZ, v) for v in XYZ)

    def P(a, b):
        return p.substitute({"x": a, "y": b})

    if form == "j1":
        return P(P(X, Y), Z) + P(P(Y, Z), X) + P(P(Z, X), Y)
    if form == "j2":
        return P(X, P(Y, Z)) + P(Y, P(Z, X)) + P(Z, P(X, Y))
    if form == "j5":
        return P(P(X, Y), Z) + P(Y, P(X, Z)) - P(X, P(Y, Z))
    return P(X, P(Y, Z)) + P(P(X, Z), Y) - P(P(X, Y), Z)


def _witness_ok(payload, d: MultiPoly) -> bool:
    mono, coeff = d.least_term()
    w = payload.get("witness", {})
    return (w.get("monomial") == mono.text(XYZ)
            and w.get("coefficient") == str(coeff))


def query_output_ok(q: Query, spec: RingSpec, rc: int, out: str) -> bool:
    """Check one CLI answer.  Up to degree 2 the verdict and witness are
    re-derived from naive_defect; above it, no form has a solution (the
    degree bound), so the answer must be a violation with a witness."""
    payload = json.loads(out)
    verdict = payload.get("verdict")
    if q.degree > 2:
        bad = "violated" if q.command == "verify" else "not_jacobi"
        return rc == 1 and verdict == bad and "term" in payload.get("witness", {})
    p = MultiPoly(spec, ("x", "y"), q.coeffs)
    d = naive_defect(p, q.form)
    if q.command == "verify":
        if d.is_zero:
            return rc == 0 and payload == {"form": q.form, "verdict": "satisfied"}
        return (rc == 1 and verdict == "violated"
                and payload.get("form") == q.form and _witness_ok(payload, d))
    if not d.is_zero:
        return rc == 1 and verdict == "not_jacobi" and _witness_ok(payload, d)
    lit = {k: ext_literal(q.coeffs.get(m, [])) for k, m in
           (("A", (1, 1)), ("B", (1, 0)), ("C", (0, 1)), ("D", (0, 0)))}
    if q.coeffs.get((1, 1)):
        family, params = "char3_product", {k: lit[k] for k in "ABD"}
    else:
        family, params = "char3_affine", {k: lit[k] for k in "BCD"}
    return rc == 0 and payload == {"verdict": "solution", "family": family,
                                   "params": params}


class QueryWorkload:
    """Closed-loop cli.run calls over zp:3[t] with JSON output."""

    def __init__(self, rnd: random.Random, mix=QUERY_MIX):
        self.queries = make_queries(rnd, mix)
        self.spec = RingSpec.parse(QUERY_RING)

    def _check(self, tally, q, rc, out) -> None:
        if q.seen is not None:
            tally.check((rc, out) == q.seen, f"answer changed between passes: {q}")
        elif tally.check(query_output_ok(q, self.spec, rc, out),
                         f"wrong answer (exit {rc}) {out!r} to {q}"):
            q.seen = (rc, out)

    @staticmethod
    def _call(q):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter_ns()
            rc = cli_run(q.argv)
            t1 = perf_counter_ns()
        return rc, buf.getvalue(), t0, t1

    def timed(self, seconds: float, tally: Tally) -> None:
        self.calls = []  # (query index, start ns, end ns) per cli.run

        def one_pass():
            for k, q in enumerate(self.queries):
                rc, out, t0, t1 = self._call(q)
                self.calls.append((k, t0, t1))
                self._check(tally, q, rc, out)

        run_passes(seconds, one_pass)

    def summary(self, cost) -> dict:
        costs = [(k, cost(t0, t1)) for k, t0, t1 in self.calls]
        latencies = list(per_request_medians(costs).values())
        return {
            "throughput_per_s": len(costs) / (sum(ns for _, ns in costs) / 1e9),
            "latency_p50_ms": percentile(latencies, 0.5) / 1e6,
            "latency_p90_ms": percentile(latencies, 0.9) / 1e6,
            "samples": len(latencies),
        }

    def traced(self, seconds: float, tally: Tally, tracer) -> dict:
        """Each query runs through cli.run once plainly and once inside a
        span, in alternating order; then the library calls the CLI makes
        are replayed under spans: RingSpec.parse -> MultiPoly.parse ->
        defect or classify -> least_term."""
        stretches = {"plain": [], "traced": [], "instrument": []}

        def one_pass():
            for k, q in enumerate(self.queries):
                tracer.request = f"query #{len(tracer.spans)}"
                for in_span in ((True, False) if k % 2 else (False, True)):
                    if in_span:
                        s = tracer.begin("cli.run")
                        rc, out, _, _ = self._call(q)
                        tracer.end(s)
                        stretches["traced"].append(tracer.stretch(s))
                    else:
                        rc, out, t0, t1 = self._call(q)
                        stretches["plain"].append((t0, t1))
                    self._check(tally, q, rc, out)
                tally.check(self._replay(q, tracer) == rc,
                            f"replayed verdict differs from the CLI: {q}")

        run_passes(seconds, one_pass)
        return stretches

    @staticmethod
    def _replay(q, tracer) -> int:
        """Replay the query's library calls; return the exit code they imply."""
        s = tracer.begin("rings.RingSpec.parse")
        spec = RingSpec.parse(QUERY_RING)
        tracer.end(s)
        s = tracer.begin("poly.MultiPoly.parse")
        p = MultiPoly.parse(q.text, spec)
        tracer.end(s)
        if q.command == "classify":
            s = tracer.begin("classify.classify")
            res = classify(p)
            tracer.end(s)
            return 0 if res.is_solution else 1
        s = tracer.begin("jacobi.defect")
        d = defect(p, EquationForm.from_tag(q.form))
        tracer.end(s)
        c = tracer.begin("trace.count_terms")
        tracer.add_count(s, sum(1 for _ in d.terms()))
        tracer.end(c)
        if d.is_zero:
            return 0
        s = tracer.begin("poly.MultiPoly.least_term")
        d.least_term()
        tracer.end(s)
        return 1


# -- binomial residues and prime moduli -----------------------------------------

LUCAS_PRIMES = (2, 3, 5, 7)
LUCAS_MAX = 200
# (magnitude, count): each modulus is the next prime after magnitude plus a
# seeded offset below 1 %, so the p50 call (rank 100 of 200) lies inside the
# 10^8 class and the p90 call (rank 180) inside the 10^10 class.
PRIME_CLASSES = ((10**6, 60), (10**8, 80), (10**10, 50), (10**12, 10))
PROBE_PRIME_CLASSES = ((10**6, 2), (10**8, 2))


def _miller_rabin(n: int) -> bool:
    """Deterministic for n < 3.4 * 10^14 with the first seven prime bases."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _miller_rabin(n):
        n += 1
    return n


def _pascal_mod(p: int, size: int) -> list[list[int]]:
    """rows[n][m] = C(n, m) mod p for 0 <= n, m <= size, by addition."""
    rows = [[1] + [0] * size]
    for _ in range(size):
        prev = rows[-1]
        rows.append([1] + [(prev[m - 1] + prev[m]) % p
                           for m in range(1, size + 1)])
    return rows


class LucasWorkload:
    """binom_mod_p and lucas_factors over a grid of (n, m, p), then
    RingSpec.parse of seeded prime moduli."""

    def __init__(self, rnd: random.Random, size=LUCAS_MAX, classes=PRIME_CLASSES):
        self.rows = []
        for p in LUCAS_PRIMES:
            for n in range(size + 1):
                ms = list(range(size + 1))
                rnd.shuffle(ms)
                self.rows.append((p, n, ms))
        rnd.shuffle(self.rows)
        self.pascal = {p: _pascal_mod(p, size) for p in LUCAS_PRIMES}
        self.moduli = [_next_prime(base + rnd.randrange(base // 100))
                       for base, count in classes for _ in range(count)]
        rnd.shuffle(self.moduli)

    def _check_row(self, tally, p, n, ms, residues, factors) -> None:
        want = self.pascal[p][n]
        small = self.pascal[p]
        for m, r, f in zip(ms, residues, factors):
            prod = 1
            for ni, mi, fi in f:
                prod = prod * fi % p
            ok = (r == want[m] == prod
                  and sum(ni * p**i for i, (ni, _, _) in enumerate(f)) == n
                  and sum(mi * p**i for i, (_, mi, _) in enumerate(f)) == m
                  and all(fi == small[ni][mi] for ni, mi, fi in f))
            tally.check(ok, f"C({n}, {m}) mod {p}: {r}, factors {f}, want {want[m]}")

    def _check_modulus(self, tally, q, spec) -> None:
        tally.check(str(spec) == f"zp:{q}" and spec.characteristic == q,
                    f"RingSpec.parse('zp:{q}') gave {spec!r}")

    def residue_count(self) -> int:
        return sum(len(ms) for _, _, ms in self.rows)

    def timed(self, seconds: float, tally: Tally) -> None:
        self.row_calls = []  # (start ns, end ns) per row of residues
        self.parse_calls = []  # (modulus index, start ns, end ns) per parse

        def one_pass():
            for p, n, ms in self.rows:
                t0 = perf_counter_ns()
                residues = [binom_mod_p(n, m, p) for m in ms]
                factors = [lucas_factors(n, m, p) for m in ms]
                self.row_calls.append((t0, perf_counter_ns()))
                self._check_row(tally, p, n, ms, residues, factors)
            for k, q in enumerate(self.moduli):
                text = f"zp:{q}"
                t0 = perf_counter_ns()
                spec = RingSpec.parse(text)
                self.parse_calls.append((k, t0, perf_counter_ns()))
                self._check_modulus(tally, q, spec)

        self.passes = run_passes(seconds, one_pass)

    def summary(self, cost) -> dict:
        residues = self.passes * self.residue_count()
        latencies = list(per_request_medians(
            [(k, cost(t0, t1)) for k, t0, t1 in self.parse_calls]).values())
        return {
            "throughput_per_s":
                residues / (sum(cost(t0, t1) for t0, t1 in self.row_calls) / 1e9),
            "latency_p50_ms": percentile(latencies, 0.5) / 1e6,
            "latency_p90_ms": percentile(latencies, 0.9) / 1e6,
            "samples": len(latencies),
        }

    def traced(self, seconds: float, tally: Tally, tracer) -> dict:
        """Each row and modulus runs once plainly, then is replayed with one
        span per function: a row span covers its 201 calls."""
        stretches = {"plain": [], "traced": [], "instrument": []}

        def one_pass():
            for p, n, ms in self.rows:
                tracer.request = f"row p={p} n={n} #{len(tracer.spans)}"
                t0 = perf_counter_ns()
                residues = [binom_mod_p(n, m, p) for m in ms]
                factors = [lucas_factors(n, m, p) for m in ms]
                stretches["plain"].append((t0, perf_counter_ns()))
                self._check_row(tally, p, n, ms, residues, factors)
                s = tracer.begin("numtheory.binom_mod_p")
                residues = [binom_mod_p(n, m, p) for m in ms]
                tracer.end(s, len(ms))
                stretches["traced"].append(tracer.stretch(s))
                s = tracer.begin("numtheory.lucas_factors")
                factors = [lucas_factors(n, m, p) for m in ms]
                tracer.end(s, len(ms))
                stretches["traced"].append(tracer.stretch(s))
                self._check_row(tally, p, n, ms, residues, factors)
            for q in self.moduli:
                tracer.request = f"modulus {q} #{len(tracer.spans)}"
                text = f"zp:{q}"
                t0 = perf_counter_ns()
                spec = RingSpec.parse(text)
                stretches["plain"].append((t0, perf_counter_ns()))
                self._check_modulus(tally, q, spec)
                s = tracer.begin("rings.RingSpec.parse")
                spec = RingSpec.parse(text)
                tracer.end(s)
                stretches["traced"].append(tracer.stretch(s))
                self._check_modulus(tally, q, spec)
                s = tracer.begin("numtheory.is_prime")
                ok = is_prime(q)
                tracer.end(s)
                tally.check(ok, f"is_prime({q}) is False")

        run_passes(seconds, one_pass)
        return stretches


# -- registry ------------------------------------------------------------------

# Ring specs a fresh interpreter parses in the set-up probe.
SETUP_RINGS = {
    "scan-deg2": ("zp:3",),
    "scan-deg1": ("int", "zp:5", "zp:7"),
    "query-ext": (QUERY_RING,),
    "lucas": tuple(f"zp:{p}" for p in LUCAS_PRIMES),
}


def make_workload(name: str, seed: int):
    rnd = random.Random(seed)
    if name in SCANS:
        return ScanWorkload(SCANS[name], rnd)
    if name == "query-ext":
        return QueryWorkload(rnd)
    if name == "lucas":
        return LucasWorkload(rnd)
    raise ValueError(f"unknown workload {name!r}")


def probe_workloads():
    """Small fixed instances of every workload kind, replayed at the end of
    each traced run so that every layer metric is measured on every
    workload; on a workload that uses a layer they add at most a few
    percent of its calls."""
    rnd = random.Random(0)
    return [ScanWorkload((("zp:5", 1, None, "j1"),), rnd),
            QueryWorkload(rnd, PROBE_QUERY_MIX),
            LucasWorkload(rnd, 20, PROBE_PRIME_CLASSES)]


# -- fixed-operand layer timings ----------------------------------------------

def _per_call(stmt: str, number: int, **names) -> float:
    """Median over five repeats of the calibrated time of one execution,
    in ns, scaled by the slowdown measured just before and after."""
    before = slowdown()
    runs = timeit.Timer(stmt, globals=names).repeat(repeat=5, number=number)
    return statistics.median(runs) / number * 1e9 * 2 / (before + slowdown())


def operand_timings() -> dict:
    """Ring operations and MultiPoly powers on fixed operands shaped like
    the workloads' own: zp:3 and the int box from the scans, three-term
    F_3[t] coefficients and a dense degree-4 P from the queries."""
    zp = RingSpec.prime_field(3)
    zz = RingSpec.integers()
    ext = RingSpec.parse(QUERY_RING)
    a, b = ext.element([1, 2, 1]), ext.element([2, 1, 2])
    p_zp = MultiPoly(zp, ("x", "y"), {(i, j): 1 + (i + j) % 2
                                      for i in range(3) for j in range(3)})
    p_ext = MultiPoly(ext, ("x", "y"), _dense(random.Random(4), 4))
    return {
        "rings.mul_ns.zp": _per_call("a * b", 200_000, a=zp.element(2),
                                     b=zp.element(2)),
        "rings.mul_ns.int": _per_call("a * b", 200_000, a=zz.element(-5),
                                      b=zz.element(6)),
        "rings.mul_ns.ext": _per_call("a * b", 20_000, a=a, b=b),
        "rings.add_ns.ext": _per_call("a + b", 50_000, a=a, b=b),
        "poly.pow_us.zp3_deg2": _per_call("p ** 2", 500, p=p_zp) / 1e3,
        "poly.pow_us.ext_deg4": _per_call("p ** 4", 2, p=p_ext) / 1e3,
    }
