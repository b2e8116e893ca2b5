"""In-memory spans, percentiles and per-layer self times for the traced run.

A span is one timed call into a public function of a jacobipoly module,
recorded from outside the package.  Spans are kept in memory and written
only when the run ends, so writing never lands inside a timed region.
"""

from __future__ import annotations

import gzip
import json
import math
from time import perf_counter_ns


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def weighted_percentile(pairs, q):
    """Nearest-rank q-quantile of values given as (value, weight) pairs,
    as if each value were repeated weight times."""
    ordered = sorted(pairs)
    rank = math.ceil(q * sum(w for _, w in ordered))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]


def layer_of(name: str) -> str:
    """Span names are '<module>.<public name>'; the module is the layer."""
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans as (id, parent id, request id, name, start ns, end ns,
    work count) tuples.  The work count is what the call produced or
    consumed, e.g. defect terms out or residues computed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.request = None

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((sid, parent, self.request, name,
                           perf_counter_ns(), None, 0))
        self._open.append(sid)
        return sid

    def end(self, sid: int, count: int = 0) -> None:
        """Close the span, with the work count it produced or consumed."""
        t1 = perf_counter_ns()
        popped = self._open.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} is open")
        _, parent, req, name, t0, _, _ = self.spans[sid]
        self.spans[sid] = (sid, parent, req, name, t0, t1, count)

    def stretch(self, sid: int) -> tuple[int, int]:
        """(start ns, end ns) of a closed span."""
        return self.spans[sid][4:6]

    def calibrate(self, clock) -> None:
        """Replace every start and end t by clock(t), e.g. calibrated time."""
        self.spans = [s[:4] + (clock(s[4]), clock(s[5])) + s[6:]
                      for s in self.spans]

    def add_count(self, sid: int, count: int) -> None:
        """Set the work count of a span that is already closed."""
        s = self.spans[sid]
        self.spans[sid] = s[:6] + (count,)

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def counts(self, name: str) -> list[int]:
        return [s[6] for s in self.spans if s[3] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [s[5] - s[4] - child[s[0]] for s in self.spans]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            layer = layer_of(s[3])
            out[layer] = out.get(layer, 0.0) + own / 1e9
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, gzip-compressed."""
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns",
                "count")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
