"""Benchmark of the jacobipoly package, run from the root of a checkout.

    python3 perfbench/run.py --workload scan-deg2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # traced run

An untraced run prints the end-to-end metrics declared in BENCHMARK.json; a
traced run (--trace 1) prints the per-layer metrics and writes its spans.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Results and spans go to perfbench/out/.
The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import clock
from tracing import Tracer, layer_of, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("scan-deg2", "scan-deg1", "query-ext", "lucas")
SETUP_REPEATS = 9

# What the generic end-to-end names measure on each workload.
ALIASES = {
    "scan-deg2": {"throughput_per_s": "scan_candidates_per_s",
                  "latency_p50_ms": "candidate_p50_ms",
                  "latency_p90_ms": "candidate_p90_ms"},
    "query-ext": {"throughput_per_s": "queries_per_s",
                  "latency_p50_ms": "query_p50_ms",
                  "latency_p90_ms": "query_p90_ms"},
    "lucas": {"throughput_per_s": "residues_per_s",
              "latency_p50_ms": "prime_check_p50_ms",
              "latency_p90_ms": "prime_check_p90_ms"},
}
ALIASES["scan-deg1"] = ALIASES["scan-deg2"]


def environment(args) -> dict:
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def git_rev():
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "jacobipoly").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_seconds(rings) -> tuple[float, float]:
    """Median calibrated and raw time, in s, that a fresh interpreter takes
    to import jacobipoly and parse the workload's ring specs.  The child
    times itself and measures its slowdown just before and after, on the
    core it runs on."""
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(HERE)!r})",
        "from time import perf_counter_ns",
        "from refjob import slowdown",
        "before = slowdown()",
        "t0 = perf_counter_ns()",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import jacobipoly",
        f"for s in {list(rings)!r}: jacobipoly.RingSpec.parse(s)",
        "t1 = perf_counter_ns()",
        "print(t1 - t0, before, slowdown())",
    ])
    cmd = [sys.executable, "-I", "-c", code]
    # the first start fills the bytecode cache
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        ns, before, after = out.stdout.split()
        raw.append(int(ns) / 1e9)
        calibrated.append(raw[-1] * 2 / (float(before) + float(after)))
    return statistics.median(calibrated), statistics.median(raw)


def declared_metrics(group: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def per_layer_metrics(tracer, work_ns: float, overhead_share: float,
                      operands: dict) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and the bases of its ratios.
    work_ns is the run's workload time under the tracer, without the
    tracer's own counting: replayed scans, cli.run calls, residue rows and
    modulus parses."""
    d = tracer.durations
    defect = d("jacobi.defect")
    own = tracer.self_times()
    replay_ns: dict = {}
    cli_ns: dict = {}
    for s in tracer.spans:
        if s[3] == "cli.run":
            cli_ns[s[2]] = s[5] - s[4]
        elif s[1] is None and layer_of(s[3]) != "trace":
            replay_ns[s[2]] = replay_ns.get(s[2], 0) + s[5] - s[4]
    cli_self = [ns - replay_ns.get(req, 0) for req, ns in cli_ns.items()]
    candidates = sum(tracer.counts("oracle.EnumSpace.candidates"))
    metrics = {
        "jacobi.defect_calls": len(defect),
        "jacobi.defect_busy_s": sum(defect) / 1e9,
        "jacobi.defect_us.p50": percentile(defect, 0.5) / 1e3,
        "jacobi.defect_us.p99": percentile(defect, 0.99) / 1e3,
        "jacobi.defect_share": sum(defect) / work_ns,
        "jacobi.defect_terms_out": sum(tracer.counts("jacobi.defect")),
        "poly.parse_ms.p50": percentile(d("poly.MultiPoly.parse"), 0.5) / 1e6,
        "oracle.candidates_s": sum(d("oracle.EnumSpace.candidates")) / 1e9,
        "oracle.predict_s": sum(d("oracle.predicted_solutions")) / 1e9,
        "oracle.self_s": sum(own[s[0]] for s in tracer.spans
                             if s[3] == "oracle.enumerate_solutions") / 1e9,
        "oracle.accept_ratio":
            sum(tracer.counts("oracle.enumerate_solutions")) / candidates,
        "classify.calls": len(d("classify.classify")),
        "classify.us.p50": percentile(d("classify.classify"), 0.5) / 1e3,
        "cli.self_ms.p50": percentile(cli_self, 0.5) / 1e6,
        "numtheory.binom_ns": sum(d("numtheory.binom_mod_p"))
            / sum(tracer.counts("numtheory.binom_mod_p")),
        "numtheory.lucas_factors_ns": sum(d("numtheory.lucas_factors"))
            / sum(tracer.counts("numtheory.lucas_factors")),
        "numtheory.is_prime_ms.p50":
            percentile(d("numtheory.is_prime"), 0.5) / 1e6,
        "trace.overhead_share": overhead_share,
    }
    metrics.update(operands)
    bases = {
        "oracle.accept_ratio": f"{sum(tracer.counts('oracle.enumerate_solutions'))}"
                               f" solutions of {candidates} candidates",
        "jacobi.defect_share": f"defect busy time over {work_ns / 1e9:.3f} s "
                               "of traced workload time",
    }
    return metrics, bases


def run_one(args) -> int:
    import jacobipoly

    if Path(jacobipoly.__file__).resolve().parent != (SRC / "jacobipoly").resolve():
        print(f"error: imported jacobipoly from {jacobipoly.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = environment(args)
    tally = workloads.Tally()
    record = {"environment": env}
    if args.trace:
        wanted = declared_metrics("per_layer")
        work = workloads.make_workload(args.workload, args.seed)
        tracer = Tracer()
        with clock.SpeedGauge() as gauge:
            stretches = work.traced(args.seconds, tally, tracer)
            probes = [probe.traced(0, tally, tracer)
                      for probe in workloads.probe_workloads()]
        operands = workloads.operand_timings()
        tracer.calibrate(gauge.calibrated)

        def total_ns(key, groups):
            return sum(gauge.cost(t0, t1) for g in groups for t0, t1 in g[key])

        plain = total_ns("plain", [stretches])
        traced = total_ns("traced", [stretches])
        overhead_share = traced / plain - 1
        everything = [stretches] + probes
        work_ns = total_ns("traced", everything) - total_ns("instrument", everything)
        metrics, record["bases"] = per_layer_metrics(
            tracer, work_ns, overhead_share, operands)
        record["layer_self_s"] = tracer.layer_self_s()
        record["overhead"] = {"plain_s": plain / 1e9, "traced_s": traced / 1e9,
                              "overhead_share": overhead_share}
        record["speed_samples"] = gauge.samples
        record["median_slowdown"] = gauge.median_slowdown
        spans_name = f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / spans_name)
        record["spans_file"] = spans_name
        record["span_count"] = len(tracer.spans)
    else:
        wanted = declared_metrics("end_to_end")
        setup, raw_setup = setup_seconds(workloads.SETUP_RINGS[args.workload])
        work = workloads.make_workload(args.workload, args.seed)
        with clock.SpeedGauge() as gauge:
            work.timed(args.seconds, tally)
        metrics = work.summary(gauge.cost)
        raw = work.summary(lambda t0, t1: t1 - t0)
        raw["setup_s"] = raw_setup
        record["raw_wall"] = raw
        record["samples"] = metrics.pop("samples")
        record["speed_samples"] = gauge.samples
        record["median_slowdown"] = gauge.median_slowdown
        metrics["setup_s"] = setup
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                           "do not match BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    record.update(result)
    record["error_rate"] = tally.failed / max(tally.attempted, 1)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    alias = {} if args.trace else ALIASES[args.workload]
    raw = record.get("raw_wall", {})
    print(f"env {json.dumps(env)}")
    for metric, unit in wanted.items():
        also = f"  ({alias[metric]})" if metric in alias else ""
        if metric in raw:
            also += f"  raw wall {raw[metric]:.6g}"
        print(f"{args.workload}  {metric}  {metrics[metric]:.6g} {unit}{also}")
    print(f"{args.workload}  error_rate  {tally.failed}/{tally.attempted}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    summary = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            print("\n".join(lines[1:-1]), flush=True)
            summary[workload] = json.loads(lines[-1])
    OUT.mkdir(exist_ok=True)
    name = f"all-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"results in {OUT.relative_to(ROOT) / name}; "
          f"{'all checks passed' if status == 0 else 'SOME CHECKS FAILED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jacobipoly" / "__init__.py").is_file():
        print(f"error: no jacobipoly sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
