"""Command line front end.

Usage sketch:

  jacobipoly verify    --ring int "-2*x + 4*y"
  jacobipoly classify  --ring "zp:3[t]" --output json "(1+2*t^2)*x*y + ..."
  jacobipoly enumerate --ring zp:3 --max-deg 2 --form j1
  jacobipoly lucas 10 3 2
  jacobipoly families  --ring zp:3

Exit codes: 0 success / identity holds, 1 identity violated (or the
enumeration disagrees with the predicted set), 2 usage, parse or output errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from .classify import _families, classify, constant_solutions
from .errors import AlgebraError
from .jacobi import _XYZ, EquationForm, least_defect_term
from .numtheory import lucas_factors
from .oracle import EnumSpace, enumerate_solutions
from .poly import MultiPoly
from .rings import RingSpec

_FORM_TAGS = tuple(f.value for f in EquationForm)


def _witness_payload(witness):
    mono, coeff = witness
    term = MultiPoly._from_raw(coeff.spec, _XYZ, {mono.exponents: coeff.value})
    return {
        "monomial": mono.text(_XYZ),
        "coefficient": str(coeff),
        "term": str(term),
    }


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _cmd_verify(args) -> int:
    p = MultiPoly.parse(args.poly, RingSpec.parse(args.ring))
    form = EquationForm.from_tag(args.form)
    least = least_defect_term(p, form)
    if least is None:
        _emit(args, {"form": form.value, "verdict": "satisfied"},
              [f"{form.value} satisfied"])
        return 0
    witness = _witness_payload(least)
    _emit(args,
          {"form": form.value, "verdict": "violated", "witness": witness},
          [f"{form.value} violated, witness {witness['term']}"])
    return 1


def _cmd_classify(args) -> int:
    res = classify(MultiPoly.parse(args.poly, RingSpec.parse(args.ring)))
    if res.is_solution:
        fam = res.family
        params = {k: str(v) for k, v in fam.coefficients().items()}
        _emit(args,
              {"verdict": "solution", "family": fam.name, "params": params},
              [f"solution: {fam.name} with "
               + ", ".join(f"{k} = {v}" for k, v in params.items())])
        return 0
    witness = _witness_payload(res.witness)
    _emit(args,
          {"verdict": "not_jacobi", "witness": witness},
          [f"not a solution, defect witness {witness['term']}"])
    return 1


def _cmd_enumerate(args) -> int:
    spec = RingSpec.parse(args.ring)
    space = EnumSpace(spec, args.max_deg, args.coeff_bound)
    form = EquationForm.from_tag(args.form)
    t0 = time.perf_counter()
    report = enumerate_solutions(space, form)
    elapsed = time.perf_counter() - t0
    solutions = [str(s) for s in report.solutions]
    payload = {
        "form": form.value,
        "ring": str(spec),
        "max_deg_per_var": args.max_deg,
        "coeff_bound": args.coeff_bound,
        "candidates": space.candidate_count,
        "solutions": solutions,
        "agreement": report.agreement,
        "max_solution_degrees": list(report.max_solution_degrees),
        "formally_checked": report.checked,
        "search_nodes": report.nodes,
        "elapsed_seconds": round(elapsed, 3),
    }
    lines = [
        f"{form.value} over {spec}, max deg {args.max_deg}"
        + (f", |coeff| <= {args.coeff_bound}" if args.coeff_bound else ""),
        f"candidates {space.candidate_count}, solutions "
        f"{len(solutions)}, agreement {report.agreement}, "
        f"{elapsed:.2f}s",
    ]
    lines += [f"  {s}" for s in solutions]
    _emit(args, payload, lines)
    return 0 if report.agreement else 1


def _cmd_lucas(args) -> int:
    factors = lucas_factors(args.n, args.m, args.p)
    residue = math.prod(f for _, _, f in factors) % args.p
    payload = {
        "n": args.n,
        "m": args.m,
        "p": args.p,
        "residue": residue,
        "factors": [
            {"n_digit": ni, "m_digit": mi, "factor": f}
            for ni, mi, f in factors
        ],
    }
    lines = [f"C({args.n}, {args.m}) mod {args.p} = {residue}"]
    lines += [f"  position {i}: C({ni}, {mi}) mod {args.p} = {f}"
              for i, (ni, mi, f) in enumerate(factors)]
    _emit(args, payload, lines)
    return 0


def _cmd_families(args) -> int:
    spec = RingSpec.parse(args.ring)
    char = spec.characteristic
    fams = _families(char)
    constants = ("every constant" if constant_solutions(spec)
                 else "only the zero constant") + f" (characteristic {char})"
    payload = {
        "ring": str(spec),
        "characteristic": char,
        "families": [
            {"family": f.name, "shape": f.shape, "condition": f.condition}
            for f in fams
        ],
        "constants": constants,
    }
    lines = [f"ring {spec}, characteristic {char}"]
    lines += [f"  {f.name}: P = {f.shape} with {f.condition}" for f in fams]
    lines.append(f"  constants: {constants}")
    _emit(args, payload, lines)
    return 0


# built on the first run, not at import, and reused by every later run
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobipoly",
        description="Verify, classify, and exhaustively enumerate the "
                    "bivariate polynomial solutions of composition "
                    "identities over exact rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("human", "json"),
                        default="human", help="output format")
    ringed = argparse.ArgumentParser(add_help=False)
    ringed.add_argument("--ring", required=True,
                        help="int | zp:<p> | zp:<p>[<var>]")

    v = sub.add_parser("verify", parents=[common, ringed],
                       help="check one polynomial against one identity")
    v.add_argument("--form", choices=_FORM_TAGS, default="j1")
    v.add_argument("poly", help="bivariate polynomial in x, y")
    v.set_defaults(handler=_cmd_verify)

    c = sub.add_parser("classify", parents=[common, ringed],
                       help="name the solution family or show a witness")
    c.add_argument("poly", help="bivariate polynomial in x, y")
    c.set_defaults(handler=_cmd_classify)

    e = sub.add_parser("enumerate", parents=[common, ringed],
                       help="scan a finite coefficient space exhaustively")
    e.add_argument("--form", choices=_FORM_TAGS, default="j1")
    e.add_argument("--max-deg", type=int, required=True,
                   help="degree cap per variable")
    e.add_argument("--coeff-bound", type=int, default=None,
                   help="coefficient box bound (integers only)")
    e.set_defaults(handler=_cmd_enumerate)

    l = sub.add_parser("lucas", parents=[common],
                       help="binomial residue with digitwise breakdown")
    l.add_argument("n", type=int)
    l.add_argument("m", type=int)
    l.add_argument("p", type=int)
    l.set_defaults(handler=_cmd_lucas)

    f = sub.add_parser("families", parents=[common, ringed],
                       help="list the solution families for a ring")
    f.set_defaults(handler=_cmd_families)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    try:
        status = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `head` does
        # what is left goes to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    raise SystemExit(status)
