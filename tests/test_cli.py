import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

import jacobipoly
from jacobipoly import (EnumSpace, EquationForm, RingSpec,
                        enumerate_solutions)
from jacobipoly.cli import run

GOLDEN = ("(1+2*t^2)*x*y + (1+t+2*t^2+2*t^3)*x + (1+t+2*t^2+2*t^3)*y"
          " + (t+t^3+2*t^4)")


def test_verify_satisfied(capsys):
    assert run(["verify", "--ring", "int", "-2*x + 4*y"]) == 0
    assert "satisfied" in capsys.readouterr().out


def test_verify_golden(capsys):
    assert run(["verify", "--ring", "zp:3[t]", "--form", "j1", GOLDEN]) == 0
    assert "satisfied" in capsys.readouterr().out


def test_verify_violated_witness(capsys):
    assert run(["verify", "--ring", "int", "x*y"]) == 1
    assert "3*x*y*z" in capsys.readouterr().out


def test_verify_json(capsys):
    assert run(["verify", "--ring", "int", "--output", "json", "x*y"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "violated"
    assert payload["witness"]["monomial"] == "x*y*z"
    assert payload["witness"]["coefficient"] == "3"


def test_verify_other_forms(capsys):
    assert run(["verify", "--ring", "zp:3", "--form", "j2", "x*y"]) == 0
    assert run(["verify", "--ring", "zp:3", "--form", "j5", "x*y"]) == 1


def test_classify_solution_json(capsys):
    assert run(["classify", "--ring", "zp:3[t]", "--output", "json", GOLDEN]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "solution"
    assert payload["family"] == "char3_product"
    assert payload["params"] == {
        "A": "1+2*t^2",
        "B": "1+t+2*t^2+2*t^3",
        "D": "t+t^3+2*t^4",
    }


def test_classify_not_jacobi(capsys):
    assert run(["classify", "--ring", "int", "--output", "json", "x^2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "not_jacobi"
    assert payload["witness"]["monomial"] == "z^4"


def test_classify_human(capsys):
    assert run(["classify", "--ring", "int", "-2*x + 4*y"]) == 0
    out = capsys.readouterr().out
    assert "linear_bc" in out and "B = -2" in out


def test_enumerate_json(capsys):
    assert run(["enumerate", "--ring", "zp:2", "--max-deg", "1",
                "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solutions"] == ["0"]
    assert payload["agreement"] is True
    assert payload["candidates"] == 16
    assert "elapsed_seconds" in payload


def test_enumerate_json_layout(capsys):
    argv = ["enumerate", "--ring", "int", "--max-deg", "1", "--coeff-bound",
            "2", "--output", "json"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == [
        "agreement", "candidates", "coeff_bound", "elapsed_seconds", "form",
        "formally_checked", "max_deg_per_var", "max_solution_degrees",
        "ring", "search_nodes", "solutions"]
    assert payload["ring"] == "int" and payload["coeff_bound"] == 2
    assert payload["max_deg_per_var"] == 1
    assert payload["candidates"] == 625
    assert payload["form"] == "j1"
    assert payload["agreement"] is True
    assert payload["solutions"] == ["0"]
    assert payload["max_solution_degrees"] == [-1, -1]
    # the same scan writes the same JSON, but for its elapsed time
    assert run(argv) == 0
    again = json.loads(capsys.readouterr().out)
    del payload["elapsed_seconds"], again["elapsed_seconds"]
    assert again == payload


def test_enumerate_integer_box(capsys):
    assert run(["enumerate", "--ring", "int", "--max-deg", "1",
                "--coeff-bound", "4", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["solutions"]) == ["-2*x + 4*y", "0"]


def test_enumerate_budget_error(capsys):
    # 10^8 coefficient values, more than the search may try
    assert run(["enumerate", "--ring", "zp:99999989", "--max-deg", "0"]) == 2
    assert "budget" in capsys.readouterr().err
    # the bound is fixed: there is no flag to raise it
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "--ring", "zp:3", "--max-deg", "2",
             "--budget", "100"])
    assert exc.value.code == 2


def test_enumerate_refuses_a_huge_space_at_once(capsys):
    # 3^10201 candidates: the refusal must not format the count
    t0 = time.perf_counter()
    assert run(["enumerate", "--ring", "zp:3", "--max-deg", "100"]) == 2
    assert "budget" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0
    # a degree cap past the int-to-text limit: the refusal names the limit
    t0 = time.perf_counter()
    assert run(["enumerate", "--ring", "zp:3", "--max-deg",
                "1" + "0" * 4000]) == 2
    assert "budget" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0


def test_enumerate_missing_bound(capsys):
    assert run(["enumerate", "--ring", "int", "--max-deg", "1"]) == 2
    assert "coeff_bound" in capsys.readouterr().err


def test_lucas(capsys):
    assert run(["lucas", "10", "3", "2"]) == 0
    assert "C(10, 3) mod 2 = 0" in capsys.readouterr().out
    assert run(["lucas", "10", "3", "2", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residue"] == 0
    assert payload["factors"][0] == {"n_digit": 0, "m_digit": 1, "factor": 0}


def test_lucas_nonprime(capsys):
    assert run(["lucas", "10", "3", "4"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_families(capsys):
    assert run(["families", "--ring", "zp:3", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["characteristic"] == 3
    assert [f["family"] for f in payload["families"]] == \
        ["char3_product", "char3_affine"]

    assert run(["families", "--ring", "int"]) == 0
    out = capsys.readouterr().out
    assert "linear_bc" in out and "only the zero constant" in out


def test_parse_errors_exit_2(capsys):
    assert run(["verify", "--ring", "int", "x + q"]) == 2
    assert run(["verify", "--ring", "zp:9", "x"]) == 2
    assert run(["verify", "--ring", "bogus", "x"]) == 2
    assert run(["classify", "--ring", "int", "x +"]) == 2
    assert run(["verify", "--ring", "int", "x^2^3"]) == 2
    capsys.readouterr()


def test_deep_coefficient_nesting_exits_2(capsys):
    text = "(" * 3000 + "t" + ")" * 3000 + "*x"
    start = time.perf_counter()
    assert run(["verify", "--ring", "zp:3[t]", text]) == 2
    assert time.perf_counter() - start < 1
    assert "nested deeper" in capsys.readouterr().err


def test_runs_in_one_process_do_not_share_options(capsys):
    assert run(["verify", "--ring", "zp:3", "--form", "j5", "x*y"]) == 1
    assert capsys.readouterr().out.startswith("j5 violated")
    assert run(["verify", "--ring", "zp:3", "x*y"]) == 0
    assert capsys.readouterr().out == "j1 satisfied\n"
    assert run(["verify", "--ring", "int", "--output", "json", "x"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "violated"
    assert run(["verify", "--ring", "int", "x"]) == 1
    assert capsys.readouterr().out.startswith("j1 violated, witness ")


def test_oversized_input_exits_2(capsys):
    assert run(["verify", "--ring", "int", "2^999999999*x"]) == 2
    assert run(["verify", "--ring", f"zp:{2**89 - 1}", "x"]) == 2
    assert run(["lucas", "10", "3", str(2**89 - 1)]) == 2
    capsys.readouterr()


def test_unbounded_defect_exits_2(capsys):
    start = time.perf_counter()
    assert run(["verify", "--ring", "int", "x^100000 + y"]) == 2
    assert time.perf_counter() - start < 1
    assert "ring operations" in capsys.readouterr().err


def test_coefficient_too_large_to_print_exits_2(capsys):
    # fifteen factors, each within the coefficient power bound
    text = "*".join(["2^1024"] * 15) + "*x"
    assert run(["verify", "--ring", "int", text]) == 2
    assert "too many decimal digits to print" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        run(["verify", "--ring", "int", "--bogus-flag", "x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run([])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jacobipoly", "verify", "--ring", "int",
         "-2*x + 4*y"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "satisfied" in proc.stdout


# Modules that `dataclasses` and `typing` bring in.  Every command starts a
# fresh interpreter, and importing these took about three times as long as
# the package's own code.
HEAVY_MODULES = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def test_the_import_loads_no_heavy_modules():
    # -I -S: no environment, user site or site hooks that load modules first
    src = str(pathlib.Path(jacobipoly.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "before = set(sys.modules); import jacobipoly.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "jacobipoly.cli" in loaded
    assert not loaded & HEAVY_MODULES, sorted(loaded & HEAVY_MODULES)


@pytest.mark.parametrize("output", ["json", "human"])
def test_closed_stdout_exits_2_quietly(output):
    # a pipe whose reader is gone before the first write, as after `head`
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jacobipoly", "enumerate", "--ring", "zp:3",
             "--max-deg", "2", "--output", output],
            stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == ""


FAMILIES_HUMAN = {
    "int": """\
ring int, characteristic 0
  linear_bc: P = B*x + C*y with B^2 + B*C + C = 0
  constants: only the zero constant (characteristic 0)
""",
    "zp:2": """\
ring zp:2, characteristic 2
  linear_bc: P = B*x + C*y with B^2 + B*C + C = 0
  constants: only the zero constant (characteristic 2)
""",
    "zp:3": """\
ring zp:3, characteristic 3
  char3_product: P = A*x*y + B*(x+y) + D with A*D = B^2 - B
  char3_affine: P = B*x + C*y + D with B^2 + B*C + C = 0
  constants: every constant (characteristic 3)
""",
    "zp:3[t]": """\
ring zp:3[t], characteristic 3
  char3_product: P = A*x*y + B*(x+y) + D with A*D = B^2 - B
  char3_affine: P = B*x + C*y + D with B^2 + B*C + C = 0
  constants: every constant (characteristic 3)
""",
}

LINEAR_JSON = """\
    {
      "condition": "B^2 + B*C + C = 0",
      "family": "linear_bc",
      "shape": "B*x + C*y"
    }"""

CHAR3_JSON = """\
    {
      "condition": "A*D = B^2 - B",
      "family": "char3_product",
      "shape": "A*x*y + B*(x+y) + D"
    },
    {
      "condition": "B^2 + B*C + C = 0",
      "family": "char3_affine",
      "shape": "B*x + C*y + D"
    }"""


def _families_json(ring, char, constants, families):
    return f"""\
{{
  "characteristic": {char},
  "constants": "{constants}",
  "families": [
{families}
  ],
  "ring": "{ring}"
}}
"""


FAMILIES_JSON = {
    "int": _families_json(
        "int", 0, "only the zero constant (characteristic 0)", LINEAR_JSON),
    "zp:2": _families_json(
        "zp:2", 2, "only the zero constant (characteristic 2)", LINEAR_JSON),
    "zp:3": _families_json(
        "zp:3", 3, "every constant (characteristic 3)", CHAR3_JSON),
    "zp:3[t]": _families_json(
        "zp:3[t]", 3, "every constant (characteristic 3)", CHAR3_JSON),
}


@pytest.mark.parametrize("ring", sorted(FAMILIES_HUMAN))
def test_families_exact_output(capsys, ring):
    assert run(["families", "--ring", ring]) == 0
    assert capsys.readouterr().out == FAMILIES_HUMAN[ring]
    assert run(["families", "--ring", ring, "--output", "json"]) == 0
    assert capsys.readouterr().out == FAMILIES_JSON[ring]


# (ring, polynomial, human line, JSON family and params) of solutions
CLASSIFY_GOLDEN = (
    ("zp:3[t]", GOLDEN,
     "solution: char3_product with A = 1+2*t^2, B = 1+t+2*t^2+2*t^3, "
     "D = t+t^3+2*t^4",
     "char3_product",
     {"A": "1+2*t^2", "B": "1+t+2*t^2+2*t^3", "D": "t+t^3+2*t^4"}),
    ("int", "-2*x + 4*y", "solution: linear_bc with B = -2, C = 4",
     "linear_bc", {"B": "-2", "C": "4"}),
    ("zp:3", "x + y", "solution: char3_affine with B = 1, C = 1, D = 0",
     "char3_affine", {"B": "1", "C": "1", "D": "0"}),
    ("zp:3", "x*y", "solution: char3_product with A = 1, B = 0, D = 0",
     "char3_product", {"A": "1", "B": "0", "D": "0"}),
)


@pytest.mark.parametrize("ring, poly, human, family, params",
                         CLASSIFY_GOLDEN)
def test_classify_exact_output(capsys, ring, poly, human, family, params):
    assert run(["classify", "--ring", ring, poly]) == 0
    assert capsys.readouterr().out == human + "\n"
    assert run(["classify", "--ring", ring, "--output", "json", poly]) == 0
    payload = {"family": family, "params": params, "verdict": "solution"}
    assert capsys.readouterr().out == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _readme_examples():
    """(command, expected output) for every ``$ jacobipoly ...`` example in
    README.md: the command with its continuation lines, and the lines after
    it up to a blank line or the end of the code block."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text() \
        .splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ jacobipoly "):
            i += 1
            continue
        command = lines[i][2:]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        i += 1
        out = []
        while lines[i] and lines[i] != "```":
            out.append(lines[i])
            i += 1
        examples.append((command, "".join(line + "\n" for line in out)))
    return examples


# the elapsed time that `enumerate` prints differs from run to run
_ELAPSED = re.compile(r"[0-9]+\.[0-9]+s$", re.M)


@pytest.mark.parametrize("command, expected", _readme_examples())
def test_readme_examples(capsys, command, expected):
    run(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert _ELAPSED.sub("<elapsed>", out) == \
        _ELAPSED.sub("<elapsed>", expected)


def test_readme_library_example():
    """Run the README's ```python block: each expression's repr must equal
    its ``# ...`` comment, written after it or on the next line."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    source = re.search(r"^```python\n(.*?)^```$", text, re.M | re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not comment and stmt.end_lineno < len(lines):
            comment = lines[stmt.end_lineno].strip()
        assert comment.startswith("# "), f"no result given for {code}"
        assert repr(eval(code, namespace)) == comment[2:], code
        checked += 1
    assert checked


def test_enumerate_json_counts_formal_checks(capsys):
    # the search rules out every non-solution, so only the 12 solutions
    # reach the formal defect
    assert run(["enumerate", "--ring", "zp:3", "--max-deg", "1",
                "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"] == 81 and len(payload["solutions"]) == 12
    assert payload["formally_checked"] == 12
    # the search's node count is the library's
    rep = enumerate_solutions(EnumSpace(RingSpec.parse("zp:3"), 1),
                              EquationForm.J1)
    assert payload["search_nodes"] == rep.nodes >= 12
