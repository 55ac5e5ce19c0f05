"""Seeded inputs and independent verdict checks for the benchmark workloads.

Every workload turns a seed into input files and one *operation*: the list
of processes whose outputs together give one checked verdict.  Expected
answers come from outside the package: the Smith-Stafford Hilbert function
binom(d+3,3) of the 4-dimensional Sklyanin algebra, the Hilbert series
1/((1-t)^3 (1-t^2)) of the Rogalski-Zhang twist sources, symmetry of an
exponent form decided in integers mod n, and the `report` battery's fixed
SYNTACTIC verdicts.  `corrupt=True` shifts every expected answer by one so
that a self-test can see each miss counted as a failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Callable, Optional

TWIST_SOURCES = ("A(1,-1)", "B(1)", "E(1,i)", "G(1,(1+i)/2)")
SKLYANIN_PARAMS = (Fraction(2), Fraction(3))     # gamma = -(a+b)/(1+ab) = -5/7


@dataclass
class Step:
    """One process of an operation: `python -m cotwist.cli <argv>` for entry
    "cli", the cocycle driver in `shim.py` for entry "cocycles".  `check`
    gets the process's stdout and returns None or what went wrong."""

    name: str
    entry: str
    argv: tuple
    check: Callable[[bytes], Optional[str]]


@dataclass
class Workload:
    name: str
    setup_input: Path              # what `shim.py setup` loads and validates
    steps: list                    # one operation, run in order


def _json(stdout: bytes):
    return json.loads(stdout.decode("utf-8"))


# ---------------------------------------------------------------------------
# sklyanin-gb
# ---------------------------------------------------------------------------
# The one workload where Groebner completion and scalar arithmetic on a
# growing basis dominate: the deglex basis of the 4-dimensional Sklyanin
# algebra never becomes finite (18, 31, 42 elements at degrees 6, 7, 8), and
# degree 7 costs about ten seconds per `gb`.  The Klein-four sign action
# g1 = diag(1,1,-1,-1), g2 = diag(1,-1,1,-1) with the Klein duality and
# cocycle twists it, and the twist must keep the Hilbert function.
#
# The parameters stay at (alpha, beta, gamma) = (2, 3, -5/7): other draws move
# the time of one `gb` between 7 and 11 seconds, and a run holds only two or
# three `gb` processes.  The seed instead re-signs the generators
# (x_i -> s_i x_i) and rescales each relation, which changes every input
# byte but, up to signs, none of the arithmetic.

def sklyanin_relations(alpha: Fraction, beta: Fraction, signs, scales) -> list:
    gamma = -(alpha + beta) / (1 + alpha * beta)
    params = {1: alpha, 2: beta, 3: gamma}
    s = signs
    rels = []
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        # x0 xi - xi x0 = alpha_i (xj xk + xk xj);  x0 xi + xi x0 = xj xk - xk xj
        rels.append((f"({s[0] * s[i]})*(x0*x{i} - x{i}*x0)"
                     f" - ({params[i] * s[j] * s[k]})*(x{j}*x{k} + x{k}*x{j})"))
        rels.append((f"({s[0] * s[i]})*(x0*x{i} + x{i}*x0)"
                     f" - ({s[j] * s[k]})*(x{j}*x{k} - x{k}*x{j})"))
    return [f"({c})*({r})" for c, r in zip(scales, rels)]


def sklyanin_spec(rng: random.Random) -> dict:
    signs = [rng.choice((1, -1)) for _ in range(4)]
    scales = [rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))
              for _ in range(6)]
    diag = lambda d: [[str(d[r]) if r == c else "0" for c in range(4)]
                      for r in range(4)]
    return {
        "generators": [{"name": f"x{n}", "degree": 1} for n in range(4)],
        "relations": sklyanin_relations(*SKLYANIN_PARAMS, signs, scales),
        "group": [2, 2],
        "duality": {"builtin": "klein"},
        "cocycle": {"builtin": "klein"},
        "action": [{"generator": "g1", "matrix": diag((1, 1, -1, -1))},
                   {"generator": "g2", "matrix": diag((1, -1, 1, -1))}],
    }


def _hilbert_check(expected: list) -> Callable:
    def check(stdout: bytes) -> Optional[str]:
        got = _json(stdout)["hilbert"]
        if got != expected:
            return f"hilbert {got} != binom(d+3,3) prefix {expected}"
        return None
    return check


def sklyanin_gb(seed: int, workdir: Path, tiny: bool, corrupt: bool) -> Workload:
    degree = 4 if tiny else 7
    spec = workdir / "sklyanin.json"
    twisted = workdir / "sklyanin-twisted.json"
    spec.write_text(json.dumps(sklyanin_spec(random.Random(seed)), indent=1))
    expected = [comb(d + 3, 3) for d in range(degree + 1)]
    if corrupt:
        expected[-1] += 1

    def check_twist(stdout: bytes) -> Optional[str]:
        # `gb` cannot read twist output as it stands: keep the presentation
        presentation = _json(stdout)["presentation"]
        if len(presentation["generators"]) != 4 or len(presentation["relations"]) != 6:
            return "twisted presentation lost generators or relations"
        twisted.write_text(json.dumps(presentation))
        return None

    gb = ("gb", "--degree", str(degree), "--input")
    steps = [
        Step("twist", "cli", ("twist", "--input", str(spec)), check_twist),
        Step("gb-source", "cli", gb + (str(spec),), _hilbert_check(expected)),
        Step("gb-twisted", "cli", gb + (str(twisted),), _hilbert_check(expected)),
    ]
    return Workload("sklyanin-gb", spec, steps)


# ---------------------------------------------------------------------------
# crossed-invariants
# ---------------------------------------------------------------------------
# Thousands of `normal_form` calls against a small finite basis, plus
# crossed-product multiplication, character evaluation and rank; completion
# is negligible, so a completion-only change should show no effect here.
# The four twist sources differ in time by up to 30%, so one operation runs
# all four and the seed only picks their order.

def _regular_dims(degree: int) -> list:
    """Coefficients of 1/((1-t)^3 (1-t^2)), the Hilbert series of the
    Rogalski-Zhang algebras (two quadratic and two cubic relations)."""
    cube = [comb(d + 2, 2) for d in range(degree + 1)]
    return [sum(cube[d - 2 * k] for k in range(d // 2 + 1))
            for d in range(degree + 1)]


def crossed_invariants(seed: int, workdir: Path, tiny: bool,
                       corrupt: bool) -> Workload:
    degree = 3 if tiny else 7
    order = list(TWIST_SOURCES)
    random.Random(seed).shuffle(order)
    names = workdir / "presets.json"
    names.write_text(json.dumps({"presets": order}))
    expected = _regular_dims(degree)
    if corrupt:
        expected[-1] += 1

    def check(stdout: bytes) -> Optional[str]:
        out = _json(stdout)
        if out["pass"] is not True:
            return "invariants pass is not true"
        rows = [(r["degree"], r["invariants"], r["algebra"], r["twisted"])
                for r in out["dims"]]
        want = [(d, n, n, n) for d, n in enumerate(expected)]
        if rows != want:
            return f"dims {rows} != {want}"
        return None

    steps = []
    for name in order:
        args = ("invariants", "--input", f"preset:{name}", "--degree", str(degree))
        steps.append(Step(f"invariants {name}", "cli", args, check))
    return Workload("crossed-invariants", names, steps)


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------
# No CLI command and no other workload reaches `is_coboundary`, and `report`
# only touches C2 x C2.  On C6 x C6 formula validation takes seconds and the
# symmetric `is_coboundary` about ten.  Each group gets a seeded symmetric
# exponent form and a seeded non-symmetric one; one entry is a unit mod n so
# that every draw has values of full order n and costs the same.

def exponent_form(rng: random.Random, n: int, symmetric: bool) -> list:
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    m11, m22 = rng.choice(units), rng.randrange(n)
    m12 = rng.randrange(n)
    m21 = m12 if symmetric else (m12 + rng.randrange(1, n)) % n
    return [[m11, m12], [m21, m22]]


def cocycle_formula(n: int, form: list) -> str:
    terms = " + ".join(f"{form[j][k]}*a{j + 1}*b{k + 1}"
                       for j in range(2) for k in range(2))
    return f"zeta({n})^({terms})"


def cocycles(seed: int, workdir: Path, tiny: bool, corrupt: bool) -> Workload:
    rng = random.Random(seed)
    cases, expected = [], []
    for n in ((2, 3) if tiny else (4, 6)):
        for symmetric in (True, False):
            form = exponent_form(rng, n, symmetric)
            cases.append({"factors": [n, n], "formula": cocycle_formula(n, form)})
            # coboundary iff the exponent form is symmetric mod n
            expected.append((form[0][1] - form[1][0]) % n == 0)
    if corrupt:
        expected[0] = not expected[0]
    path = workdir / "cocycles.json"
    path.write_text(json.dumps(cases, indent=1))

    def check(stdout: bytes) -> Optional[str]:
        got = [v["coboundary"] for v in _json(stdout)]
        if got != expected:
            return f"coboundary verdicts {got} != {expected}"
        return None

    return Workload("cocycles", path, [Step("cocycles", "cocycles", (str(path),), check)])


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
# The paper's headline command: many small calls across every layer, with
# set-up a large share of its time and the heaviest reuse of the
# process-global Groebner cache (148 calls on 24 distinct keys).  The
# battery is fixed; it ignores the seed.

REPORT_PAIRS = {"A(1,-1)": "D(1,1)", "B(1)": "C(1)", "E(1,i)": "E(1,-i)",
                "G(1,(1+i)/2)": "G(1,(1-i)/2)"}


def report(seed: int, workdir: Path, tiny: bool, corrupt: bool) -> Workload:
    degree = 4 if tiny else 6
    pairs = dict(REPORT_PAIRS)
    if corrupt:
        pairs["B(1)"] = "D(1,1)"
    expected_dims = _regular_dims(degree)
    path = workdir / "report.json"
    path.write_text("{}")

    def check(stdout: bytes) -> Optional[str]:
        out = _json(stdout)
        if out["passed"] is not True:
            return "report passed is not true"
        got = {p["source"]: p["target"] for p in out["twist_suite"]["pairs"]
               if p["verdict"] == "SYNTACTIC"}
        if got != pairs:
            return f"SYNTACTIC pairs {got} != {pairs}"
        for entry in out["hilbert_preservation"]["presets"]:
            if entry["dims"] != expected_dims or entry["twist_dims"] != expected_dims:
                return f"hilbert dims of {entry['name']} != {expected_dims}"
        return None

    args = ("report", "--degree", str(degree))
    return Workload("report", path, [Step("report", "cli", args, check)])


WORKLOADS = {
    "sklyanin-gb": sklyanin_gb,
    "crossed-invariants": crossed_invariants,
    "cocycles": cocycles,
    "report": report,
}
