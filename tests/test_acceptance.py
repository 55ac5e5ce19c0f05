"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-5 and 7 assert on the records of the named checks in
`cotwist.presets.CHECKS`, the table `report` and `theorem55` run; that each
check can fail is tested in `test_presets.py`.  Criteria 2, 6 and 8 compare
with the independent brute-force oracles in `oracles.py`.

Everything is exact arithmetic, so all value tolerances are equalities; the
only numeric budgets are the stated runtime limits, measured after clearing
the Groebner cache so each criterion is timed cold.
"""

import random
import time

from cotwist import gbasis
from cotwist.cyclo import CycNum
from cotwist.freealg import NcPoly
from cotwist.gbasis import hilbert_coeffs, normal_form, truncated_gb
from cotwist.groups import AbGroup, is_coboundary, schur_order, validate_cocycle
from cotwist.presets import CHECKS, PRESET_NAMES, preset
from oracles import (ExpGroup, brute_force_is_coboundary, cocycle_class_count,
                     enumerate_cocycles, quotient_dims)
from support import strategy_normal_form

KLEIN = AbGroup((2, 2))


def report_line(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_twist_suite_reproduction():
    gbasis._GB_CACHE.clear()
    start = time.perf_counter()
    report = CHECKS["twist_suite"](6)
    elapsed = time.perf_counter() - start
    ok = report["pass"]
    by_source = {p["source"]: p for p in report["pairs"]}
    ok = ok and all(p["verdict"] == "SYNTACTIC" for p in report["pairs"])
    ok = ok and by_source["A(1,-1)"]["scalars"] == ["1", "1", "1", "-1"]
    ok = ok and by_source["B(1)"]["scalars"] == ["1", "1", "1", "1"]
    ok = ok and by_source["E(1,i)"]["scalars"][3] == "-1"
    ok = ok and by_source["G(1,(1+i)/2)"]["scalars"][3] == "-1"
    ok = ok and elapsed < 5.0
    report_line(1, ok,
                f"4/4 SYNTACTIC twist matches with expected scalar vectors "
                f"in {elapsed:.2f}s (< 5s)")


def test_criterion_2_hilbert_preservation():
    gbasis._GB_CACHE.clear()
    start = time.perf_counter()
    section = CHECKS["hilbert_preservation"](6)
    ok = section["pass"]
    ok = ok and [p["name"] for p in section["presets"]] == list(PRESET_NAMES)
    for entry in section["presets"]:
        ok = ok and entry["dims"] == entry["twist_dims"]
        ok = ok and len(entry["dims"]) == 7 and entry["dims"][:3] == [1, 3, 7]
        oracle = quotient_dims(preset(entry["name"]).presentation, 2)
        ok = ok and oracle[2] == 7
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report_line(2, ok,
                f"all 8 presets keep their degree<=6 Hilbert prefix under the "
                f"twist, prefix (1,3,7) confirmed by the dense degree-2 "
                f"oracle, in {elapsed:.2f}s (< 30s)")


def test_criterion_3_invariant_ring_construction():
    section = CHECKS["invariant_ring"](6)
    ok = section["pass"]
    ok = ok and [p["name"] for p in section["presets"]] == ["A(1,-1)", "B(1)"]
    details = []
    for entry in section["presets"]:
        ok = ok and entry["pass"] and entry["degree"] == 4
        ok = ok and [row["degree"] for row in entry["dims"]] == [0, 1, 2, 3, 4]
        ok = ok and all(row["invariants"] == row["algebra"] == row["twisted"]
                        for row in entry["dims"])
        details.append(f"{entry['name']}: dims "
                       f"{[row['invariants'] for row in entry['dims']]}")
    report_line(3, ok,
                "invariant-ring construction matches the twisted presentation "
                f"at degree 4 ({'; '.join(details)})")


def test_criterion_4_bimodule_components():
    section = CHECKS["bimodule_components"](6)
    ok = section["pass"]
    ok = ok and [c["g"] for c in section["components"]] == \
        [KLEIN.describe(g) for g in KLEIN.elements()]
    for component in section["components"]:
        ok = ok and component["pass"]
        ok = ok and [row[0] for row in component["dims"]] == [0, 1, 2, 3]
        ok = ok and all(iso == alg for _, iso, alg in component["dims"])
    report_line(4, ok,
                "all four isotypic components of the crossed product are "
                "free rank-1 on both sides with multiplicative scalings "
                "through degree 3")


def test_criterion_5_two_by_two_matrix_recognition():
    section = CHECKS["twisted_group_algebra"](6)
    # the untwisted group algebra is commutative, so its center dimension
    # is the dimension |G| = 4 of both algebras
    ok = (section["pass"]
          and section["plain_center_dim"] == 4
          and section["twisted_center_dim"] == 1
          and section["twisted_trace_rank"] == 4
          and section["is_full_matrix_algebra"] is True)
    report_line(5, ok,
                "the Klein twisted group algebra is 4-dimensional with a "
                "1-dimensional center and nondegenerate trace form "
                "(recognized as a 2x2 matrix algebra); the untwisted group "
                "algebra has a 4-dimensional center")


def test_criterion_6_cohomology_suite():
    start = time.perf_counter()
    ok = True
    checked = 0
    for factors in ((2, 2), (4,)):
        group = ExpGroup(factors)
        ab_group = AbGroup(factors)
        for table in enumerate_cocycles(group, 4):
            mu = validate_cocycle(ab_group, 4, {
                (g, h): table[a][b] for a, g in enumerate(group.elements)
                for b, h in enumerate(group.elements)})
            expected = brute_force_is_coboundary(group, table, 4)
            ok = ok and is_coboundary(mu)[0] == expected
            checked += 1
    schur_ok = (schur_order(AbGroup((2, 2))) == cocycle_class_count((2, 2), 2) == 2
                and schur_order(AbGroup((2,))) == cocycle_class_count((2,), 2) == 1
                and schur_order(AbGroup((3,))) == cocycle_class_count((3,), 3) == 1
                and schur_order(AbGroup((4,))) == cocycle_class_count((4,), 4) == 1
                and schur_order(AbGroup((3, 3))) == cocycle_class_count((3, 3), 3) == 3)
    ok = ok and schur_ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report_line(6, ok,
                f"coboundary criterion agrees with exhaustive witness search "
                f"on all {checked} mu_4-valued cocycles of C2xC2 and C4, and "
                f"the Schur orders 2/1/1/1/3 match brute-force class counts, "
                f"in {elapsed:.2f}s (< 60s)")


def test_criterion_7_structural_property_suite():
    double = CHECKS["double_twist"](6)
    ok = double["pass"]
    ok = ok and [p["name"] for p in double["presets"]] == list(PRESET_NAMES)

    rescale = CHECKS["coboundary_rescale"](6)
    ok = ok and rescale["pass"] and rescale["checked"] == 16

    regrade = CHECKS["regrade_compat"](6)
    ok = ok and regrade["pass"] and regrade["automorphisms"] == 6

    duality = CHECKS["duality_compat"](6)
    ok = ok and duality["pass"] and len(duality["witness"]) == 2

    regular = CHECKS["regularity_agreement"](6)
    ok = ok and regular["pass"]
    ok = ok and [p["name"] for p in regular["presets"]] == list(PRESET_NAMES)
    for entry in regular["presets"]:
        ok = ok and [v["generator"] for v in entry["verdicts"]] == ["w1", "w2", "w3"]
        ok = ok and all(v["before"] == v["after"] for v in entry["verdicts"])

    report_line(7, ok,
                "double-twist identity, coboundary twists as diagonal "
                "rescalings, grading/automorphism compatibility for all 6 "
                "automorphisms, duality-change witness found, and regularity "
                "verdicts agree before/after twisting to degree 4")


def test_criterion_8_gb_oracle_equivalence_and_confluence():
    ok = True
    for name in PRESET_NAMES:
        p = preset(name)
        ok = ok and hilbert_coeffs(p.presentation, 4) == \
            quotient_dims(p.presentation, 4)

    rng = random.Random(41)
    trials = 0
    per_preset = 125
    for name in PRESET_NAMES:
        pres = preset(name).presentation
        gb = truncated_gb(pres, 6)
        for _ in range(per_preset):
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                word = tuple(rng.randrange(3) for _ in range(rng.randrange(7)))
                terms[word] = CycNum.rational(rng.randrange(-3, 4), 4)
            poly = NcPoly(pres.generators, 4, terms)
            baseline = normal_form(poly, gb)
            ok = ok and strategy_normal_form(poly, gb, rng.choice) == baseline
            trials += 1
    ok = ok and trials == 1000
    report_line(8, ok,
                f"GB dimensions equal brute-force quotient dimensions for "
                f"every preset through degree 4, and {trials} randomized "
                f"normal-form confluence trials agree")
