"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic, so all value tolerances are equalities; the
only numeric budgets are the stated runtime limits, measured after clearing
the Groebner cache so each criterion is timed cold.
"""

import random
import time

from cotwist.crossed import (center_basis, is_full_matrix_algebra,
                             trace_form_rank, twisted_group_algebra,
                             verify_bimodule_component, verify_invariant_ring)
from cotwist.cyclo import CycNum
from cotwist.freealg import NcPoly
from cotwist.gbasis import (clear_cache, hilbert_coeffs, is_regular_to_degree,
                            normal_form, truncated_gb)
from cotwist.groups import (AbGroup, all_automorphisms, is_coboundary,
                            klein_duality, klein_mu, schur_order,
                            standard_duality, trivial_cocycle,
                            validate_cocycle)
from cotwist.presets import PRESET_NAMES, preset, run_twist_suite
from cotwist.twist import (coboundary_rescale_matches, double_twist,
                           twist_presentation, verify_duality_benign,
                           verify_regrade_compat)
from oracles import (ExpGroup, brute_force_is_coboundary, cocycle_class_count,
                     enumerate_cocycles, quotient_dims)

KLEIN = AbGroup((2, 2))


def report_line(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_twist_suite_reproduction():
    clear_cache()
    start = time.perf_counter()
    report = run_twist_suite(6)
    elapsed = time.perf_counter() - start
    ok = report["passed"]
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
    clear_cache()
    start = time.perf_counter()
    ok = True
    for name in PRESET_NAMES:
        p = preset(name)
        own = hilbert_coeffs(p.presentation, 6)
        twisted = twist_presentation(p.twist_spec())
        ok = ok and own == hilbert_coeffs(twisted.presentation, 6)
        ok = ok and own[:3] == (1, 3, 7)
        oracle = quotient_dims(p.presentation, 2)
        ok = ok and oracle[2] == 7
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report_line(2, ok,
                f"all 8 presets keep their degree<=6 Hilbert prefix under the "
                f"twist, prefix (1,3,7) confirmed by the dense degree-2 "
                f"oracle, in {elapsed:.2f}s (< 30s)")


def test_criterion_3_invariant_ring_construction():
    ok = True
    details = []
    for name in ("A(1,-1)", "B(1)"):
        report = verify_invariant_ring(preset(name).twist_spec(), 4)
        ok = ok and report.ok
        ok = ok and all(inv == alg for _, inv, alg, _ in report.dims_match)
        details.append(f"{name}: dims "
                       f"{[inv for _, inv, _, _ in report.dims_match]}")
    report_line(3, ok,
                "invariant-ring construction matches the twisted presentation "
                f"at degree 4 ({'; '.join(details)})")


def test_criterion_4_bimodule_components():
    spec = preset("A(1,-1)").twist_spec()
    ok = True
    for g in KLEIN.elements():
        report = verify_bimodule_component(spec, g, 3)
        ok = ok and report.ok
        ok = ok and all(iso == alg for _, iso, alg in report.component_dims)
    report_line(4, ok,
                "all four isotypic components of the crossed product are "
                "free rank-1 on both sides with multiplicative scalings "
                "through degree 3")


def test_criterion_5_two_by_two_matrix_recognition():
    alg = twisted_group_algebra(KLEIN, klein_mu(), 4)
    plain = twisted_group_algebra(KLEIN, trivial_cocycle(KLEIN), 4)
    ok = (alg.dim == 4
          and len(center_basis(alg)) == 1
          and trace_form_rank(alg) == 4
          and is_full_matrix_algebra(alg)
          and len(center_basis(plain)) == 4)
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
    ok = True
    for name in PRESET_NAMES:
        p = preset(name)
        ok = ok and double_twist(p.twist_spec()).presentation == p.presentation

    # generator rescalings by powers of i, as exponents mod 4
    rhos = [
        {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 1},
        {(0, 0): 0, (1, 0): 0, (0, 1): 1, (1, 1): 3},
    ]
    for name in PRESET_NAMES:
        spec = preset(name).twist_spec()
        for rho in rhos:
            ok = ok and coboundary_rescale_matches(spec, 4, rho)

    spec_a = preset("A(1,-1)").twist_spec()
    autos = all_automorphisms(KLEIN)
    ok = ok and len(autos) == 6
    for sigma in autos:
        ok = ok and verify_regrade_compat(spec_a, sigma)

    tau = verify_duality_benign(preset("A(1,-1)").action, klein_duality(),
                                standard_duality(KLEIN), klein_mu())
    ok = ok and tau is not None

    for name in PRESET_NAMES:
        p = preset(name)
        twisted = twist_presentation(p.twist_spec())
        for g in p.presentation.generators:
            before = is_regular_to_degree(p.presentation.gen_poly(g.index),
                                          p.presentation, 4)
            after = is_regular_to_degree(
                twisted.presentation.gen_poly(g.index),
                twisted.presentation, 4)
            ok = ok and before == after

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
            ok = ok and normal_form(poly, gb, chooser=rng.choice) == baseline
            trials += 1
    ok = ok and trials == 1000
    report_line(8, ok,
                f"GB dimensions equal brute-force quotient dimensions for "
                f"every preset through degree 4, and {trials} randomized "
                f"normal-form confluence trials agree")
