import heapq
import itertools
import json
import os
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cotwist import gbasis
from cotwist.cyclo import CycNum
from cotwist.errors import (AlphabetMismatch, ConductorMismatch,
                            DegreeBoundExceeded, ValidationError)
from cotwist.freealg import (GenMap, NcPoly, Presentation, deglex_key,
                             make_alphabet, make_presentation, parse_ncpoly,
                             word_degree)
from cotwist.gbasis import (hilbert_coeffs, ideal_contains,
                            is_regular_to_degree, normal_form, truncated_gb,
                            verify_iso)
from cotwist.jsonio import presentation_from_dict, spec_bundle_from_dict
from cotwist.presets import PRESET_NAMES, preset
from cotwist.twist import twist_presentation
from oracles import fraction_normal_form, quotient_dims, words_of_degree
from support import (a_family_xbasis, dense_is_regular_to_degree, fresh_gb,
                     lead_trie, matches, strategy_normal_form)

XY = make_alphabet([("x", 1), ("y", 1)])


def pres_xy(*relations, conductor=4):
    return make_presentation(conductor, XY,
                             [parse_ncpoly(r, XY, conductor) for r in relations])


def test_commuting_pair_gb():
    pres = pres_xy("x*y - y*x")
    gb = truncated_gb(pres, 5)
    assert len(gb.elements) == 1
    assert hilbert_coeffs(pres, 5) == (1, 2, 3, 4, 5, 6)


def test_free_algebra_has_empty_gb():
    gens = make_alphabet([("a", 1), ("b", 1), ("c", 1)])
    pres = make_presentation(1, gens, [])
    assert truncated_gb(pres, 4).elements == ()
    assert hilbert_coeffs(pres, 4) == (1, 3, 9, 27, 81)


def test_quantum_plane_gb():
    pres = pres_xy("x*y - i*y*x")
    gb = truncated_gb(pres, 4)
    assert len(gb.elements) == 1
    assert hilbert_coeffs(pres, 4) == (1, 2, 3, 4, 5)


def test_normal_form_single_rewrite():
    pres = pres_xy("x*y - y*x")
    gb = truncated_gb(pres, 5)
    # the deglex leading word of the relation is yx, so yx rewrites to xy
    p = parse_ncpoly("y*x", XY, 4)
    assert str(normal_form(p, gb)) == "x*y"
    assert normal_form(parse_ncpoly("x*y", XY, 4), gb) == parse_ncpoly("x*y", XY, 4)


def test_generator_multiples_reduce_to_zero():
    pres = preset("A(1,-1)").presentation
    gb = truncated_gb(pres, 6)
    r = pres.relations[0]
    w3 = pres.parse("w3")
    assert normal_form(r + r * w3, gb).is_zero()


def test_normal_form_regression_snapshot():
    pres = preset("C(1)").presentation
    gb = truncated_gb(pres, 4)
    p = pres.parse("w3*w1*w2")
    assert str(normal_form(p, gb)) == "w1*w3*w2"


def test_normal_form_rejects_degree_above_bound():
    pres = pres_xy("x*y - y*x")
    gb = truncated_gb(pres, 3)
    with pytest.raises(DegreeBoundExceeded):
        normal_form(parse_ncpoly("x^4", XY, 4), gb)


def test_commutative_three_variable_degree_two_count():
    gens = make_alphabet([("x", 1), ("y", 1), ("z", 1)])
    rels = ["x*y - y*x", "x*z - z*x", "y*z - z*y"]
    pres = make_presentation(1, gens, [parse_ncpoly(r, gens, 1) for r in rels])
    assert hilbert_coeffs(pres, 2)[2] == 6


def test_preset_prefix_and_twist_equality():
    p = preset("B(1)")
    twisted = twist_presentation(p.spec)
    own = hilbert_coeffs(p.presentation, 6)
    assert own[:3] == (1, 3, 7)
    assert own == hilbert_coeffs(twisted.presentation, 6)


def test_ideal_contains_examples():
    pres = preset("D(1,1)").presentation
    for r in pres.relations:
        assert ideal_contains(r, pres, 6)
    one = NcPoly.one(pres.generators, pres.conductor)
    assert not ideal_contains(one, pres, 6)


def test_ideal_contains_swap_images():
    pres, mats = a_family_xbasis()
    swap_map = GenMap.from_matrix(pres.generators, pres.generators, 4, mats[0])
    for r in pres.relations:
        assert ideal_contains(swap_map.apply(r), pres, 3)


def test_regular_in_free_algebra():
    gens = make_alphabet([("w1", 1), ("w2", 1)])
    pres = make_presentation(4, gens, [])
    assert is_regular_to_degree(NcPoly.gen(gens, 4, 0), pres, 4) == (True, True)


def test_zero_divisor_not_left_regular():
    pres = pres_xy("x*y")
    x = NcPoly.gen(XY, 4, 0)
    left, right = is_regular_to_degree(x, pres, 3)
    assert left is False
    assert right is True


def test_regularity_needs_homogeneous_input():
    pres = pres_xy("x*y - y*x")
    with pytest.raises(ValidationError):
        is_regular_to_degree(parse_ncpoly("x + x*y", XY, 4), pres, 4)


def _regularity_cases():
    """(element, presentation, bound): every generator of the eight presets
    and their twists at bound 5, and the zero-divisor cases above."""
    for name in PRESET_NAMES:
        p = preset(name)
        for pres in (p.presentation, twist_presentation(p.spec).presentation):
            for g in pres.generators:
                yield pres.gen_poly(g.index), pres, 5
    free = make_presentation(4, make_alphabet([("w1", 1), ("w2", 1)]), [])
    yield NcPoly.gen(free.generators, 4, 0), free, 4
    for pres in (pres_xy("x*y"), pres_xy("x*y - y*x"), pres_xy("x^2")):
        for k in range(2):
            yield NcPoly.gen(XY, 4, k), pres, 3


def test_regularity_matches_dense_rows_and_gauss_jordan_ranks():
    verdicts = set()
    for a, pres, bound in _regularity_cases():
        verdict = is_regular_to_degree(a, pres, bound)
        assert verdict == dense_is_regular_to_degree(a, pres, bound), (pres, a)
        verdicts.add(verdict)
    assert verdicts == {(True, True), (False, True), (True, False),
                        (False, False)}


def test_verify_iso_syntactic_for_twist_pair():
    source = preset("A(1,-1)")
    target = preset("D(1,1)")
    twisted = twist_presentation(source.spec)
    verdict = verify_iso(twisted.presentation, target.presentation,
                         GenMap.identity(target.presentation.generators, 4), 6)
    assert verdict.status == "SYNTACTIC"
    assert verdict.hilbert_equal
    assert [str(s) for s in verdict.scalars] == ["1", "1", "1", "1"]


def test_verify_iso_detects_failure():
    lhs = preset("A(1,-1)").presentation
    rhs = preset("B(1)").presentation
    verdict = verify_iso(lhs, rhs, GenMap.identity(rhs.generators, 4), 6)
    assert verdict.status == "FAILED"
    assert verdict.relations_in_ideal[3] is False
    assert "relation 4" in verdict.failure


def test_verify_iso_rejects_low_bound():
    p = preset("E(1,i)").presentation
    with pytest.raises(DegreeBoundExceeded):
        verify_iso(p, p, GenMap.identity(p.generators, 4), 2)


def test_gb_idempotence():
    pres = preset("A(1,-1)").presentation
    gb = truncated_gb(pres, 6)
    regenerated = make_presentation(4, pres.generators, gb.elements)
    again = fresh_gb(regenerated, 6)
    assert again.elements == gb.elements


def test_monotone_consistency():
    pres = preset("G(1,(1+i)/2)").presentation
    low = fresh_gb(pres, 4)
    high = fresh_gb(pres, 6)
    low_set = {g for g in low.elements}
    high_low = {g for g in high.elements if g.degree() <= 4}
    assert low_set == high_low


def test_gb_oracle_equivalence_spot_check():
    pres = preset("E(1,-i)").presentation
    assert hilbert_coeffs(pres, 4) == quotient_dims(pres, 4)


# Most words a drawn presentation may have in its top degree: the dense
# oracle ranks every u*r*w of that degree, so this keeps a draw fast.
MAX_ORACLE_WORDS = 300


def _coefficients(conductor):
    """Nonzero scalars of Q(zeta_conductor): small rational coordinates in
    the power basis."""
    phi = len(CycNum.zero(conductor).coeffs)
    return st.lists(st.fractions(-3, 3, max_denominator=3),
                    min_size=phi, max_size=phi).map(
        lambda c: CycNum(conductor, c)).filter(lambda x: not x.is_zero())


@st.composite
def _random_presentations(draw):
    """(presentation, bound, element of the ideal): 2-4 generators of
    weight 1 or 2, 1-4 homogeneous relations of degree 2 or 3, coefficients
    over Q (conductors 1 and 2, the int-pair rewrite rules), Q(i) and
    Q(zeta_3) (the `CycNum` rules), and a bound up to 5 that keeps the
    dense oracle small.  The element is a sum of c*u*r*v over drawn
    relations r and words u, v, of degree at most the bound."""
    conductor = draw(st.sampled_from([1, 2, 4, 3]))
    weights = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=2,
                            max_size=4))
    gens = make_alphabet([(f"x{k}", w) for k, w in enumerate(weights)])
    coefficients = _coefficients(conductor)
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        words = words_of_degree(len(gens), weights, draw(st.integers(2, 3)))
        if not words:
            continue
        support = draw(st.lists(st.sampled_from(words), min_size=1,
                                max_size=4, unique=True))
        relations.append(NcPoly(gens, conductor,
                                {w: draw(coefficients) for w in support}))
    assume(relations)
    top = max(r.degree() for r in relations)
    bound = draw(st.integers(top, 5))
    while len(words_of_degree(len(gens), weights, bound)) > MAX_ORACLE_WORDS:
        bound -= 1

    def word(degree):
        # the empty word where no word has this degree (all weights 2)
        return draw(st.sampled_from(
            words_of_degree(len(gens), weights, degree) or [()]))

    element = NcPoly.zero(gens, conductor)
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.sampled_from(relations))
        left = draw(st.integers(0, bound - r.degree()))
        right = draw(st.integers(0, bound - r.degree() - left))
        element = element + r.word_mul_left(word(left)).word_mul_right(
            word(right)).scale(draw(coefficients))
    return (make_presentation(conductor, gens, relations), bound, element)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_random_presentations())
def test_completion_matches_dense_oracle_on_random_presentations(case):
    pres, bound, element = case
    gb = fresh_gb(pres, bound)
    assert hilbert_coeffs(pres, bound) == quotient_dims(pres, bound)
    # the basis is reduced: monic, no leading word inside another element's
    # words but its own leading word, and every element lies in the ideal
    leads = list(gb.lead_map)
    assert len(leads) == len(gb.elements)
    for g in gb.elements:
        lead = g.leading_word()
        assert g.leading_coeff().is_one()
        assert not any(gbasis._contains_subword(w, v) for w in g.terms
                       for v in leads if (w, v) != (lead, lead))
        assert normal_form(g, gb).is_zero()
    for r in pres.relations:
        assert normal_form(r, gb).is_zero()
    assert normal_form(element, gb).is_zero()


def test_confluence_under_randomized_strategies():
    rng = random.Random(29)
    pres = preset("A(1,-1)").presentation
    gb = truncated_gb(pres, 6)
    gens = pres.generators
    for _ in range(50):
        terms = {}
        for _ in range(4):
            word = tuple(rng.randrange(3) for _ in range(rng.randrange(7)))
            terms[word] = CycNum.rational(rng.randrange(-3, 4), 4)
        p = NcPoly(gens, 4, terms)
        deterministic = normal_form(p, gb)
        for _ in range(3):
            randomized = strategy_normal_form(p, gb, rng.choice)
            assert randomized == deterministic


def test_bound_below_relation_degree_rejected():
    pres = preset("A(1,-1)").presentation
    with pytest.raises(DegreeBoundExceeded):
        fresh_gb(pres, 2)


def test_cache_round_trip():
    gbasis._GB_CACHE.clear()
    pres = preset("C(1)").presentation
    first = truncated_gb(pres, 5)
    second = truncated_gb(pres, 5)
    assert first is second


def test_cache_is_bounded_and_keeps_recent_bases():
    gbasis._GB_CACHE.clear()
    limit = gbasis.GB_CACHE_SIZE
    presentations = [pres_xy(f"x*y - {c}*y*x") for c in range(1, limit + 11)]
    first = truncated_gb(presentations[0], 3)
    for pres in presentations[1:]:
        assert truncated_gb(presentations[0], 3) is first
        gb = truncated_gb(pres, 3)
        assert [str(g) for g in gb.elements] == [str(g) for g in fresh_gb(
            pres, 3).elements]
        assert hilbert_coeffs(pres, 3) == (1, 2, 3, 4)
        assert len(gbasis._GB_CACHE) <= limit
    # the least recently used bases were evicted and come back rebuilt
    again = truncated_gb(presentations[1], 3)
    assert again.elements == fresh_gb(presentations[1], 3).elements
    assert len(gbasis._GB_CACHE) == limit
    gbasis._GB_CACHE.clear()


def test_weighted_generators_supported():
    gens = make_alphabet([("x", 1), ("y", 2)])
    pres = make_presentation(1, gens, [parse_ncpoly("y - x^2", gens, 1)])
    # y rewrites to x^2, so the quotient is a polynomial ring in x
    assert hilbert_coeffs(pres, 5) == (1, 1, 1, 1, 1, 1)
    gb = truncated_gb(pres, 5)
    assert len(gb.elements) == 1
    free = make_presentation(1, gens, [])
    # words in x (weight 1) and y (weight 2): dims follow the Fibonacci-like
    # count of compositions of d into parts 1 and 2
    assert hilbert_coeffs(free, 6) == (1, 1, 2, 3, 5, 8, 13)


# ---------------------------------------------------------------------------
# the 4-dimensional Sklyanin algebra: a deglex basis that never becomes finite
# ---------------------------------------------------------------------------

SKLYANIN_SPEC = os.path.join(os.path.dirname(__file__), "golden",
                             "sklyanin.json")


@pytest.fixture(scope="module")
def sklyanin():
    """(algebra, twist): (alpha, beta, gamma) = (2, 3, -5/7), twisted by the
    Klein sign action g1 = diag(1,1,-1,-1), g2 = diag(1,-1,1,-1) with the
    Klein duality and cocycle."""
    with open(SKLYANIN_SPEC, encoding="utf-8") as handle:
        data = json.load(handle)
    spec = spec_bundle_from_dict(data).spec
    return (presentation_from_dict(data, spec.presentation.conductor),
            twist_presentation(spec).presentation)


def test_sklyanin_hilbert_function_kept_by_twist(sklyanin):
    # Smith-Stafford: dim A_d = binom(d+3, 3)
    expected = tuple(comb(d + 3, 3) for d in range(7))
    for pres in sklyanin:
        assert hilbert_coeffs(pres, 6) == expected
    assert len(truncated_gb(sklyanin[0], 6).elements) == 18


# Baseline for overlap criteria: each of these zero reductions is work a
# criterion could skip.  The counts depend on the completion order, which the
# golden snapshots fix, so a change here must come with a reason.
SKLYANIN_ZERO_REDUCTIONS = {3: 4, 4: 5, 5: 7, 6: 16, 7: 20}
# Basis elements whose tail a later leading word made reducible again.
SKLYANIN_TAIL_REDUCTIONS = {2: 3, 5: 1, 7: 17}


def test_sklyanin_completion_counters(sklyanin):
    for pres in sklyanin:
        gb = fresh_gb(pres, 7)
        stats = gb.stats
        assert sorted(stats) == list(range(8))
        assert {d: s["zero_reductions"] for d, s in stats.items()
                if s["zero_reductions"]} == SKLYANIN_ZERO_REDUCTIONS
        assert {d: s["tail_reductions"] for d, s in stats.items()
                if s["tail_reductions"]} == SKLYANIN_TAIL_REDUCTIONS
        assert stats[2]["reductions"] == len(pres.relations) == 6
        assert sum(s["basis_size"] for s in stats.values()) == len(gb.elements)
        for d, s in stats.items():
            # every overlap is reduced once; relations live in degree 2
            assert s["reductions"] >= s["overlaps"] + (6 if d == 2 else 0)
            assert s["zero_reductions"] <= s["reductions"]
        heights = [s["coeff_height_bits"] for s in stats.values()]
        assert heights[2] > 0 and max(heights) == heights[7]
        # every completion counts its normal words, before any is built
        assert gb._words_by_degree is None
        assert [s["normal_words"] for s in stats.values()] == [
            comb(d + 3, 3) for d in range(8)]


def test_counters_read_the_basis_heights():
    pres = pres_xy("x*y - 2/3*y*x")
    gb = fresh_gb(pres, 3)
    # y*x - 3/2*x*y: numerator -3 and denominator 2 have 2 bits each
    assert gb.stats[2]["basis_size"] == 1
    assert gb.stats[2]["coeff_height_bits"] == 2
    assert gb.stats[3]["zero_reductions"] == gb.stats[3]["reductions"] == 0
    # a constant relation is refused before any reduction is counted, as
    # `make_presentation` refuses it
    relations = (parse_ncpoly("1", XY, 4), parse_ncpoly("x*y", XY, 4))
    with pytest.raises(ValidationError, match="relation 1 is a nonzero constant"):
        fresh_gb(Presentation(4, XY, relations), 2)


@pytest.mark.parametrize("relations, message", [
    # Built without `make_presentation`, this one once completed to the
    # basis ['1'], with normal_form(1 + x) = 1 and the dimensions [1, 0, 0]
    # through degree 2; the quotient is zero, so those are 0 and [0, 0, 0]
    (("1", "x*y"), "relation 1 is a nonzero constant"),
    (("x*y", "1 + x"), "relation 2 is not homogeneous"),
    (("x*y", "x*y*x - y"), "relation 2 is not homogeneous"),
    (("x - x", "x*y"), "relation 1 is zero"),
], ids=["constant", "constant-term", "inhomogeneous", "zero"])
def test_completion_refuses_what_make_presentation_refuses(relations, message):
    pres = Presentation(1, XY, tuple(parse_ncpoly(r, XY, 1) for r in relations))
    with pytest.raises(ValidationError, match=message):
        make_presentation(1, XY, pres.relations)
    for bound in (2, 3):
        with pytest.raises(ValidationError, match=message):
            truncated_gb(pres, bound)
        with pytest.raises(ValidationError, match=message):
            hilbert_coeffs(pres, bound)
        assert (pres.canonical_key(), bound) not in gbasis._GB_CACHE


def _old_default_strategy(gens):
    """The deglex-largest reducible word, then its leftmost, shortest match."""
    def choose(candidates):
        top = max(deglex_key(word, gens) for word, _ in candidates)
        return next(c for c in candidates if deglex_key(c[0], gens) == top)
    return choose


@pytest.mark.parametrize("name", [*PRESET_NAMES, "sklyanin", "weighted"])
def test_heap_reduction_repeats_old_rewrite_sequence(name, sklyanin,
                                                      monkeypatch):
    if name == "sklyanin":
        pres = sklyanin[0]
    elif name == "weighted":
        gens = make_alphabet([("x", 1), ("y", 2)])
        pres = make_presentation(1, gens, [parse_ncpoly(r, gens, 1) for r in
                                           ("y*x - x*y", "y^2 - x^4")])
    else:
        pres = preset(name).presentation
    gb = truncated_gb(pres, 6)
    gens, n = pres.generators, pres.conductor
    rewrites = []
    real_rewrite = gbasis._rewrite

    def logged(terms, word, coeff, pos, length, lead_map):
        rewrites.append((word, pos, length))
        return real_rewrite(terms, word, coeff, pos, length, lead_map)

    monkeypatch.setattr(gbasis, "_rewrite", logged)
    rng = random.Random(41)
    for _ in range(15):
        terms = {}
        while len(terms) < 4:
            word = tuple(rng.randrange(len(gens)) for _ in range(rng.randrange(7)))
            if word_degree(word, gens) <= 6:
                scalar = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                terms[word] = (CycNum.rational(scalar, n)
                               * CycNum.zeta(n, rng.randrange(n)))
        p = NcPoly(gens, n, terms)
        heap_nf = normal_form(p, gb)
        heap_rewrites = list(rewrites)
        rewrites.clear()
        assert strategy_normal_form(p, gb, _old_default_strategy(gens)) == heap_nf
        assert rewrites == heap_rewrites
        rewrites.clear()


# ---------------------------------------------------------------------------
# the multiplication table against the rewrite loop
# ---------------------------------------------------------------------------

def assert_table_matches_normal_form(pres, bound, words):
    """For every word w and every split w = u*v, the table's NF(NF(u)*v)
    equals `normal_form(w)`; the table starts empty."""
    gb = fresh_gb(pres, bound)
    gens, n = pres.generators, pres.conductor
    one = CycNum.one(n)
    for w in words:
        expected = normal_form(NcPoly.from_word(gens, n, w), gb).terms
        for k in range(len(w) + 1):
            left = gb.times_word({(): one}, w[:k])
            assert gb.times_word(left, w[k:]) == expected


def all_words(pres, bound):
    weights = [g.degree for g in pres.generators]
    return [w for d in range(bound + 1)
            for w in words_of_degree(len(weights), weights, d)]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_table_products_match_normal_form_on_presets(name):
    source = preset(name)
    for pres in (source.presentation,
                 twist_presentation(source.spec).presentation):
        assert_table_matches_normal_form(pres, 5, all_words(pres, 5))


def test_table_products_match_normal_form_with_linear_relations():
    # z and y are leading words of degree-1 relations, so neither is normal
    xyz = make_alphabet([("x", 1), ("y", 1), ("z", 1)])
    pres = make_presentation(4, xyz, [parse_ncpoly(r, xyz, 4) for r in
                                      ("z - x - i*y", "y - 2*x", "x^2*z")])
    gb = truncated_gb(pres, 5)
    assert gb.normal_words(1) == [(0,)]
    assert_table_matches_normal_form(pres, 5, all_words(pres, 5))
    weighted = make_alphabet([("x", 1), ("y", 2)])
    pres = make_presentation(1, weighted, [parse_ncpoly("y - x^2", weighted, 1)])
    assert_table_matches_normal_form(pres, 6, all_words(pres, 6))


def test_table_products_match_normal_form_on_sklyanin(sklyanin):
    pres = sklyanin[0]
    assert_table_matches_normal_form(pres, 6, all_words(pres, 4))
    # through degree 6: every product of two normal words
    gb = fresh_gb(pres, 6)
    gens, n = pres.generators, pres.conductor
    one = CycNum.one(n)
    levels = gb.normal_words_by_degree()
    expected: dict = {}
    for d1 in range(7):
        for d2 in range(7 - d1):
            for u in levels[d1]:
                for v in levels[d2]:
                    w = u + v
                    if w not in expected:
                        expected[w] = normal_form(
                            NcPoly.from_word(gens, n, w), gb).terms
                    assert gb.times_word({u: one}, v) == expected[w]


def test_table_products_respect_the_bound():
    pres = preset("A(1,-1)").presentation
    gb = truncated_gb(pres, 4)
    one = CycNum.one(pres.conductor)
    with pytest.raises(DegreeBoundExceeded):
        gb.times_word({(0, 1): one}, (2, 2, 2))
    assert gb.times_word({(0, 1): one}, (2, 2)) == normal_form(
        parse_ncpoly("w1*w2*w3^2", pres.generators, 4), gb).terms


# ---------------------------------------------------------------------------
# the leading-word trie and the heap key against what they replaced
# ---------------------------------------------------------------------------

def _slice_matches(word, lead_map, lead_lengths):
    """The slice scan the trie replaced: (position, length) of every
    leading word inside `word`, leftmost first, then shortest."""
    for pos in range(len(word)):
        for length in lead_lengths:
            if pos + length > len(word):
                break
            if word[pos:pos + length] in lead_map:
                yield pos, length


def _slice_normal_words(gb):
    """Normal words by degree, a word being normal when no leading word is
    a suffix of it, as the slice scan enumerated them."""
    lengths = sorted({len(w) for w in gb.lead_map})
    levels = [[()]]
    for d in range(1, gb.bound + 1):
        level = []
        for gen in gb.presentation.generators:
            if gen.degree <= d:
                for w in levels[d - gen.degree]:
                    cand = w + (gen.index,)
                    if not any(n <= len(cand) and cand[len(cand) - n:] in gb.lead_map
                               for n in lengths):
                        level.append(cand)
        levels.append(sorted(level))
    return levels


def _rule_cycnums(rule, n):
    """A trie rule's tail with its scalars as CycNum: when phi(n) = 1 the
    rewrite loop holds it as (L, ((word, Y), ...)), integer numerators Y over
    one positive common denominator L, and otherwise as (word, CycNum)
    pairs."""
    if n > 2:
        assert all(isinstance(c, CycNum) for _, c in rule)
        return rule
    common, tail = rule
    assert type(common) is int and common > 0
    assert all(type(y) is int for _, y in tail)
    return tuple((u, CycNum.rational(Fraction(y, common), n)) for u, y in tail)


def _slice_counts(leads, degrees, bound):
    """Normal words per degree through `bound` by the slice scan, on an
    alphabet where the letters in no leading word are merged into one letter
    per degree that stands for all of them: such a letter is in no match, so
    words that differ only in those letters are all normal or all
    reducible."""
    used = {x for w in leads for x in w}
    weight = dict.fromkeys(used, 1)
    merged = {}
    for x, d in enumerate(degrees):
        if x not in used:
            stand_in = merged.setdefault(d, x)
            weight[stand_in] = weight.get(stand_in, 0) + 1
    lengths = sorted({len(w) for w in leads})
    levels = [{(): 1}]               # word -> how many words it stands for
    for d in range(1, bound + 1):
        level = {}
        for x in sorted(weight):
            if degrees[x] > d:
                continue
            for w, k in levels[d - degrees[x]].items():
                cand = w + (x,)
                if not any(n <= len(cand) and cand[len(cand) - n:] in leads
                           for n in lengths):
                    level[cand] = k * weight[x]
        levels.append(level)
    return [sum(level.values()) for level in levels]


def assert_trie_matches_slice_scan(gb, words):
    """The automaton's matches, rules, counts and normal words against the
    slice scan; the words are enumerated when there are
    at most `gbasis.MAX_NORMAL_WORDS` of them."""
    lengths = sorted({len(w) for w in gb.lead_map})
    n = gb.presentation.conductor
    automaton = gbasis._automaton(gb._trie)
    for w in words:
        found = list(matches(w, *automaton))
        assert [m[:2] for m in found] == list(
            _slice_matches(w, gb.lead_map, lengths))
        for pos, length, rule in found:
            lead = w[pos:pos + length]
            assert _rule_cycnums(rule, n) == tuple(
                (u, c) for u, c in gb.lead_map[lead].terms.items() if u != lead)
    counts = [s["normal_words"] for s in gb.stats.values()]
    degrees = [g.degree for g in gb.presentation.generators]
    assert counts == _slice_counts(gb.lead_map, degrees, gb.bound)
    if sum(counts) <= gbasis.MAX_NORMAL_WORDS:
        levels = gb.normal_words_by_degree()
        assert levels == _slice_normal_words(gb)
        assert list(map(len, levels)) == counts


def _trie_cases(sklyanin):
    cases = {}
    for name in PRESET_NAMES:
        source = preset(name)
        cases[name] = source.presentation
        cases[name + " twisted"] = twist_presentation(source.spec).presentation
    cases["sklyanin"], cases["sklyanin twisted"] = sklyanin
    weighted = make_alphabet([("x", 1), ("y", 2)])
    cases["weighted"] = make_presentation(1, weighted, [
        parse_ncpoly(r, weighted, 1) for r in ("y*x - x*y", "y^2 - x^4")])
    cases["weighted linear"] = make_presentation(
        1, weighted, [parse_ncpoly("y - x^2", weighted, 1)])
    xyz = make_alphabet([("x", 1), ("y", 1), ("z", 1)])
    cases["degree-1 relations"] = make_presentation(4, xyz, [
        parse_ncpoly(r, xyz, 4) for r in ("z - x - i*y", "y - 2*x", "x^2*z")])
    return cases


def _scan_words(pres, bound):
    """Every word through `bound`, or on a wide alphabet every word over the
    leading words' letters and two letters in none."""
    gens = pres.generators
    if len(gens) <= 8:
        return all_words(pres, bound)
    lead = {x for r in pres.relations for x in r.leading_word()}
    letters = sorted(lead | {0, 1})
    weights = [gens[x].degree for x in letters]
    return [tuple(letters[i] for i in w) for d in range(bound + 1)
            for w in words_of_degree(len(letters), weights, d)]


def test_automaton_matches_slice_scan(completion_cases):
    for name, (pres, bound) in completion_cases.items():
        gb = gbasis._complete(pres, bound)
        assert_trie_matches_slice_scan(gb, _scan_words(pres, bound))


def test_normal_word_counts_match_quotient_dims(sklyanin):
    for name, pres in _kernel_cases(sklyanin).items():
        gb = truncated_gb(pres, 6)
        counts = [gb.stats[d]["normal_words"] for d in range(5)]
        assert tuple(counts) == quotient_dims(pres, 4), name


def test_sklyanin_counts_through_degree_8(sklyanin):
    # Smith-Stafford: dim A_d = binom(d+3, 3); the twist is checked through
    # degree 7 by `test_sklyanin_completion_counters`
    gb = fresh_gb(sklyanin[0], 8)
    counts = [s["normal_words"] for s in gb.stats.values()]
    assert counts == [comb(d + 3, 3) for d in range(9)] == _slice_counts(
        gb.lead_map, [1] * 4, 8)
    assert list(map(len, gb.normal_words_by_degree())) == counts


def _word_trie(leads):
    """A trie of `leads` whose rules are the leading words themselves, with
    a conductor record at the root as `_add_lead` leaves one."""
    trie = {gbasis._CONDUCTOR: 1}
    for lead in leads:
        node = trie
        for letter in lead:
            node = node.setdefault(letter, {})
        node[gbasis._RULE] = lead
    return trie


@st.composite
def _antichains(draw):
    """(generator degrees, an antichain of nonempty leading words, words to
    scan) over at most four letters of degrees 1 to 3."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    letters = st.integers(0, len(degrees) - 1)
    candidates = draw(st.lists(st.lists(letters, min_size=1, max_size=4)
                               .map(tuple), max_size=8))
    leads = []
    for w in sorted(set(candidates), key=len):
        if not any(gbasis._contains_subword(w, v) for v in leads):
            leads.append(w)
    words = draw(st.lists(st.lists(letters, max_size=10).map(tuple),
                          max_size=20))
    return degrees, leads, words


@settings(max_examples=200, deadline=None)
@given(_antichains())
def test_automaton_of_an_antichain_matches_slice_scan(case):
    degrees, leads, words = case
    trie = _word_trie(leads)
    goto, out = gbasis._automaton(trie)
    lead_set = set(leads)
    lengths = sorted({len(w) for w in leads})
    for w in words:
        found = list(matches(w, goto, out))
        assert [m[:2] for m in found] == list(_slice_matches(w, lead_set, lengths))
        assert all(rule == w[pos:pos + length] for pos, length, rule in found)
    # one state per prefix of a leading word, the conductor record being no
    # letter; rows hold only letters of leading words, so any other letter
    # goes back to the root
    assert len(goto) == len({w[:k] for w in leads for k in range(len(w) + 1)} | {()})
    assert set().union(*goto) == {x for w in leads for x in w}
    assert gbasis._normal_word_counts(trie, degrees, 6) == _slice_counts(
        lead_set, degrees, 6)
    # the rewrite loop's own pass: over the monomial ideal of the leading
    # words, a word reduces to zero exactly when the slice scan finds a match
    gens = make_alphabet([(f"g{k}", d) for k, d in enumerate(degrees)])
    monomials = lead_trie(NcPoly.from_word(gens, 1, u) for u in leads)
    p = NcPoly(gens, 1, {w: CycNum.one(1) for w in words})
    assert set(gbasis._reduce(p, monomials).terms) == {
        w for w in words if next(_slice_matches(w, lead_set, lengths), None) is None}


def test_tail_update_keeps_the_automaton():
    # a new tail overwrites the rule its leading word's state outputs, and
    # only a new leading word rebuilds the automaton
    trie = lead_trie([parse_ncpoly("y*x - 2*x*y", XY, 1)])
    automaton = gbasis._automaton(trie)
    gbasis._add_lead(trie, parse_ncpoly("y*x - 3*x^2", XY, 1))
    assert gbasis._automaton(trie) is automaton
    assert list(matches((0, 1, 0), *automaton)) == [(1, 2, (1, (((0, 0), -3),)))]
    gbasis._add_lead(trie, parse_ncpoly("y^2 - x^2", XY, 1))
    assert gbasis._automaton(trie) is not automaton
    assert len(gbasis._automaton(trie)[0]) == 4


def test_enumeration_is_bounded_by_its_exact_count():
    # completion is instant, but the normal words through degree 8 number
    # more than a million; counting them builds none
    gens = make_alphabet([(x, 1) for x in "abcdef"])
    pres = make_presentation(1, gens, [parse_ncpoly(r, gens, 1) for r in
                                       ("a*b - b*a", "c*d - d*c - e*f")])
    dims = (1, 6, 34, 192, 1084, 6120, 34552, 195072, 1101328)
    assert hilbert_coeffs(pres, 8) == dims
    gb = truncated_gb(pres, 8)
    with pytest.raises(DegreeBoundExceeded, match=f"{sum(dims)} normal words "
                       "through degree 8"):
        gb.normal_words(1)
    assert gb._words_by_degree is None
    assert sum(dims[:7]) <= gbasis.MAX_NORMAL_WORDS < sum(dims)
    assert len(truncated_gb(pres, 6).normal_words(6)) == dims[6]


@pytest.mark.parametrize("degrees", [[1, 1, 1], [1, 2], [1] * 300, [1, 2] * 150])
def test_heap_key_orders_by_descending_deglex(degrees):
    gens = make_alphabet([(f"g{k}", d) for k, d in enumerate(degrees)])
    rng = random.Random(7)
    words = {tuple(rng.randrange(len(degrees)) for _ in range(rng.randrange(7)))
             for _ in range(500)}
    key = gbasis._heap_key([g.degree for g in gens], words)
    assert sorted(words, key=key) == sorted(
        words, key=lambda w: deglex_key(w, gens), reverse=True)


def _word_lists(alphabet_size, max_length):
    return st.lists(st.lists(st.integers(0, alphabet_size - 1),
                             max_size=max_length).map(tuple), max_size=30)


@st.composite
def _alphabets_and_words(draw):
    """(generator degrees, words): unit-degree and weighted alphabets, the
    257-letter alphabet, and words of degree 256 or more."""
    kind = draw(st.sampled_from(["unit", "weighted", "257 letters", "long"]))
    if kind == "unit":
        degrees = [1] * draw(st.integers(1, 256))
    elif kind == "weighted":
        degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=256))
    elif kind == "257 letters":
        degrees = draw(st.lists(st.integers(1, 2), min_size=257,
                                max_size=257))
    else:
        degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    words = draw(_word_lists(len(degrees), 8))
    if kind == "long":
        # words of degree 256 and more, some equal up to their last letters
        stem = draw(st.lists(st.integers(0, len(degrees) - 1),
                             min_size=256, max_size=300))
        words += [tuple(stem) + w for w in words] + [tuple(stem)]
    return degrees, words


@settings(max_examples=150, deadline=None)
@given(_alphabets_and_words())
def test_heap_key_sorts_as_descending_deglex(case):
    degrees, words = case
    key = gbasis._heap_key(degrees, words)
    assert sorted(words, key=key) == sorted(
        words, key=lambda w: (sum(degrees[i] for i in w), w), reverse=True)
    top = max((sum(degrees[i] for i in w) for w in words), default=0)
    fits = len(degrees) <= 256 and top <= 255
    assert all(isinstance(key(w), bytes if fits else tuple) for w in words)


def test_alphabet_beyond_one_byte():
    # letters 255 and 256 do not fit in a byte, so the heap key uses tuples
    gens = make_alphabet([(f"g{k}", 1) for k in range(257)])
    pres = make_presentation(1, gens, [
        parse_ncpoly("g256*g255 - 2*g255*g256", gens, 1)])
    gb = truncated_gb(pres, 4)
    p = parse_ncpoly("g256*g255*g256*g255 + 3*g256*g0*g255 - g0*g256*g255",
                     gens, 1)
    nf = normal_form(p, gb)
    assert str(nf) == "8*g255^2*g256^2 + 3*g256*g0*g255 - 2*g0*g255*g256"
    assert strategy_normal_form(p, gb, random.Random(3).choice) == nf
    assert hilbert_coeffs(pres, 2) == (1, 257, 257 ** 2 - 1)


# ---------------------------------------------------------------------------
# the rewrite loop's scalars against a CycNum-only reference
# ---------------------------------------------------------------------------

KLEIN_STANDARD = os.path.join(os.path.dirname(__file__), "golden",
                              "klein-standard.json")


def _reference_reduce(p, gb):
    """The rewrite loop on CycNum values and operators only: rewrite the
    deglex-largest reducible word at its leftmost, shortest match, found by
    the slice scan, until no word is reducible."""
    gens, n = p.gens, p.conductor
    lengths = sorted({len(w) for w in gb.lead_map})
    first = {}                       # word -> its first match, or None
    terms = dict(p.terms)
    while True:
        for w in terms:
            if w not in first:
                first[w] = next(_slice_matches(w, gb.lead_map, lengths), None)
        matches = {w: first[w] for w in terms if first[w] is not None}
        if not matches:
            return NcPoly(gens, n, terms)
        word = max(matches, key=lambda w: deglex_key(w, gens))
        pos, length = matches[word]
        lead = word[pos:pos + length]
        coeff = terms.pop(word)
        for u, c in gb.lead_map[lead].terms.items():
            if u == lead:
                continue
            new_word = word[:pos] + u + word[pos + length:]
            s = terms.get(new_word, CycNum.zero(n)) - coeff * c
            if s.is_zero():
                terms.pop(new_word, None)
            else:
                terms[new_word] = s


def _kernel_cases(sklyanin):
    cases = _trie_cases(sklyanin)
    xyz = make_alphabet([("x", 1), ("y", 1), ("z", 1)])
    cases["degree-1 relations over Q"] = make_presentation(1, xyz, [
        parse_ncpoly(r, xyz, 1) for r in ("z - x + 2/3*y", "y*x - 3*x*y")])
    # conductor 2: the standard duality on C2 x C2
    with open(KLEIN_STANDARD, encoding="utf-8") as handle:
        data = json.load(handle)
    spec = spec_bundle_from_dict(data).spec
    cases["conductor 2"] = presentation_from_dict(data, spec.presentation.conductor)
    cases["conductor 2 twisted"] = twist_presentation(spec).presentation
    return cases


def test_pair_kernel_matches_cycnum_reference(sklyanin):
    rng = random.Random(53)
    conductors = set()
    for name, pres in _kernel_cases(sklyanin).items():
        gb = fresh_gb(pres, 6)
        gens, n = pres.generators, pres.conductor
        conductors.add(n)
        polys = [NcPoly.from_word(gens, n, w) for w in all_words(pres, 3)]
        for _ in range(12):
            terms = {}
            while len(terms) < 5:
                word = tuple(rng.randrange(len(gens))
                             for _ in range(rng.randrange(8)))
                if word_degree(word, gens) <= 6:
                    scalar = Fraction(rng.randrange(-7, 8), rng.randrange(1, 6))
                    terms[word] = (CycNum.rational(scalar, n)
                                   * CycNum.zeta(n, rng.randrange(n)))
            polys.append(NcPoly(gens, n, terms))
        default = _old_default_strategy(gens)
        for p in polys:
            expected = _reference_reduce(p, gb)
            assert normal_form(p, gb) == expected, name
            assert strategy_normal_form(p, gb, default) == expected, name
            if p.degree() <= 3:
                # a random strategy on long words can take minutes
                assert strategy_normal_form(p, gb, rng.choice) == expected, name
    assert {1, 2, 4} <= conductors


# ---------------------------------------------------------------------------
# the rewrite loop over Q against a Fraction-only reduction
# ---------------------------------------------------------------------------

def _over_q(pres):
    """`pres` at conductor 1; its coefficients must be rational."""
    gens = pres.generators
    return make_presentation(1, gens, [
        NcPoly(gens, 1, {w: CycNum.rational(c.coeffs[0])
                         for w, c in r.terms.items()})
        for r in pres.relations])


def _rational_cases(sklyanin):
    """Presentations over Q, at conductors 1 and 2, where the rewrite loop
    holds int pairs."""
    cases = {name: pres for name, pres in _kernel_cases(sklyanin).items()
             if pres.conductor <= 2}
    for name in PRESET_NAMES:
        source = preset(name)
        twisted = twist_presentation(source.spec).presentation
        for label, pres in ((name, source.presentation),
                            (name + " twisted", twisted)):
            if all(c.is_rational() for r in pres.relations
                   for c in r.terms.values()):
                cases[label + " over Q"] = _over_q(pres)
    return cases


def _big_rational(rng):
    """A random nonzero rational whose numerator and denominator have more
    than 64 bits."""
    return Fraction(rng.choice((-1, 1)) * rng.randrange(2 ** 64, 2 ** 96),
                    rng.randrange(2 ** 64, 2 ** 80))


def test_rewrite_loop_over_q_matches_fraction_oracle(sklyanin, monkeypatch):
    # Every product a rewrite adds is t*Y/den for a tail numerator Y of its
    # rule, where t/den must be -x/(b*L) in lowest terms: the popped
    # coefficient x/b cancelled against the rule's common denominator L.
    cases = _rational_cases(sklyanin)
    assert {"sklyanin", "sklyanin twisted", "weighted", "weighted linear",
            "conductor 2", "A(1,-1) over Q", "D(1,1) twisted over Q"} <= set(cases)
    real_rewrite = gbasis._rewrite
    checked = []

    def spy(terms, word, coeff, pos, length, rule):
        added = real_rewrite(terms, word, coeff, pos, length, rule)
        numerators = dict(rule[1])
        left, right = word[:pos], word[pos + length:]
        for tw, y in numerators.items():
            new_word = left + tw + right
            if new_word in added:
                num, den = terms[new_word]
                assert num % y == 0 and gcd(num // y, den) == 1
                checked.append(new_word)
        return added

    monkeypatch.setattr(gbasis, "_rewrite", spy)
    rng = random.Random(61)
    for name, pres in cases.items():
        gb = fresh_gb(pres, 6)
        gens, n = pres.generators, pres.conductor
        weights = [g.degree for g in gens]
        rules = {lead: {w: c.coeffs[0] for w, c in g.terms.items()
                        if w != lead}
                 for lead, g in gb.lead_map.items()}
        default = _old_default_strategy(gens)
        for _ in range(6):
            terms = {}
            while len(terms) < 5:
                word = tuple(rng.randrange(len(gens))
                             for _ in range(rng.randrange(7)))
                if word_degree(word, gens) <= 6:
                    terms[word] = _big_rational(rng)
            p = NcPoly(gens, n, {w: CycNum.rational(c, n)
                                 for w, c in terms.items()})
            expected = NcPoly(gens, n, {
                w: CycNum.rational(c, n)
                for w, c in fraction_normal_form(terms, rules, weights).items()})
            assert normal_form(p, gb) == expected, name
            assert strategy_normal_form(p, gb, default) == expected, name
    assert checked


def test_reduction_needs_the_basis_alphabet():
    gb = truncated_gb(pres_xy("x*y - 2*y*x", conductor=1), 3)
    xyz = make_alphabet([("x", 1), ("y", 1), ("z", 1)])
    with pytest.raises(AlphabetMismatch):
        normal_form(parse_ncpoly("y*x", xyz, 1), gb)
    with pytest.raises(AlphabetMismatch):
        normal_form(parse_ncpoly("x", make_alphabet([("x", 1)]), 1), gb)


def test_reduction_needs_the_basis_conductor():
    gb = truncated_gb(pres_xy("x*y - 2*y*x", conductor=1), 3)
    with pytest.raises(ConductorMismatch):
        normal_form(parse_ncpoly("x*y", XY, 4), gb)
    assert str(normal_form(parse_ncpoly("3*y*x", XY, 1), gb)) == "3/2*x*y"


# ---------------------------------------------------------------------------
# interreduction at every insertion against the final interreduction pass
# ---------------------------------------------------------------------------

def _final_pass_gb(presentation, bound):
    """The completion that left tails unreduced until one interreduction
    loop at the end; its trie is rebuilt from the final elements."""
    gens = presentation.generators
    seq = itertools.count()
    heap = []
    for rel in presentation.relations:
        heapq.heappush(heap, (rel.degree(), next(seq), rel))
    basis = []
    trie = {}
    stats = {d: dict.fromkeys(gbasis._COUNTERS, 0) for d in range(bound + 1)}
    while heap:
        degree, _, p = heapq.heappop(heap)
        h = gbasis._reduce(p, trie)
        stats[degree]["reductions"] += 1
        if h.is_zero():
            stats[degree]["zero_reductions"] += 1
            continue
        h = h.monic()
        lead_h = h.leading_word()
        kept = []
        for g in basis:
            if gbasis._contains_subword(g.leading_word(), lead_h):
                heapq.heappush(heap, (g.degree(), next(seq), g))
            else:
                kept.append(g)
        if len(kept) < len(basis):
            trie = lead_trie(kept)
        basis = kept
        for g in basis + [h]:
            pairs = [(h, g)] if g is h else [(h, g), (g, h)]
            for left, right in pairs:
                for degree, s in gbasis._overlap_spolys(left, right, bound):
                    stats[degree]["overlaps"] += 1
                    heapq.heappush(heap, (degree, next(seq), s))
        basis.append(h)
        gbasis._add_lead(trie, h)

    changed = True
    while changed:
        changed = False
        for idx, g in enumerate(basis):
            others = lead_trie(e for e in basis if e is not g)
            red = gbasis._reduce(g, others).monic()
            if red != g:
                basis[idx] = red
                changed = True

    basis.sort(key=lambda g: deglex_key(g.leading_word(), gens))
    for g in basis:
        record = stats[g.degree()]
        record["basis_size"] += 1
        record["coeff_height_bits"] = max(
            record["coeff_height_bits"], *(c.height() for c in g.terms.values()))
    return gbasis.TruncGB(presentation, bound, basis, stats,
                          lead_trie(basis))


@pytest.fixture(scope="module")
def completion_cases(sklyanin):
    """(presentation, bound) by name: the presets and their twists, the
    Sklyanin algebra and its twist through degree 7, weighted alphabets,
    degree-1 relations over Q(i) and Q, conductor 2 and 257 generators.  The
    tests that use them run the completion loop, `gbasis._complete`,
    uncached."""
    cases = {name: (pres, 6) for name, pres in _kernel_cases(sklyanin).items()}
    cases["sklyanin"] = (sklyanin[0], 7)
    cases["sklyanin twisted"] = (sklyanin[1], 7)
    gens = make_alphabet([(f"g{k}", 1) for k in range(257)])
    cases["257 generators"] = (make_presentation(1, gens, [
        parse_ncpoly(r, gens, 1) for r in
        ("g256^2 - g256*g255 + 3*g0*g255", "g256*g255 - 2*g255*g256")]), 4)
    return cases


def test_completion_matches_the_final_interreduction_pass(completion_cases):
    for name, (pres, bound) in completion_cases.items():
        old = _final_pass_gb(pres, bound)
        new = gbasis._complete(pres, bound)
        assert [str(g) for g in new.elements] == [
            str(g) for g in old.elements], name
        assert list(new.lead_map) == list(old.lead_map), name
        assert _trie_rules(new._trie) == _trie_rules(old._trie), name
        # the final pass kept no count of tail reductions
        assert {d: {**s, "tail_reductions": 0}
                for d, s in new.stats.items()} == old.stats, name


def _trie_rules(trie):
    """{leading word: rule} of every output of the automaton of `trie`.  A
    state's word is the shortest path to it from the root, found
    breadth-first; every state must be reached, and a state's output length
    must be its word's."""
    goto, out = gbasis._automaton(trie)
    words = {0: ()}
    queue = [0]
    for state in queue:
        for letter, target in sorted(goto[state].items()):
            if target not in words:
                words[target] = words[state] + (letter,)
                queue.append(target)
    assert sorted(words) == list(range(len(goto)))
    rules = {}
    for state, hit in enumerate(out):
        if hit is not None:
            length, node = hit
            assert length == len(words[state])
            rules[words[state]] = node[gbasis._RULE]
    return rules


def test_completion_leaves_a_reduced_basis(completion_cases):
    for name, (pres, bound) in completion_cases.items():
        gb = gbasis._complete(pres, bound)
        n = pres.conductor
        leads = list(gb.lead_map)
        assert len(leads) == len(gb.elements), name
        assert all(g.leading_coeff().is_one() for g in gb.elements), name
        for u in leads:
            assert not any(u != v and gbasis._contains_subword(u, v)
                           for v in leads), name
        for g in gb.elements:
            lead = g.leading_word()
            tail = tuple((w, c) for w, c in g.terms.items() if w != lead)
            assert not any(gbasis._contains_subword(w, v)
                           for w, _ in tail for v in leads), name
        # the trie the completion kept holds exactly the elements' tails
        rules = _trie_rules(gb._trie)
        assert rules.keys() == gb.lead_map.keys(), name
        for lead, rule in rules.items():
            g = gb.lead_map[lead]
            assert _rule_cycnums(rule, n) == tuple(
                (w, c) for w, c in g.terms.items() if w != lead), name
