"""Scaffolding shared by the tests, built on the package's own internals
(unlike `oracles`, which stays independent of them).

- `fresh_gb`: a completion that does not come from the Groebner cache.
- `matches` and `strategy_normal_form`: every leading-word match of a word,
  and a reduction that rewrites whichever match a strategy picks; the normal
  form modulo a reduced basis does not depend on the strategy, which the
  confluence and differential tests check against `normal_form`.
- `lead_trie`: the trie of leading words and rules of some monic elements,
  as the completion grows it with `gbasis._add_lead`.
- `dense_is_regular_to_degree`: the regularity check with one whole-word
  product per row, not one table step from the row of the prefix, which
  the differential test holds `is_regular_to_degree` to.
- `a_family_xbasis`: the A(1,-1) preset in a basis where its action is not
  diagonal, input for the diagonalization tests.
- `diagonal_matrices`: the action matrices that a twist spec's declared
  G-degrees mean; presets keep no action.
"""

from __future__ import annotations

from cotwist import gbasis, linalg
from cotwist.cyclo import CycNum, root_of_unity
from cotwist.freealg import GenMap, NcPoly, make_alphabet, make_presentation
from cotwist.presets import preset


def fresh_gb(presentation, bound):
    """`truncated_gb(presentation, bound)` completed anew: its cache entry
    is dropped first, and the new basis takes its place."""
    gbasis._GB_CACHE.pop((presentation.canonical_key(), bound), None)
    return gbasis.truncated_gb(presentation, bound)


def matches(word, goto, out):
    """Every (position, length, rule) match of a leading word in `word`,
    leftmost first, read off the automaton (goto, out) of `gbasis._automaton`."""
    state = 0
    for end, letter in enumerate(word, 1):
        state = goto[state].get(letter, 0)
        if out[state] is not None:
            length, node = out[state]
            yield end - length, length, node[gbasis._RULE]


def strategy_normal_form(p, gb, chooser):
    """The normal form of p modulo `gb`, rewriting one match at a time:
    `chooser` receives the sorted list of candidate rewrites (word,
    (position, lead length)) and picks one.  Each rewrite goes through
    `gbasis._rewrite`, looked up at call time, so a test that wraps it sees
    these rewrites too."""
    n = p.conductor
    goto, out = gbasis._automaton(gb._trie)
    terms = gbasis._loop_terms(p.terms, n)
    while True:
        rules = {(word, (pos, length)): rule for word in terms
                 for pos, length, rule in matches(word, goto, out)}
        if not rules:
            return NcPoly(p.gens, n, gbasis._cycnum_terms(terms, n))
        word, match = chooser(sorted(rules))
        gbasis._rewrite(terms, word, terms.pop(word), *match, rules[word, match])


def lead_trie(elements):
    trie = {}
    for g in elements:
        gbasis._add_lead(trie, g)
    return trie


def _multiplication_rows(a, gb, degree, side):
    """The rows NF(a*w) or NF(w*a), sparse over normal words, for the normal
    words w of `degree`, each folded from the whole word w."""
    source = gb.normal_words(degree)
    one = CycNum.one(a.conductor)
    if side == "left":
        nf_a = gbasis._sum_products(gb, {(): one}, a.terms)
        return [gb.times_word(nf_a, w) for w in source]
    return [gbasis._sum_products(gb, {w: one}, a.terms) for w in source]


def dense_is_regular_to_degree(a, presentation, bound):
    """(left-regular, right-regular) through `bound`, each row NF(a*w)
    folded from the whole word w."""
    gb = gbasis.truncated_gb(presentation, bound)
    left_ok = right_ok = True
    for d in range(0, bound - a.homogeneous_degree() + 1):
        dim = len(gb.normal_words(d))
        if dim == 0:
            continue
        for side in ("left", "right"):
            full = linalg.rank(_multiplication_rows(a, gb, d, side)) == dim
            if side == "left":
                left_ok = left_ok and full
            else:
                right_ok = right_ok and full
    return left_ok, right_ok


def a_family_xbasis():
    """The A(1,-1) preset rewritten to the x-basis w1 = x1 + x2,
    w2 = x1 - x2, w3 = x3, with the swap and negate matrices of the Klein
    action there."""
    source = preset("A(1,-1)")
    n = source.presentation.conductor
    gens = make_alphabet([("x1", 1), ("x2", 1), ("x3", 1)])
    one = CycNum.one(n)
    zero = CycNum.zero(n)
    # column k holds w_{k+1} in x-coordinates
    basis_matrix = [[one, one, zero], [one, -one, zero], [zero, zero, one]]
    to_x = GenMap.from_matrix(source.presentation.generators, gens, n,
                              basis_matrix)
    pres = make_presentation(n, gens, [to_x.apply(r)
                                       for r in source.presentation.relations])
    swap = [[zero, one, zero], [one, zero, zero], [zero, zero, one]]
    negate = [[one, zero, zero], [zero, one, zero], [zero, zero, -one]]
    return pres, (swap, negate)


def diagonal_matrices(spec):
    """One diagonal matrix per group generator h: it scales a generator of
    degree g by chi_{g^-1}(h), read off `Duality.values`."""
    group, degrees = spec.group, spec.grading.g_degrees
    n, conductor = len(degrees), spec.presentation.conductor
    zero = CycNum.zero(conductor)
    values = [spec.duality.values(group.inv(g)) for g in degrees]
    return [[[root_of_unity(values[a][j], group.exponent(),
                            conductor) if a == b else zero
              for b in range(n)] for a in range(n)]
            for j in range(group.rank)]
