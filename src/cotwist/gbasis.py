"""Degree-truncated two-sided Groebner bases in free algebras.

Completion runs overlap (obstruction) processing under deglex through a fixed
degree bound; every conclusion drawn downstream is therefore "to degree D"
and the tool never claims global completeness.  The monomial order is deglex
over the generator order as listed in the presentation, which makes runs
byte-deterministic.

The basis is kept interreduced as it grows (T. Mora's interreduced
completion, TCS 134, 1994).  When a new monic element h is accepted, every
element with a tail word containing lead(h) gets its tail reduced again and
its trie rule overwritten.  So the basis is reduced after every
insertion, no final interreduction pass is needed, and no rule carries a
reducible tail word into later rewrites.

Reduction pops words from a heap keyed by one bytes object per word
(`_heap_key`) and rewrites the deglex-largest reducible one at its leftmost
match, found in one pass of the Aho-Corasick automaton (`_automaton`) of the
letter trie of leading words (`_add_lead`), whose nodes hold the rules.
The automaton also extends normal words letter by letter and counts them
without building any.

Over Q (conductors 1 and 2, where phi(N) = 1) the rewrite loop holds every
coefficient as a (numerator, denominator) int pair with a positive
denominator, not necessarily in lowest terms, and a rule holds its tail over
one common denominator: (L, ((word, Y), ...)) with positive L and integer
numerators Y.  A rewrite cancels the popped coefficient x/b against L once,
one gcd per popped word, so that every product -x*Y/(b*L) shares one
denominator, and adds each product to its target over the lcm of the two
denominators, with no gcd to restore lowest terms.  Lowest terms return
when a word is popped: a reducible word's coefficient by that cancellation,
and an irreducible one's in `_cycnum_terms`, which builds a CycNum for each
surviving term on the way out.  Other conductors keep CycNum coefficients
and rules, and each term update is one fused scalar operation
(`CycNum.sub_mul`, `CycNum.neg_mul`).
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from math import gcd, lcm
from operator import neg
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .cyclo import CycNum, _reduced
from .errors import (AlphabetMismatch, ConductorMismatch, DegreeBoundExceeded,
                     ValidationError)
from .freealg import (GenMap, NcPoly, Presentation, Word, _check_relation,
                      _trusted_poly, deglex_key, word_degree)


# The int counters of one N-degree in `TruncGB.stats`.  `overlaps` counts the
# overlap S-polynomials generated, `reductions` every polynomial the
# completion loop reduced (relations and S-polynomials), `zero_reductions`
# those that reduced to zero, `tail_reductions` the basis elements of this
# degree whose tail was reduced again after a new leading word entered the
# basis; `basis_size` and `coeff_height_bits` (the largest numerator or
# denominator, in bits) describe the final basis elements of this degree.
_COUNTERS = ("overlaps", "reductions", "zero_reductions", "tail_reductions",
             "basis_size", "coeff_height_bits")


class TruncGB:
    """A reduced Groebner basis, complete through `bound`.  `stats` maps
    each degree 0..bound to the dict of `_COUNTERS` of the completion that
    built it, plus `normal_words`, the dimension of the quotient in that
    degree, counted on the leading-word automaton when the `TruncGB` is
    made, without building a word; the counters are deterministic, like the
    basis itself.

    Reduction finds leading words with the automaton of `_trie`, the letter
    trie of the leading words whose nodes hold their elements' rewrite rules
    (`_add_lead`, `_automaton`), as the completion kept it.  Products
    are normal-formed through a lazily built right-multiplication table:
    `_table[w + (x,)]` is NF(w*x) for a normal word w and a generator x, as
    a map {normal word: CycNum}.  Each entry is rewritten once, by the same
    reduction as `normal_form`; `times_word` then folds any product through
    the table letter by letter."""

    def __init__(self, presentation: Presentation, bound: int,
                 elements: Sequence[NcPoly], stats: dict, trie: dict):
        self.presentation = presentation
        self.bound = bound
        self.elements = tuple(elements)
        self.stats = stats
        self.lead_map = {g.leading_word(): g for g in self.elements}
        self._trie = trie
        self._words_by_degree: Optional[list] = None
        self._degrees = [g.degree for g in presentation.generators]
        self._table: dict = {}
        for d, count in enumerate(_normal_word_counts(trie, self._degrees, bound)):
            stats[d]["normal_words"] = count

    def __repr__(self) -> str:
        return f"TruncGB(bound={self.bound}, elements={len(self.elements)})"

    # -- normal words --------------------------------------------------------

    def normal_words_by_degree(self) -> list:
        """Irreducible words grouped by N-degree, degrees 0..bound, extended
        along the automaton; more than `MAX_NORMAL_WORDS` in all are refused."""
        if self._words_by_degree is not None:
            return self._words_by_degree
        total = sum(s["normal_words"] for s in self.stats.values())
        if total > MAX_NORMAL_WORDS:
            raise DegreeBoundExceeded(
                f"there are {total} normal words through degree {self.bound}, "
                f"more than the {MAX_NORMAL_WORDS} this tool enumerates")
        goto, out = _automaton(self._trie)
        levels: list = [[((), 0)]]
        for d in range(1, self.bound + 1):
            level = []
            for x, weight in enumerate(self._degrees):
                if weight <= d:
                    for w, state in levels[d - weight]:
                        t = goto[state].get(x, 0)
                        if out[t] is None:
                            level.append((w + (x,), t))
            level.sort()
            levels.append(level)
        self._words_by_degree = [[w for w, _ in level] for level in levels]
        return self._words_by_degree

    def normal_words(self, degree: int) -> list:
        if degree > self.bound:
            raise DegreeBoundExceeded(
                f"degree {degree} exceeds the truncation bound {self.bound}")
        return self.normal_words_by_degree()[degree]

    # -- the multiplication table --------------------------------------------

    def _entry(self, word: Word) -> dict:
        """NF(word) for word = w*x with w normal; the returned map is shared."""
        entry = self._table.get(word)
        if entry is None:
            gens = self.presentation.generators
            conductor = self.presentation.conductor
            entry = _reduce(NcPoly.from_word(gens, conductor, word),
                            self._trie).terms
            self._table[word] = entry
        return entry

    def times_word(self, terms: Mapping[Word, CycNum], word: Word) -> dict:
        """NF(p*word) for p = sum of c*v over `terms`, as {normal word: CycNum}.

        The words v of `terms` must be normal; NF of any word u is
        `times_word({(): 1}, u)`, because the empty word is normal."""
        degrees = self._degrees
        top = max((sum(degrees[i] for i in v) for v in terms), default=0)
        degree = top + sum(degrees[i] for i in word)
        if terms and degree > self.bound:
            raise DegreeBoundExceeded(
                f"product degree {degree} exceeds the truncation bound {self.bound}")
        if not word:
            return dict(terms)
        entry = self._entry
        for letter in word:
            out: dict = {}
            for v, c in terms.items():
                for u, e in entry(v + (letter,)).items():
                    t = c * e
                    s = out.get(u)
                    out[u] = t if s is None else s + t
            terms = {u: c for u, c in out.items() if not c.is_zero()}
        return terms


def _contains_subword(haystack: Word, needle: Word) -> bool:
    n = len(needle)
    if n > len(haystack):
        return False
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def _loop_terms(terms: Mapping[Word, CycNum], conductor: int) -> dict:
    """A new dict of `terms` in the rewrite loop's scalars: (numerator,
    denominator) pairs when phi(conductor) = 1, else the CycNum values."""
    if conductor <= 2:
        return {w: (c.num[0], c.den) for w, c in terms.items()}
    return dict(terms)


def _cycnum_terms(terms: dict, conductor: int) -> dict:
    """The inverse of `_loop_terms`; pairs need not be in lowest terms."""
    if conductor <= 2:
        return {w: _reduced(conductor, (x,), d) for w, (x, d) in terms.items()}
    return terms


# The trie keys of a leading word's rewrite rule and, at the root, of the
# rules' conductor and of the automaton; letters are >= 0.
_RULE = -1
_CONDUCTOR = -2
_AUTOMATON = -3


def _add_lead(trie: dict, g: NcPoly) -> None:
    """Enter the leading word of the monic element g into `trie`.  Its node
    holds g's rewrite rule lead -> -tail, made of the (word, coeff) pairs of
    the tail g - lead: over Q as (L, ((word, Y), ...)) with coeff = Y/L for
    the common denominator L > 0, otherwise as a tuple of (word, CycNum).
    Only a new leading word drops the trie's automaton (`_automaton`)."""
    lead = g.leading_word()
    node = trie
    for letter in lead:
        node = node.setdefault(letter, {})
    if _RULE not in node:
        trie.pop(_AUTOMATON, None)
    tail = [(w, c) for w, c in g.terms.items() if w != lead]
    if g.conductor <= 2:
        common = lcm(*(c.den for _, c in tail))
        node[_RULE] = common, tuple((w, c.num[0] * (common // c.den))
                                    for w, c in tail)
    else:
        node[_RULE] = tuple(tail)
    trie[_CONDUCTOR] = g.conductor


def _automaton(trie: dict) -> tuple:
    """The Aho-Corasick automaton (goto, out) of the trie's nodes, state 0
    the root, built on first use and kept at the root.  goto[s] maps letters
    of leading words to states, any other letter going to the root; out[s]
    is (length, node) if s spells a leading word, its rule node[_RULE].  The
    leading words form an antichain under the subword order, so a state's
    only output is its own, the match that ends first is the leftmost, and a
    leaf shares its failure state's row."""
    if _AUTOMATON in trie:
        return trie[_AUTOMATON]
    goto, out, queue = [], [], [(trie, 0, 0)]     # (node, failure state, depth)
    for state, (node, fail, depth) in enumerate(queue):
        children = [(k, v) for k, v in node.items() if k >= 0]
        row = goto[fail] if state else {}
        if children:
            row = dict(row)
            for letter, child in children:
                queue.append((child, row.get(letter, 0), depth + 1))
                row[letter] = len(queue) - 1
        goto.append(row)
        out.append((depth, node) if _RULE in node else None)
    automaton = trie[_AUTOMATON] = goto, out
    return automaton


def _normal_word_counts(trie: dict, degrees: Sequence[int], bound: int) -> list:
    """Normal words per degree 0..bound, by a dynamic programme over (degree,
    automaton state) that builds no word (Ufnarovski's graph of normal words)."""
    goto, out = _automaton(trie)
    counts: list = [{0: 1}] + [{} for _ in range(bound)]
    for d, here in enumerate(counts):
        for state, c in here.items():
            for x, w in enumerate(degrees):
                t = goto[state].get(x, 0)
                if d + w <= bound and out[t] is None:
                    counts[d + w][t] = counts[d + w].get(t, 0) + c
    return [sum(here.values()) for here in counts]


def _rewrite(terms: dict, word: Word, coeff, pos: int, length: int,
             rule: tuple) -> list:
    """Replace coeff*word in `terms` (already popped) by -coeff*left*tail*right,
    where word = left*lead*right and `rule` is the tail of the monic element
    with that leading word, as `_add_lead` holds it; return the words this
    adds to `terms`.  The scalars are int pairs or CycNum values, as
    `_loop_terms` makes them."""
    left, right = word[:pos], word[pos + length:]
    added = []
    if coeff.__class__ is tuple:
        # -x/b * Y/L = t*Y/den for every tail numerator Y, where t/den is
        # -x/(b*L) in lowest terms: one gcd per popped word, none per term
        # but the lcm of two different denominators
        x, b = coeff
        common, tail = rule
        den = b * common
        g = gcd(x, den)
        t = -x // g
        den //= g
        for tw, y in tail:
            new_word = left + tw + right
            s = terms.get(new_word)
            if s is None:
                terms[new_word] = (t * y, den)
                added.append(new_word)
                continue
            u, e = s
            if e == den:
                u += t * y
            else:
                g = gcd(e, den)
                u = u * (den // g) + t * y * (e // g)
                e = e // g * den
            if u:
                terms[new_word] = (u, e)
            else:
                del terms[new_word]
        return added
    for tw, tc in rule:
        new_word = left + tw + right
        s = terms.get(new_word)
        if s is None:
            terms[new_word] = coeff.neg_mul(tc)
            added.append(new_word)
        else:
            s = s.sub_mul(coeff, tc)
            if s.is_zero():
                del terms[new_word]
            else:
                terms[new_word] = s
    return added


# byte i -> 255 - i, so that ascending bytes order is descending order
_FLIP = bytes(range(255, -1, -1))


def _heap_key(degrees: Sequence[int], words) -> Callable:
    """A key whose ascending order is descending deglex, on `words` and on
    every word deglex-smaller than one of them.  With generator degrees
    >= 1, words of equal degree are never prefixes of each other, so
    reversing the letter order reverses lex.  The key is one bytes object,
    built and compared in C: the flipped degree followed by the flipped
    letters.  Alphabets beyond 256 letters and degrees beyond 255 do not fit
    in a byte and get a tuple key."""
    weight = degrees.__getitem__
    if max(degrees, default=1) == 1:
        top = max(map(len, words), default=0)
        key = lambda w: bytes((len(w),) + w).translate(_FLIP)
    else:
        top = max((sum(map(weight, w)) for w in words), default=0)
        key = lambda w: bytes((sum(map(weight, w)),) + w).translate(_FLIP)
    if len(degrees) > 256 or top > 255:
        return lambda w: (-sum(map(weight, w)), tuple(map(neg, w)))
    return key


def _reduce(p: NcPoly, trie: dict) -> NcPoly:
    n = p.conductor
    if trie.get(_CONDUCTOR, n) != n:
        raise ConductorMismatch(
            f"conductor {n} vs {trie[_CONDUCTOR]}; embed first")
    # Rewrite the deglex-largest reducible word at its first match until none
    # is left.  A rewrite only adds words smaller than the one it replaces, so
    # a max-heap visits words in that order and an irreducible word, once
    # popped, is final.
    goto, out = _automaton(trie)
    terms = _loop_terms(p.terms, n)
    heap_key = _heap_key([g.degree for g in p.gens], terms)
    heap = [(heap_key(w), w) for w in terms]
    heapq.heapify(heap)
    done = {}
    while heap:
        word = heapq.heappop(heap)[1]
        coeff = terms.pop(word, None)
        if coeff is None:            # cancelled, or a repeated heap entry
            continue
        state = 0                    # one pass; the first match is the leftmost
        for end, letter in enumerate(word, 1):
            state = goto[state].get(letter, 0)
            if out[state] is not None:
                break
        else:
            done[word] = coeff
            continue
        length, node = out[state]
        for w in _rewrite(terms, word, coeff, end - length, length, node[_RULE]):
            heapq.heappush(heap, (heap_key(w), w))
    return _trusted_poly(p.gens, n, _cycnum_terms(done, n))


def normal_form(p: NcPoly, gb: TruncGB) -> NcPoly:
    """Fully reduce p; zero iff p lies in the ideal through the bound."""
    if p.gens != gb.presentation.generators:
        raise AlphabetMismatch("polynomial and basis over different alphabets")
    deg = p.degree()
    if deg is not None and deg > gb.bound:
        raise DegreeBoundExceeded(
            f"polynomial degree {deg} exceeds the truncation bound {gb.bound}")
    return _reduce(p, gb._trie)


def _overlap_spolys(p: NcPoly, q: NcPoly, bound: int) -> list:
    """S-polynomials of the proper overlaps between the leading words."""
    u = p.leading_word()
    v = q.leading_word()
    out = []
    gens = p.gens
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k:] == v[:k]:
            common = u + v[k:]
            degree = word_degree(common, gens)
            if degree <= bound:
                s = p.word_mul_right(v[k:]) - q.word_mul_left(u[:len(u) - k])
                out.append((degree, s))
    return out


# The most normal words, over all degrees, `TruncGB.normal_words_by_degree` builds
MAX_NORMAL_WORDS = 100_000
# Bases by (presentation key, bound), least recently used first.  A cached
# basis keeps the multiplication table it has grown, so the cache is bounded;
# `report` uses 24 distinct keys.
GB_CACHE_SIZE = 64
_GB_CACHE: OrderedDict = OrderedDict()


def truncated_gb(presentation: Presentation, bound: int) -> TruncGB:
    """Reduced two-sided Groebner basis through `bound`, cached by
    (presentation, bound).  A basis not in the cache is completed only when
    every relation is one `make_presentation` accepts: nonzero, homogeneous
    and of positive degree, so the quotient is connected graded."""
    key = (presentation.canonical_key(), bound)
    if key in _GB_CACHE:
        _GB_CACHE.move_to_end(key)
        return _GB_CACHE[key]
    for k, rel in enumerate(presentation.relations, 1):
        _check_relation(k, rel)
    if bound < presentation.max_relation_degree():
        raise DegreeBoundExceeded(
            f"bound {bound} is below the maximum relation degree "
            f"{presentation.max_relation_degree()}")
    result = _GB_CACHE[key] = _complete(presentation, bound)
    if len(_GB_CACHE) > GB_CACHE_SIZE:
        _GB_CACHE.popitem(last=False)
    return result


def _complete(presentation: Presentation, bound: int) -> TruncGB:
    """The overlap completion behind `truncated_gb`, uncached and unchecked.

    Polynomials are taken from a queue in degree order and reduced by the
    basis so far; a nonzero result h is made monic and accepted.  The
    overlaps of h with the basis are queued, and the tails that contain
    lead(h) are reduced again, so the basis is reduced after every
    insertion.  The relations are homogeneous, so the queue pops in
    nondecreasing degree: no basis element has a degree above h's, and none
    has a leading word that contains lead(h), since it would equal lead(h)
    and h would not be reduced.  The trie the loop keeps is the returned
    basis's `_trie`."""
    gens, conductor = presentation.generators, presentation.conductor
    seq = itertools.count()
    heap: list = []
    for rel in presentation.relations:
        heapq.heappush(heap, (rel.degree(), next(seq), rel))

    basis: list = []
    trie: dict = {}
    stats = {d: dict.fromkeys(_COUNTERS, 0) for d in range(bound + 1)}

    while heap:
        degree, _, p = heapq.heappop(heap)
        h = _reduce(p, trie)
        stats[degree]["reductions"] += 1
        if h.is_zero():
            stats[degree]["zero_reductions"] += 1
            continue
        h = h.monic()
        lead_h = h.leading_word()
        for g in basis + [h]:
            pairs = [(h, g)] if g is h else [(h, g), (g, h)]
            for left, right in pairs:
                for degree, s in _overlap_spolys(left, right, bound):
                    stats[degree]["overlaps"] += 1
                    heapq.heappush(heap, (degree, next(seq), s))
        basis.append(h)
        _add_lead(trie, h)
        # Keep every tail reduced: lead(h) is the only leading word a tail can
        # now contain, and only in an element of h's degree or higher, as
        # tail words are deglex-smaller than their element's lead.
        h_degree = word_degree(lead_h, gens)
        for idx, g in enumerate(basis[:-1]):
            lead = g.leading_word()
            g_degree = word_degree(lead, gens)
            if g_degree < h_degree:
                continue
            # g's own leading word is kept, so it does not contain lead(h)
            if any(_contains_subword(w, lead_h) for w in g.terms):
                tail = {w: c for w, c in g.terms.items() if w != lead}
                tail = _reduce(_trusted_poly(gens, conductor, tail), trie).terms
                g = _trusted_poly(gens, conductor, {lead: g.terms[lead], **tail})
                basis[idx] = g
                _add_lead(trie, g)
                stats[g_degree]["tail_reductions"] += 1

    basis.sort(key=lambda g: deglex_key(g.leading_word(), gens))
    for g in basis:
        record = stats[g.degree()]
        record["basis_size"] += 1
        record["coeff_height_bits"] = max(
            record["coeff_height_bits"], *(c.height() for c in g.terms.values()))
    return TruncGB(presentation, bound, basis, stats, trie)


def hilbert_coeffs(presentation: Presentation, bound: int) -> tuple:
    """dim A_0 .. dim A_bound, the normal words counted by the completion."""
    gb = truncated_gb(presentation, max(bound, presentation.max_relation_degree()))
    return tuple(gb.stats[d]["normal_words"] for d in range(bound + 1))


def ideal_contains(p: NcPoly, presentation: Presentation, bound: int) -> bool:
    """True iff p reduces to zero modulo the relation ideal through `bound`."""
    deg = p.degree()
    if deg is not None and deg > bound:
        raise DegreeBoundExceeded(
            f"polynomial degree {deg} exceeds the bound {bound}")
    gb = truncated_gb(presentation,
                      max(bound, presentation.max_relation_degree()))
    return normal_form(p, gb).is_zero()


# ---------------------------------------------------------------------------
# regular elements, checked degreewise
# ---------------------------------------------------------------------------

def _sum_products(gb: TruncGB, left: dict, right: Mapping[Word, CycNum]) -> dict:
    """NF(p*q) for p = `left` (normal words) and q = `right`, by the table."""
    out: dict = {}
    for u, c in right.items():
        for w, e in gb.times_word(left, u).items():
            t = e * c
            s = out.get(w)
            out[w] = t if s is None else s + t
    return {w: c for w, c in out.items() if not c.is_zero()}


def _product_rows(a: NcPoly, gb: TruncGB, top: int):
    """For each degree d = 0..top, the rows NF(a*w) and the rows NF(w*a)
    over the normal words w of degree d, as sparse maps {normal word:
    CycNum}.  A prefix of a normal word is normal, so NF(a*w) is one table
    step from the row of w's prefix: NF(NF(a*w[:-1]) * w[-1])."""
    one = CycNum.one(a.conductor)
    left = {(): _sum_products(gb, {(): one}, a.terms)}
    for d in range(top + 1):
        words = gb.normal_words(d)
        for w in words:
            if w:
                left[w] = gb.times_word(left[w[:-1]], w[-1:])
        yield ([left[w] for w in words],
               [_sum_products(gb, {w: one}, a.terms) for w in words])


def is_regular_to_degree(a: NcPoly, presentation: Presentation,
                         bound: int) -> tuple:
    """(left-regular, right-regular) through `bound`: multiplication by a is
    injective on every component of degree <= bound - deg(a)."""
    from .linalg import rank
    deg_a = a.homogeneous_degree()
    if deg_a is None or a.is_zero():
        raise ValidationError("regularity check needs a homogeneous nonzero element")
    gb = truncated_gb(presentation, bound)
    left_ok = right_ok = True
    for left, right in _product_rows(a, gb, bound - deg_a):
        left_ok = left_ok and rank(left) == len(left)
        right_ok = right_ok and rank(right) == len(right)
        if not (left_ok or right_ok):
            break
    return left_ok, right_ok


# ---------------------------------------------------------------------------
# presentation isomorphism verification
# ---------------------------------------------------------------------------

class IsoVerdict(NamedTuple):
    status: str                      # SYNTACTIC | VERIFIED | FAILED
    degree: int
    syntactic: bool
    relations_in_ideal: list
    hilbert_lhs: tuple
    hilbert_rhs: tuple
    hilbert_equal: bool
    scalars: Optional[list]
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status != "FAILED"


def verify_iso(lhs: Presentation, rhs: Presentation, genmap: GenMap,
               bound: int) -> IsoVerdict:
    """Certify the necessary conditions for `genmap` to define an isomorphism
    lhs -> rhs through `bound`: mapped relations lie in the target ideal and
    the Hilbert prefixes agree.  When the mapped relation set equals the
    target relation set up to scalars the verdict is SYNTACTIC and the
    per-relation scalars are reported."""
    if bound < max(lhs.max_relation_degree(), rhs.max_relation_degree()):
        raise DegreeBoundExceeded(
            "degree bound is smaller than the relation degrees")
    if genmap.source != lhs.generators or genmap.target != rhs.generators:
        raise ValidationError("generator map does not connect the presentations")
    mapped = [genmap.apply(r) for r in lhs.relations]

    syntactic = False
    scalars: Optional[list] = None
    if len(mapped) == len(rhs.relations) and all(not m.is_zero() for m in mapped):
        remaining = list(range(len(rhs.relations)))
        pairing = []
        for m in mapped:
            canon = m.monic()
            hit = next((j for j in remaining if rhs.relations[j] == canon), None)
            if hit is None:
                pairing = None
                break
            remaining.remove(hit)
            pairing.append(m.leading_coeff())
        if pairing is not None:
            syntactic = True
            scalars = pairing

    gb_rhs = truncated_gb(rhs, bound)
    relations_in_ideal = []
    failure = None
    for k, m in enumerate(mapped):
        nf = normal_form(m, gb_rhs)
        ok = nf.is_zero()
        relations_in_ideal.append(ok)
        if not ok and failure is None:
            failure = (f"image of relation {k + 1} is nonzero in the target: "
                       f"{nf}")

    hl = hilbert_coeffs(lhs, bound)
    hr = hilbert_coeffs(rhs, bound)
    hilbert_equal = hl == hr
    if not hilbert_equal and failure is None:
        failure = f"Hilbert prefixes differ: {hl} vs {hr}"

    if failure is not None:
        status = "FAILED"
    elif syntactic:
        status = "SYNTACTIC"
    else:
        status = "VERIFIED"
    return IsoVerdict(status, bound, syntactic, relations_in_ideal,
                      hl, hr, hilbert_equal, scalars, failure)
