"""The crossed product A (x) kG_mu of a graded algebra and a twisted group
algebra.

The crossed product is modeled degreewise on Groebner normal-word bases of
the base algebra rather than as a presentation of its own: every check made
here is degreewise, and one completion engine is enough.  Elements are
sparse maps (normal word, group element) -> scalar with the multiplication
(a (x) g)(b (x) h) = mu(g,h) (ab (x) gh), ab reduced to normal form.

The diagonal action (a (x) g)^h = chi_{deg(a)^-1}(h) chi_g(h) (a (x) g) is
diagonal on this monomial basis, so fixed spaces and isotypic components
are computed by solving the (diagonal) eigenvalue conditions exactly.

The checks below do work linear in the basis.  Multiplicativity of the
embedding of the twisted algebra is checked on (normal word, generator)
pairs: by induction on degree that makes the image of NF(w) the image of w
for every word w, and the crossed product is associative (mu is a
2-cocycle), which gives every pair of normal words.  The rescaling of an
isotypic component, h -> mu(h,g)/mu(g,h), is checked as a character of G on
the |G|^2 pairs of group elements.  Ranks and spans are taken on the sparse
term maps themselves (`linalg.rank`, `linalg.row_spaces_equal`).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .cyclo import CycNum, root_of_unity
from .freealg import Word
from .gbasis import TruncGB, truncated_gb
from .groups import AbGroup, Element
from .linalg import rank, row_spaces_equal
from .twist import TwistSpec


# ---------------------------------------------------------------------------
# the crossed product on normal-word bases
# ---------------------------------------------------------------------------

class CrossedModel(NamedTuple):
    spec: TwistSpec
    gb: TruncGB

    @property
    def group(self) -> AbGroup:
        return self.spec.group

    @property
    def conductor(self) -> int:
        return self.spec.presentation.conductor

    def word_g_degree(self, word: Word) -> Element:
        return self.spec.grading.word_degree(word)


def build_crossed_model(spec: TwistSpec, bound: int) -> CrossedModel:
    return CrossedModel(spec, truncated_gb(spec.presentation, bound))


class CrossedElement:
    """A sparse element of A (x) kG_mu supported in N-degrees <= bound."""

    __slots__ = ("model", "terms")

    def __init__(self, model: CrossedModel, terms: Mapping):
        self.model = model
        self.terms = {key: c for key, c in terms.items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def monomial(model: CrossedModel, word: Word, g: Element,
                 coeff: Optional[CycNum] = None) -> "CrossedElement":
        """coeff * (NF(word) (x) g).  The one constructor that takes any
        word: it puts the word in normal form, so the words of every
        element are normal."""
        c = coeff if coeff is not None else CycNum.one(model.conductor)
        g = tuple(g)
        return CrossedElement(model, {
            (w, g): e for w, e in model.gb.times_word({(): c}, tuple(word)).items()})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def key(self):
        return tuple(sorted(((w, g, c.num, c.den)
                             for (w, g), c in self.terms.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.model is other.model and self.key() == other.key()

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        """Each pair of terms is one walk of the multiplication table,
        NF(wa*wb) = times_word({wa: c}, wb), which needs wa normal."""
        model = self.model
        group = model.group
        mu = model.spec.cocycle
        conductor = model.conductor
        out: dict = {}
        for (wa, ga), ca in self.terms.items():
            for (wb, gb_el), cb in other.terms.items():
                scalar = ca * cb * root_of_unity(mu.value(ga, gb_el),
                                                 mu.modulus, conductor)
                gh = group.mul(ga, gb_el)
                for w, c in model.gb.times_word({wa: scalar}, wb).items():
                    key = (w, gh)
                    s = out.get(key)
                    out[key] = c if s is None else s + c
        return CrossedElement(self.model, out)


def isotypic_component(model: CrossedModel, g: Element, degree: int) -> list:
    """Monomial basis of the chi_g isotypic component in degree d.  The |G|
    operators of the diagonal action are diagonal on the monomial basis, so
    the component is spanned by the monomials w (x) h whose eigenvalues
    chi_{deg(w)^-1}(e) chi_h(e) at the generators e of G are chi_g's; for
    g = e it is the fixed subspace, the invariants.  The monomials come
    word by word, each word's group elements in enumeration order."""
    group = model.group
    duality = model.spec.duality
    exponent = group.exponent()
    # the group elements h by their values chi_h(e) at the generators
    by_values: dict = {}
    for h in group.elements():
        by_values.setdefault(duality.values(h), []).append(h)
    targets = duality.values(g)
    one = CycNum.one(model.conductor)
    out = []
    for w in model.gb.normal_words(degree):
        need = tuple((t - v) % exponent for t, v in zip(
            targets, duality.values(group.inv(model.word_g_degree(w)))))
        out.extend(CrossedElement(model, {(w, h): one})
                   for h in by_values.get(need, ()))
    return out


# ---------------------------------------------------------------------------
# the invariant-ring construction agrees with the presentation-level twist
# ---------------------------------------------------------------------------

def verify_invariant_ring(spec: TwistSpec, bound: int) -> dict:
    """Mechanically confirm that the presentation-level twist and the
    invariant ring of the crossed product are the same algebra through
    `bound`; the record `invariants` prints, with one `pass` verdict.

    The generator embedding v_j -> (w_j (x) deg w_j) is pushed through both
    routes: the twisted presentation's relations must vanish in the crossed
    product, its normal words must land on a basis of the invariants, and
    multiplication must commute with the embedding.  The last is checked
    once per twisted normal word u of degree < bound and generator x with
    deg(u*x) <= bound: the image of NF(u*x), read from the twisted basis's
    own multiplication table, must equal the image of u times the image of
    x.  Induction on degree then gives image(NF(w)) = image(w) for every
    word w through the bound, and associativity of the crossed product gives
    image(NF(u*v)) = image(u) * image(v) for every pair."""
    from .twist import twist_presentation
    model = build_crossed_model(spec, bound)
    twisted = twist_presentation(spec)
    tw_gb = truncated_gb(twisted.presentation, bound)
    gens = twisted.presentation.generators
    one = CycNum.one(twisted.presentation.conductor)

    # a generator above the bound is in no word that is embedded
    gen_images = [CrossedElement.monomial(model, (j,), spec.grading.g_degrees[j])
                  if g.degree <= bound else None for j, g in enumerate(gens)]
    images = {(): CrossedElement.monomial(model, (), model.group.identity())}

    def embed_word(word: Word) -> CrossedElement:
        img = images.get(word)
        if img is None:
            img = embed_word(word[:-1]) * gen_images[word[-1]]
            images[word] = img
        return img

    def embed_poly(terms: Mapping[Word, CycNum]) -> CrossedElement:
        out: dict = {}
        for w, c in terms.items():
            for key, e in embed_word(w).terms.items():
                t = e * c
                s = out.get(key)
                out[key] = t if s is None else s + t
        return CrossedElement(model, out)

    relations_vanish = all(embed_poly(r.terms).is_zero()
                           for r in twisted.presentation.relations)

    identity_el = model.group.identity()
    dims = []
    embedding_injective = True
    images_invariant = True
    for d in range(bound + 1):
        invariants = {key for x in isotypic_component(model, identity_el, d)
                      for key in x.terms}
        tw_words = tw_gb.normal_words(d)
        rows = [embed_word(w).terms for w in tw_words]
        if not all(invariants.issuperset(row) for row in rows):
            images_invariant = False
        if rank(rows) != len(tw_words):
            embedding_injective = False
        dims.append({"degree": d, "invariants": len(invariants),
                     "algebra": len(model.gb.normal_words(d)),
                     "twisted": len(tw_words)})

    def image_times_generator(u: Word, x: int) -> CrossedElement:
        # u*x need not be normal, and then its image is not kept
        ux = u + (x,)
        return images[ux] if ux in images else embed_word(u) * gen_images[x]

    multiplicative = all(
        embed_poly(tw_gb.times_word({u: one}, (x,))) == image_times_generator(u, x)
        for d in range(bound) for u in tw_gb.normal_words(d)
        for x, generator in enumerate(gens) if d + generator.degree <= bound)
    return {
        "degree": bound, "dims": dims, "relations_vanish": relations_vanish,
        "embedding_injective": embedding_injective,
        "multiplicative": multiplicative, "images_invariant": images_invariant,
        "pass": (relations_vanish and embedding_injective and multiplicative
                 and images_invariant
                 and all(row["invariants"] == row["algebra"] == row["twisted"]
                         for row in dims))}


# ---------------------------------------------------------------------------
# the bimodule decomposition of the crossed product
# ---------------------------------------------------------------------------

def component_scaling(model: CrossedModel, g: Element, h: Element) -> int:
    """The scalar mu(h,g)/mu(g,h), as an exponent, by which conjugation by
    (1 (x) g) rescales the degree-h part of the invariant ring."""
    mu = model.spec.cocycle
    return (mu.value(h, g) - mu.value(g, h)) % mu.modulus


def verify_bimodule_component(spec: TwistSpec, g: Element, bound: int) -> dict:
    """Check the chi_g isotypic component of the crossed product: it is the
    two-sided free rank-1 module (1 (x) g) Phi(A) = Phi(A) (1 (x) g) in every
    degree, and the associated rescaling automorphism is multiplicative.
    Conjugation by (1 (x) g) rescales the degree-h part of the invariant
    ring by mu(h,g)/mu(g,h), so the rescaling is multiplicative exactly when
    h -> mu(h,g)/mu(g,h) is a character of G, an identity on exponents; for
    g = e it must be the identity.  Returns the item `report` lists under
    `bimodule_components`, with one `pass` verdict."""
    model = build_crossed_model(spec, bound)
    group = model.group
    modulus = spec.cocycle.modulus
    identity_el = group.identity()
    elements = group.elements()

    identity_on_e = not any(component_scaling(model, identity_el, h)
                            for h in elements)
    scaling = {h: component_scaling(model, g, h) for h in elements}
    scaling_multiplicative = all(
        scaling[group.mul(a, b)] == (scaling[a] + scaling[b]) % modulus
        for a in elements for b in elements)

    one_g = CrossedElement.monomial(model, (), g)
    dims = []
    spans_match = True
    for d in range(bound + 1):
        iso_rows = [x.terms for x in isotypic_component(model, g, d)]
        invariants = isotypic_component(model, identity_el, d)
        dims.append([d, len(iso_rows), len(model.gb.normal_words(d))])
        left = [(one_g * x).terms for x in invariants]
        right = [(x * one_g).terms for x in invariants]
        spans_match = (spans_match and row_spaces_equal(iso_rows, left)
                       and row_spaces_equal(iso_rows, right))
    return {"g": group.describe(g), "dims": dims,
            "scaling_multiplicative": scaling_multiplicative,
            "spans_match": spans_match,
            "pass": (identity_on_e and scaling_multiplicative and spans_match
                     and all(iso == alg for _, iso, alg in dims))}
