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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .cyclo import CycNum, root_of_unity
from .errors import DegreeBoundExceeded
from .freealg import Word, word_degree
from .gbasis import TruncGB, truncated_gb
from .groups import AbGroup, Element
from .linalg import rank as mat_rank
from .linalg import row_spaces_equal
from .twist import TwistSpec


# ---------------------------------------------------------------------------
# the crossed product on normal-word bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossedModel:
    spec: TwistSpec
    gb: TruncGB

    @property
    def group(self) -> AbGroup:
        return self.spec.group

    @property
    def bound(self) -> int:
        return self.gb.bound

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
    def zero(model: CrossedModel) -> "CrossedElement":
        return CrossedElement(model, {})

    @staticmethod
    def monomial(model: CrossedModel, word: Word, g: Element,
                 coeff: Optional[CycNum] = None) -> "CrossedElement":
        c = coeff if coeff is not None else CycNum.one(model.conductor)
        return CrossedElement(model, {(tuple(word), tuple(g)): c})

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

    def __hash__(self):
        return hash(self.key())

    def coords(self, basis_index: Mapping) -> list:
        row = [CycNum.zero(self.model.conductor)] * len(basis_index)
        for key, c in self.terms.items():
            row[basis_index[key]] = c
        return row

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key)
            terms[key] = c if s is None else s + c
        return CrossedElement(self.model, terms)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + other.scale(-CycNum.one(self.model.conductor))

    def scale(self, scalar: CycNum) -> "CrossedElement":
        return CrossedElement(self.model,
                              {key: c * scalar for key, c in self.terms.items()})

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        model = self.model
        group = model.group
        mu = model.spec.cocycle
        gens = model.spec.presentation.generators
        conductor = model.conductor
        one = CycNum.one(conductor)
        out: dict = {}
        for (wa, ga), ca in self.terms.items():
            left = None
            for (wb, gb_el), cb in other.terms.items():
                deg = word_degree(wa + wb, gens)
                if deg > model.bound:
                    raise DegreeBoundExceeded(
                        f"crossed product degree {deg} exceeds bound {model.bound}")
                if left is None:
                    left = model.gb.times_word({(): one}, wa)
                reduced = model.gb.times_word(left, wb)
                scalar = ca * cb * root_of_unity(mu.value(ga, gb_el),
                                                 mu.modulus, conductor)
                gh = group.mul(ga, gb_el)
                for w, c in reduced.items():
                    key = (w, gh)
                    s = out.get(key)
                    v = scalar * c
                    out[key] = v if s is None else s + v
        return CrossedElement(self.model, out)

    # -- the diagonal action -------------------------------------------------

    def act(self, h: Element) -> "CrossedElement":
        model = self.model
        exponent = model.group.exponent()
        return CrossedElement(model, {
            (w, g): c * root_of_unity(_eigenvalue(model, w, g, h), exponent,
                                      model.conductor)
            for (w, g), c in self.terms.items()})


def crossed_basis(model: CrossedModel, degree: int) -> list:
    """Monomial basis (normal word, group element) of the degree-d component."""
    return [(w, g) for w in model.gb.normal_words(degree)
            for g in model.group.elements()]


def _eigenvalue(model: CrossedModel, w: Word, g: Element, h: Element) -> int:
    duality = model.spec.duality
    group = model.group
    return (duality.char_eval(group.inv(model.word_g_degree(w)), h)
            + duality.char_eval(g, h)) % group.exponent()


def isotypic_component(model: CrossedModel, g: Element, degree: int) -> list:
    """Monomial basis of the chi_g isotypic component in degree d.  The |G|
    operators of the diagonal action are diagonal on the monomial basis, so
    the component is spanned by the monomials whose eigenvalues are chi_g's;
    for g = e it is the fixed subspace, the invariants."""
    group = model.group
    generators = [group.generator(j) for j in range(group.rank)]
    targets = [(e, model.spec.duality.char_eval(g, e)) for e in generators]
    out = []
    for w, h in crossed_basis(model, degree):
        if all(_eigenvalue(model, w, h, e) == t for e, t in targets):
            out.append(CrossedElement.monomial(model, w, h))
    return out


# ---------------------------------------------------------------------------
# the invariant-ring construction agrees with the presentation-level twist
# ---------------------------------------------------------------------------

@dataclass
class InvariantRingReport:
    bound: int
    relations_vanish: bool
    dims_match: list            # (degree, invariant dim, algebra dim, twisted dim)
    embedding_injective: bool
    multiplicative: bool
    images_invariant: bool

    @property
    def ok(self) -> bool:
        return (self.relations_vanish and self.embedding_injective
                and self.multiplicative and self.images_invariant
                and all(inv == alg == tw for _, inv, alg, tw in self.dims_match))


def verify_invariant_ring(spec: TwistSpec, bound: int) -> InvariantRingReport:
    """Mechanically confirm that the presentation-level twist and the
    invariant ring of the crossed product are the same algebra through
    `bound`.

    The generator embedding v_j -> (w_j (x) deg w_j) is pushed through both
    routes: the twisted presentation's relations must vanish in the crossed
    product, its normal words must land on a basis of the invariants, and
    multiplication must commute with the embedding on all spanning pairs."""
    from .twist import twist_presentation
    model = build_crossed_model(spec, bound)
    twisted = twist_presentation(spec)
    tw_gb = truncated_gb(twisted.presentation, bound)
    gens = twisted.presentation.generators
    conductor = twisted.presentation.conductor
    n = len(gens)

    gen_images = [CrossedElement.monomial(model, (j,), spec.grading.g_degrees[j])
                  for j in range(n)]
    images = {(): CrossedElement.monomial(model, (), model.group.identity())}

    def embed_word(word: Word) -> CrossedElement:
        img = images.get(word)
        if img is None:
            img = embed_word(word[:-1]) * gen_images[word[-1]]
            images[word] = img
        return img

    def embed_poly(terms: Mapping[Word, CycNum]) -> CrossedElement:
        out = CrossedElement.zero(model)
        for w, c in terms.items():
            out = out + embed_word(w).scale(c)
        return out

    relations_vanish = all(embed_poly(r.terms).is_zero()
                           for r in twisted.presentation.relations)

    group_gens = [model.group.generator(j) for j in range(model.group.rank)]
    identity_el = model.group.identity()
    dims_match = []
    embedding_injective = True
    images_invariant = True
    for d in range(bound + 1):
        inv_dim = len(isotypic_component(model, identity_el, d))
        alg_dim = len(model.gb.normal_words(d))
        tw_words = tw_gb.normal_words(d)
        index = {key: i for i, key in enumerate(crossed_basis(model, d))}
        rows = []
        for w in tw_words:
            img = embed_word(w)
            if any(img.act(h) != img for h in group_gens):
                images_invariant = False
            rows.append(img.coords(index))
        if rows and mat_rank(rows) != len(tw_words):
            embedding_injective = False
        dims_match.append((d, inv_dim, alg_dim, len(tw_words)))

    one = CycNum.one(conductor)
    multiplicative = True
    for d1 in range(1, bound):
        for d2 in range(1, bound - d1 + 1):
            for u in tw_gb.normal_words(d1):
                pu = embed_word(u)
                for v in tw_gb.normal_words(d2):
                    prod_in_twist = tw_gb.times_word({u: one}, v)
                    if embed_poly(prod_in_twist) != pu * embed_word(v):
                        multiplicative = False
    return InvariantRingReport(bound, relations_vanish, dims_match,
                               embedding_injective, multiplicative,
                               images_invariant)


# ---------------------------------------------------------------------------
# the bimodule decomposition of the crossed product
# ---------------------------------------------------------------------------

@dataclass
class BimoduleReport:
    g: Element
    bound: int
    identity_on_e: bool
    scaling_multiplicative: bool
    component_dims: list        # (degree, isotypic dim, algebra dim)
    left_span_matches: bool
    right_span_matches: bool

    @property
    def ok(self) -> bool:
        return (self.identity_on_e and self.scaling_multiplicative
                and self.left_span_matches and self.right_span_matches
                and all(iso == alg for _, iso, alg in self.component_dims))


def component_scaling(model: CrossedModel, g: Element, h: Element) -> int:
    """The scalar mu(h,g)/mu(g,h), as an exponent, by which conjugation by
    (1 (x) g) rescales the degree-h part of the invariant ring."""
    mu = model.spec.cocycle
    return (mu.value(h, g) - mu.value(g, h)) % mu.modulus


def verify_bimodule_component(spec: TwistSpec, g: Element,
                              bound: int) -> BimoduleReport:
    """Check the chi_g isotypic component of the crossed product: it is the
    two-sided free rank-1 module (1 (x) g) Phi(A) = Phi(A) (1 (x) g) in every
    degree, and the associated rescaling automorphism is multiplicative."""
    model = build_crossed_model(spec, bound)
    group = model.group
    identity_el = group.identity()

    identity_on_e = not any(component_scaling(model, identity_el, h)
                            for h in group.elements())
    scaling = {h: root_of_unity(component_scaling(model, g, h),
                                spec.cocycle.modulus, model.conductor)
               for h in group.elements()}

    scaling_multiplicative = True
    invariants = [isotypic_component(model, identity_el, d)
                  for d in range(bound + 1)]
    for d1 in range(0, bound + 1):
        for d2 in range(0, bound - d1 + 1):
            for x in invariants[d1]:
                (wx, hx), = x.terms.keys()
                sx = scaling[hx]
                for y in invariants[d2]:
                    (wy, hy), = y.terms.keys()
                    sy = scaling[hy]
                    prod = x * y
                    scaled = CrossedElement(
                        model,
                        {(w, h): c * scaling[h]
                         for (w, h), c in prod.terms.items()})
                    if scaled != (x.scale(sx) * y.scale(sy)):
                        scaling_multiplicative = False

    one_g = CrossedElement.monomial(model, (), g)
    component_dims = []
    left_span_matches = right_span_matches = True
    for d in range(bound + 1):
        iso = isotypic_component(model, g, d)
        alg_dim = len(model.gb.normal_words(d))
        component_dims.append((d, len(iso), alg_dim))
        index = {key: i for i, key in enumerate(crossed_basis(model, d))}
        iso_rows = [x.coords(index) for x in iso]
        left_rows = [(one_g * x).coords(index) for x in invariants[d]]
        right_rows = [(x * one_g).coords(index) for x in invariants[d]]
        if iso_rows or left_rows:
            if not row_spaces_equal(iso_rows, left_rows):
                left_span_matches = False
            if not row_spaces_equal(iso_rows, right_rows):
                right_span_matches = False
    return BimoduleReport(g, bound, identity_on_e, scaling_multiplicative,
                          component_dims, left_span_matches, right_span_matches)
