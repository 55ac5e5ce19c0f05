"""The cocycle twist engine.

A twist never builds a second multiplication: a relation written in the old
product is re-expressed in star-product monomials by dividing each word's
coefficient by the accumulated cocycle scalar of its letter degrees.  Note
the direction: for a word with G-degrees h_1..h_k the left-associated scalar
is c = prod_j mu(h_1...h_j, h_{j+1}) and (old product) = c^(-1) (star
product), so `twist_poly` multiplies coefficients by c^(-1).  Using c
instead of c^(-1) is the classic off-by-conjugation mistake.

A twist reads the G-grading of the generators (`GGrading`), whether it was
declared (`grading_from_degrees`) or induced by an action that the spec
loader diagonalized (`action.regrade_presentation`).
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Optional, Sequence

from .cyclo import root_of_unity
from .errors import ValidationError
from .freealg import GenMap, NcPoly, Presentation, Word, make_presentation
from .groups import (AbGroup, Cocycle, Duality, Element, GroupAut,
                     all_automorphisms, cocycle_inverse, cocycle_pullback,
                     coboundary)


class GGrading(NamedTuple):
    """A presentation with G-homogeneous generators and their G-degrees."""

    group: AbGroup
    presentation: Presentation
    g_degrees: tuple

    def word_degree(self, word: Word) -> Element:
        out = self.group.identity()
        for letter in word:
            out = self.group.mul(out, self.g_degrees[letter])
        return out

    def poly_degree(self, p: NcPoly) -> Optional[Element]:
        """Common G-degree of all words, or None when inhomogeneous."""
        degrees = {self.word_degree(w) for w in p.terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()


def grading_from_degrees(presentation: Presentation, group: AbGroup,
                         g_degrees: Sequence[Element]) -> GGrading:
    """Attach declared G-degrees directly (generators already homogeneous);
    validates that every relation is G-homogeneous."""
    grading = GGrading(group, presentation, tuple(tuple(g) for g in g_degrees))
    for k, rel in enumerate(presentation.relations):
        if grading.poly_degree(rel) is None:
            raise ValidationError(
                f"relation {k + 1} is not G-homogeneous under the declared degrees")
    return grading


class TwistSpec:
    """Everything a twist needs: a G-grading, the fixed duality that induced
    it, and a 2-cocycle, all over one group and valued in one field;
    immutable."""

    __slots__ = ("grading", "duality", "cocycle")

    def __init__(self, grading: GGrading, duality: Duality, cocycle: Cocycle):
        if not (grading.group == duality.group == cocycle.group):
            raise ValidationError("grading, duality and cocycle use different groups")
        field = lcm(2, grading.presentation.conductor)
        if field % cocycle.modulus or field % grading.group.exponent():
            raise ValidationError(
                f"the cocycle modulus and the group exponent must divide "
                f"lcm(2, conductor) = {field}")
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "duality", duality)
        object.__setattr__(self, "cocycle", cocycle)

    def __setattr__(self, name, value):
        raise AttributeError("TwistSpec is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not TwistSpec:
            return NotImplemented
        return (self.grading == other.grading and self.duality == other.duality
                and self.cocycle == other.cocycle)

    def __hash__(self) -> int:
        return hash((self.grading, self.duality, self.cocycle))

    def __repr__(self) -> str:
        return (f"TwistSpec(grading={self.grading!r}, duality={self.duality!r}, "
                f"cocycle={self.cocycle!r})")

    @property
    def group(self) -> AbGroup:
        return self.grading.group

    @property
    def presentation(self) -> Presentation:
        return self.grading.presentation


def word_twist_scalar(degrees: Sequence[Element], cocycle: Cocycle) -> int:
    """prod_{j=1}^{k-1} mu(h_1...h_j, h_{j+1}) for letter degrees h_1..h_k,
    as an exponent.

    Any bracketing of the star product yields the same scalar by the cocycle
    identity; this left association is the stored convention."""
    if not degrees:
        raise ValidationError("a word twist scalar needs at least one letter")
    group = cocycle.group
    prefix = degrees[0]
    total = 0
    for h in degrees[1:]:
        total += cocycle.value(prefix, h)
        prefix = group.mul(prefix, h)
    return total % cocycle.modulus


def twist_poly(p: NcPoly, grading: GGrading, cocycle: Cocycle) -> NcPoly:
    """Re-express p (old-product monomials) in star-product monomials."""

    def convert(word, coeff):
        if not word:
            return coeff
        degrees = [grading.g_degrees[letter] for letter in word]
        return coeff * root_of_unity(-word_twist_scalar(degrees, cocycle),
                                     cocycle.modulus, p.conductor)

    return p.map_coeffs(convert)


def twist_presentation(spec: TwistSpec) -> GGrading:
    """The twisted algebra, presented on the same generators with each
    relation rewritten in star monomials; the G-grading carries over."""
    pres = spec.presentation
    twisted = [twist_poly(r, spec.grading, spec.cocycle) for r in pres.relations]
    new_pres = make_presentation(pres.conductor, pres.generators, twisted)
    return GGrading(spec.group, new_pres, spec.grading.g_degrees)


def double_twist(spec: TwistSpec) -> GGrading:
    """Twist by mu, then by the pointwise inverse cocycle on the carried-over
    grading; the composite is the identity on presentations."""
    first = twist_presentation(spec)
    inv = cocycle_inverse(spec.cocycle)
    return twist_presentation(TwistSpec(first, spec.duality, inv))


def regraded_spec(spec: TwistSpec, sigma: GroupAut) -> TwistSpec:
    """The same twist data with the G-grading twisted by sigma: a generator
    of old degree d gets new degree sigma^(-1)(d)."""
    inv = sigma.inverse()
    new_degrees = tuple(inv.apply(g) for g in spec.grading.g_degrees)
    grading = GGrading(spec.group, spec.presentation, new_degrees)
    return TwistSpec(grading, spec.duality, spec.cocycle)


def verify_regrade_compat(spec: TwistSpec, sigma: GroupAut) -> bool:
    """Check that twisting the sigma-regraded algebra with mu agrees with
    twisting the original grading with the pullback mu^(sigma^-1):
    the two twisted presentations must coincide exactly."""
    lhs = twist_presentation(regraded_spec(spec, sigma))
    pulled = cocycle_pullback(spec.cocycle, sigma.inverse())
    rhs = twist_presentation(TwistSpec(spec.grading, spec.duality, pulled))
    return lhs.presentation == rhs.presentation


def verify_duality_benign(grading: GGrading, phi: Duality, rho: Duality,
                          mu: Cocycle) -> Optional[GroupAut]:
    """Search Aut(G) for tau making the twist under (phi, mu) equal to the
    twist under (rho, mu^(tau^-1)); existence is guaranteed, so None, an
    exhausted search, is a falsification.

    `grading` is the one the action induces under phi.  Under rho the same
    homogeneous generators keep their eigenvalues, so a generator of degree
    g gets the h with chi^rho_h = chi^phi_g, compared by `Duality.values`;
    a pattern that no character of rho has also gives None."""
    group = grading.group
    under_rho = {rho.values(h): h for h in group.elements()}
    relabeled = tuple(under_rho.get(phi.values(g)) for g in grading.g_degrees)
    if None in relabeled:
        return None
    grading_rho = GGrading(group, grading.presentation, relabeled)
    target = twist_presentation(TwistSpec(grading, phi, mu))
    candidates = sorted(all_automorphisms(group),
                        key=lambda aut: not aut.is_identity())
    for tau in candidates:
        pulled = cocycle_pullback(mu, tau.inverse())
        candidate = twist_presentation(TwistSpec(grading_rho, rho, pulled))
        if candidate.presentation == target.presentation:
            return tau
    return None


def coboundary_rescale_matches(spec: TwistSpec, modulus: int,
                               rho: dict) -> bool:
    """Twisting by the coboundary of rho (exponents mod `modulus`) must agree
    with the rescaling v -> rho(deg v) v, up to canonical relation scaling."""
    conductor = spec.presentation.conductor
    delta = coboundary(spec.group, modulus, rho)
    twisted = twist_presentation(TwistSpec(spec.grading, spec.duality, delta))
    scalars = [root_of_unity(rho[g], modulus, conductor)
               for g in spec.grading.g_degrees]
    rescale = GenMap.scaling(spec.presentation.generators, conductor, scalars)
    rescaled = [rescale.apply(r) for r in twisted.presentation.relations]
    back = make_presentation(conductor, spec.presentation.generators, rescaled)
    return back == spec.presentation
