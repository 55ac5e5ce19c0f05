import itertools
import random

import pytest

from cotwist.crossed import (CrossedElement, build_crossed_model, crossed_basis,
                             isotypic_component, verify_bimodule_component,
                             verify_invariant_ring)
from cotwist.cyclo import CycNum, root_of_unity
from cotwist.errors import DegreeBoundExceeded, ValidationError
from cotwist.freealg import NcPoly
from cotwist.gbasis import normal_form
from cotwist.groups import (AbGroup, commutator_radical, klein_mu,
                            trivial_cocycle, validate_cocycle)
from cotwist.presets import preset
from cotwist.twist import TwistSpec

KLEIN = AbGroup((2, 2))
E, G2, G1, G12 = (0, 0), (0, 1), (1, 0), (1, 1)


# kG_mu has basis u_g with u_g u_h = mu(g,h) u_gh; `commutator_radical` fixes
# its center and its matrix-algebra verdict

def test_twisted_group_algebra_anticommuting_pair():
    mu = klein_mu()
    # u_g1 u_g2 = -u_g1g2 and u_g2 u_g1 = u_g1g2
    assert root_of_unity(mu.value(G1, G2), mu.modulus, 4) == CycNum.rational(-1, 4)
    assert root_of_unity(mu.value(G2, G1), mu.modulus, 4) == CycNum.one(4)
    assert G1 not in commutator_radical(mu) and G2 not in commutator_radical(mu)


def test_trivial_cocycle_group_algebra_is_commutative():
    assert commutator_radical(trivial_cocycle(KLEIN)) == KLEIN.elements()


def test_basis_elements_invertible():
    # u_g u_(g^-1) = mu(g, g^-1) u_e, a root of unity
    mu = klein_mu()
    for g in KLEIN.elements():
        assert KLEIN.mul(g, KLEIN.inv(g)) == E
        assert not root_of_unity(mu.value(g, KLEIN.inv(g)), mu.modulus,
                                 4).is_zero()


def test_klein_twist_is_two_by_two_matrix_algebra():
    assert commutator_radical(klein_mu()) == [E]


def test_cyclic_group_algebra_not_matrix_algebra():
    c4 = AbGroup((4,))
    assert commutator_radical(trivial_cocycle(c4)) == c4.elements()


def test_corrupted_cocycle_rejected_upstream():
    mu = klein_mu()
    table = {(g, h): mu.value(g, h)
             for g in KLEIN.elements() for h in KLEIN.elements()}
    table[(G2, G1)] += 1
    with pytest.raises(ValidationError):
        validate_cocycle(KLEIN, mu.modulus, table)


def model_for(name, bound=4):
    return build_crossed_model(preset(name).twist_spec(), bound)


def test_invariants_degree_zero():
    model = model_for("A(1,-1)")
    inv = isotypic_component(model, E, 0)
    assert len(inv) == 1
    ((word, g),) = inv[0].terms.keys()
    assert word == () and g == E


def test_invariants_degree_one_pairing():
    model = model_for("A(1,-1)")
    inv = isotypic_component(model, E, 1)
    keys = {key for x in inv for key in x.terms}
    assert keys == {((0,), E), ((1,), G2), ((2,), G1)}


def test_invariants_dimension_matches_algebra():
    model = model_for("A(1,-1)")
    for d in range(5):
        assert len(isotypic_component(model, E, d)) == \
            len(model.gb.normal_words(d))


def test_invariant_ring_report_trivial_cocycle():
    p = preset("B(1)")
    spec = TwistSpec(p.grading(), p.duality, trivial_cocycle(KLEIN))
    report = verify_invariant_ring(spec, 3)
    assert report.ok


def test_invariant_ring_report_klein():
    report = verify_invariant_ring(preset("A(1,-1)").twist_spec(), 4)
    assert report.ok
    assert [row[1] for row in report.dims_match] == [1, 3, 7, 13, 22]


def test_bimodule_scaling_value():
    from cotwist.crossed import component_scaling
    model = model_for("A(1,-1)", 3)
    # exponents base zeta_2 = -1
    assert component_scaling(model, G1, G2) == 1
    assert component_scaling(model, E, G2) == 0


def test_bimodule_components_all_group_elements():
    spec = preset("A(1,-1)").twist_spec()
    for g in KLEIN.elements():
        report = verify_bimodule_component(spec, g, 3)
        assert report.ok
        assert [row[1] for row in report.component_dims] == [1, 3, 7, 13]


def test_isotypic_product_law():
    model = model_for("A(1,-1)", 3)
    for g in KLEIN.elements():
        for h in KLEIN.elements():
            target_keys = set()
            for d in range(4):
                for x in isotypic_component(model, KLEIN.mul(g, h), d):
                    target_keys.update(x.terms.keys())
            for x in isotypic_component(model, g, 1):
                for y in isotypic_component(model, h, 1):
                    prod = x * y
                    assert set(prod.terms.keys()) <= target_keys


def test_crossed_associativity_random_triples():
    rng = random.Random(31)
    model = model_for("E(1,i)", 4)
    words = model.gb.normal_words(1)
    elements = KLEIN.elements()
    for _ in range(40):
        x, y, z = (
            CrossedElement.monomial(
                model, words[rng.randrange(len(words))],
                elements[rng.randrange(4)],
                CycNum.rational(rng.randrange(1, 4), 4))
            for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_isotypic_components_decompose_every_degree():
    model = model_for("G(1,(1+i)/2)", 3)
    for d in range(4):
        total = sum(len(isotypic_component(model, g, d))
                    for g in KLEIN.elements())
        assert total == len(crossed_basis(model, d))
        assert total == 4 * len(model.gb.normal_words(d))


def test_degree_bound_enforced():
    model = model_for("A(1,-1)", 3)
    x = CrossedElement.monomial(model, (0, 1), E)
    with pytest.raises(DegreeBoundExceeded):
        x * x


def test_product_matches_normal_form_for_non_normal_words():
    # every pair of words through the bound, normal or not, on both sides
    model = model_for("E(1,i)", 4)
    gens, n = model.spec.presentation.generators, model.conductor
    mu = model.spec.cocycle
    assert any(len(g.leading_word()) == 2 for g in model.gb.elements)
    words = [w for d in range(3)
             for w in itertools.product(range(len(gens)), repeat=d)]
    for wa in words:
        for wb in words:
            for ga, gb_el in ((G1, G2), (G12, G1)):
                prod = (CrossedElement.monomial(model, wa, ga)
                        * CrossedElement.monomial(model, wb, gb_el))
                scalar = root_of_unity(mu.value(ga, gb_el), mu.modulus, n)
                nf = normal_form(NcPoly.from_word(gens, n, wa + wb), model.gb)
                assert prod == CrossedElement(
                    model, {(w, KLEIN.mul(ga, gb_el)): c * scalar
                            for w, c in nf.terms.items()})
