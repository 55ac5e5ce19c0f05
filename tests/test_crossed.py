import itertools
import json
import os
import random

import pytest

from cotwist import twist
from cotwist.crossed import (CrossedElement, build_crossed_model,
                             isotypic_component, verify_bimodule_component,
                             verify_invariant_ring)
from cotwist.cyclo import CycNum, root_of_unity
from cotwist.errors import DegreeBoundExceeded, ValidationError
from cotwist.freealg import NcPoly
from cotwist.gbasis import normal_form
from cotwist.groups import (AbGroup, Cocycle, commutator_radical, klein_mu,
                            trivial_cocycle, validate_cocycle)
from cotwist.jsonio import spec_bundle_from_dict
from cotwist.presets import preset
from cotwist.twist import TwistSpec

C3C3_SPEC = os.path.join(os.path.dirname(__file__), "golden", "c3c3.json")
# the four twist sources of the presets, and the C3 x C3 spec
SPEC_NAMES = ("A(1,-1)", "B(1)", "E(1,i)", "G(1,(1+i)/2)", "c3c3")

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


def spec_for(name):
    if name == "c3c3":
        with open(C3C3_SPEC, encoding="utf-8") as handle:
            return spec_bundle_from_dict(json.load(handle)).spec
    return preset(name).spec


def model_for(name, bound=4):
    return build_crossed_model(spec_for(name), bound)


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
    spec = TwistSpec(p.spec.grading, p.spec.duality, trivial_cocycle(KLEIN))
    report = verify_invariant_ring(spec, 3)
    assert report.ok


def test_invariant_ring_report_klein():
    report = verify_invariant_ring(preset("A(1,-1)").spec, 4)
    assert report.ok
    assert [row[1] for row in report.dims_match] == [1, 3, 7, 13, 22]


def test_bimodule_scaling_value():
    from cotwist.crossed import component_scaling
    model = model_for("A(1,-1)", 3)
    # exponents base zeta_2 = -1
    assert component_scaling(model, G1, G2) == 1
    assert component_scaling(model, E, G2) == 0


def test_bimodule_components_all_group_elements():
    spec = preset("A(1,-1)").spec
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
        keys = [key for g in KLEIN.elements()
                for x in isotypic_component(model, g, d) for key in x.terms]
        assert sorted(keys) == sorted(itertools.product(
            model.gb.normal_words(d), KLEIN.elements()))


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


def crossed_monomials(model, degree):
    """The crossed basis monomials (normal word, group element) of a degree."""
    return [(w, g) for w in model.gb.normal_words(degree)
            for g in model.group.elements()]


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_crossed_product_is_associative_on_basis_monomials(name):
    # (xy)z = x(yz) for all basis monomials with deg x + deg y + deg z <= 3.
    # `CrossedElement.__mul__` makes every product of two monomials; the
    # products of their sums with a third monomial are read off that table.
    model = model_for(name, 3)
    monomials = [crossed_monomials(model, d) for d in range(4)]
    table = {}
    for d1 in range(4):
        for x in monomials[d1]:
            left = CrossedElement.monomial(model, *x)
            for d2 in range(4 - d1):
                for y in monomials[d2]:
                    table[x, y] = (left * CrossedElement.monomial(model, *y)).terms

    def combine(pairs):
        out = {}
        for c, terms in pairs:
            for key, e in terms.items():
                out[key] = out[key] + c * e if key in out else c * e
        return {key: c for key, c in out.items() if not c.is_zero()}

    triples = 0
    for d1, d2 in itertools.product(range(4), repeat=2):
        for d3 in range(4 - d1 - d2):
            for x, y in itertools.product(monomials[d1], monomials[d2]):
                xy = table[x, y]
                for z in monomials[d3]:
                    assert (combine((c, table[m, z]) for m, c in xy.items())
                            == combine((c, table[x, m])
                                       for m, c in table[y, z].items())), (x, y, z)
                    triples += 1
    assert triples > 10_000


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_isotypic_component_matches_the_eigenvalue_filter(name):
    # the component as the monomials of the crossed basis, in its order,
    # whose eigenvalues at every group generator are chi_g's
    model = model_for(name, 3)
    group, duality = model.group, model.spec.duality
    generators = [group.generator(j) for j in range(group.rank)]

    def eigenvalue(w, h, e):
        return (duality.char_eval(group.inv(model.word_g_degree(w)), e)
                + duality.char_eval(h, e)) % group.exponent()

    for g in group.elements():
        for d in range(4):
            expected = [(w, h) for w, h in crossed_monomials(model, d)
                        if all(eigenvalue(w, h, e) == duality.char_eval(g, e)
                               for e in generators)]
            assert [key for x in isotypic_component(model, g, d)
                    for key in x.terms] == expected


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_invariant_ring_and_components_hold(name):
    spec = spec_for(name)
    assert verify_invariant_ring(spec, 4).ok
    for g in spec.group.elements():
        assert verify_bimodule_component(spec, g, 3).ok


def test_generator_check_refuses_another_cocycles_twist(monkeypatch):
    # The twist by the transposed cocycle mu(h,g), which on C3 x C3 has other
    # relations, is not the invariant ring of A (x) kG_mu: its relations do
    # not vanish there, and its multiplication table disagrees with the
    # crossed product on some (normal word, generator) pair.
    spec = spec_for("c3c3")
    mu = spec.cocycle
    transposed = Cocycle(mu.group, mu.modulus, tuple(zip(*mu.values)))
    real = twist.twist_presentation
    monkeypatch.setattr(twist, "twist_presentation", lambda s: real(
        TwistSpec(s.grading, s.duality, transposed)))
    report = verify_invariant_ring(spec, 4)
    assert not report.relations_vanish
    assert not report.multiplicative
    assert not report.ok


def test_scaling_check_refuses_a_non_character():
    # one corrupted entry, mu((0,1),(0,2)), makes the table no cocycle; the
    # scaling of g = (0,2) then takes (0,1) to zeta_3 and (0,2) to 1
    spec = spec_for("c3c3")
    mu = spec.cocycle
    values = [list(row) for row in mu.values]
    values[1][2] = (values[1][2] + 1) % mu.modulus
    broken = Cocycle(mu.group, mu.modulus, tuple(map(tuple, values)))
    g = spec.group.elements()[2]
    report = verify_bimodule_component(
        TwistSpec(spec.grading, spec.duality, broken), g, 3)
    assert not report.scaling_multiplicative
