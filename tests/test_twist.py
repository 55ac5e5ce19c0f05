import json
import os
import random

import pytest

from cotwist.action import isotypic_basis
from cotwist.cyclo import CycNum, parse_scalar
from cotwist.errors import ValidationError
from cotwist.groups import (AbGroup, all_automorphisms, coboundary,
                            cocycle_product, cocycle_pullback, klein_duality,
                            klein_mu, make_duality, make_group_aut,
                            standard_duality, trivial_cocycle)
from cotwist.jsonio import presentation_from_dict, spec_bundle_from_dict
from cotwist.presets import preset
from cotwist.twist import (GGrading, TwistSpec, coboundary_rescale_matches,
                           double_twist, regraded_spec, twist_poly,
                           twist_presentation, verify_duality_benign,
                           verify_regrade_compat, word_twist_scalar)

KLEIN = AbGroup((2, 2))
E, G2, G1 = (0, 0), (0, 1), (1, 0)
MU = klein_mu()
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_word_twist_scalar_proof_displays():
    # exponents base zeta_2 = -1
    assert word_twist_scalar([G1, E, G2], MU) == 1
    assert word_twist_scalar([G1, G1, G2], MU) == 0
    assert word_twist_scalar([G2], MU) == 0


def test_word_twist_scalar_needs_letters():
    with pytest.raises(ValidationError):
        word_twist_scalar([], MU)


def test_bracketing_independence():
    rng = random.Random(17)
    elements = KLEIN.elements()

    def tree_scalar(degrees):
        if len(degrees) == 1:
            return 0, degrees[0]
        cut = rng.randrange(1, len(degrees))
        left_scalar, left_deg = tree_scalar(degrees[:cut])
        right_scalar, right_deg = tree_scalar(degrees[cut:])
        total = left_scalar + right_scalar + MU.value(left_deg, right_deg)
        return total % MU.modulus, KLEIN.mul(left_deg, right_deg)

    for _ in range(1000):
        degrees = [elements[rng.randrange(4)] for _ in range(rng.randrange(1, 7))]
        scalar, _ = tree_scalar(degrees)
        assert scalar == word_twist_scalar(degrees, MU)


def test_twist_poly_fourth_relation_of_first_family():
    p = preset("A(1,-1)")
    grading = p.spec.grading
    source = p.presentation.parse("[w3,[w1,w2]_+]")
    twisted = twist_poly(source, grading, MU)
    expected = -p.presentation.parse(
        "w3*w1*w2 + w3*w2*w1 + w1*w2*w3 + w2*w1*w3")
    assert twisted == expected


def test_twist_poly_leaves_shared_quadratic_alone():
    p = preset("A(1,-1)")
    source = p.presentation.parse("w1^2 - w2^2")
    assert twist_poly(source, p.spec.grading, MU) == source


def test_twist_poly_trivial_cocycle_is_identity():
    p = preset("E(1,i)")
    mu0 = trivial_cocycle(KLEIN)
    for rel in p.presentation.relations:
        assert twist_poly(rel, p.spec.grading, mu0) == rel


def test_twist_presentation_hits_targets():
    for source_name, target_name in [("A(1,-1)", "D(1,1)"), ("B(1)", "C(1)"),
                                     ("E(1,i)", "E(1,-i)"),
                                     ("G(1,(1+i)/2)", "G(1,(1-i)/2)")]:
        source = preset(source_name)
        twisted = twist_presentation(source.spec)
        assert twisted.presentation.relations == \
            preset(target_name).presentation.relations
        assert twisted.g_degrees == source.spec.grading.g_degrees


def test_twist_is_involutive_on_presets():
    for name in ("A(1,-1)", "C(1)", "G(1,(1+i)/2)"):
        p = preset(name)
        once = twist_presentation(p.spec)
        twice = twist_presentation(TwistSpec(once, p.spec.duality,
                                             p.spec.cocycle))
        assert twice.presentation == p.presentation


def test_double_twist_with_inverse_cocycle():
    for name in ("B(1)", "E(1,-i)"):
        p = preset(name)
        assert double_twist(p.spec).presentation == p.presentation


def test_regrade_compat_identity():
    spec = preset("A(1,-1)").spec
    identity = make_group_aut(KLEIN, (KLEIN.generator(0), KLEIN.generator(1)))
    assert verify_regrade_compat(spec, identity)


def test_regrade_compat_all_automorphisms_and_cocycles():
    base = preset("A(1,-1)").spec
    variants = [MU,
                trivial_cocycle(KLEIN),
                cocycle_product(MU, coboundary(
                    KLEIN, 4, {E: 0, G1: 1, G2: 2, (1, 1): 3}))]
    for mu in variants:
        spec = TwistSpec(base.grading, base.duality, mu)
        for sigma in all_automorphisms(KLEIN):
            assert verify_regrade_compat(spec, sigma)


def test_regraded_spec_relabels_degrees():
    spec = preset("A(1,-1)").spec
    swap = make_group_aut(KLEIN, [G2, G1])
    regraded = regraded_spec(spec, swap)
    assert regraded.grading.g_degrees == (E, G1, G2)


def test_duality_benign_same_duality_gives_identity():
    spec = preset("A(1,-1)").spec
    tau = verify_duality_benign(spec.grading, spec.duality, spec.duality,
                                spec.cocycle)
    assert tau.is_identity()


def test_duality_benign_klein_vs_standard():
    p = preset("A(1,-1)")
    tau = verify_duality_benign(p.spec.grading, klein_duality(),
                                standard_duality(KLEIN), p.spec.cocycle)
    # a witness exists; the return value is the first automorphism (identity
    # before the rest) whose pulled-back cocycle reproduces the twist
    assert tau.group == KLEIN


def test_duality_benign_trivial_cocycle_identity_first():
    p = preset("B(1)")
    tau = verify_duality_benign(p.spec.grading, klein_duality(),
                                standard_duality(KLEIN),
                                trivial_cocycle(KLEIN))
    assert tau.is_identity()


def load_spec(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return json.load(handle)


def same_character_grading(grading, phi, rho):
    """The generators homogeneous under phi, graded under rho: degree g
    becomes the h with chi^rho_h(x) = chi^phi_g(x) at every x in G."""
    elements = grading.group.elements()
    return GGrading(grading.group, grading.presentation, tuple(
        next(h for h in elements
             if all(rho.char_eval(h, x) == phi.char_eval(g, x) for x in elements))
        for g in grading.g_degrees))


def assert_benign_witness(grading, phi, rho, mu):
    tau = verify_duality_benign(grading, phi, rho, mu)
    target = twist_presentation(TwistSpec(grading, phi, mu))
    regraded = same_character_grading(grading, phi, rho)
    other = twist_presentation(
        TwistSpec(regraded, rho, cocycle_pullback(mu, tau.inverse())))
    assert other.presentation == target.presentation


def test_duality_benign_on_c3c3_under_two_dualities():
    spec = spec_bundle_from_dict(load_spec("c3c3.json")).spec
    group, one, z3 = spec.group, CycNum.one(1), parse_scalar("zeta(3)")
    assert_benign_witness(spec.grading, spec.duality, standard_duality(group),
                          spec.cocycle)
    other = make_duality(group, [[z3, z3], [one, z3]])
    assert other != spec.duality
    assert_benign_witness(spec.grading, spec.duality, other, spec.cocycle)


def test_duality_benign_on_grammar_with_the_klein_duality():
    data = load_spec("grammar.json")
    bundle = spec_bundle_from_dict(data)
    spec = bundle.spec
    assert spec.duality == standard_duality(KLEIN)
    assert_benign_witness(spec.grading, spec.duality, klein_duality(),
                          spec.cocycle)
    # the relabeling agrees with diagonalizing the action anew under the
    # Klein duality: each eigenvector keeps its column, and takes the degree
    # that second basis gives it
    pres = presentation_from_dict(data, spec.presentation.conductor)
    matrices = [[[parse_scalar(x).embed(pres.conductor) for x in row]
                 for row in item["matrix"]] for item in data["action"]]
    again = isotypic_basis(pres, KLEIN, matrices, klein_duality())

    def columns(basis):
        return [tuple(row[k] for row in basis.matrix) for k in range(3)]

    degree_of = dict(zip(columns(again), again.g_degrees))
    regraded = same_character_grading(spec.grading, spec.duality,
                                      klein_duality())
    assert regraded.g_degrees == tuple(degree_of[c]
                                       for c in columns(bundle.basis))
    assert regraded.g_degrees != spec.grading.g_degrees


def test_coboundary_rescale_on_all_presets():
    # generator rescalings by powers of i, as exponents mod 4
    rhos = [
        {E: 0, G1: 1, G2: 2, (1, 1): 1},
        {E: 0, G1: 0, G2: 1, (1, 1): 3},
    ]
    from cotwist.presets import PRESET_NAMES
    for name in PRESET_NAMES:
        spec = preset(name).spec
        for rho in rhos:
            assert coboundary_rescale_matches(spec, 4, rho)


def test_coboundary_rescale_random_witnesses():
    rng = random.Random(23)
    spec = preset("G(1,(1-i)/2)").spec
    for _ in range(10):
        rho = {E: 0}
        for el in (G1, G2, (1, 1)):
            rho[el] = rng.randrange(4)
        assert coboundary_rescale_matches(spec, 4, rho)


def test_twist_spec_rejects_conductor_mismatch():
    p = preset("A(1,-1)")
    # delta(g1, g2) = zeta_8: an order-8 value is not in Q(i)
    mu8 = coboundary(KLEIN, 8, {E: 0, G1: 1, G2: 0, (1, 1): 0})
    assert mu8.modulus == 8
    with pytest.raises(ValidationError, match="conductor"):
        TwistSpec(p.spec.grading, p.spec.duality, mu8)


def test_twist_spec_rejects_group_mismatch():
    p = preset("A(1,-1)")
    other = trivial_cocycle(AbGroup((2,)))
    with pytest.raises(ValidationError, match="group"):
        TwistSpec(p.spec.grading, p.spec.duality, other)
