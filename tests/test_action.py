import itertools
import random

import pytest

from cotwist.action import (action_violations, isotypic_basis,
                            regrade_presentation, validate_action)
from cotwist.cyclo import CycNum, root_of_unity
from cotwist.errors import ValidationError
from cotwist.freealg import GenMap, make_alphabet, make_presentation, parse_ncpoly
from cotwist.groups import AbGroup, klein_duality
from cotwist.presets import preset
from cotwist.twist import grading_from_degrees
from support import a_family_xbasis, diagonal_matrices

KLEIN = AbGroup((2, 2))
E, G2, G1 = (0, 0), (0, 1), (1, 0)


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), CycNum.zero(4)) for row in a]


def klein_action_on_xbasis():
    pres, mats = a_family_xbasis()
    return pres, validate_action(pres, KLEIN, mats)


def test_quasi_trivial_action_is_valid():
    _, mats = klein_action_on_xbasis()
    assert len(mats) == 2


def test_identity_action_is_valid_on_any_presentation():
    pres = preset("B(1)").presentation
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
    validate_action(pres, KLEIN, [eye, eye])


def test_order_violation_reported():
    pres = preset("A(1,-1)").presentation
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    i = CycNum.zeta(4)
    eye = [[one if a == b else zero for b in range(3)] for a in range(3)]
    order4 = [[one, zero, zero], [zero, one, zero], [zero, zero, i]]
    with pytest.raises(ValidationError, match="order dividing 2"):
        validate_action(pres, KLEIN, [eye, order4])


def test_ideal_invariance_violation_reported():
    gens = make_alphabet([("x", 1), ("y", 1)])
    pres = make_presentation(4, gens, [parse_ncpoly("x*y", gens, 4)])
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    eye = [[one, zero], [zero, one]]
    swap = [[zero, one], [one, zero]]
    with pytest.raises(ValidationError, match="not invariant"):
        validate_action(pres, AbGroup((2, 2)), [swap, eye])


def test_noncommuting_matrices_reported():
    gens = make_alphabet([("x", 1), ("y", 1)])
    pres = make_presentation(4, gens, [])
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    swap = [[zero, one], [one, zero]]
    flip = [[one, zero], [zero, -one]]
    with pytest.raises(ValidationError, match="commute"):
        validate_action(pres, AbGroup((2, 2)), [swap, flip])


def test_isotypic_basis_matches_proof_basis():
    pres, mats = klein_action_on_xbasis()
    basis = isotypic_basis(pres, KLEIN, mats, klein_duality())
    assert basis.names == ("w1", "w2", "w3")
    assert basis.g_degrees == (E, G2, G1)
    cols = [[str(basis.matrix[i][k]) for i in range(3)] for k in range(3)]
    assert cols[0] == ["1", "1", "0"]     # x1 + x2
    assert cols[1] == ["1", "-1", "0"]    # x1 - x2
    assert cols[2] == ["0", "0", "1"]     # x3


def test_isotypic_basis_trivial_action():
    pres = preset("A(1,-1)").presentation
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    eye = [[one if a == b else zero for b in range(3)] for a in range(3)]
    mats = validate_action(pres, KLEIN, [eye, eye])
    basis = isotypic_basis(pres, KLEIN, mats, klein_duality())
    assert basis.names == ("w1", "w2", "w3")
    assert basis.g_degrees == (E, E, E)


def test_isotypic_basis_diagonal_action_reads_off_degrees():
    p = preset("A(1,-1)")
    basis = isotypic_basis(p.presentation, KLEIN, diagonal_matrices(p.spec),
                           p.spec.duality)
    assert basis.names == ("w1", "w2", "w3")
    assert basis.g_degrees == ((0, 0), (0, 1), (1, 0))


def test_eigen_relation_for_every_group_element():
    pres, mats = klein_action_on_xbasis()
    duality = klein_duality()
    basis = isotypic_basis(pres, KLEIN, mats, duality)
    for h in KLEIN.elements():
        for k, g_deg in enumerate(basis.g_degrees):
            column = [basis.matrix[i][k] for i in range(3)]
            # h = g1^a g2^b acts by M1^a M2^b
            scaled = column
            for matrix, power in zip(mats, h):
                for _ in range(power):
                    scaled = mat_vec(matrix, scaled)
            chi = root_of_unity(duality.char_eval(KLEIN.inv(g_deg), h), 2, 4)
            assert scaled == [chi * x for x in column]


def test_regrade_recovers_w_basis_presentation():
    pres, mats = klein_action_on_xbasis()
    grading = regrade_presentation(
        pres, isotypic_basis(pres, KLEIN, mats, klein_duality()), KLEIN)
    target = preset("A(1,-1)")
    assert grading.presentation.relations == target.presentation.relations
    assert grading.g_degrees == target.spec.grading.g_degrees


def test_regrade_round_trip_to_original_relations():
    pres, mats = klein_action_on_xbasis()
    basis = isotypic_basis(pres, KLEIN, mats, klein_duality())
    grading = regrade_presentation(pres, basis, KLEIN)
    # w_k goes back to its x-coordinates, column k of the basis matrix
    to_x = GenMap.from_matrix(grading.presentation.generators, pres.generators,
                              4, basis.matrix)
    back = [to_x.apply(r) for r in grading.presentation.relations]
    rebuilt = make_presentation(4, pres.generators, back)
    assert rebuilt == pres


def test_word_degree_multiplicative():
    grading = preset("A(1,-1)").spec.grading
    for u in [(0,), (1,), (2,), (0, 1), (2, 2, 1)]:
        for w in [(1,), (2, 0), (1, 1)]:
            assert grading.word_degree(u + w) == KLEIN.mul(
                grading.word_degree(u), grading.word_degree(w))


def test_g_degree_of_examples():
    p = preset("A(1,-1)")
    grading = p.spec.grading
    pres = p.presentation
    assert grading.poly_degree(pres.parse("w1^2 - w2^2")) == E
    assert grading.poly_degree(pres.parse("w3")) == G1
    assert grading.poly_degree(pres.parse("w3^2*w2")) == G2
    assert grading.poly_degree(pres.parse("w1 + w3")) is None


def test_eigenvector_count_per_degree():
    pres, mats = klein_action_on_xbasis()
    basis = isotypic_basis(pres, KLEIN, mats, klein_duality())
    per_degree = {}
    for g in basis.g_degrees:
        per_degree[g] = per_degree.get(g, 0) + 1
    assert per_degree == {E: 1, G2: 1, G1: 1}


def test_declared_degrees_must_make_relations_homogeneous():
    gens = make_alphabet([("w1", 1), ("w2", 1), ("w3", 1)])
    pres = make_presentation(4, gens,
                             [parse_ncpoly("w1*w2 - w1*w3", gens, 4)])
    with pytest.raises(ValidationError, match="not G-homogeneous"):
        grading_from_degrees(pres, KLEIN, [(0, 0), (0, 1), (1, 0)])
    # the same relation is fine when w2 and w3 share a degree
    grading_from_degrees(pres, KLEIN, [(0, 0), (0, 1), (0, 1)])


def test_diagonal_action_matches_declared_degrees():
    # the action that the preset's declared degrees mean is valid
    p = preset("A(1,-1)")
    m1, m2 = validate_action(p.presentation, KLEIN, diagonal_matrices(p.spec))
    assert [str(m1[k][k]) for k in range(3)] == ["1", "-1", "1"]
    assert [str(m2[k][k]) for k in range(3)] == ["1", "1", "-1"]


def test_action_rejects_degree_mixing_matrix():
    gens = make_alphabet([("x", 1), ("y", 2)])
    pres = make_presentation(4, gens, [])
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    mixing = [[one, one], [zero, one]]
    with pytest.raises(ValidationError, match="mixes generators"):
        validate_action(pres, AbGroup((2,)), [mixing])


def dense_product(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), CycNum.zero(4))
             for j in range(n)] for i in range(n)]


def dense_violations(group, mats):
    """The order and commutation messages of `action_violations`, in its
    order, from dense matrix products."""
    n = len(mats[0])
    eye = [[CycNum.one(4) if a == b else CycNum.zero(4) for b in range(n)]
           for a in range(n)]
    problems = []
    for j, m in enumerate(mats):
        power = eye
        for _ in range(group.factors[j]):
            power = dense_product(power, m)
        if power != eye:
            problems.append(f"matrix for g{j + 1} does not have order "
                            f"dividing {group.factors[j]}")
    if problems:
        return problems
    for j, k in itertools.combinations(range(group.rank), 2):
        if dense_product(mats[j], mats[k]) != dense_product(mats[k], mats[j]):
            problems.append(f"matrices for g{j + 1} and g{k + 1} do not commute")
    return problems


def signed_permutation(perm, scale):
    return [[scale[a] if perm[a] == b else CycNum.zero(4) for b in range(3)]
            for a in range(3)]


@pytest.mark.parametrize("factors", [(2, 2), (4,), (2, 4), (2, 2, 2)])
def test_order_and_commutation_match_dense_products(factors):
    # diagonal sign matrices, transpositions, a 3-cycle and diagonals with i:
    # some draws have the right orders, some commute, some do neither
    one, i = CycNum.one(4), CycNum.zeta(4)
    pool = [signed_permutation((0, 1, 2), signs)
            for signs in itertools.product((one, -one), repeat=3)]
    pool += [signed_permutation(perm, (one, one, -one))
             for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0))]
    pool += [signed_permutation((1, 2, 0), (one, one, one)),
             signed_permutation((0, 1, 2), (one, -one, i))]
    rng = random.Random(sum(factors))
    group = AbGroup(factors)
    gens = make_alphabet([("x", 1), ("y", 1), ("z", 1)])
    pres = make_presentation(4, gens, [])
    seen = set()
    for _ in range(30):
        mats = [rng.choice(pool) for _ in factors]
        expected = dense_violations(group, mats)
        assert action_violations(pres, group, mats) == expected
        seen.add(expected[0].split()[-1] if expected else "valid")
    assert "valid" in seen and len(seen) >= 2
    if group.rank > 1:
        assert "commute" in seen
