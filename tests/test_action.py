import pytest

from cotwist.action import (diagonal_action, grading_from_degrees,
                            isotypic_basis, regrade_presentation,
                            validate_action)
from cotwist.cyclo import CycNum, root_of_unity
from cotwist.errors import ValidationError
from cotwist.freealg import GenMap, make_alphabet, make_presentation, parse_ncpoly
from cotwist.groups import AbGroup, klein_duality
from cotwist.linalg import identity, mat_mul, mat_pow
from cotwist.presets import preset
from support import a_family_xbasis

KLEIN = AbGroup((2, 2))
E, G2, G1 = (0, 0), (0, 1), (1, 0)


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), CycNum.zero(4)) for row in a]


def klein_action_on_xbasis():
    pres, mats = a_family_xbasis()
    return pres, validate_action(pres, KLEIN, mats)


def test_quasi_trivial_action_is_valid():
    _, action = klein_action_on_xbasis()
    assert len(action.matrices) == 2


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
    i = CycNum.i()
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
    pres, action = klein_action_on_xbasis()
    basis = isotypic_basis(action, klein_duality())
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
    action = validate_action(pres, KLEIN, [eye, eye])
    basis = isotypic_basis(action, klein_duality())
    assert basis.names == ("w1", "w2", "w3")
    assert basis.g_degrees == (E, E, E)


def test_isotypic_basis_diagonal_action_reads_off_degrees():
    p = preset("A(1,-1)")
    basis = isotypic_basis(p.action, p.duality)
    assert basis.names == ("w1", "w2", "w3")
    assert basis.g_degrees == ((0, 0), (0, 1), (1, 0))


def test_eigen_relation_for_every_group_element():
    pres, action = klein_action_on_xbasis()
    duality = klein_duality()
    basis = isotypic_basis(action, duality)
    for h in KLEIN.elements():
        # the matrix of h = g1^a g2^b is M1^a M2^b
        m = identity(3, 4)
        for matrix, power in zip(action.matrices, h):
            m = mat_mul(m, mat_pow(matrix, power, 4))
        for k, g_deg in enumerate(basis.g_degrees):
            column = [basis.matrix[i][k] for i in range(3)]
            scaled = mat_vec(m, column)
            chi = root_of_unity(duality.char_eval(KLEIN.inv(g_deg), h), 2, 4)
            assert scaled == [chi * x for x in column]


def test_regrade_recovers_w_basis_presentation():
    pres, action = klein_action_on_xbasis()
    grading = regrade_presentation(pres, isotypic_basis(action, klein_duality()),
                                   KLEIN)
    target = preset("A(1,-1)")
    assert grading.presentation.relations == target.presentation.relations
    assert grading.g_degrees == target.g_degrees


def test_regrade_round_trip_to_original_relations():
    pres, action = klein_action_on_xbasis()
    basis = isotypic_basis(action, klein_duality())
    grading = regrade_presentation(pres, basis, KLEIN)
    # w_k goes back to its x-coordinates, column k of the basis matrix
    to_x = GenMap.from_matrix(grading.presentation.generators, pres.generators,
                              4, basis.matrix)
    back = [to_x.apply(r) for r in grading.presentation.relations]
    rebuilt = make_presentation(4, pres.generators, back)
    assert rebuilt == pres


def test_word_degree_multiplicative():
    grading = preset("A(1,-1)").grading()
    for u in [(0,), (1,), (2,), (0, 1), (2, 2, 1)]:
        for w in [(1,), (2, 0), (1, 1)]:
            assert grading.word_degree(u + w) == KLEIN.mul(
                grading.word_degree(u), grading.word_degree(w))


def test_g_degree_of_examples():
    p = preset("A(1,-1)")
    grading = p.grading()
    pres = p.presentation
    assert grading.poly_degree(pres.parse("w1^2 - w2^2")) == E
    assert grading.poly_degree(pres.parse("w3")) == G1
    assert grading.poly_degree(pres.parse("w3^2*w2")) == G2
    assert grading.poly_degree(pres.parse("w1 + w3")) is None


def test_eigenvector_count_per_degree():
    pres, action = klein_action_on_xbasis()
    basis = isotypic_basis(action, klein_duality())
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
    p = preset("A(1,-1)")
    action = diagonal_action(p.presentation, KLEIN, p.duality, p.g_degrees)
    m1, m2 = action.matrices
    assert str(m1[1][1]) == "-1" and str(m1[0][0]) == "1" and str(m1[2][2]) == "1"
    assert str(m2[2][2]) == "-1" and str(m2[0][0]) == "1"


def test_action_rejects_degree_mixing_matrix():
    gens = make_alphabet([("x", 1), ("y", 2)])
    pres = make_presentation(4, gens, [])
    one = CycNum.one(4)
    zero = CycNum.zero(4)
    mixing = [[one, one], [zero, one]]
    with pytest.raises(ValidationError, match="mixes generators"):
        validate_action(pres, AbGroup((2,)), [mixing])
