import random
from math import gcd

import pytest

from cotwist import groups
from cotwist.cyclo import CycNum
from cotwist.errors import ParseError, ValidationError
from cotwist.groups import (AbGroup, all_automorphisms, coboundary,
                            cocycle_from_formula, cocycle_from_scalars,
                            cocycle_inverse,
                            cocycle_product, cocycle_pullback,
                            commutator_radical, is_coboundary, klein_duality,
                            klein_mu, make_duality, make_group_aut,
                            schur_order, standard_duality, trivial_cocycle,
                            validate_cocycle)
from oracles import (ExpGroup, brute_force_is_coboundary, cocycle_class_count,
                     coboundary_table, dense_center_basis, dense_kgmu,
                     dense_trace_form_rank, frac_is_zero)

KLEIN = AbGroup((2, 2))
E, G2, G1, G12 = (0, 0), (0, 1), (1, 0), (1, 1)


def test_element_enumeration_and_arithmetic():
    assert KLEIN.elements() == [E, G2, G1, G12]
    assert KLEIN.mul(G1, G2) == G12
    assert KLEIN.inv(G12) == G12
    g = AbGroup((2, 4))
    assert g.order == 8 and g.exponent() == 4
    assert g.order_of((1, 2)) == 2


def test_klein_duality_values():
    # exponents base zeta_2 = -1
    d = klein_duality()
    assert d.char_eval(G1, G2) == 1
    assert d.char_eval(G1, G1) == 0
    assert d.char_eval(G2, G2) == 0
    for h in KLEIN.elements():
        assert d.char_eval(E, h) == 0
    # bimultiplicative extension
    assert d.char_eval(G12, G1) == 1
    assert d.char_eval(G12, G12) == 0


def test_standard_duality_is_nondegenerate():
    group = AbGroup((2, 4))
    d = standard_duality(group)
    generators = [group.generator(k) for k in range(group.rank)]
    seen = {tuple(d.char_eval(g, h) for h in generators)
            for g in group.elements()}
    assert len(seen) == 8
    # exponents base zeta_4: chi_{g1}(g1) = -1, chi_{g2}(g2) = i
    assert d.table == ((2, 0), (0, 1))


def test_duality_table_read_as_exponents():
    i = CycNum.zeta(4)
    one = CycNum.one(4)
    d = make_duality(AbGroup((4, 4)), [[i, one], [one, -i]])
    assert d.table == ((1, 0), (0, 3))
    with pytest.raises(ValidationError, match=r"entry \(1,1\) is not killed"):
        make_duality(KLEIN, [[i, one], [one, -one]])


def test_degenerate_duality_rejected():
    one = CycNum.one(4)
    with pytest.raises(ValidationError, match="degenerate"):
        make_duality(KLEIN, [[one, one], [one, one]])


def test_klein_mu_is_valid_and_matches_formula():
    mu = klein_mu()
    assert mu.modulus == 2
    for g in KLEIN.elements():
        for h in KLEIN.elements():
            assert mu.value(g, h) == (g[0] * h[1]) % 2
    assert cocycle_from_formula(KLEIN, "(-1)^(p*s)") == mu
    assert cocycle_from_formula(KLEIN, "i^(2*p*s)") == mu


def test_cocycle_stored_in_lowest_terms():
    # zeta_6^(2*a1*b2) takes cube-root values: modulus 3, exponents halved
    group = AbGroup((3, 3))
    mu = cocycle_from_formula(group, "zeta(6)^(2*a1*b2)")
    assert mu.modulus == 3
    assert mu.value((1, 0), (0, 1)) == 1 and mu.value((2, 0), (0, 1)) == 2
    doubled = {(g, h): 2 * mu.value(g, h)
               for g in group.elements() for h in group.elements()}
    assert validate_cocycle(group, 6, doubled) == mu


def test_trivial_cocycle_valid():
    mu = trivial_cocycle(KLEIN)
    assert mu.modulus == 1
    assert all(v == 0 for row in mu.values for v in row)


def test_normalization_violation_named():
    table = {(g, h): 0 for g in KLEIN.elements() for h in KLEIN.elements()}
    table[(E, G1)] = 1
    with pytest.raises(ValidationError, match=r"normalization at \(e,g1\)"):
        validate_cocycle(KLEIN, 2, table)


def test_cocycle_identity_violation_named():
    mu = klein_mu()
    table = {(g, h): mu.value(g, h)
             for g in KLEIN.elements() for h in KLEIN.elements()}
    table[(G1, G1)] += 1
    with pytest.raises(ValidationError,
                       match=r"cocycle identity fails at \(g2,g1,g1\)"):
        validate_cocycle(KLEIN, 2, table)


def test_first_identity_violation_in_enumeration_order():
    group = AbGroup((2, 4))
    elements = group.elements()
    rng = random.Random(5)
    for _ in range(20):
        table = {(g, h): 0 for g in elements for h in elements}
        for _ in range(2):
            g, h = rng.choice(elements[1:]), rng.choice(elements[1:])
            table[(g, h)] = rng.randrange(1, 8)
        first = next(
            (g, h, l) for g in elements for h in elements for l in elements
            if (table[(g, h)] + table[(group.mul(g, h), l)]
                - table[(g, group.mul(h, l))] - table[(h, l)]) % 8)
        names = ",".join(group.describe(x) for x in first)
        with pytest.raises(ValidationError) as exc:
            validate_cocycle(group, 8, table)
        assert str(exc.value) == f"cocycle identity fails at ({names})"


def test_non_root_of_unity_value_rejected():
    one = CycNum.one(4)
    table = {(g, h): one for g in KLEIN.elements() for h in KLEIN.elements()}
    table[(G1, G2)] = CycNum.rational("1/2", 4)
    with pytest.raises(ParseError, match=r"^cocycle value at \(g1,g2\) must be "
                                         r"a root of unity, not 1/2$"):
        cocycle_from_scalars(KLEIN, table)


def test_klein_mu_is_not_a_coboundary():
    flag, witness = is_coboundary(klein_mu())
    assert flag is False and witness is None
    # cross-check with the exhaustive search oracle
    group = ExpGroup((2, 2))
    table = tuple(tuple((2 * g[0] * h[1]) % 4 for h in group.elements)
                  for g in group.elements)
    assert brute_force_is_coboundary(group, table, 4) is False


def test_trivial_cocycle_is_a_coboundary_with_unit_witness():
    flag, witness = is_coboundary(trivial_cocycle(KLEIN))
    assert flag
    assert all(v == 0 for v in witness.values())


def test_constructed_coboundary_recognized_with_witness():
    group = AbGroup((2, 4))
    rho = {el: 3 * el[0] + 5 * el[1] for el in group.elements()}
    delta = coboundary(group, 8, rho)
    flag, witness = is_coboundary(delta)
    assert flag
    # the witness sends the identity to 1 and reproduces the cocycle
    assert witness[group.identity()] == 0
    assert coboundary(group, delta.modulus * group.exponent(), witness) == delta


def exponent_form_cocycle(group, n, form):
    """mu(g, h) = zeta_n^(sum_jk form[j][k] g_j h_k), bilinear hence a cocycle."""
    return validate_cocycle(group, n, {
        (g, h): sum(form[j][k] * g[j] * h[k] for j in range(2) for k in range(2))
        for g in group.elements() for h in group.elements()})


@pytest.mark.parametrize("n", [3, 4, 6])
def test_exponent_form_cocycles_coboundary_iff_symmetric(n):
    rng = random.Random(n)
    group = AbGroup((n, n))
    for symmetric in (True, False, True, False):
        form = [[rng.randrange(n) for _ in range(2)] for _ in range(2)]
        form[1][0] = form[0][1] if symmetric \
            else (form[0][1] + rng.randrange(1, n)) % n
        mu = exponent_form_cocycle(group, n, form)
        flag, witness = is_coboundary(mu)
        assert flag == symmetric
        if flag:
            assert witness[group.identity()] == 0
            assert coboundary(group, mu.modulus * n, witness) == mu
    terms = " + ".join(f"{form[j][k]}*a{j + 1}*b{k + 1}"
                       for j in range(2) for k in range(2))
    assert cocycle_from_formula(group, f"zeta({n})^({terms})") == mu


def cohomologous(a, b):
    return is_coboundary(cocycle_product(a, cocycle_inverse(b)))[0]


def test_cohomologous_examples():
    mu = klein_mu()
    assert cohomologous(mu, mu)
    assert not cohomologous(mu, trivial_cocycle(KLEIN))
    # rho = (1, i, -1, i) as exponents base zeta_4
    rho = {E: 0, G1: 1, G2: 2, G12: 1}
    assert cohomologous(mu, cocycle_product(mu, coboundary(KLEIN, 4, rho)))


def test_wrong_witness_is_an_internal_error(monkeypatch):
    mu = coboundary(KLEIN, 4, {E: 0, G1: 1, G2: 2, G12: 1})
    real = groups._exponent_witness

    def off_by_one(cocycle):
        rho = real(cocycle)
        rho[G1] += 1
        return rho

    monkeypatch.setattr(groups, "_exponent_witness", off_by_one)
    # not a CotwistError: the CLI maps those to exit 1 or 2, not 3
    with pytest.raises(RuntimeError, match="witness failed"):
        is_coboundary(mu)


# every finite abelian group of order <= 16, one decomposition each
SMALL_GROUPS = [(n,) for n in range(2, 17)] + [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4), (2, 2, 4),
    (2, 2, 2, 2)]


def bilinear_times_coboundary(group, rng, symmetric):
    """The exponent table base zeta_m, m = 2 exp(G), of the bilinear cocycle
    zeta_E^(sum_jk f_jk (E / gcd(n_j, n_k)) g_j h_k), E = exp(G), times the
    coboundary of a random rho with values in mu_m; f is symmetric, or
    breaks symmetry at (1, 2)."""
    factors, r, m = group.factors, len(group.factors), 2 * group.exponent
    form = [[rng.randrange(m) for _ in range(r)] for _ in range(r)]
    for j in range(r):
        for k in range(j):
            form[j][k] = form[k][j]
    if not symmetric:
        form[0][1] = form[1][0] + 1
    rho = [0] + [rng.randrange(m) for _ in range(group.n - 1)]
    delta = coboundary_table(group, rho, m)
    return [[(sum(form[j][k] * (m // gcd(factors[j], factors[k])) * g[j] * h[k]
                  for j in range(r) for k in range(r)) + delta[a][b]) % m
             for b, h in enumerate(group.elements)]
            for a, g in enumerate(group.elements)]


def test_closed_forms_match_dense_kgmu_on_small_groups():
    rng = random.Random(16)
    for factors in SMALL_GROUPS:
        oracle_group, group = ExpGroup(factors), AbGroup(factors)
        m = 2 * group.exponent()
        # every cocycle on a cyclic group is symmetric
        for symmetric in (True,) if len(factors) == 1 else (True, False):
            table = bilinear_times_coboundary(oracle_group, rng, symmetric)
            mu = validate_cocycle(group, m, {
                (g, h): table[a][b]
                for a, g in enumerate(oracle_group.elements)
                for b, h in enumerate(oracle_group.elements)})
            structure = dense_kgmu(oracle_group, table, m)
            center = dense_center_basis(structure, m)
            support = {oracle_group.elements[i] for vec in center
                       for i, x in enumerate(vec) if not frac_is_zero(x)}
            trace_rank = dense_trace_form_rank(structure, m)
            radical = commutator_radical(mu)
            assert len(center) == len(radical) and support == set(radical)
            assert trace_rank == group.order
            is_matrix_algebra = (round(group.order ** 0.5) ** 2 == group.order
                                 and trace_rank == group.order
                                 and len(center) == 1)
            assert is_matrix_algebra == (len(radical) == 1)
            flag, rho = is_coboundary(mu)
            assert flag == symmetric == (len(center) == group.order)
            if flag:
                # rho is base zeta_M, M = mu.modulus * exp(G)
                modulus = mu.modulus * group.exponent()
                lifted = tuple(tuple(x * modulus // m % modulus for x in row)
                               for row in table)
                witness = [rho[g] for g in oracle_group.elements]
                assert coboundary_table(oracle_group, witness,
                                        modulus) == lifted


def test_cocycle_group_structure():
    mu = klein_mu()
    product = cocycle_product(mu, mu)
    assert product == trivial_cocycle(KLEIN)
    inv = cocycle_inverse(mu)
    assert all(inv.value(g, h) == mu.value(g, h)
               for g in KLEIN.elements() for h in KLEIN.elements())


def test_schur_order_formula():
    assert schur_order(KLEIN) == 2
    assert schur_order(AbGroup((2,))) == 1
    assert schur_order(AbGroup((3,))) == 1
    assert schur_order(AbGroup((4,))) == 1
    assert schur_order(AbGroup((3, 3))) == 3
    assert schur_order(AbGroup((2, 4))) == 2
    assert schur_order(AbGroup((2, 2, 2))) == 8


def test_schur_order_matches_class_count_oracle_small():
    assert schur_order(KLEIN) == cocycle_class_count((2, 2), 2)
    assert schur_order(AbGroup((3,))) == cocycle_class_count((3,), 3)


@pytest.mark.parametrize("factors", [
    (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,),
    (2, 2), (2, 4), (2, 2, 2), (3, 3),
])
def test_schur_order_matches_class_count_all_groups_up_to_9(factors):
    group = AbGroup(factors)
    assert schur_order(group) == cocycle_class_count(factors, group.exponent())


def test_automorphism_group_sizes():
    assert len(all_automorphisms(KLEIN)) == 6
    assert len(all_automorphisms(AbGroup((3,)))) == 2
    assert len(all_automorphisms(AbGroup((2, 4)))) == 8


def test_group_aut_validation():
    with pytest.raises(ValidationError, match="bijection"):
        make_group_aut(KLEIN, [G1, G1])
    with pytest.raises(ValidationError, match="order"):
        make_group_aut(AbGroup((2, 4)), [(0, 1), (0, 1)])


def test_pullback_identity_and_inverse():
    mu = klein_mu()
    identity = make_group_aut(KLEIN, (KLEIN.generator(0), KLEIN.generator(1)))
    assert cocycle_pullback(mu, identity).values == mu.values
    swap = make_group_aut(KLEIN, [G2, G1])
    back = cocycle_pullback(cocycle_pullback(mu, swap), swap.inverse())
    assert back.values == mu.values


def test_pullback_by_swap_gives_transposed_exponent():
    mu = klein_mu()
    swap = make_group_aut(KLEIN, [G2, G1])
    pulled = cocycle_pullback(mu, swap)
    for g in KLEIN.elements():
        for h in KLEIN.elements():
            assert pulled.value(g, h) == (g[1] * h[0]) % 2


def test_pullback_preserves_coboundaries():
    mu = klein_mu()
    nu = cocycle_product(mu, coboundary(KLEIN, 4, {E: 0, G1: 1, G2: 1, G12: 2}))
    assert cohomologous(mu, nu)
    for sigma in all_automorphisms(KLEIN):
        assert cohomologous(cocycle_pullback(mu, sigma),
                            cocycle_pullback(nu, sigma))


def test_coboundary_is_a_cocycle():
    rho = {E: 0, G1: 1, G2: 3, G12: 2}
    delta = coboundary(KLEIN, 4, rho)   # validate_cocycle runs inside
    assert delta.value(E, G1) == 0
    # delta(g1, g2) = i * (-i) / (-1) = -1
    assert delta.modulus == 2 and delta.value(G1, G2) == 1


def test_coboundary_requires_normalized_witness():
    with pytest.raises(ValidationError, match="send e to 1"):
        coboundary(KLEIN, 4, {E: 1, G1: 1, G2: 1, G12: 1})
