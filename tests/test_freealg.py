import random
from fractions import Fraction

import pytest

from cotwist.cyclo import CycNum, parse_scalar
from cotwist.errors import AlphabetMismatch, ParseError, ValidationError
from cotwist.freealg import (GenMap, NcPoly, make_alphabet,
                             make_presentation, parse_ncpoly)

X3 = make_alphabet([("x1", 1), ("x2", 1), ("x3", 1)])


def poly(text, gens=X3, conductor=4):
    return parse_ncpoly(text, gens, conductor)


def random_poly(rng, gens=X3, conductor=4, max_degree=3, terms=3):
    out = NcPoly.zero(gens, conductor)
    for _ in range(terms):
        word = tuple(rng.randrange(len(gens))
                     for _ in range(rng.randrange(max_degree + 1)))
        coeff = CycNum.rational(rng.randrange(-3, 4), conductor)
        out = out + NcPoly.from_word(gens, conductor, word, coeff)
    return out


def test_product_of_generators():
    assert str(poly("x1") * poly("x2")) == "x1*x2"


def test_additive_inverse():
    p = poly("x1*x2")
    assert (p + (-p)).is_zero()


def test_bilinear_expansion():
    p = poly("(x1 + x2)*(x1 - x2)")
    assert p == poly("x1^2 - x1*x2 + x2*x1 - x2^2")


def test_alphabet_mismatch_raises():
    other = make_alphabet([("y", 1)])
    with pytest.raises(AlphabetMismatch):
        poly("x1") * NcPoly.gen(other, 4, 0)


def test_word_products_check_the_word():
    p = poly("x1 - 2*x2*x3")
    assert p.word_mul_left((2,)) == poly("x3*x1 - 2*x3*x2*x3")
    assert p.word_mul_right((0, 1)) == poly("x1^2*x2 - 2*x2*x3*x1*x2")
    for word in ((3,), (0, -1)):
        with pytest.raises(AlphabetMismatch):
            p.word_mul_left(word)
        with pytest.raises(AlphabetMismatch):
            p.word_mul_right(word)


def test_derived_polynomials_equal_checked_ones():
    # sums, negatives, scalings and word products skip the constructor's
    # checks; they must still be what the constructor would build
    rng = random.Random(11)
    half = CycNum.rational(Fraction(1, 2), 4) + CycNum.zeta(4)
    for _ in range(25):
        a, b = random_poly(rng), random_poly(rng)
        for derived in (a + b, a - b, -a, a.scale(half), a.monic(),
                        a.word_mul_left((1, 2)), a.word_mul_right((0,))):
            rebuilt = NcPoly(X3, 4, derived.terms)
            assert derived == rebuilt and derived.terms == rebuilt.terms
            assert all(not c.is_zero() and c.conductor == 4
                       for c in derived.terms.values())


def test_mul_associates_and_distributes():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def swap_map():
    return GenMap(X3, X3, 4, (NcPoly.gen(X3, 4, 1), NcPoly.gen(X3, 4, 0),
                              NcPoly.gen(X3, 4, 2)))


def test_genmap_swap_flips_commutator():
    commutator = poly("x1*x2 - x2*x1")
    assert swap_map().apply(commutator) == -commutator


def test_genmap_negation_even_power():
    negate = GenMap(X3, X3, 4, (NcPoly.gen(X3, 4, 0), NcPoly.gen(X3, 4, 1),
                                -NcPoly.gen(X3, 4, 2)))
    p = poly("x3^2*x2")
    assert negate.apply(p) == p


def test_genmap_fixes_symmetric_combination():
    assert swap_map().apply(poly("x1 + x2")) == poly("x1 + x2")


def test_presentation_canonicalization_idempotent():
    rels = [poly("2*x1*x2 + 2*x2*x1"), poly("x3*x1 - x1*x3")]
    pres = make_presentation(4, X3, rels)
    again = make_presentation(4, X3, pres.relations)
    assert pres == again
    assert all(r.leading_coeff().is_one() for r in pres.relations)


def test_presentation_rejects_inhomogeneous_relation():
    with pytest.raises(ValidationError, match="not homogeneous"):
        make_presentation(4, X3, [poly("x1 + x1*x2")])


def test_presentation_rejects_zero_relation():
    with pytest.raises(ValidationError, match="zero"):
        make_presentation(4, X3, [NcPoly.zero(X3, 4)])


def test_commutator_shorthands():
    assert poly("[x1,x2]") == poly("x1*x2 - x2*x1")
    assert poly("[x1,x2]_+") == poly("x1*x2 + x2*x1")
    assert poly("[x1,x2]+") == poly("x1*x2 + x2*x1")
    nested = poly("[x3,[x1,x2]_+]")
    assert nested == poly("x3*x1*x2 + x3*x2*x1 - x1*x2*x3 - x2*x1*x3")


# parsed at conductor 4; the result lives at lcm(4, the conductor the text names)
@pytest.mark.parametrize("text,conductor,terms", [
    ("i*x1*x2 - (1/2)*x2*x1", 4,
     {(0, 1): CycNum.zeta(4), (1, 0): CycNum.rational(Fraction(-1, 2))}),
    ("x1^(1+1)", 4, {(0, 0): CycNum.one()}),
    ("x1^2^1", 4, {(0, 0): CycNum.one()}),
    ("2^3^2*x1", 4, {(0,): CycNum.rational(512)}),
    ("2^-1*x1**2", 4, {(0, 0): CycNum.rational(Fraction(1, 2))}),
    ("x2/(1 + i)", 4,
     {(1,): (CycNum.one(4) - CycNum.zeta(4)) * CycNum.rational(Fraction(1, 2), 4)}),
    ("zeta( 8 )^2*x3", 8, {(2,): CycNum.zeta(8, 2)}),
    ("[x1,x2]+ - [x1,x2]_+", 4, {}),
], ids=["coefficients", "exponent-expression", "right-associative",
        "scalar-power", "negative-scalar-power", "divide-by-scalar",
        "lifts-conductor", "anticommutator-spellings"])
def test_parser_scalar_coefficients(text, conductor, terms):
    expected = NcPoly(X3, conductor, {w: c.embed(conductor) for w, c in terms.items()})
    assert poly(text) == expected


@pytest.mark.parametrize("text", ["3/2", "-i^2 + zeta(8)", "2^(i*i)", "zeta(6)^-1",
                                  "[2, 3]_+", "(1 + i)/(1 - i)"])
def test_scalar_and_degree_zero_relation_agree(text):
    value = parse_scalar(text)
    assert poly(text, conductor=1) == NcPoly(X3, value.conductor, {(): value})


def test_parser_rejects_unknown_names_and_bad_input():
    with pytest.raises(ParseError):
        poly("x1*q")
    with pytest.raises(ParseError):
        poly("x1 +")
    with pytest.raises(ParseError):
        poly("x1 / x2")
    with pytest.raises(ParseError, match="negative powers"):
        poly("x1^-1")
    with pytest.raises(ParseError, match="division by zero"):
        poly("x1/0")
    with pytest.raises(ParseError, match="division by zero"):
        poly("0^-1*x1")


def test_poly_string_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        p = random_poly(rng)
        if p.is_zero():
            continue
        assert parse_ncpoly(str(p), X3, 4) == p


def test_reserved_generator_names_rejected():
    with pytest.raises(ValidationError):
        make_alphabet([("i", 1)])
    with pytest.raises(ValidationError):
        make_alphabet([("x", 1), ("x", 2)])


def test_genmap_refuses_images_off_its_target():
    y2 = make_alphabet([("y1", 1), ("y2", 1)])
    with pytest.raises(ValidationError):
        GenMap(X3[:2], y2, 4, (NcPoly.gen(X3[:2], 4, 0),
                               NcPoly.gen(X3[:2], 4, 1)))
    with pytest.raises(ValidationError):
        GenMap(X3, X3, 8, swap_map().images)
