import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotwist import cyclo
from cotwist.cyclo import (CycNum, euler_phi, parse_scalar, root_exponent,
                           root_of_unity)
from cotwist.errors import ConductorMismatch, ParseError
from oracles import FracCyclo, fraction_format

CONDUCTORS = [1, 2, 3, 4, 6, 8, 12]


def cycnums(conductor):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.tuples(*([coeff] * euler_phi(conductor))).map(
        lambda c: CycNum(conductor, tuple(Fraction(x) for x in c)))


def test_defining_relation_of_gaussian_field():
    i = CycNum.zeta(4)
    assert i * i == CycNum.rational(-1, 4)
    half = CycNum.rational(Fraction(-3, 2), 4)
    assert half * parse_scalar("2 + 5*i") == parse_scalar("-3 - 15/2*i")
    assert parse_scalar("2 + 5*i") * half == parse_scalar("-3 - 15/2*i")


def test_inverse_pair_from_half_plus_half_i():
    gamma = parse_scalar("(1 + i)/2")
    assert (gamma * parse_scalar("2/(1 + i)")).is_one()
    # the conjugate equals 1/(2 gamma)
    assert parse_scalar("(1 - i)/2") == (
        CycNum.one(4) / (CycNum.rational(2, 4) * gamma))


def test_root_of_unity_inverse():
    assert CycNum.one(8) / CycNum.zeta(8) == CycNum.zeta(8, 7)


def test_embed_examples():
    assert CycNum.rational(-1, 2).embed(4) == CycNum.rational(-1, 4)
    assert CycNum.zeta(4).embed(8) == CycNum.zeta(8, 2)
    wide = CycNum.rational(Fraction(3, 2)).embed(12)
    assert wide.conductor == 12 and wide.coeffs == (Fraction(3, 2), 0, 0, 0)


def test_embed_requires_divisible_conductor():
    with pytest.raises(ConductorMismatch):
        CycNum.zeta(4).embed(6)


def test_root_exponent_round_trip():
    # the roots of unity in Q(zeta_N) are those of order dividing lcm(2, N)
    for conductor in range(1, 13):
        modulus = 2 * conductor // gcd(2, conductor)
        seen = set()
        for k in range(modulus):
            root = root_of_unity(k, modulus, conductor)
            assert root.conductor == conductor
            assert root ** modulus == CycNum.one(conductor)
            assert root_exponent(root, modulus) == k
            seen.add(root.coeffs)
        assert len(seen) == modulus
        assert root_of_unity(1, 2, conductor) == CycNum.rational(-1, conductor)


def test_root_exponent_rejects_non_roots():
    assert root_exponent(CycNum.rational(Fraction(1, 2)), 2) is None
    assert root_exponent(parse_scalar("1 + i"), 4) is None
    assert root_exponent(CycNum.rational(2), 2) is None
    assert root_exponent(CycNum.zero(4), 4) is None
    # a root whose order does not divide the modulus
    assert root_exponent(CycNum.zeta(4), 2) is None
    assert root_exponent(CycNum.zeta(4), 8) == 2


def test_root_of_unity_needs_a_large_enough_field():
    assert root_of_unity(1, 6, 3) == parse_scalar("1 + zeta(3)")
    assert root_of_unity(-1, 4, 4) == -CycNum.zeta(4)
    with pytest.raises(ConductorMismatch):
        root_of_unity(1, 8, 4)


def test_arithmetic_requires_matching_conductor():
    with pytest.raises(ConductorMismatch):
        CycNum.one(2) + CycNum.one(4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycNum.one(4) / CycNum.zero(4)


@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_axioms(conductor, data):
    a = data.draw(cycnums(conductor))
    b = data.draw(cycnums(conductor))
    c = data.draw(cycnums(conductor))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == CycNum.zero(conductor)
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@pytest.mark.parametrize("conductor,target", [(1, 4), (2, 8), (4, 12), (1, 12),
                                              (3, 12), (6, 12)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_embed_is_injective_ring_map(conductor, target, data):
    a = data.draw(cycnums(conductor))
    b = data.draw(cycnums(conductor))
    assert (a * b).embed(target) == a.embed(target) * b.embed(target)
    assert (a + b).embed(target) == a.embed(target) + b.embed(target)
    if a != b:
        assert a.embed(target) != b.embed(target)


@pytest.mark.parametrize("conductor", CONDUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_format_parse_round_trip(conductor, data):
    a = data.draw(cycnums(conductor))
    parsed = parse_scalar(str(a))
    assert parsed.embed(conductor) == a


# every conductor of the sweep, with numerators of both signs over several
# common denominators, so that single coefficients such as 2/2 in
# (1, 2)/2 reduce on their own while the whole number is in lowest terms
@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 5, 8, 12])
def test_format_matches_fraction_rendering(conductor):
    span = range(-4, 5) if euler_phi(conductor) <= 2 else range(-2, 3)
    for den in (1, 2, 3, 4, 6):
        for num in itertools.product(span, repeat=euler_phi(conductor)):
            x = CycNum(conductor, [Fraction(n, den) for n in num])
            assert cyclo.format_cycnum(x) == fraction_format(x), (num, den)


def test_format_of_a_self_reducing_coefficient():
    x = CycNum(3, [Fraction(1, 2), Fraction(2, 2)])
    assert (x.num, x.den) == ((1, 2), 2)
    assert cyclo.format_cycnum(x) == fraction_format(x) == "1/2 + zeta(3)"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("")
    with pytest.raises(ParseError):
        parse_scalar("zeta(0)")
    with pytest.raises(ParseError):
        parse_scalar("2 +")
    with pytest.raises(ParseError):
        parse_scalar("q")
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("1/0")
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("0^-1")
    with pytest.raises(ParseError, match="rational integer"):
        parse_scalar("2^(1/2)")


# the result carries the conductor the text names: 4 per i, N per zeta(N)
@pytest.mark.parametrize("text,variables,expected", [
    ("zeta(8)^2", None, CycNum.zeta(8, 2)),
    ("zeta( 8 )", None, CycNum.zeta(8)),
    ("2^-1", None, CycNum.rational(Fraction(1, 2))),
    ("2^3^2", None, CycNum.rational(512)),
    ("2**3**2", None, CycNum.rational(512)),
    ("2^(i*i)", None, CycNum.rational(Fraction(1, 2), 4)),
    ("zeta(12)^-5", None, CycNum.zeta(12, 7)),
    ("-i^2", None, CycNum.rational(1, 4)),
    ("(-1)^(p*s)", {"p": 1, "s": 1}, CycNum.rational(-1)),
    ("(-1)^(p*s)", {"p": 1, "s": 0}, CycNum.one()),
    ("zeta(6)^(2*a1*b2)", {"a1": 1, "b2": 2}, CycNum.zeta(6, 4)),
], ids=["zeta-power", "zeta-spaces", "negative-power", "right-associative",
        "double-star", "exponent-names-i", "zeta-negative-power", "unary-minus",
        "variables-odd", "variables-even", "formula"])
def test_parse_powers_and_variables(text, variables, expected):
    assert parse_scalar(text, variables) == expected


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_power_matches_repeated_multiplication(conductor):
    # +-zeta^k are read off the power table; 2 + zeta goes through
    # square-and-multiply
    bases = [s * CycNum.zeta(conductor, k) for k in range(euler_phi(conductor))
             for s in (CycNum.one(conductor), -CycNum.one(conductor))]
    bases.append(CycNum.rational(2, conductor) + CycNum.zeta(conductor))
    for base in bases:
        expected = CycNum.one(conductor)
        for e in range(13):
            assert base ** e == expected
            assert base ** -e == expected.inverse()
            expected = expected * base


# ---------------------------------------------------------------------------
# differential test against the Fraction-tuple model in tests/oracles.py
# ---------------------------------------------------------------------------

ORACLE_CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12]


def _canonical(x: CycNum) -> bool:
    return x.den > 0 and gcd(x.den, *x.num) == 1 and len(x.num) == euler_phi(x.conductor)


def _pair(conductor, coeffs):
    return CycNum(conductor, coeffs), FracCyclo(conductor, coeffs)


def oracle_coeffs(conductor):
    coeff = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-9, max_value=9, max_denominator=12))
    dense = st.tuples(*([coeff] * euler_phi(conductor)))
    return st.one_of(st.just((Fraction(0),) * euler_phi(conductor)), dense)


@pytest.mark.parametrize("conductor", ORACLE_CONDUCTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_agrees_with_fraction_oracle(conductor, data):
    x, fx = _pair(conductor, data.draw(oracle_coeffs(conductor)))
    y, fy = _pair(conductor, data.draw(oracle_coeffs(conductor)))
    e = data.draw(st.integers(min_value=-3, max_value=4))
    results = [(x + y, fx + fy), (x - y, fx - fy), (-x, -fx), (x * y, fx * fy),
               (x.embed(2 * conductor), fx.embed(2 * conductor)),
               (x.embed(3 * conductor), fx.embed(3 * conductor))]
    if not x.is_zero():
        results += [(x.inverse(), fx.inverse()), (y / x, fy * fx.inverse()),
                    (x ** e, fx ** e)]
    for got, want in results:
        assert _canonical(got)
        assert got.coeffs == want.coeffs
    assert (x == y) == (fx.coeffs == fy.coeffs)
    # equal values are equal objects with equal hashes, whatever the route
    zero = CycNum.zero(conductor)
    for product in (x * zero, zero * y, (x - x) * y):
        assert product == zero and hash(product) == hash(zero)
        assert product.num == (0,) * euler_phi(conductor) and product.den == 1
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)


@pytest.mark.parametrize("conductor", ORACLE_CONDUCTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_ops_agree_with_fraction_oracle(conductor, data):
    (x, fx), (y, fy), (z, fz) = (_pair(conductor, data.draw(oracle_coeffs(conductor)))
                                 for _ in range(3))
    zero = CycNum.zero(conductor)
    cases = [(x.sub_mul(y, z), fx - fy * fz, x - y * z),
             (y.neg_mul(z), -(fy * fz), -(y * z)),
             (x.sub_mul(zero, z), fx, x), (x.sub_mul(y, zero), fx, x),
             (zero.sub_mul(y, z), -(fy * fz), -(y * z)),
             (zero.neg_mul(z), fy - fy, zero)]
    for got, want, plain in cases:
        # the same value as the two-step route, in the same canonical form
        assert _canonical(got)
        assert got.coeffs == want.coeffs
        assert (got.num, got.den) == (plain.num, plain.den)
        assert got == plain and hash(got) == hash(plain)


# Q(zeta_N) is Q for the conductors with phi(N) = 1, and there every value
# is one numerator over a denominator; denominators with shared factors make
# cancellation after a sum likely
rationals = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-40, max_value=40,
                                   max_denominator=36))


def _rational_value(x: CycNum, conductor: int) -> Fraction:
    # lowest terms with a positive denominator: zero is 0/1
    assert x.conductor == conductor and _canonical(x)
    return Fraction(x.num[0], x.den)


def _rational_ops(conductor, a, b, c):
    x, y, z = (CycNum.rational(q, conductor) for q in (a, b, c))
    cases = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a),
             (x.neg_mul(y), -(a * b)), (x.sub_mul(y, z), a - b * c)]
    if b:
        cases.append((y.inverse(), 1 / b))
    return cases


@settings(max_examples=300, deadline=None)
@given(conductor=st.sampled_from((1, 2)), a=rationals, b=rationals, c=rationals)
def test_rational_pairs_agree_with_fraction(conductor, a, b, c):
    for got, want in _rational_ops(conductor, a, b, c):
        assert _rational_value(got, conductor) == want


@pytest.mark.parametrize("a, b", [
    ("1/6", "1/3"), ("5/12", "1/4"), ("-1/6", "2/3"), ("7/10", "-1/5"),
    ("1/2", "-1/2"), ("0", "-3/4"), ("-2/9", "0"), ("0", "0"), ("3", "-5")])
def test_rational_sum_cancels_after_adding(a, b):
    # in the first four the sum's numerator shares a factor of gcd(b, d)
    a, b = Fraction(a), Fraction(b)
    for conductor in (1, 2):
        for got, want in _rational_ops(conductor, a, b, -b):
            assert _rational_value(got, conductor) == want


def test_fused_ops_need_equal_conductors():
    one, i = CycNum.one(1), CycNum.zeta(4)
    for call in (lambda: i.sub_mul(one, i), lambda: i.sub_mul(i, one),
                 lambda: one.sub_mul(i, i), lambda: i.neg_mul(one)):
        with pytest.raises(ConductorMismatch):
            call()


def test_power_tables_are_bounded():
    # one table per conductor; the cache keeps the most recent ones and a
    # table evicted by the bound is rebuilt on demand
    limit = cyclo._power_table.cache_info().maxsize
    for n in range(3, limit + 40):
        assert CycNum.zeta(n) ** n == CycNum.one(n)
    assert cyclo._power_table.cache_info().currsize == limit
    assert CycNum.zeta(5) ** 5 == CycNum.one(5)
    assert CycNum.zeta(12, 3) == CycNum.zeta(4).embed(12)


def test_values_are_immutable():
    # zero, one and the roots of unity are shared instances
    for value in (CycNum.zero(4), CycNum.one(4), root_of_unity(1, 4, 4),
                  CycNum(4, [Fraction(1, 2), 3])):
        for name in ("conductor", "num", "den"):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert CycNum.zero(4).num == (0, 0) and CycNum.one(4).num == (1, 0)
