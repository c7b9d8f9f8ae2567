"""Exact field arithmetic in Q(zeta), checked against a complex-float oracle."""

import random
from fractions import Fraction

import pytest

from k3z3.cyclotomic import ZETA, Cyclotomic, half_power, zeta_power

from _oracles import embed, random_cyclotomic


def test_zeta_squared_reduces():
    assert ZETA * ZETA == Cyclotomic(-1, -1)


def test_cube_roots_sum_to_zero():
    assert Cyclotomic(1) + ZETA + zeta_power(2) == 0


def test_product_of_conjugate_differences_is_three():
    value = (ZETA - 1) * (zeta_power(2) - 1)
    assert value == 3
    oracle = (embed(ZETA) - 1) * (embed(zeta_power(2)) - 1)
    assert abs(embed(value) - oracle) < 1e-12


def test_zeta_power_examples():
    assert zeta_power(0) == 1 and zeta_power(3).as_rational() == 1
    assert zeta_power(4) == ZETA
    assert zeta_power(2) == Cyclotomic(-1, -1)
    assert zeta_power(-1) == zeta_power(2)
    # equality needs both components: one equal component is not enough
    assert zeta_power(2) != Cyclotomic(-1, 0) and zeta_power(2) != Cyclotomic(0, -1)


def test_zeta_power_is_a_nontrivial_cube_root():
    z = zeta_power(1)
    assert z * z * z == 1
    assert z != 1


@pytest.mark.parametrize("a, expected", [(1, 2), (2, 1), (4, 2), (-1, 1), (5, 1)])
def test_half_power_values(a, expected):
    e = half_power(a)
    assert e == expected
    root = zeta_power(e)
    assert root * root == zeta_power(a)
    assert root * root * root == 1


@pytest.mark.parametrize("a", [0, 3, -3, 6])
def test_half_power_rejects_zero_weights(a):
    with pytest.raises(ValueError, match="divisible by 3"):
        half_power(a)


def test_conjugate_examples():
    assert ZETA.conjugate() == Cyclotomic(-1, -1)
    assert Cyclotomic(5).conjugate() == 5
    assert ZETA.conjugate().conjugate() == ZETA


def test_conjugate_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_cyclotomic(rng), random_cyclotomic(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_as_rational():
    assert Cyclotomic(Fraction(1, 3)).as_rational() == Fraction(1, 3)
    assert Cyclotomic(-1).as_rational() == -1
    with pytest.raises(ValueError, match="non-rational"):
        ZETA.as_rational()


def test_division_by_zero_is_explicit():
    with pytest.raises(ZeroDivisionError, match=r"in Q\(zeta\)"):
        Cyclotomic(1) / Cyclotomic(0)
    with pytest.raises(ZeroDivisionError, match=r"in Q\(zeta\)"):
        Cyclotomic(0).inverse()
    # only zero is falsy
    assert ZETA and Cyclotomic(1) and not Cyclotomic(0)


def test_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (random_cyclotomic(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a * b) / b == a


def test_components_stay_in_lowest_terms():
    assert Cyclotomic("2/6", "-4/2") == Cyclotomic(Fraction(1, 3), -2)
    z = (Cyclotomic(Fraction(6, 4), Fraction(-10, 15)) * ZETA) / Cyclotomic(3, 7)
    for comp in (z.x, z.y):
        assert comp.denominator > 0
        assert Fraction(comp.numerator, comp.denominator) == comp


def test_float_embedding_matches_direct_complex_arithmetic():
    rng = random.Random(13)
    for _ in range(200):
        a, b = random_cyclotomic(rng, span=6), random_cyclotomic(rng, span=6)
        assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-9
        assert abs(embed(a - b) - (embed(a) - embed(b))) < 1e-9
        assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-9
        if b:
            assert abs(embed(a / b) - embed(a) / embed(b)) < 1e-9


def test_integer_and_fraction_coercion():
    assert 1 + ZETA == Cyclotomic(1, 1)
    assert 2 * ZETA == Cyclotomic(0, 2)
    assert Fraction(1, 2) - ZETA == Cyclotomic(Fraction(1, 2), -1)
    assert 1 / ZETA == zeta_power(2)
    # the reflected methods, with an int or a Fraction on the left
    assert Fraction(1, 2) * ZETA == Cyclotomic(0, Fraction(1, 2))
    assert 3 / ZETA == Cyclotomic(-3, -3)
    assert 1 - ZETA == Cyclotomic(1, -1)
    # no other operand is read: a float would make the arithmetic inexact
    with pytest.raises(TypeError):
        ZETA + 0.5
    with pytest.raises(TypeError):
        0.5 * ZETA
    assert (ZETA == "zeta") is False and (ZETA != "zeta") is True
    # a rational value is the same set or dict key as its Fraction or int
    assert hash(Cyclotomic(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert len({Cyclotomic(2), 2, ZETA, Cyclotomic(0, 1)}) == 2


def test_fields_are_read_only():
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        ZETA.x = Fraction(1)
    with pytest.raises(AttributeError, match="cannot delete field 'y'"):
        del ZETA.y
    assert ZETA == Cyclotomic(0, 1)


def test_text_rendering():
    assert str(Cyclotomic(Fraction(1, 3))) == "1/3 + 0*z3"
    assert str(Cyclotomic(-1, Fraction(2, 5))) == "-1 + 2/5*z3"
    assert str(ZETA) == "0 + 1*z3"
    assert repr(Cyclotomic(Fraction(-1, 3), 2)) == "Cyclotomic(-1/3, 2)"
