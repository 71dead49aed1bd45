from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bluefive.field import FieldElement, ONE, SQRT3, SQRT11, SQRT33, ZERO, fe

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12)
elements = st.builds(FieldElement, rationals, rationals, rationals, rationals)


def test_basis_reductions():
    assert SQRT3 * SQRT3 == fe(3)
    assert SQRT11 * SQRT11 == fe(11)
    assert SQRT3 * SQRT11 == SQRT33
    assert SQRT33 * SQRT33 == fe(33)
    assert SQRT3 * SQRT33 == fe(0, 0, 3)
    assert SQRT11 * SQRT33 == fe(0, 11)


def test_difference_of_squares():
    assert (fe(2) + SQRT3) * (fe(2) - SQRT3) == ONE


def test_turn_angle_identity():
    cos = fe(Fraction(5, 6))
    sin = fe(0, 0, Fraction(1, 6))
    assert cos * cos + sin * sin == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_sign_examples():
    assert ZERO.sign() == 0
    assert (fe(6) - SQRT33).sign() == 1          # 36 > 33
    assert (fe(Fraction(23, 4)) - SQRT33).sign() == 1  # 529/16 > 33
    assert (SQRT33 - fe(6)).sign() == -1
    assert (fe(Fraction(-1, 1000000)) + ZERO).sign() == -1


def test_serialization_round_trip():
    x = fe(Fraction(1, 7), Fraction(-2, 3), Fraction(5, 11), Fraction(1, 2))
    assert x.serialize() == ["1/7", "-2/3", "5/11", "1/2"]
    assert FieldElement.deserialize(x.serialize()) == x


@given(elements, elements)
@settings(max_examples=150, deadline=None)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(elements, elements, elements)
@settings(max_examples=150, deadline=None)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(elements, elements)
@settings(max_examples=100, deadline=None)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero():
        assert (a / b) * b == a


@given(elements, elements)
@settings(max_examples=150, deadline=None)
def test_no_zero_divisors(a, b):
    if (a * b).is_zero():
        assert a.is_zero() or b.is_zero()


@given(elements)
@settings(max_examples=200, deadline=None)
def test_sign_matches_float_when_clearly_nonzero(a):
    approx = float(a)
    if abs(approx) > 1e-6:
        assert a.sign() == (1 if approx > 0 else -1)


@given(elements)
@settings(max_examples=150, deadline=None)
def test_sign_times_value_nonnegative(a):
    assert (fe(a.sign()) * a).sign() >= 0
