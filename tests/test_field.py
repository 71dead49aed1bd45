from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bluefive.field import FieldElement, ONE, SQRT3, SQRT11, SQRT33, ZERO, fe

# the values of st.fractions(-50, 50, max_denominator=12), drawn as an
# integer numerator over a denominator, which Hypothesis draws much faster
rationals = st.integers(1, 12).flatmap(
    lambda d: st.integers(-50 * d, 50 * d).map(lambda n: Fraction(n, d)))
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


@pytest.mark.parametrize("text", [
    "1.5", "+1", " 1", "1 ", "1\n", "1e3", "1e1000000", "1E2", "1/-2", "-1/+2", "--1",
    "", "-", "/2", "1/", "1/2/3", "1_000", "0x10", "\u0661", "1/\u0662", "inf", "nan",
])
def test_deserialize_reads_only_the_integer_form(text):
    with pytest.raises(ValueError, match="coefficient"):
        FieldElement.deserialize(["0", text, "0", "0"])


def test_deserialize_reads_signs_zeros_and_unreduced_ratios():
    assert FieldElement.deserialize(["-3/6", "-0", "007", "12/1"]) == fe(Fraction(-1, 2), 0, 7, 12)
    with pytest.raises(ValueError, match="zero denominator"):
        FieldElement.deserialize(["1/0", "0", "0", "0"])


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


# -- the integer-numerator representation against a Fraction reference ------
#
# The reference model stores the four coefficients as Fractions and works
# coefficient by coefficient; its sign bisects enclosures of the radicals.

def _ref_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + 3 * a1 * b1 + 11 * a2 * b2 + 33 * a3 * b3,
            a0 * b1 + a1 * b0 + 11 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 3 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)


def _ref_inverse(a):
    # a = u + v*sqrt11 over Q(sqrt3); a^-1 = (u - v*sqrt11) / (u^2 - 11 v^2)
    def qmul(p, q):
        return (p[0] * q[0] + 3 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    u, v = a[:2], a[2:]
    uu, vv = qmul(u, u), qmul(v, v)
    n = (uu[0] - 11 * vv[0], uu[1] - 11 * vv[1])
    norm = n[0] * n[0] - 3 * n[1] * n[1]
    n_inv = (n[0] / norm, -n[1] / norm)
    return qmul(u, n_inv) + qmul((-v[0], -v[1]), n_inv)


def _ref_sign(a):
    if not any(a):
        return 0
    lo3, hi3 = Fraction(17, 10), Fraction(18, 10)
    lo11, hi11 = Fraction(33, 10), Fraction(34, 10)
    while True:
        lo = hi = a[0]
        for c, l, h in ((a[1], lo3, hi3), (a[2], lo11, hi11),
                        (a[3], lo3 * lo11, hi3 * hi11)):
            lo += c * (l if c > 0 else h)
            hi += c * (h if c > 0 else l)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        mid = (lo3 + hi3) / 2
        lo3, hi3 = (mid, hi3) if mid * mid <= 3 else (lo3, mid)
        mid = (lo11 + hi11) / 2
        lo11, hi11 = (mid, hi11) if mid * mid <= 11 else (lo11, mid)


def _ref_serialize(a):
    return [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in a]


coefficient_tuples = st.tuples(rationals, rationals, rationals, rationals)


def _canonical(x):
    """x, after checking it holds four numerators over d > 0 in lowest terms."""
    values = x.nd
    assert type(values) is tuple and len(values) == 5
    assert all(type(v) is int for v in values)
    assert values[4] > 0 and gcd(*values) == 1
    assert values == (x.n0, x.n1, x.n2, x.n3, x.d)
    return x


@given(coefficient_tuples, coefficient_tuples)
@settings(max_examples=150, deadline=None)
def test_operations_match_fraction_reference(ra, rb):
    a, b = _canonical(FieldElement(*ra)), _canonical(FieldElement(*rb))
    assert a.coefficients() == ra
    diff = tuple(x - y for x, y in zip(ra, rb))
    assert _canonical(a + b).coefficients() == tuple(x + y for x, y in zip(ra, rb))
    assert _canonical(a - b).coefficients() == diff
    assert _canonical(-a).coefficients() == tuple(-x for x in ra)
    assert _canonical(a * b).coefficients() == _ref_mul(ra, rb)
    assert a.sign() == _ref_sign(ra)
    assert (a - b).sign() == _ref_sign(diff)
    assert a.serialize() == _ref_serialize(ra)
    if any(rb):
        assert _canonical(b.inverse()).coefficients() == _ref_inverse(rb)
        assert _canonical(a / b).coefficients() == _ref_mul(ra, _ref_inverse(rb))
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()


def _assert_same_element(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert x.serialize() == y.serialize()
    assert (x.n0, x.n1, x.n2, x.n3, x.d) == (y.n0, y.n1, y.n2, y.n3, y.d)


@given(elements, elements)
@settings(max_examples=100, deadline=None)
def test_canonical_form_is_route_independent(a, b):
    _assert_same_element((a + b) - b, a)
    if not b.is_zero():
        _assert_same_element((a * b) / b, a)
        _assert_same_element(b * b.inverse(), ONE)


def test_canonical_form_examples():
    _assert_same_element(FieldElement.deserialize(["2/4", "0", "0", "0"]),
                         fe(Fraction(1, 2)))
    _assert_same_element(fe("6/4", "-3/9"), FieldElement.from_ints(9, -2, 0, 0, 6))
    _assert_same_element(FieldElement.from_ints(2, 4, 6, 8, -4),
                         fe(Fraction(-1, 2), -1, Fraction(-3, 2), -2))
    _assert_same_element(fe(Fraction(1, 3)) + fe(Fraction(2, 3)), ONE)
    _assert_same_element(fe(Fraction(1, 6), 0, Fraction(1, 6)) * 6, fe(1, 0, 1))
    zero = FieldElement.from_ints(0, 0, 0, 0, 7)
    _assert_same_element(zero, ZERO)
    assert zero.d == 1
    with pytest.raises(ZeroDivisionError):
        FieldElement.from_ints(1, 0, 0, 0, 0)


def test_instances_hold_integers_only():
    assert FieldElement.__slots__ == ("nd",)
    x = fe(Fraction(1, 7), Fraction(-2, 3), Fraction(5, 11), Fraction(1, 2))
    assert not hasattr(x, "__dict__")
    assert _canonical(x).nd == (66, -308, 210, 231, 462)
    assert (x.n0, x.n1, x.n2, x.n3, x.d) == x.nd
    assert hash(x) == hash(x.nd)
    assert (x.c0, x.c1, x.c2, x.c3) == x.coefficients()
    assert all(type(c) is Fraction for c in x.coefficients())
    for name in ("nd", "n0", "d", "c0"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert x.nd == (66, -308, 210, 231, 462)


def test_float_matches_fraction_coefficients():
    x = fe(Fraction(1, 7), Fraction(-2, 3), Fraction(5, 11), Fraction(1, 2))
    assert float(x) == (float(x.c0) + float(x.c1) * 3.0 ** 0.5
                        + float(x.c2) * 11.0 ** 0.5 + float(x.c3) * 33.0 ** 0.5)
