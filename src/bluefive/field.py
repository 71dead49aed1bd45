"""Exact arithmetic in the degree-4 real field Q(sqrt3, sqrt11).

Every coordinate the verifier ever touches lives in this field: lattice
nodes need sqrt3, the chord rotation (cos 5/6, sin sqrt11/6) brings in
sqrt11, and products of the two bring in sqrt33.  An element is stored as
four integer numerators over one shared positive denominator,

    (n0 + n1*sqrt3 + n2*sqrt11 + n3*sqrt33) / d,

in lowest terms (gcd(n0, n1, n2, n3, d) == 1), kept as the one tuple `nd`.
The basis is linearly independent over Q, so every value has exactly one
such form, and equality and hashing compare `nd`.  Each operation unpacks
its operands' tuples once, does its arithmetic in Python ints and reduces
with one gcd.  Fraction appears only in constructor input and the c0..c3
views; `deserialize` reads serialize's integer form with int().
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction, str]

_SQRT3_FLOAT = 3.0 ** 0.5
_SQRT11_FLOAT = 11.0 ** 0.5
_SQRT33_FLOAT = 33.0 ** 0.5
_COEFFICIENT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rat(x: RationalLike) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class FieldElement:
    """(n0 + n1*sqrt3 + n2*sqrt11 + n3*sqrt33) / d with integer ni and
    d > 0, in lowest terms, held as the tuple nd = (n0, n1, n2, n3, d).
    c0..c3 are the coefficients as Fractions."""

    __slots__ = ("nd",)

    def __init__(self, c0: RationalLike = 0, c1: RationalLike = 0,
                 c2: RationalLike = 0, c3: RationalLike = 0) -> None:
        cs = [_rat(c) for c in (c0, c1, c2, c3)]
        # over the lcm of reduced denominators the numerators share no factor
        d = lcm(*(c.denominator for c in cs))
        _set_nd(self, (*[c.numerator * (d // c.denominator) for c in cs], d))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("FieldElement is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def coerce(x: "FieldElement | RationalLike") -> "FieldElement":
        if isinstance(x, FieldElement):
            return x
        if type(x) is int:
            return _raw(x, 0, 0, 0, 1)
        return FieldElement(x)

    @staticmethod
    def from_ints(n0: int, n1: int, n2: int, n3: int, d: int = 1) -> "FieldElement":
        """(n0 + n1*sqrt3 + n2*sqrt11 + n3*sqrt33) / d for integers, d != 0."""
        if d == 0:
            raise ZeroDivisionError("field element with zero denominator")
        if d < 0:
            n0, n1, n2, n3, d = -n0, -n1, -n2, -n3, -d
        return _reduced(n0, n1, n2, n3, d)

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2, self.c3)

    n0, n1, n2, n3, d = (property(lambda self, i=i: self.nd[i]) for i in range(5))
    c0, c1, c2, c3 = (property(lambda self, i=i: Fraction(self.nd[i], self.nd[4]))
                      for i in range(4))

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other) -> "FieldElement":
        o = other if isinstance(other, FieldElement) else FieldElement.coerce(other)
        a0, a1, a2, a3, d = self.nd
        b0, b1, b2, b3, e = o.nd
        if d == e:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, d)
        return _reduced(a0 * e + b0 * d, a1 * e + b1 * d,
                        a2 * e + b2 * d, a3 * e + b3 * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        n0, n1, n2, n3, d = self.nd
        return _raw(-n0, -n1, -n2, -n3, d)

    def __sub__(self, other) -> "FieldElement":
        o = other if isinstance(other, FieldElement) else FieldElement.coerce(other)
        a0, a1, a2, a3, d = self.nd
        b0, b1, b2, b3, e = o.nd
        if d == e:
            return _reduced(a0 - b0, a1 - b1, a2 - b2, a3 - b3, d)
        return _reduced(a0 * e - b0 * d, a1 * e - b1 * d,
                        a2 * e - b2 * d, a3 * e - b3 * d, d * e)

    def __rsub__(self, other) -> "FieldElement":
        return FieldElement.coerce(other) - self

    def __mul__(self, other) -> "FieldElement":
        o = other if isinstance(other, FieldElement) else FieldElement.coerce(other)
        a0, a1, a2, a3, d = self.nd
        b0, b1, b2, b3, e = o.nd
        if not (a2 or a3 or b2 or b3):
            # both operands lie in Q(sqrt3); lattice geometry stays here
            return _reduced(a0 * b0 + 3 * a1 * b1, a0 * b1 + a1 * b0, 0, 0, d * e)
        # sqrt3*sqrt3=3, sqrt11*sqrt11=11, sqrt3*sqrt11=sqrt33,
        # sqrt33*sqrt33=33, sqrt3*sqrt33=3*sqrt11, sqrt11*sqrt33=11*sqrt3
        return _reduced(
            a0 * b0 + 3 * a1 * b1 + 11 * a2 * b2 + 33 * a3 * b3,
            a0 * b1 + a1 * b0 + 11 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 3 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            d * e,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via conjugates over Q < Q(sqrt3) < Q(sqrt3,sqrt11)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # self = (u + v*sqrt11)/d with u = u0 + u1*sqrt3, v = v0 + v1*sqrt3
        u0, u1, v0, v1, d = self.nd
        # (u + v*sqrt11)(u - v*sqrt11) = u^2 - 11 v^2 =: m0 + m1*sqrt3
        m0 = u0 * u0 + 3 * u1 * u1 - 11 * (v0 * v0 + 3 * v1 * v1)
        m1 = 2 * (u0 * u1 - 11 * v0 * v1)
        # (m0 + m1*sqrt3)(m0 - m1*sqrt3) = q, a nonzero integer
        q = m0 * m0 - 3 * m1 * m1
        if q < 0:
            q, d = -q, -d
        # 1/self = d (u - v*sqrt11)(m0 - m1*sqrt3) / q
        return _reduced(d * (u0 * m0 - 3 * u1 * m1), d * (u1 * m0 - u0 * m1),
                        -d * (v0 * m0 - 3 * v1 * m1), -d * (v1 * m0 - v0 * m1), q)

    def __truediv__(self, other) -> "FieldElement":
        return self * FieldElement.coerce(other).inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return FieldElement.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nd[:4])

    def is_rational(self) -> bool:
        return not any(self.nd[1:4])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FieldElement(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.nd == other.nd

    def __hash__(self) -> int:
        return hash(self.nd)

    def sign(self) -> int:
        """Sign of the real value: -1, 0 or +1, decided exactly.

        d > 0, so this is the sign of p + q*sqrt11 with p = n0 + n1*sqrt3
        and q = n2 + n3*sqrt3.  When p and q have opposite signs the one
        of larger square wins, and p^2 - 11 q^2 is again of the form
        a + b*sqrt3, whose sign follows the same way from a^2 - 3 b^2.
        Neither difference is ever zero, as sqrt3 and sqrt11 are not in
        the smaller fields.
        """
        n0, n1, n2, n3, _ = self.nd
        sp = _sign_sqrt3(n0, n1)
        sq = _sign_sqrt3(n2, n3)
        if sq == 0 or sp == sq:
            return sp
        if sp == 0:
            return sq
        t = _sign_sqrt3(n0 * n0 + 3 * n1 * n1 - 11 * (n2 * n2 + 3 * n3 * n3),
                        2 * (n0 * n1 - 11 * n2 * n3))
        return sp if t > 0 else sq

    def __lt__(self, other) -> bool:
        return (self - FieldElement.coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - FieldElement.coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - FieldElement.coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - FieldElement.coerce(other)).sign() >= 0

    # -- conversions ----------------------------------------------------------

    def __float__(self) -> float:
        # n/d is int true division, correctly rounded like float(Fraction(n, d))
        n0, n1, n2, n3, d = self.nd
        return (n0 / d + (n1 / d) * _SQRT3_FLOAT
                + (n2 / d) * _SQRT11_FLOAT + (n3 / d) * _SQRT33_FLOAT)

    def serialize(self) -> list[str]:
        """Four reduced 'p/q' strings in basis order (1, sqrt3, sqrt11, sqrt33)."""
        *ns, d = self.nd
        return [_fmt_rat(n, d) for n in ns]

    @staticmethod
    def deserialize(parts) -> "FieldElement":
        """Read what serialize writes: four strings "-?[0-9]+" or
        "-?[0-9]+/[0-9]+", reduced or not; anything else is a ValueError."""
        if (not isinstance(parts, list) or len(parts) != 4
                or not all(isinstance(p, str) for p in parts)):
            raise ValueError(f"field element needs a list of 4 coefficient strings, got {parts!r}")
        found = [_COEFFICIENT.fullmatch(p) for p in parts]
        if None in found:
            raise ValueError(f"coefficient {parts[found.index(None)]!r} is not an integer "
                             "or a ratio of integers")
        pairs = [(int(n), int(q or 1)) for n, q in (m.groups() for m in found)]
        if not all(q for _, q in pairs):
            raise ValueError(f"field element has a zero denominator: {parts!r}")
        d = lcm(*(q for _, q in pairs))
        return _reduced(*[n * (d // q) for n, q in pairs], d)

    def __repr__(self) -> str:
        return f"FieldElement({self.c0!s}, {self.c1!s}, {self.c2!s}, {self.c3!s})"

    def __str__(self) -> str:
        terms = []
        for c, tag in zip(self.coefficients(), ("", "*sqrt3", "*sqrt11", "*sqrt33")):
            if c:
                terms.append(f"{c}{tag}")
        return " + ".join(terms) if terms else "0"


# the slot setter, which bypasses the immutability guard, for construction only
_set_nd = vars(FieldElement)["nd"].__set__
_new = object.__new__


def _raw(n0: int, n1: int, n2: int, n3: int, d: int) -> FieldElement:
    """The element with these numerators, which must be in lowest terms over d > 0."""
    x = _new(FieldElement)
    _set_nd(x, (n0, n1, n2, n3, d))
    return x


def _reduced(n0: int, n1: int, n2: int, n3: int, d: int) -> FieldElement:
    """The element (n0 + n1*sqrt3 + n2*sqrt11 + n3*sqrt33) / d for d > 0."""
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        n0 //= g
        n1 //= g
        n2 //= g
        n3 //= g
        d //= g
    x = _new(FieldElement)
    _set_nd(x, (n0, n1, n2, n3, d))
    return x


def _sign_sqrt3(a: int, b: int) -> int:
    """Sign of a + b*sqrt3."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    return sb if 3 * b * b > a * a else -sb


def _fmt_rat(n: int, d: int) -> str:
    g = gcd(n, d)
    n //= g
    d //= g
    return f"{n}/{d}" if d != 1 else str(n)


ZERO = FieldElement(0)
ONE = FieldElement(1)
HALF = FieldElement(Fraction(1, 2))
SQRT3 = FieldElement(0, 1)
SQRT11 = FieldElement(0, 0, 1)
SQRT33 = FieldElement(0, 0, 0, 1)
HALF_SQRT3 = FieldElement(0, Fraction(1, 2))


def fe(c0: RationalLike = 0, c1: RationalLike = 0,
       c2: RationalLike = 0, c3: RationalLike = 0) -> FieldElement:
    """Shorthand constructor."""
    return FieldElement(c0, c1, c2, c3)
