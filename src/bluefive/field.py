"""Exact arithmetic in the degree-4 real field Q(sqrt3, sqrt11).

Every coordinate the verifier ever touches lives in this field: lattice
nodes need sqrt3, the chord rotation (cos 5/6, sin sqrt11/6) brings in
sqrt11, and products of the two bring in sqrt33.  Elements are stored on
the basis (1, sqrt3, sqrt11, sqrt33) with rational coefficients, so
equality is structural and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]

# Starting enclosures for the two radicals; sign() bisects these.
_SQRT3_LO = Fraction(17320508, 10**7)
_SQRT3_HI = Fraction(17320509, 10**7)
_SQRT11_LO = Fraction(33166247, 10**7)
_SQRT11_HI = Fraction(33166248, 10**7)

_SQRT3_FLOAT = 3.0 ** 0.5
_SQRT11_FLOAT = 11.0 ** 0.5
_SQRT33_FLOAT = 33.0 ** 0.5


def _rat(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class FieldElement:
    """c0 + c1*sqrt3 + c2*sqrt11 + c3*sqrt33 with rational ci, canonical form."""

    __slots__ = ("c0", "c1", "c2", "c3", "_hash")

    def __init__(self, c0: RationalLike = 0, c1: RationalLike = 0,
                 c2: RationalLike = 0, c3: RationalLike = 0) -> None:
        object.__setattr__(self, "c0", _rat(c0))
        object.__setattr__(self, "c1", _rat(c1))
        object.__setattr__(self, "c2", _rat(c2))
        object.__setattr__(self, "c3", _rat(c3))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("FieldElement is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def coerce(x: "FieldElement | RationalLike") -> "FieldElement":
        if isinstance(x, FieldElement):
            return x
        return FieldElement(_rat(x))

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2, self.c3)

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other) -> "FieldElement":
        o = FieldElement.coerce(other)
        return FieldElement(self.c0 + o.c0, self.c1 + o.c1,
                            self.c2 + o.c2, self.c3 + o.c3)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other) -> "FieldElement":
        o = FieldElement.coerce(other)
        return FieldElement(self.c0 - o.c0, self.c1 - o.c1,
                            self.c2 - o.c2, self.c3 - o.c3)

    def __rsub__(self, other) -> "FieldElement":
        return FieldElement.coerce(other) - self

    def __mul__(self, other) -> "FieldElement":
        o = FieldElement.coerce(other)
        a0, a1, a2, a3 = self.c0, self.c1, self.c2, self.c3
        b0, b1, b2, b3 = o.c0, o.c1, o.c2, o.c3
        if not (a2 or a3 or b2 or b3):
            # both operands lie in Q(sqrt3); lattice geometry stays here
            return FieldElement(a0 * b0 + 3 * a1 * b1, a0 * b1 + a1 * b0)
        # sqrt3*sqrt3=3, sqrt11*sqrt11=11, sqrt3*sqrt11=sqrt33,
        # sqrt33*sqrt33=33, sqrt3*sqrt33=3*sqrt11, sqrt11*sqrt33=11*sqrt3
        return FieldElement(
            a0 * b0 + 3 * a1 * b1 + 11 * a2 * b2 + 33 * a3 * b3,
            a0 * b1 + a1 * b0 + 11 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 3 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via conjugates over Q < Q(sqrt3) < Q(sqrt3,sqrt11)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # write self = u + v*sqrt11 with u, v in Q(sqrt3) as pairs (x + y*sqrt3)
        u = (self.c0, self.c1)
        v = (self.c2, self.c3)

        def qmul(p, q):
            return (p[0] * q[0] + 3 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])

        # self * (u - v*sqrt11) = u^2 - 11 v^2 =: n in Q(sqrt3)
        uu = qmul(u, u)
        vv = qmul(v, v)
        n = (uu[0] - 11 * vv[0], uu[1] - 11 * vv[1])
        # invert n in Q(sqrt3): n * (n0 - n1*sqrt3) = n0^2 - 3 n1^2 in Q
        norm = n[0] * n[0] - 3 * n[1] * n[1]
        n_inv = (n[0] / norm, -n[1] / norm)
        top0 = qmul(u, n_inv)
        top1 = qmul((-v[0], -v[1]), n_inv)
        return FieldElement(top0[0], top0[1], top1[0], top1[1])

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
        return not (self.c0 or self.c1 or self.c2 or self.c3)

    def is_rational(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FieldElement(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.c0 == other.c0 and self.c1 == other.c1
                and self.c2 == other.c2 and self.c3 == other.c3)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.c0, self.c1, self.c2, self.c3))
            object.__setattr__(self, "_hash", h)
        return h

    def sign(self) -> int:
        """Sign of the real value: -1, 0 or +1, decided exactly.

        Zero is structural (the basis is linearly independent over Q), so a
        nonzero coefficient vector has nonzero value and interval refinement
        of the radical enclosures terminates.
        """
        if self.is_zero():
            return 0
        if self.is_rational():
            c = self.c0
            return -1 if c < 0 else (1 if c > 0 else 0)
        lo3, hi3 = _SQRT3_LO, _SQRT3_HI
        lo11, hi11 = _SQRT11_LO, _SQRT11_HI
        while True:
            lo = self.c0
            hi = self.c0
            for c, (l, h) in ((self.c1, (lo3, hi3)),
                              (self.c2, (lo11, hi11)),
                              (self.c3, (lo3 * lo11, hi3 * hi11))):
                if c > 0:
                    lo += c * l
                    hi += c * h
                elif c < 0:
                    lo += c * h
                    hi += c * l
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # enclosure still straddles 0: halve both radical intervals
            mid = (lo3 + hi3) / 2
            if mid * mid <= 3:
                lo3 = mid
            else:
                hi3 = mid
            mid = (lo11 + hi11) / 2
            if mid * mid <= 11:
                lo11 = mid
            else:
                hi11 = mid

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
        return (float(self.c0) + float(self.c1) * _SQRT3_FLOAT
                + float(self.c2) * _SQRT11_FLOAT + float(self.c3) * _SQRT33_FLOAT)

    def serialize(self) -> list[str]:
        """Four reduced 'p/q' strings in basis order (1, sqrt3, sqrt11, sqrt33)."""
        return [_fmt_rat(c) for c in self.coefficients()]

    @staticmethod
    def deserialize(parts) -> "FieldElement":
        if (not isinstance(parts, list) or len(parts) != 4
                or not all(isinstance(p, str) for p in parts)):
            raise ValueError(f"field element needs a list of 4 coefficient strings, got {parts!r}")
        try:
            return FieldElement(*[Fraction(p) for p in parts])
        except ZeroDivisionError:
            raise ValueError(f"field element has a zero denominator: {parts!r}") from None

    def __repr__(self) -> str:
        return f"FieldElement({self.c0!s}, {self.c1!s}, {self.c2!s}, {self.c3!s})"

    def __str__(self) -> str:
        terms = []
        for c, tag in zip(self.coefficients(), ("", "*sqrt3", "*sqrt11", "*sqrt33")):
            if c:
                terms.append(f"{c}{tag}")
        return " + ".join(terms) if terms else "0"


def _fmt_rat(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


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
