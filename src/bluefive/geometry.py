"""Exact planar geometry: points, isometries, and the unit triangular lattice.

All predicates are phrased in squared distances and exact (cos, sin)
pairs, so everything stays inside Q(sqrt3, sqrt11) and no square root is
ever taken.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional

from .field import FieldElement, HALF, HALF_SQRT3, ONE, ZERO, fe


class Point:
    """Planar point with FieldElement coordinates; equality is exact."""

    __slots__ = ("x", "y", "_hash")

    def __init__(self, x, y) -> None:
        object.__setattr__(self, "x", FieldElement.coerce(x))
        object.__setattr__(self, "y", FieldElement.coerce(y))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.x, self.y))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def coord_key(self):
        """Sort key realising the exact coordinate order (x first, then y)."""
        return _OrderKey(self)

    def serialize(self) -> dict:
        return {"x": self.x.serialize(), "y": self.y.serialize()}

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


class _OrderKey:
    __slots__ = ("p",)

    def __init__(self, p: Point) -> None:
        self.p = p

    def __lt__(self, other: "_OrderKey") -> bool:
        if self.p.x != other.p.x:
            return self.p.x < other.p.x
        return self.p.y < other.p.y

    def __eq__(self, other) -> bool:
        return self.p == other.p


def point(x, y) -> Point:
    return Point(x, y)


def dist2(p: Point, q: Point) -> FieldElement:
    """Exact squared distance."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def cross(u: Point, v: Point) -> FieldElement:
    return u.x * v.y - u.y * v.x


def dot(u: Point, v: Point) -> FieldElement:
    return u.x * v.x + u.y * v.y


def collinear(p: Point, q: Point, r: Point) -> bool:
    """True iff the orientation determinant (q-p) x (r-p) is exactly zero."""
    return cross(q - p, r - p).is_zero()


class Isometry:
    """Translation, rotation (exact cos/sin about a center), or reflection."""

    __slots__ = ("kind", "vector", "center", "cos", "sin", "p", "q")

    def __init__(self, kind: str, *, vector: Optional[Point] = None,
                 center: Optional[Point] = None,
                 cos: Optional[FieldElement] = None, sin: Optional[FieldElement] = None,
                 p: Optional[Point] = None, q: Optional[Point] = None) -> None:
        self.kind = kind
        self.vector = vector
        self.center = center
        self.cos = cos
        self.sin = sin
        self.p = p
        self.q = q
        if kind == "translation":
            if vector is None:
                raise ValueError("translation needs a vector")
        elif kind == "rotation":
            if center is None or cos is None or sin is None:
                raise ValueError("rotation needs center, cos and sin")
            if cos * cos + sin * sin != ONE:
                raise ValueError("rotation pair must satisfy cos^2 + sin^2 = 1 exactly")
        elif kind == "reflection":
            if p is None or q is None:
                raise ValueError("reflection needs a line through two points")
            if p == q:
                raise ValueError("reflection line endpoints must be distinct")
        else:
            raise ValueError(f"unknown isometry kind {kind!r}")

    def __call__(self, pt: Point) -> Point:
        return apply_isometry(self, pt)

    def __repr__(self) -> str:
        return f"Isometry({self.kind})"


def translation(dx, dy) -> Isometry:
    return Isometry("translation", vector=Point(dx, dy))


def rotation(center: Point, cos, sin) -> Isometry:
    return Isometry("rotation", center=center,
                    cos=FieldElement.coerce(cos), sin=FieldElement.coerce(sin))


def reflection(p: Point, q: Point) -> Isometry:
    return Isometry("reflection", p=p, q=q)


def apply_isometry(iso: Isometry, pt: Point) -> Point:
    if iso.kind == "translation":
        return pt + iso.vector
    if iso.kind == "rotation":
        dx = pt.x - iso.center.x
        dy = pt.y - iso.center.y
        return Point(iso.center.x + iso.cos * dx - iso.sin * dy,
                     iso.center.y + iso.sin * dx + iso.cos * dy)
    if iso.kind == "reflection":
        # mirror pt across the line through p, q
        v = iso.q - iso.p
        w = pt - iso.p
        vv = dot(v, v)
        t = dot(w, v) / vv
        foot = Point(iso.p.x + v.x * t, iso.p.y + v.y * t)
        return Point(foot.x + foot.x - pt.x, foot.y + foot.y - pt.y)
    raise ValueError(f"unknown isometry kind {iso.kind!r}")


# cos/sin of multiples of 60 degrees, all exact
_COS60 = [ONE, HALF, -HALF, -ONE, -HALF, HALF]
_SIN60 = [ZERO, HALF_SQRT3, HALF_SQRT3, ZERO, -HALF_SQRT3, -HALF_SQRT3]


def rotation60(center: Point, k: int) -> Isometry:
    """Rotation about center by k * 60 degrees (counterclockwise for k > 0)."""
    k %= 6
    return rotation(center, _COS60[k], _SIN60[k])


CHORD_COS = fe(Fraction(5, 6))
CHORD_SIN = fe(0, 0, Fraction(1, 6))


def chord_rotation(center: Point, sense: int) -> Isometry:
    """Rotation about center whose chord on the radius-sqrt3 circle is 1.

    cos = 5/6 is forced by the chord formula: a chord of length 1 on a
    circle of squared radius 3 subtends cos(theta) = 1 - 1/6.  The sense
    picks the sign of sin = sqrt11/6 (+1 counterclockwise).
    """
    if sense not in (1, -1):
        raise ValueError("sense must be +1 or -1")
    return rotation(center, CHORD_COS, CHORD_SIN if sense == 1 else -CHORD_SIN)


class LatticeFrame:
    """Origin plus two unit vectors at 60 degrees spanning a triangular lattice."""

    __slots__ = ("origin", "e1", "e2")

    def __init__(self, origin: Point, e1: Point, e2: Point) -> None:
        if dot(e1, e1) != ONE or dot(e2, e2) != ONE:
            raise ValueError("frame vectors must have unit length")
        if dot(e1, e2) != HALF:
            raise ValueError("frame vectors must meet at 60 degrees (dot = 1/2)")
        self.origin = origin
        self.e1 = e1
        self.e2 = e2

    def node(self, a: int, b: int) -> Point:
        return Point(self.origin.x + self.e1.x * a + self.e2.x * b,
                     self.origin.y + self.e1.y * a + self.e2.y * b)


CANONICAL_FRAME = LatticeFrame(Point(0, 0), Point(1, 0),
                               Point(HALF, HALF_SQRT3))


def node(a: int, b: int) -> Point:
    """Node (a, b) of the canonical unit triangular lattice."""
    return CANONICAL_FRAME.node(a, b)


def lattice_norm2(a: int, b: int) -> int:
    """Squared length of the lattice vector a*e1 + b*e2."""
    return a * a + a * b + b * b


def hex_indices(radius: int) -> list[tuple[int, int]]:
    """Index pairs of the hexagonal patch, a ascending then b ascending."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    out = []
    for a in range(-radius, radius + 1):
        b_lo = max(-radius, -a - radius)
        b_hi = min(radius, -a + radius)
        for b in range(b_lo, b_hi + 1):
            out.append((a, b))
    return out


def lattice_points(frame: LatticeFrame, hex_radius: int) -> list[Point]:
    """All frame nodes with hexagonal norm <= hex_radius; 1 + 3R(R+1) points."""
    return [frame.node(a, b) for a, b in hex_indices(hex_radius)]


def lattice_coords(p: Point) -> Optional[tuple[int, int]]:
    """Inverse of node(): (a, b) if p is a canonical lattice node, else None."""
    y = p.y
    if y.c0 or y.c2 or y.c3:
        return None
    b2 = y.c1 * 2
    if b2.denominator != 1:
        return None
    b = int(b2)
    x = p.x
    if x.c1 or x.c2 or x.c3:
        return None
    a2 = x.c0 - Fraction(b, 2)
    if a2.denominator != 1:
        return None
    return int(a2), b


def lattice_rot60(a: int, b: int) -> tuple[int, int]:
    """Index map of the 60-degree rotation about the lattice origin."""
    return (-b, a + b)


def lattice_mirror(a: int, b: int) -> tuple[int, int]:
    """Index map of the reflection across the e1 axis."""
    return (a + b, -b)


def lattice_symmetries() -> list:
    """The 12 point symmetries of the lattice fixing the origin, as index maps."""
    maps = []
    for mirrored in (False, True):
        for k in range(6):
            def sym(a, b, k=k, mirrored=mirrored):
                if mirrored:
                    a, b = lattice_mirror(a, b)
                for _ in range(k):
                    a, b = lattice_rot60(a, b)
                return (a, b)
            maps.append(sym)
    return maps


def lattice_vectors_of_norm2(n: int) -> list[tuple[int, int]]:
    """All integer pairs (a, b) with a^2 + ab + b^2 = n, by exhaustive scan."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bound = isqrt(n) + 1
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a + a * b + b * b == n:
                out.append((a, b))
    return out
