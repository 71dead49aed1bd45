"""Exact planar geometry: points, rotations, reflections, and the unit
triangular lattice.

All predicates are phrased in squared distances and exact (cos, sin)
pairs, so everything stays inside Q(sqrt3, sqrt11) and no square root is
ever taken.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Optional

from .field import FieldElement, HALF, HALF_SQRT3, ONE, ZERO


class Point:
    """Planar point with FieldElement coordinates; equality is exact."""

    __slots__ = ("x", "y", "_hash")

    def __init__(self, x, y) -> None:
        _set_x(self, x if isinstance(x, FieldElement) else FieldElement.coerce(x))
        _set_y(self, y if isinstance(y, FieldElement) else FieldElement.coerce(y))
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.x, self.y))
            _set_hash(self, h)
        return h

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def coord_key(self) -> tuple[FieldElement, FieldElement]:
        """Sort key for the exact coordinate order: FieldElement compares
        exactly, and a tuple compares x first, then y."""
        return (self.x, self.y)

    def serialize(self) -> dict:
        return {"x": self.x.serialize(), "y": self.y.serialize()}

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


# slot setters that bypass the immutability guard, for construction only
_set_x, _set_y, _set_hash = (vars(Point)[s].__set__ for s in Point.__slots__)


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


class Rotation:
    """Rotation about a centre by the angle with exact (cos, sin)."""

    __slots__ = ("center", "cos", "sin")

    def __init__(self, center: Point, cos: FieldElement, sin: FieldElement) -> None:
        if cos * cos + sin * sin != ONE:
            raise ValueError("rotation pair must satisfy cos^2 + sin^2 = 1 exactly")
        self.center = center
        self.cos = cos
        self.sin = sin

    def __call__(self, pt: Point) -> Point:
        dx = pt.x - self.center.x
        dy = pt.y - self.center.y
        return Point(self.center.x + self.cos * dx - self.sin * dy,
                     self.center.y + self.sin * dx + self.cos * dy)


def rotation(center: Point, cos, sin) -> Rotation:
    return Rotation(center, FieldElement.coerce(cos), FieldElement.coerce(sin))


def reflection(p: Point, q: Point) -> Callable[[Point], Point]:
    """The mirror map across the line through p and q."""
    if p == q:
        raise ValueError("reflection line endpoints must be distinct")
    v = q - p
    vv = dot(v, v)

    def mirror(pt: Point) -> Point:
        t = dot(pt - p, v) / vv
        foot = Point(p.x + v.x * t, p.y + v.y * t)
        return Point(foot.x + foot.x - pt.x, foot.y + foot.y - pt.y)

    return mirror


# cos/sin of multiples of 60 degrees, all exact
_COS60 = [ONE, HALF, -HALF, -ONE, -HALF, HALF]
_SIN60 = [ZERO, HALF_SQRT3, HALF_SQRT3, ZERO, -HALF_SQRT3, -HALF_SQRT3]


def rotation60(center: Point, k: int) -> Rotation:
    """Rotation about center by k * 60 degrees (counterclockwise for k > 0)."""
    k %= 6
    return rotation(center, _COS60[k], _SIN60[k])


CHORD_COS = FieldElement.from_ints(5, 0, 0, 0, 6)
CHORD_SIN = FieldElement.from_ints(0, 0, 1, 0, 6)


def chord_rotation(center: Point, sense: int) -> Rotation:
    """Rotation about center whose chord on the radius-sqrt3 circle is 1.

    cos = 5/6 is forced by the chord formula: a chord of length 1 on a
    circle of squared radius 3 subtends cos(theta) = 1 - 1/6.  The sense
    picks the sign of sin = sqrt11/6 (+1 counterclockwise).
    """
    if sense not in (1, -1):
        raise ValueError("sense must be +1 or -1")
    return rotation(center, CHORD_COS, CHORD_SIN if sense == 1 else -CHORD_SIN)


def node(a: int, b: int) -> Point:
    """Node a*e1 + b*e2 of the unit triangular lattice, where e1 = (1, 0)
    and e2 = (1/2, sqrt3/2)."""
    return Point(FieldElement.from_ints(2 * a + b, 0, 0, 0, 2),
                 FieldElement.from_ints(0, b, 0, 0, 2))


def lattice_norm2(a: int, b: int) -> int:
    """Squared length of the lattice vector a*e1 + b*e2."""
    return a * a + a * b + b * b


# most nodes a hex patch may hold: radius 182 holds 99,919
MAX_PATCH_NODES = 100_000


def check_patch_radius(radius: int) -> int:
    """`radius` when its hex patch holds at most MAX_PATCH_NODES nodes,
    which is decided before any node is built; ValueError otherwise."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    nodes = 3 * radius * (radius + 1) + 1
    if nodes > MAX_PATCH_NODES:
        raise ValueError(f"radius {radius} gives a hex patch of {nodes} nodes; "
                         f"the most allowed is {MAX_PATCH_NODES}")
    return radius


def hex_indices(radius: int) -> list[tuple[int, int]]:
    """Index pairs of the hexagonal patch, a ascending then b ascending."""
    check_patch_radius(radius)
    out = []
    for a in range(-radius, radius + 1):
        b_lo = max(-radius, -a - radius)
        b_hi = min(radius, -a + radius)
        for b in range(b_lo, b_hi + 1):
            out.append((a, b))
    return out


def lattice_coords(p: Point) -> Optional[tuple[int, int]]:
    """Inverse of node(): (a, b) if p is a canonical lattice node, else None.

    A node has x = (2a + b)/2 and y = b*sqrt3/2, so both denominators are
    1 or 2 and the integers read off the numerators.
    """
    x0, x1, x2, x3, xd = p.x.nd
    y0, y1, y2, y3, yd = p.y.nd
    if y0 or y2 or y3 or x1 or x2 or x3 or xd > 2 or yd > 2:
        return None
    b = 2 * y1 // yd
    a2 = 2 * x0 // xd - b
    if a2 & 1:
        return None
    return a2 // 2, b


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
    """All integer pairs (a, b) with a^2 + ab + b^2 = n, by exhaustive scan.

    a^2 + ab + b^2 = (a + b/2)^2 + 3b^2/4, so |b| <= sqrt(4n/3), and by
    symmetry |a| too; that bounds the scan.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bound = isqrt(4 * n // 3) + 1
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a + a * b + b * b == n:
                out.append((a, b))
    return out
