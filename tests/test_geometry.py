import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest

from bluefive.field import ONE, SQRT3, fe
from bluefive.figures import FIGURE_IDS, load_figure
from bluefive.geometry import (MAX_PATCH_NODES, Point, check_patch_radius, chord_rotation,
                               collinear, dist2, hex_indices, lattice_coords, lattice_norm2,
                               lattice_vectors_of_norm2, node, point, reflection,
                               rotation, rotation60)


def test_dist2_examples():
    assert dist2(point(0, 0), point(1, 0)) == ONE
    # centre and its unit neighbour from the first construction diagram
    assert dist2(node(-1, 2), node(-1, 1)) == ONE
    assert dist2(point(0, 0), point(Fraction(-1, 2), fe(0, Fraction(1, 2)))) == ONE


def test_collinear_examples():
    assert collinear(point(0, 0), point(1, 0), point(2, 0))
    assert not collinear(point(0, 0), point(1, 0),
                         point(Fraction(1, 2), fe(0, Fraction(1, 2))))
    assert collinear(node(1, -1), node(0, 0), node(-1, 1))


def test_rotation_60_unit():
    r = rotation60(point(0, 0), 1)
    assert r(point(1, 0)) == point(Fraction(1, 2), fe(0, Fraction(1, 2)))


def test_reflection_example():
    mirror = reflection(point(0, 0), point(SQRT3, 0))
    f = point(fe(0, Fraction(1, 2)), Fraction(-3, 2))
    assert mirror(f) == point(fe(0, Fraction(1, 2)), Fraction(3, 2))


def test_rotation_invariant_checked():
    with pytest.raises(ValueError):
        rotation(point(0, 0), fe(Fraction(1, 2)), fe(Fraction(1, 2)))
    with pytest.raises(ValueError):
        reflection(point(0, 0), point(0, 0))


def test_chord_rotation_properties():
    rot = chord_rotation(point(0, 0), -1)
    assert rot.cos * rot.cos + rot.sin * rot.sin == ONE
    assert rot(point(0, 0)) == point(0, 0)
    for a, b in ((1, 1), (2, -1), (-1, -1)):
        p = node(a, b)
        assert dist2(point(0, 0), p) == fe(3)
        assert dist2(p, rot(p)) == ONE


def test_chord_rotation_inverse_composition():
    rng = random.Random(7)
    fwd = chord_rotation(node(1, 1), 1)
    back = chord_rotation(node(1, 1), -1)
    for _ in range(100):
        p = node(rng.randint(-6, 6), rng.randint(-6, 6))
        assert back(fwd(p)) == p


def _random_isometry(rng):
    kind = rng.randrange(4)
    centre = node(rng.randint(-4, 4), rng.randint(-4, 4))
    if kind == 0:
        shift = node(rng.randint(-4, 4), rng.randint(-4, 4))
        return lambda p: p + shift
    if kind == 1:
        return rotation60(centre, rng.randrange(6))
    if kind == 2:
        return chord_rotation(centre, rng.choice((1, -1)))
    other = node(rng.randint(-4, 4), rng.randint(-4, 4))
    if other == centre:
        other = node(5, 5)
    return reflection(centre, other)


def test_isometries_preserve_dist2_sample():
    rng = random.Random(20240831)
    for _ in range(500):
        iso = _random_isometry(rng)
        p = node(rng.randint(-5, 5), rng.randint(-5, 5))
        q = node(rng.randint(-5, 5), rng.randint(-5, 5))
        assert dist2(iso(p), iso(q)) == dist2(p, q)


def test_collinear_invariant_under_isometry():
    rng = random.Random(11)
    for _ in range(200):
        iso = _random_isometry(rng)
        a = node(rng.randint(-4, 4), rng.randint(-4, 4))
        b = node(rng.randint(-4, 4), rng.randint(-4, 4))
        c = node(rng.randint(-4, 4), rng.randint(-4, 4))
        assert collinear(a, b, c) == collinear(iso(a), iso(b), iso(c))


def test_lattice_point_counts():
    for r in range(11):
        assert len(hex_indices(r)) == 1 + 3 * r * (r + 1)


def test_patch_radius_bound_is_decided_before_any_node():
    """Radius 182 is the largest whose hex patch fits the node bound; the
    bound is checked by arithmetic alone, so no larger patch is built here."""
    assert 1 + 3 * 182 * 183 <= MAX_PATCH_NODES < 1 + 3 * 183 * 184
    assert check_patch_radius(182) == 182 and check_patch_radius(0) == 0
    for radius in (183, 100000):
        with pytest.raises(ValueError, match=f"the most allowed is {MAX_PATCH_NODES}"):
            check_patch_radius(radius)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        check_patch_radius(-1)


def test_hex_indices_checks_the_bound(monkeypatch):
    monkeypatch.setattr("bluefive.geometry.MAX_PATCH_NODES", 7)
    assert len(hex_indices(1)) == 7
    with pytest.raises(ValueError, match="radius 2 gives a hex patch of 19 nodes"):
        hex_indices(2)


def test_node_is_lattice_combination():
    e2 = rotation60(point(0, 0), 1)(point(1, 0))
    for a, b in hex_indices(12):
        assert node(a, b) == point(a + e2.x * b, e2.y * b)


def test_lattice_norm_formula():
    for a, b in hex_indices(4):
        p = node(a, b)
        assert dist2(point(0, 0), p) == fe(lattice_norm2(a, b))


def test_lattice_coords_inverse():
    for a, b in hex_indices(3):
        assert lattice_coords(node(a, b)) == (a, b)
    assert lattice_coords(point(0, 0) + point(Fraction(1, 3), 0)) is None


def test_lattice_vectors_of_norm2():
    assert len(lattice_vectors_of_norm2(1)) == 6
    assert lattice_vectors_of_norm2(2) == []
    assert sorted(lattice_vectors_of_norm2(25)) == sorted(
        [(5, 0), (-5, 0), (0, 5), (0, -5), (5, -5), (-5, 5)])


def test_lattice_vectors_of_norm2_against_wide_scan():
    # |a| and |b| reach sqrt(4n/3) > sqrt(n); the wide scan covers both
    for n in range(401):
        r = 2 * isqrt(n) + 2
        want = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                if lattice_norm2(a, b) == n]
        assert lattice_vectors_of_norm2(n) == want, n
    assert len(lattice_vectors_of_norm2(48)) == 6
    assert len(lattice_vectors_of_norm2(7)) == 12


def test_coord_key_is_the_float_order_on_shipped_points():
    pts = {node(a, b) for a, b in hex_indices(6)}
    for fid in FIGURE_IDS:
        pts |= set(load_figure(fid).cfg.points)
    pts = list(pts)
    # the floats separate every pair the exact order separates
    for p, q in combinations(pts, 2):
        if p.x != q.x:
            assert abs(float(p.x) - float(q.x)) > 1e-9
        else:
            assert abs(float(p.y) - float(q.y)) > 1e-9
    assert (sorted(pts, key=Point.coord_key)
            == sorted(pts, key=lambda p: (float(p.x), float(p.y))))
