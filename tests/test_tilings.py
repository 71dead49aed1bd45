import random
from dataclasses import dataclass

import pytest

from bluefive.geometry import hex_indices, lattice_norm2, lattice_vectors_of_norm2
from bluefive.tilings import (PATTERN_A, PATTERN_B, PeriodicColoring,
                              distance5_invariance, validate_pattern)


@dataclass(frozen=True)
class FlippedColoring(PeriodicColoring):
    """A periodic colouring with the colours of some nodes inverted."""

    flipped: frozenset = frozenset()

    def is_red(self, a: int, b: int) -> bool:
        return super().is_red(a, b) != ((a, b) in self.flipped)


def flip(coloring: PeriodicColoring, node: tuple[int, int]) -> FlippedColoring:
    """The colouring with one node's colour inverted: an injected fault."""
    return FlippedColoring(coloring.id + "+flip", coloring.cluster,
                           coloring.gen1, coloring.gen2, frozenset([node]))


def color_of(coloring: PeriodicColoring, node: tuple[int, int]) -> str:
    return "red" if coloring.is_red(*node) else "blue"


def blue_has_red_unit_neighbor(coloring: PeriodicColoring, radius: int) -> bool:
    """Every blue node in the patch sits at distance 1 from some red node."""
    for a, b in hex_indices(radius):
        if coloring.is_red(a, b):
            continue
        if not any(coloring.is_red(a + da, b + db)
                   for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))):
            return False
    return True


def min_red_dist2(coloring: PeriodicColoring, radius: int):
    """Smallest squared distance between distinct red nodes of the patch."""
    reds = [(a, b) for a, b in hex_indices(radius) if coloring.is_red(a, b)]
    return min(lattice_norm2(p[0] - q[0], p[1] - q[1])
               for i, p in enumerate(reds) for q in reds[i + 1:])


def test_color_of_examples():
    assert color_of(PATTERN_B, (0, 0)) == "red"
    assert color_of(PATTERN_B, (1, 0)) == "blue"
    assert color_of(PATTERN_A, (5, 0)) == "red"
    assert color_of(PATTERN_A, (4, 3)) == "red"  # (4,-2) shifted by (0,5)


def test_cluster_cells_red():
    for cell in PATTERN_A.cluster:
        assert PATTERN_A.is_red(*cell)


@pytest.mark.parametrize("coloring", [PATTERN_A, PATTERN_B], ids=["A", "B"])
def test_residue_lookup_equals_translated_membership(coloring):
    """One residue-set lookup colours a node as the cluster translates do."""
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert coloring.is_red(a, b) == any(
                coloring.lattice_contains(a - ca, b - cb) for ca, cb in coloring.cluster)


def test_lattice_indices():
    assert abs(PATTERN_A.det) == 25 and len(PATTERN_A.cluster) == 6
    assert abs(PATTERN_B.det) == 5 and len(PATTERN_B.cluster) == 1


def test_validate_patterns_radius_12():
    for pattern in (PATTERN_A, PATTERN_B):
        report = validate_pattern(pattern, 12)
        assert report.ok
        assert report.red_unit_pairs == 0 and report.blue_chains == 0
        assert report.periodicity_certified


def test_validate_radius_floor():
    with pytest.raises(ValueError):
        validate_pattern(PATTERN_A, 4)


def test_verdict_independent_of_radius():
    for pattern in (PATTERN_A, PATTERN_B):
        for radius in (10, 11, 13):
            assert validate_pattern(pattern, radius).ok


def test_injected_fault_is_located():
    # flip a blue cell adjacent to a red cell: creates a red unit pair
    bad = flip(PATTERN_B, (1, 0))
    report = validate_pattern(bad, 8)
    assert not report.ok
    assert report.red_unit_pairs > 0
    assert report.pair_witnesses
    a, b = report.pair_witnesses[0]
    assert bad.is_red(*a) and bad.is_red(*b)


def test_distance5_invariance():
    assert distance5_invariance(PATTERN_A)
    assert distance5_invariance(PATTERN_B)
    checker = PeriodicColoring("checker", ((0, 0),), (2, 0), (0, 2))
    assert not distance5_invariance(checker)


def test_every_blue_has_a_red_unit_neighbor():
    assert blue_has_red_unit_neighbor(PATTERN_A, 10)
    assert blue_has_red_unit_neighbor(PATTERN_B, 10)


def test_min_red_distance_is_sqrt3():
    assert min_red_dist2(PATTERN_A, 10) == 3
    assert min_red_dist2(PATTERN_B, 10) == 3


def test_membership_invariant_under_pattern_lattice():
    rng = random.Random(5)
    for pattern in (PATTERN_A, PATTERN_B):
        for _ in range(5000):
            a = rng.randint(-30, 30)
            b = rng.randint(-30, 30)
            s = rng.randint(-3, 3)
            t = rng.randint(-3, 3)
            va = s * pattern.gen1[0] + t * pattern.gen2[0]
            vb = s * pattern.gen1[1] + t * pattern.gen2[1]
            assert pattern.is_red(a, b) == pattern.is_red(a + va, b + vb)


def test_norm25_vectors_inside_both_lattices():
    for va, vb in lattice_vectors_of_norm2(25):
        assert PATTERN_A.lattice_contains(va, vb)
        assert PATTERN_B.lattice_contains(va, vb)
