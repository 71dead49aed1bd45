import random
from dataclasses import dataclass
from functools import lru_cache

import pytest

from _oracles import chain_sets_brute
from bluefive.configuration import Configuration
from bluefive.field import ONE
from bluefive.geometry import (dist2, hex_indices, lattice_norm2, lattice_vectors_of_norm2,
                               node)
from bluefive.tilings import (PATTERN_A, PATTERN_B, WITNESS_CAP, PeriodicColoring,
                              distance5_invariance, validate_pattern)


@dataclass(frozen=True)
class FlippedColoring(PeriodicColoring):
    """A periodic colouring with the colours of some nodes inverted."""

    flipped: frozenset = frozenset()

    def is_red(self, a: int, b: int) -> bool:
        return super().is_red(a, b) != ((a, b) in self.flipped)


def flip(coloring: PeriodicColoring, *nodes: tuple[int, int]) -> FlippedColoring:
    """The colouring with the given nodes' colours inverted: an injected fault."""
    return FlippedColoring(coloring.id + "+flip", coloring.cluster,
                           coloring.gen1, coloring.gen2, frozenset(nodes))


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


@lru_cache(maxsize=None)
def brute_defect_sites(radius: int):
    """The unit pairs of the hex patch by exhaustive exact scan, and its
    unit 5-chains by the oracle's subset growth, as sets of lattice cells."""
    cells = hex_indices(radius)
    cfg = Configuration((f"{a},{b}", node(a, b)) for a, b in cells)
    cell_of = dict(zip(cfg.names, cells))
    pts = cfg.points
    pairs = {frozenset([cells[i], cells[j]]) for i in range(len(pts))
             for j in range(i + 1, len(pts)) if dist2(pts[i], pts[j]) == ONE}
    chains = {frozenset(cell_of[name] for name in chain) for chain in chain_sets_brute(cfg, 5)}
    return pairs, chains


# (pattern, flipped nodes, {radius: (red unit pairs, blue chains)})
FAULT_CASES = [
    (PATTERN_A, [(0, 0)], {5: (0, 10), 8: (0, 10)}),
    (PATTERN_A, [(1, 0)], {5: (3, 0), 8: (3, 0)}),
    (PATTERN_B, [(0, 0), (2, -1), (3, 0)], {5: (3, 13), 8: (3, 13)}),
    (PATTERN_B, [(1, 1), (5, 0)], {5: (1, 3), 8: (1, 12)}),
]


@pytest.mark.parametrize("radius", [5, 8])
@pytest.mark.parametrize("pattern, nodes, counts", FAULT_CASES,
                         ids=["A-origin", "A-10", "B-three", "B-two"])
def test_pattern_defects_against_brute_force(pattern, nodes, counts, radius):
    bad = flip(pattern, *nodes)
    report = validate_pattern(bad, radius)
    pairs, chains = brute_defect_sites(radius)
    red = {cell: bad.is_red(*cell) for cell in hex_indices(radius)}
    red_pairs = {pair for pair in pairs if all(red[c] for c in pair)}
    blue_chains = {chain for chain in chains if not any(red[c] for c in chain)}
    assert (report.red_unit_pairs, report.blue_chains) == (len(red_pairs), len(blue_chains))
    assert (len(red_pairs), len(blue_chains)) == counts[radius]
    assert not report.ok

    # every witness is a distinct real defect, listed up to the cap
    pair_sites = [frozenset(map(tuple, w)) for w in report.pair_witnesses]
    assert len(pair_sites) == len(set(pair_sites)) == min(len(red_pairs), WITNESS_CAP)
    assert set(pair_sites) <= red_pairs
    chain_sites = [frozenset(map(tuple, w)) for w in report.chain_witnesses]
    assert len(chain_sites) == len(set(chain_sites)) == min(len(blue_chains), WITNESS_CAP)
    assert set(chain_sites) <= blue_chains
    for run in report.chain_witnesses:  # listed in order along the line
        steps = {(q[0] - p[0], q[1] - p[1]) for p, q in zip(run, run[1:])}
        assert len(steps) == 1 and lattice_norm2(*steps.pop()) == 1


def test_distance5_invariance():
    assert distance5_invariance(PATTERN_A)
    assert distance5_invariance(PATTERN_B)
    checker = PeriodicColoring("checker", ((0, 0),), (2, 0), (0, 2))
    assert not distance5_invariance(checker)


def _invariance_by_scan(coloring: PeriodicColoring) -> bool:
    """The reference: compare the colour of every node of a full residue
    system with the colour of its translate by each norm-25 vector."""
    span = abs(coloring.det)
    return all(coloring.is_red(a, b) == coloring.is_red(a + va, b + vb)
               for va, vb in lattice_vectors_of_norm2(25)
               for a in range(span) for b in range(span))


def test_distance5_invariance_agrees_with_the_scan():
    """Shifting the red residues decides what the scan decides, on random
    periodic colourings whose determinant takes either sign."""
    rng = random.Random(25)
    verdicts, signs = set(), set()
    for pattern in (PATTERN_A, PATTERN_B):
        assert distance5_invariance(pattern) is _invariance_by_scan(pattern) is True
    for _ in range(300):
        gen1, gen2 = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2)]
        if gen1[0] * gen2[1] == gen1[1] * gen2[0]:
            continue
        cluster = tuple((rng.randint(-6, 6), rng.randint(-6, 6))
                        for _ in range(rng.randint(1, 4)))
        coloring = PeriodicColoring("random", cluster, gen1, gen2)
        verdict = distance5_invariance(coloring)
        assert verdict == _invariance_by_scan(coloring), coloring
        verdicts.add(verdict)
        signs.add(coloring.det > 0)
    assert verdicts == signs == {True, False}


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
