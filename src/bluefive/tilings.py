"""The two periodic lattice colourings and their validity checks.

Both colourings are stored as exact membership rules in unit-lattice
coordinates (a, b): a red cluster translated by an integer sublattice.
Pattern A repeats a six-point cluster over 5Z x 5Z; pattern B colours a
single index-5 sublattice red.  Checking a node is integer linear
algebra, so the distance-5 invariance facts reduce to lattice membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .geometry import hex_indices, lattice_vectors_of_norm2

UNIT_OFFSETS = ((1, 0), (0, 1), (1, -1))  # one representative per unit direction
WITNESS_CAP = 5  # defects of each type listed in a pattern report


@dataclass(frozen=True)
class PeriodicColoring:
    """Red set = union over the cluster of (cluster point + lattice)."""

    id: str
    cluster: tuple[tuple[int, int], ...]
    gen1: tuple[int, int]
    gen2: tuple[int, int]

    @cached_property
    def det(self) -> int:
        return self.gen1[0] * self.gen2[1] - self.gen1[1] * self.gen2[0]

    def residues(self, a: int, b: int) -> tuple[int, int]:
        """Coordinates of (a, b) in the basis gen1, gen2, times det, mod det;
        two nodes differ by a sublattice vector iff their residues agree."""
        d = self.det
        return ((a * self.gen2[1] - b * self.gen2[0]) % d,
                (-a * self.gen1[1] + b * self.gen1[0]) % d)

    def lattice_contains(self, a: int, b: int) -> bool:
        """Is (a, b) in the sublattice spanned by gen1 and gen2?"""
        return self.residues(a, b) == (0, 0)

    @cached_property
    def red_residues(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.residues(ca, cb) for ca, cb in self.cluster)

    def is_red(self, a: int, b: int) -> bool:
        return self.residues(a, b) in self.red_residues

    def period(self) -> int:
        """Hexagonal diameter of a generating cell, for the patch-size bound."""
        return max(max(abs(self.gen1[0]), abs(self.gen1[1]), abs(self.gen1[0] + self.gen1[1])),
                   max(abs(self.gen2[0]), abs(self.gen2[1]), abs(self.gen2[0] + self.gen2[1])))


# Pattern A: six-point red cluster repeated over 5Z x 5Z (red density 6/25).
PATTERN_A = PeriodicColoring(
    id="A",
    cluster=((0, 0), (1, 1), (2, -1), (2, 2), (3, 0), (4, -2)),
    gen1=(5, 0),
    gen2=(0, 5),
)

# Pattern B: red exactly on the index-5 sublattice (red density 1/5).
PATTERN_B = PeriodicColoring(
    id="B",
    cluster=((0, 0),),
    gen1=(-1, 2),
    gen2=(3, -1),
)

PATTERNS = {"A": PATTERN_A, "B": PATTERN_B}


@dataclass
class PatternReport:
    coloring_id: str
    radius: int
    red_unit_pairs: int
    blue_chains: int
    pair_witnesses: list = field(default_factory=list)
    chain_witnesses: list = field(default_factory=list)
    periodicity_certified: bool = False

    @property
    def ok(self) -> bool:
        return self.red_unit_pairs == 0 and self.blue_chains == 0

    def to_json(self) -> dict:
        return {
            "coloring": self.coloring_id,
            "radius": self.radius,
            "red_unit_pairs": self.red_unit_pairs,
            "blue_chains": self.blue_chains,
            "pair_witnesses": self.pair_witnesses,
            "chain_witnesses": self.chain_witnesses,
            "periodicity_certified": self.periodicity_certified,
            "ok": self.ok,
        }


def validate_pattern(coloring: PeriodicColoring, radius: int) -> PatternReport:
    """Count red unit pairs and all-blue unit 5-chains on the hex patch.

    Both defect types span at most 4 lattice steps, so a clean patch of
    radius >= period + 5 certifies the infinite colouring.
    """
    if radius < 5:
        raise ValueError("radius must be >= 5 for pattern validation")
    red = {}
    for a, b in hex_indices(radius):
        red[(a, b)] = coloring.is_red(a, b)
    report = PatternReport(coloring.id, radius, 0, 0)
    for (a, b), is_r in red.items():
        for da, db in UNIT_OFFSETS:
            if is_r and red.get((a + da, b + db)):
                report.red_unit_pairs += 1
                if len(report.pair_witnesses) < WITNESS_CAP:
                    report.pair_witnesses.append([[a, b], [a + da, b + db]])
        for da, db in UNIT_OFFSETS:
            cells = [(a + t * da, b + t * db) for t in range(5)]
            if all(c in red for c in cells) and not any(red[c] for c in cells):
                report.blue_chains += 1
                if len(report.chain_witnesses) < WITNESS_CAP:
                    report.chain_witnesses.append([list(c) for c in cells])
    report.periodicity_certified = radius >= coloring.period() + 5
    return report


def distance5_invariance(coloring: PeriodicColoring) -> bool:
    """True iff translating by any norm-25 lattice vector preserves the red set.

    Checked on a full residue system of the pattern's lattice, which
    suffices by periodicity; implies every distance-5 lattice pair is
    monochromatic.
    """
    vectors = lattice_vectors_of_norm2(25)
    span = abs(coloring.det)
    for va, vb in vectors:
        for a in range(span):
            for b in range(span):
                if coloring.is_red(a, b) != coloring.is_red(a + va, b + vb):
                    return False
    return True

