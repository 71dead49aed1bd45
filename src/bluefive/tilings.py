"""The two periodic lattice colourings and their validity checks.

Both colourings are stored as exact membership rules in unit-lattice
coordinates (a, b): a red cluster translated by an integer sublattice.
Pattern A repeats a six-point cluster over 5Z x 5Z; pattern B colours a
single index-5 sublattice red.  Checking a node is integer linear
algebra, so the distance-5 invariance facts reduce to lattice membership.
Validity on a hex patch is counted with configuration's own searches: red
pairs among pairs_with_dist2(ONE) and all-blue runs among ell_chains(cfg, 5).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

from .configuration import Configuration, ell_chains
from .field import ONE
from .geometry import hex_indices, lattice_vectors_of_norm2, node

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
    coloring: str
    radius: int
    red_unit_pairs: int
    blue_chains: int
    pair_witnesses: list
    chain_witnesses: list
    periodicity_certified: bool

    @property
    def ok(self) -> bool:
        return self.red_unit_pairs == 0 and self.blue_chains == 0

    def to_json(self) -> dict:
        return asdict(self) | {"ok": self.ok}


def validate_pattern(coloring: PeriodicColoring, radius: int) -> PatternReport:
    """Count red unit pairs and all-blue unit 5-chains on the hex patch.

    Both defect types span at most 4 lattice steps, so a clean patch of
    radius >= period + 5 certifies the infinite colouring.  Witnesses are
    lattice coordinates, listed in the order the searches return them.
    """
    if radius < 5:
        raise ValueError("radius must be >= 5 for pattern validation")
    cells = hex_indices(radius)
    cfg = Configuration((f"{a},{b}", node(a, b)) for a, b in cells)
    red = [coloring.is_red(a, b) for a, b in cells]
    pairs = [[list(cells[i]), list(cells[j])] for i, j in cfg.pairs_with_dist2(ONE)
             if red[i] and red[j]]
    index = cfg.index
    chains = [[list(cells[index[name]]) for name in chain] for chain in ell_chains(cfg, 5)
              if not any(red[index[name]] for name in chain)]
    return PatternReport(coloring.id, radius, len(pairs), len(chains),
                         pairs[:WITNESS_CAP], chains[:WITNESS_CAP],
                         radius >= coloring.period() + 5)


def distance5_invariance(coloring: PeriodicColoring) -> bool:
    """True iff translating by any norm-25 lattice vector preserves the red set.

    `residues` is linear modulo det, so translating by v shifts each red
    residue by residues(v); implies every distance-5 lattice pair is
    monochromatic.
    """
    d, red = coloring.det, coloring.red_residues
    return all({((ra + sa) % d, (rb + sb) % d) for ra, rb in red} == red
               for sa, sb in (coloring.residues(*v) for v in lattice_vectors_of_norm2(25)))

