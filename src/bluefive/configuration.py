"""Named finite point sets and their combinatorial structure.

A Configuration deduplicates points, keeps aliases, and answers the
queries everything else is built from: unit-distance pairs, runs of k
collinear points at unit spacing, and congruent embeddings of the small
template shapes.  emit_clauses turns a configuration plus a rule set into
a ColoringProblem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .field import FieldElement, ONE, ZERO, fe
from .geometry import (Point, cross, dist2, dot, lattice_coords, lattice_norm2,
                       lattice_vectors_of_norm2, node)
from .solver import AUX_PREFIX, ColoringProblem

# rule identifiers
RED_L2_FORBIDDEN = "RED_L2_FORBIDDEN"
BLUE_L5_FORBIDDEN = "BLUE_L5_FORBIDDEN"
BLUE_EQ3_RED_CENTER = "BLUE_EQ3_RED_CENTER"
RED_EQ3_RED_CENTER = "RED_EQ3_RED_CENTER"
T7_ALL_RED = "T7_ALL_RED"
NO_RED_T3 = "NO_RED_T3"
T3_TO_T6_SCHEMA = "T3_TO_T6_SCHEMA"

BASE_RULES = (RED_L2_FORBIDDEN, BLUE_L5_FORBIDDEN)


class Configuration:
    """Ordered, deduplicated point registry.  Node order is insertion order."""

    def __init__(self, entries: Iterable[tuple[str, Point]]) -> None:
        self.names: list[str] = []
        self.points: list[Point] = []
        self.index: dict[str, int] = {}
        self.point_index: dict[Point, int] = {}
        for name, pt in entries:
            if " " in name:
                raise ValueError(f"node name may not contain spaces: {name!r}")
            if name.startswith(AUX_PREFIX):
                raise ValueError(f"node name may not start with {AUX_PREFIX!r}: {name!r}")
            if name in self.index:
                raise ValueError(f"duplicate node name {name!r}")
            existing = self.point_index.get(pt)
            if existing is None:
                idx = len(self.points)
                self.names.append(name)
                self.points.append(pt)
                self.point_index[pt] = idx
                self.index[name] = idx
            else:
                self.index[name] = existing  # an alias of names[existing]
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def point_of(self, name: str) -> Point:
        return self.points[self.index_of(name)]

    def primary(self, name: str) -> str:
        return self.names[self.index_of(name)]

    def name_at(self, pt: Point) -> str:
        return self.names[self.point_index[pt]]

    def restrict(self, keep: Iterable[str]) -> "Configuration":
        """Induced sub-configuration on the given nodes (insertion order
        kept).  `index` lists each primary name before its aliases, so the
        primaries stay primaries."""
        keep_idx = {self.index_of(n) for n in keep}
        return Configuration([(name, self.points[i]) for name, i in self.index.items()
                              if i in keep_idx])

    # -- lattice index and pair search ---------------------------------------

    def lattice(self) -> Optional[tuple[list[tuple[int, int]], dict[tuple[int, int], int]]]:
        """The lattice coordinates of every point and the index map keyed
        by them, or None when some point is not a node of the unit
        triangular lattice.

        lattice_coords inverts node(), a bijection between integer pairs
        and nodes, so looking a node up by its (a, b) finds exactly the
        index that point_index finds by its exact coordinates.
        """
        if "lattice" not in self._cache:
            coords = [lattice_coords(pt) for pt in self.points]
            self._cache["lattice"] = None if None in coords else (
                coords, {ab: i for i, ab in enumerate(coords)})
        return self._cache["lattice"]

    def pairs_with_dist2(self, d2: FieldElement) -> list[tuple[int, int]]:
        """All unordered index pairs at exactly squared distance d2.

        When every point is a lattice node the search is exact in
        integers: the squared distance of node(a, b) and node(c, d) is the
        norm (a-c)^2 + (a-c)(b-d) + (b-d)^2, so it is a non-negative
        integer n, and the pairs at n are the nodes whose index difference
        is one of lattice_vectors_of_norm2(n).

        Otherwise the pairs are read off the exact squared distances of
        all pairs, which are computed once (_dist2_rows); no shipped
        configuration off the lattice has more than a few dozen points.
        Results are cached; configurations are immutable once built.
        """
        key = ("pairs", d2)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        lattice = self.lattice()
        out = (sorted(_lattice_pairs(d2, *lattice)) if lattice is not None
               else [(i, j) for i, row in enumerate(self._dist2_rows())
                     for j in range(i + 1, len(row)) if row[j] == d2.nd])
        self._cache[key] = out
        return out

    def _dist2_rows(self) -> list[list[tuple]]:
        """rows[i][j]: the .nd tuple of the squared distance of points i and j."""
        rows = self._cache.get("dist2")
        if rows is None:
            pts = self.points
            rows = self._cache["dist2"] = [[ZERO.nd] * len(pts) for _ in pts]
            for i, j in combinations(range(len(pts)), 2):
                rows[i][j] = rows[j][i] = dist2(pts[i], pts[j]).nd
        return rows


def _lattice_pairs(d2: FieldElement, coords: list[tuple[int, int]],
                   index: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    if d2.d != 1 or d2.n1 or d2.n2 or d2.n3 or d2.n0 < 0:
        return []
    vectors = lattice_vectors_of_norm2(d2.n0)
    out = []
    for i, (a, b) in enumerate(coords):
        for va, vb in vectors:
            j = index.get((a + va, b + vb))
            # vectors come in +-v pairs, so each pair is met from both ends
            if j is not None and i < j:
                out.append((i, j))
    return out


def _canonical_direction(v: Point) -> Point:
    s = v.x.sign()
    if s > 0 or (s == 0 and v.y.sign() > 0):
        return v
    return Point(-v.x, -v.y)


def unit_directions(cfg: Configuration) -> list[Point]:
    """Distinct unit-length difference vectors, one sign representative each."""
    pairs = cfg.pairs_with_dist2(ONE)
    lattice = cfg.lattice()
    if lattice is None:
        diffs = {cfg.points[j] - cfg.points[i] for i, j in pairs}
    else:
        coords = lattice[0]
        steps = {(coords[j][0] - coords[i][0], coords[j][1] - coords[i][1]) for i, j in pairs}
        diffs = {node(a, b) for a, b in steps}
    return sorted({_canonical_direction(v) for v in diffs}, key=Point.coord_key)


def _lattice_order(ab: tuple[int, int]) -> tuple[int, int]:
    """node(a, b) has x = (2a + b)/2 and y = b*sqrt3/2, so (2a + b, b)
    orders nodes exactly as Point.coord_key does."""
    return (2 * ab[0] + ab[1], ab[1])


def ell_chains(cfg: Configuration, k: int) -> list[tuple[str, ...]]:
    """All runs of k nodes at unit spacing on a line, one orientation each, by name."""
    names = cfg.names
    return [tuple([names[i] for i in run]) for run in _chain_runs(cfg, k)]


def _chain_runs(cfg: Configuration, k: int) -> list[tuple[int, ...]]:
    """ell_chains as index runs.  Each node's successor along each unit
    direction is looked up once and runs walk successor indices.  On lattice
    nodes the lookup is in integer coordinates: a unit direction between two
    nodes is itself a lattice vector, and the index map finds a node exactly
    when point_index would."""
    if k < 2:
        raise ValueError("k must be >= 2")
    key = ("chains", k)
    cached = cfg._cache.get(key)
    if cached is not None:
        return cached
    lattice = cfg.lattice()
    if lattice is None:
        pts, index, order = cfg.points, cfg.point_index, Point.coord_key
        successors = [[index.get(p + v) for p in pts] for v in unit_directions(cfg)]
    else:
        (pts, index), order = lattice, _lattice_order
        successors = [[index.get((a + va, b + vb)) for a, b in pts]
                      for va, vb in map(lattice_coords, unit_directions(cfg))]
    chains = []
    for succ in successors:  # succ[i]: the node one unit step on from node i
        for i in range(len(pts)):
            run = [i]
            j = i
            for _ in range(k - 1):
                j = succ[j]
                if j is None:
                    break
                run.append(j)
            if len(run) == k:
                chains.append(tuple(run))
    keys = [order(p) for p in pts]
    chains.sort(key=lambda run: tuple([keys[i] for i in run]))
    cfg._cache[key] = chains
    return chains


def is_unit_chain(cfg: Configuration, names: Sequence[str]) -> bool:
    """Do the named nodes form a unit chain, in this order or reversed?"""
    want = tuple(cfg.primary(n) for n in names)
    chains = ell_chains(cfg, len(want))
    return want in chains or want[::-1] in chains


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    id: str
    points: tuple[Point, ...]


def _template(tid: str, lattice_pts: Sequence[tuple[int, int]],
              expect_min: int) -> Template:
    pts = tuple(node(a, b) for a, b in lattice_pts)
    best = min(dist2(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
    if best != fe(expect_min):
        raise AssertionError(f"template {tid}: smallest squared distance is {best}")
    return Template(tid, pts)


# L2 and L5 are unit-spaced runs on the e1 axis.  The five sqrt3-spaced
# shapes are written on the sqrt3-scaled 60-degree sublattice spanned by
# f1 = (2,-1) and f2 = (1,1) in unit-lattice coordinates: T3 = {0, f1, f2},
# T4 adds f1+f2, T5 adds 2*f1, T6 = {0, f1, 2f1, f2, f1+f2, 2f2},
# T7 = {0, f1, 2f1, 3f1, f2, f1+f2, 2f1+f2}.
TEMPLATES: dict[str, Template] = {tid: _template(tid, pts, d2) for tid, pts, d2 in [
    ("L2", [(0, 0), (1, 0)], 1),
    ("L5", [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], 1),
    ("T3", [(0, 0), (2, -1), (1, 1)], 3),
    ("T4", [(0, 0), (2, -1), (1, 1), (3, 0)], 3),
    ("T5", [(0, 0), (2, -1), (1, 1), (3, 0), (4, -2)], 3),
    ("T6", [(0, 0), (2, -1), (4, -2), (1, 1), (3, 0), (2, 2)], 3),
    ("T7", [(0, 0), (2, -1), (4, -2), (6, -3), (1, 1), (3, 0), (5, -1)], 3),
    # side-3 equilateral triangle plus its centre, in one congruence class
    ("EQ3_CENTERED", [(0, 0), (3, 0), (0, 3), (1, 1)], 3),
]}


def template(tid: str) -> Template:
    try:
        return TEMPLATES[tid]
    except KeyError:
        raise KeyError(f"unknown template {tid!r}") from None


def _placements(shape: Sequence[Point], i0: int, j0: int):
    """place(dst0, dst1, mirror=True, ks=None): the images of the shape
    (of its points ks, if given) under the direct rigid map sending points
    i0 and j0 to dst0 and dst1 and, if mirror, under the opposite one.
    Each point is written once as s0 + a*u + b*perp(u) (s0 = point i0,
    u = point j0 - s0, perp(x, y) = (-y, x)) and placed at
    dst0 + a*v +- b*perp(v) (v = dst1 - dst0), so placing divides nothing
    and points i0 and j0 land exactly on dst0 and dst1.  The two spans
    must be equally long."""
    s0 = shape[i0]
    u = shape[j0] - s0
    w = dot(u, u).inverse()
    coefficients = [(dot(p - s0, u) * w, cross(u, p - s0) * w) for p in shape]

    def place(dst0: Point, dst1: Point, mirror: bool = True,
              ks: Optional[Sequence[int]] = None) -> list[list[Point]]:
        x0, y0 = dst0.x, dst0.y
        vx, vy = dst1.x - x0, dst1.y - y0
        chosen = coefficients if ks is None else [coefficients[k] for k in ks]
        terms = [(x0 + a * vx, y0 + a * vy, b * vx, b * vy) for a, b in chosen]
        images = [[Point(ax - by, ay + bx) for ax, ay, bx, by in terms]]
        if mirror:
            images.append([Point(ax + by, ay - bx) for ax, ay, bx, by in terms])
        return images

    return place


# template lattice coordinates -> {anchor vector v: (direct, mirrored) offsets}
_OFFSET_TABLES: dict[tuple[tuple[int, int], ...], dict] = {}


def _offset_table(coords: tuple[tuple[int, int], ...], i0: int, j0: int,
                  best_d: int) -> dict:
    """For each lattice vector v of norm best_d, the lattice coordinates
    of the direct and the mirrored template placed by _placements with
    points i0 and j0 sent to node(0, 0) and node(*v); an entry is None
    when some image is not a node.

    A rigid map is dst0 plus a term that depends only on dst1 - dst0, and
    node() is additive, so adding the coordinates of dst0 to these offsets
    gives exactly the images for the anchor pair (dst0, dst0 + v).  Built
    on the first match of the template and kept.
    """
    table = _OFFSET_TABLES.get(coords)
    if table is None:
        place = _placements([node(a, b) for a, b in coords], i0, j0)
        origin = node(0, 0)
        table = {}
        for v in lattice_vectors_of_norm2(best_d):
            entry = []
            for image in place(origin, node(*v)):
                offsets = [lattice_coords(p) for p in image]
                entry.append(None if None in offsets else offsets)
            table[v] = tuple(entry)
        _OFFSET_TABLES[coords] = table
    return table


def _lattice_dist2(p: tuple[int, int], q: tuple[int, int]) -> int:
    return lattice_norm2(p[0] - q[0], p[1] - q[1])


def match_template(cfg: Configuration, tpl: Template) -> list[tuple[str, ...]]:
    """All congruent embeddings of the template, mirror images included,
    by node name, in the order _embeddings lists them."""
    names = cfg.names
    return [tuple([names[i] for i in emb]) for emb in _embeddings(cfg, tpl)]


def _embeddings(cfg: Configuration, tpl: Template,
                roles: Optional[Sequence[str]] = None) -> list[tuple[int, ...]]:
    """The embeddings of the template, as index tuples.  Anchors the most
    distant ordered template pair onto every matching-length pair of the
    configuration, in sorted order and both orientations, and lists the
    direct image before the mirrored one.  Every returned embedding passes
    a pair-by-pair check: template points i and j are exactly as far apart
    as their images.

    Off the lattice the anchor is extended through the other template
    points in order, each onto the nodes whose squared distance to every
    node placed so far is the template's, which is that check; the direct
    image puts the first point off the anchor line on its template side
    (the exact sign of `cross`).  On lattice nodes both images are read
    from a per-template offset table (_offset_table) and squared distances
    are integer norms; an image off the nodes cannot be in the
    configuration, so dropping it loses no embedding.

    Given roles, only the first embedding of each orbit under the
    symmetries σ that keep them (_automorphisms) is returned: emb and emb∘σ
    give one clause.  emb∘σ is listed at the anchor (emb[σ(i0)],
    emb[σ(j0)]), so a kept σ swapping i0 and j0 skips the reversed
    orientation, one fixing both the mirrored image, and any other drops
    emb, before its distance check, when that anchor's sorted pair is earlier.
    """
    m = len(tpl.points)
    if m < 2:
        raise ValueError("template needs at least 2 points")
    if len(cfg) < m:
        return []
    lattice = cfg.lattice()
    tpl_coords = tuple(lattice_coords(p) for p in tpl.points)
    exact = lattice is None or None in tpl_coords
    shape, span = (tpl.points, dist2) if exact else (tpl_coords, _lattice_dist2)
    spans = [(i, j, span(shape[i], shape[j])) for i in range(m) for j in range(i + 1, m)]
    i0, j0, best_d = max(spans, key=lambda s: s[2])  # the first of the longest
    pairs = cfg.pairs_with_dist2(FieldElement.coerce(best_d))
    ends = {(s[i0], s[j0]) for s in (() if roles is None else _automorphisms(tpl)[1:])
            if all(roles[s[k]] == roles[k] for k in range(m))}
    turns, images = 2 - ((j0, i0) in ends), 2 - ((i0, j0) in ends)
    tests = sorted({(min(e), max(e)) for e in ends} - {(i0, j0)})

    def first(emb: tuple[int, ...], pair: tuple[int, int]) -> bool:  # no earlier emb∘σ
        for s, t in tests:
            p, q = emb[s], emb[t]
            if ((p, q) if p < q else (q, p)) < pair:
                return False
        return True

    out: list[tuple[int, ...]] = []
    if exact:
        rows, pts = cfg._dist2_rows(), cfg.points
        want = {key: d.nd for i, j, d in spans for key in ((i, j), (j, i))}
        # the anchor is placed first, then the other points in template order
        order = [i0, j0] + [k for k in range(m) if k != i0 and k != j0]
        checks = [[(q, want[order[p], order[q]]) for q in range(p)] for p in range(m)]
        where = [order.index(k) for k in range(m)]
        s0, u = shape[i0], shape[j0] - shape[i0]
        sides = [cross(u, p - s0).sign() for p in shape]
        k_side = next((k for k, side in enumerate(sides) if side), None)

        def grow(run: list[int]) -> list[tuple[int, ...]]:
            if len(run) == m:
                return [tuple([run[p] for p in where])]
            check = checks[len(run)]
            return [emb for c, row in enumerate(rows) if all(row[run[q]] == d for q, d in check)
                    for emb in grow(run + [c])]

        for pair in pairs:
            for d0, d1 in (pair, pair[::-1])[:turns]:
                embs = grow([d0, d1])
                if len(embs) == 2 and cross(pts[d1] - pts[d0], pts[embs[0][k_side]] - pts[d0]
                                            ).sign() != sides[k_side]:
                    embs.reverse()
                out += [emb for emb in embs[:images] if first(emb, pair)]
    else:
        pts, get = lattice[0], lattice[1].get
        table = _offset_table(tpl_coords, i0, j0, best_d)
        seen: set[tuple[int, ...]] = set()
        for pair in pairs:
            for d0, d1 in (pair, pair[::-1])[:turns]:
                (x, y), (x1, y1) = pts[d0], pts[d1]
                for offsets in table[(x1 - x, y1 - y)][:images]:
                    if offsets is None:
                        continue
                    key = tuple([get((x + oa, y + ob)) for oa, ob in offsets])
                    if None in key or key in seen or not first(key, pair):
                        continue
                    seen.add(key)
                    for i, j, d in spans:
                        p, q = pts[key[i]], pts[key[j]]
                        da, db = p[0] - q[0], p[1] - q[1]
                        if da * da + da * db + db * db != d:
                            raise AssertionError(f"embedding of {tpl.id} failed the "
                                                 f"distance check at ({i}, {j})")
                    out.append(key)
    return out


@cache
def _automorphisms(tpl: Template) -> tuple[tuple[int, ...], ...]:
    """The template's symmetries, identity first: its embeddings onto a
    configuration of its own points, found on first use and kept."""
    return tuple(_embeddings(Configuration((str(k), p) for k, p in enumerate(tpl.points)), tpl))


def placement_count(cfg: Configuration, tpl: Template, names: Sequence[str],
                    center_last: bool = False) -> int:
    """Embeddings of the template onto exactly the named nodes; with
    center_last, only those taking the last template point (a centre) to
    the last name.

    Matching the induced sub-configuration finds the same embeddings as
    matching the whole configuration, and is far cheaper on a large patch.
    """
    want = frozenset(cfg.primary(n) for n in names)
    hits = [emb for emb in match_template(cfg.restrict(names), tpl)
            if frozenset(emb) == want]
    if center_last:
        centre = cfg.primary(names[-1])
        hits = [emb for emb in hits if emb[-1] == centre]
    return len(hits)


# (small, big) templates -> [(embedding of small in big, _placements of big)]
_EXTENSION_FRAMES: dict[tuple[Template, Template], list] = {}


def template_extensions(small_id: str, big_id: str,
                        anchor_points: Sequence[Point]) -> list[tuple[Point, ...]]:
    """All plane placements of the big template containing the anchor copy
    of the small template.  Returned as point tuples sorted deterministically;
    points may fall outside any particular configuration."""
    small = template(small_id)
    big = template(big_id)
    if len(anchor_points) != len(small.points):
        raise ValueError("anchor size does not match the small template")
    anchor_cfg = Configuration((f"_t{i}", p) for i, p in enumerate(anchor_points))
    anchor_orders = match_template(anchor_cfg, small)
    if not anchor_orders:
        raise ValueError(f"anchor is not congruent to template {small_id}")
    # Every embedding of the small template into the big one is listed,
    # so mapping each onto one ordering of the anchor finds every placement.
    frames = _EXTENSION_FRAMES.get((small, big))
    if frames is None:
        big_cfg = Configuration((f"_b{i}", p) for i, p in enumerate(big.points))
        subs = [[big_cfg.index_of(n) for n in sub] for sub in match_template(big_cfg, small)]
        frames = _EXTENSION_FRAMES[(small, big)] = [
            (sub, _placements(big.points, sub[0], sub[1])) for sub in subs]
    targets = [anchor_cfg.point_of(n) for n in anchor_orders[0]]
    found: dict[frozenset, tuple[Point, ...]] = {}
    for sub, place in frames:
        # the frame sends the first two anchor points onto their targets
        # exactly, so only the others' images decide whether it fits
        if place(targets[0], targets[1], mirror=False, ks=sub[2:])[0] != targets[2:]:
            continue
        image = tuple(place(targets[0], targets[1], mirror=False)[0])
        found.setdefault(frozenset(image), image)
    return sorted(found.values(),
                  key=lambda pts: [c for p in pts for c in p.serialize()["x"] + p.serialize()["y"]])


# ---------------------------------------------------------------------------
# Rules and clause generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternRule:
    """Forbidden coloured pattern: no embedding of the template may take
    the given role colours simultaneously."""
    rule_id: str
    template_id: str
    roles: tuple[str, ...]


@dataclass(frozen=True)
class ExtensionSchema:
    """Each listed all-red T3 anchor extends to an all-red T6."""
    anchors: tuple[tuple[str, ...], ...]


_PATTERN_RULE_DEFS: dict[str, tuple[str, tuple[str, ...]]] = {
    BLUE_EQ3_RED_CENTER: ("EQ3_CENTERED", ("blue", "blue", "blue", "red")),
    RED_EQ3_RED_CENTER: ("EQ3_CENTERED", ("red", "red", "red", "red")),
    T7_ALL_RED: ("T7", ("red",) * 7),
    NO_RED_T3: ("T3", ("red",) * 3),
}


def pattern_rule(rule_id: str) -> PatternRule:
    template_id, roles = _PATTERN_RULE_DEFS[rule_id]
    return PatternRule(rule_id, template_id, roles)


@dataclass
class RuleSet:
    base: tuple[str, ...] = BASE_RULES
    derived: tuple[PatternRule, ...] = ()
    existential: Optional[ExtensionSchema] = None

    def hypotheses(self) -> list[str]:
        """The derived rule ids in order, then the extension schema's if present."""
        return [r.rule_id for r in self.derived] + [T3_TO_T6_SCHEMA] * bool(self.existential)


def emit_clauses(cfg: Configuration, rules: RuleSet,
                 fixed: dict[str, str]) -> ColoringProblem:
    """Encode the configuration under the rule set as CNF.

    Variable v (true = red) is the v-th node in insertion order; auxiliary
    selector variables for the extension schema follow.  Each clause of a
    pattern rule is built from one embedding (_embeddings given the rule's
    roles).  Every rule given is encoded: whether a derived rule may be
    used is `lemmata.build_stages`' check.
    """
    names = list(cfg.names)
    clauses: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()

    def add(clause: Sequence[int]) -> None:
        key = frozenset(clause)
        if key not in seen:
            seen.add(key)
            clauses.append(tuple(clause))

    if RED_L2_FORBIDDEN in rules.base:
        for i, j in cfg.pairs_with_dist2(ONE):
            add((-(i + 1), -(j + 1)))
    if BLUE_L5_FORBIDDEN in rules.base:
        for run in _chain_runs(cfg, 5):
            add(tuple([i + 1 for i in run]))

    for rule in rules.derived:
        signs = [-1 if role == "red" else 1 for role in rule.roles]
        for emb in _embeddings(cfg, template(rule.template_id), rule.roles):
            add(tuple([sign * (i + 1) for sign, i in zip(signs, emb)]))

    if rules.existential is not None:
        for anchor in rules.existential.anchors:
            tri = [cfg.index_of(nm) for nm in anchor]
            tag = ",".join([cfg.names[i] for i in tri])
            allred = len(names) + 1
            names.append(f"{AUX_PREFIX}allred:{tag}")
            add((allred, *[-(i + 1) for i in tri]))
            sel_vars = []
            for ci, cand in enumerate(template_extensions("T3", "T6",
                                                          [cfg.points[i] for i in tri])):
                sel_vars.append(len(names) + 1)
                names.append(f"{AUX_PREFIX}sel:{tag}:{ci}")
                for k in map(cfg.point_index.get, cand):
                    if k is not None:
                        add((-sel_vars[-1], k + 1))
            add((-allred, *sel_vars))

    pinned: dict[int, str] = {}
    for nm, colour in fixed.items():
        if colour not in ("red", "blue"):
            raise ValueError(f"bad colour {colour!r} for node {nm!r}")
        idx = cfg.index_of(nm)  # raises on unknown names; aliases allowed
        prev = pinned.get(idx)
        if prev is not None and prev != colour:
            raise ValueError(f"node {cfg.names[idx]!r} fixed both red and blue")
        pinned[idx] = colour
    for idx in sorted(pinned):
        add((idx + 1,) if pinned[idx] == "red" else (-(idx + 1),))

    name_to_var = ({nm: i + 1 for i, nm in enumerate(names)}
                   | {nm: i + 1 for nm, i in cfg.index.items()})
    return ColoringProblem(clauses=clauses, names=names, name_to_var=name_to_var)


# ---------------------------------------------------------------------------
# JSON instance format
# ---------------------------------------------------------------------------


def rules_from_ids(rule_ids: Iterable) -> RuleSet:
    base = []
    derived = []
    existential = None
    for entry in rule_ids:
        if isinstance(entry, dict):
            if entry.get("rule") != T3_TO_T6_SCHEMA:
                raise ValueError(f"unknown rule entry {entry!r}")
            anchors = tuple(tuple(_json_field(a, list, "an anchor"))
                            for a in _json_field(entry.get("anchors"), list, "'anchors'"))
            if not anchors:
                raise ValueError(f"{T3_TO_T6_SCHEMA} needs at least one anchor")
            existential = ExtensionSchema(anchors=anchors)
        elif not isinstance(entry, str):
            raise ValueError(f"unknown rule id {entry!r}")
        elif entry in BASE_RULES:
            base.append(entry)
        elif entry == T3_TO_T6_SCHEMA:
            raise ValueError(f"{entry} needs anchors: write it as an object with an "
                             "'anchors' list")
        elif entry in _PATTERN_RULE_DEFS:
            derived.append(pattern_rule(entry))
        else:
            raise ValueError(f"unknown rule id {entry!r}")
    return RuleSet(base=tuple(base), derived=tuple(derived), existential=existential)


_JSON_KINDS = {dict: "a JSON object", list: "a JSON array", str: "a JSON string",
               int: "a JSON integer"}


def _json_field(value, kind, what: str):
    """Return value if it has the given JSON shape; otherwise raise ValueError.

    The shape is a JSON type (`object` admits any value), [shape] for an
    array of items of that shape, [shape, n] for exactly n of them, or
    {key: shape} for an object whose listed keys, where present, have those
    shapes."""
    if isinstance(kind, dict):
        for key in _json_field(value, dict, what).keys() & kind.keys():
            _json_field(value[key], kind[key], f"its {key!r}")
    elif isinstance(kind, list):
        for item in _json_field(value, list, what):
            _json_field(item, kind[0], f"an item of {what}")
        if kind[1:] not in ([], [len(value)]):
            raise ValueError(f"{what} must hold {kind[1]} items, not {len(value)}")
    elif not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def instance_from_json(data: dict) -> tuple[Configuration, dict[str, str], RuleSet]:
    _json_field(data, dict, "an instance")
    entries = []
    aliases = []
    for rec in _json_field(data["points"], list, "'points'"):
        _json_field(rec, dict, "a point")
        pt = Point(FieldElement.deserialize(rec["x"]), FieldElement.deserialize(rec["y"]))
        entries.append((_json_field(rec["name"], str, "a point name"), pt))
        aliases += [(_json_field(alias, str, "an alias"), pt)
                    for alias in _json_field(rec.get("aliases", []), list, "'aliases'")]
    cfg = Configuration(entries + aliases)
    fixed = dict(_json_field(data.get("fixed", {}), dict, "'fixed'"))
    unknown = sorted(set(fixed) - set(cfg.index))
    if unknown:
        raise ValueError(f"fixed colours name unknown nodes: {', '.join(unknown)}")
    rules = rules_from_ids(_json_field(data.get("rules", list(BASE_RULES)), list, "'rules'"))
    return cfg, fixed, rules
