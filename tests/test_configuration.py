import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bluefive.configuration as configuration
from _oracles import chain_sets_brute, embeddings_brute, reference_clauses
from bluefive.configuration import (TEMPLATES, Configuration, ExtensionSchema,
                                    PatternRule, RuleSet, Template, ell_chains,
                                    emit_clauses, is_unit_chain, match_template,
                                    placement_count, template, template_extensions)
from bluefive.field import ONE, fe
from bluefive.figures import FIGURE_IDS, load_figure
from bluefive.geometry import (Point, chord_rotation, dist2, hex_indices, lattice_coords,
                               node)
from bluefive.lemmata import SCRIPTS, Options, build_stages
from bluefive.solver import solve


def _lattice_cfg(coords):
    return Configuration((f"p{i}", node(a, b)) for i, (a, b) in enumerate(coords))


def test_dedup_and_aliases():
    cfg = Configuration([("a", node(0, 0)), ("b", node(0, 0)), ("c", node(1, 0))])
    assert len(cfg) == 2
    assert cfg.primary("b") == "a"
    assert cfg.point_of("b") == node(0, 0)


def test_duplicate_name_rejected():
    with pytest.raises(ValueError):
        Configuration([("a", node(0, 0)), ("a", node(1, 0))])


def test_auxiliary_prefix_is_not_a_node_name():
    """Solver problems read a name starting with aux: as an auxiliary
    variable, so a node may not take one, as a primary or as an alias."""
    for entries in ([("aux:x", node(0, 0))],
                    [("a", node(0, 0)), ("aux:x", node(0, 0))]):
        with pytest.raises(ValueError, match="may not start with 'aux:'"):
            Configuration(entries)


def test_restrict_keeps_primaries_and_aliases():
    cfg = Configuration([("a", node(0, 0)), ("b", node(1, 0)), ("twin", node(0, 0)),
                         ("c", node(2, 0)), ("c2", node(2, 0))])
    sub = cfg.restrict(["c2", "twin"])
    assert sub.names == ["a", "c"]
    assert sub.index == {"a": 0, "twin": 0, "c": 1, "c2": 1}
    problem = emit_clauses(sub, RuleSet(), {})
    assert problem.names == ["a", "c"]
    assert problem.name_to_var == {"a": 1, "c": 2, "twin": 1, "c2": 2}


def test_patch_plus_turned_copy_shares_only_centre():
    rot = chord_rotation(node(0, 0), 1)
    entries = [(f"p{i}", node(a, b)) for i, (a, b) in enumerate(hex_indices(2))]
    entries += [(f"q{i}", rot(p)) for i, (_, p) in enumerate(entries)]
    cfg = Configuration(entries)
    assert len(cfg) == 2 * 19 - 1


def test_unit_pairs_examples():
    assert len(_lattice_cfg([(0, 0), (1, 0)]).pairs_with_dist2(ONE)) == 1
    t6 = Configuration(
        (f"t{i}", p) for i, p in enumerate(template("T6").points))
    assert t6.pairs_with_dist2(ONE) == []


def _pairs_brute(cfg, d2):
    pts = cfg.points
    return [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
            if dist2(pts[i], pts[j]) == d2]


def test_pair_search_equals_exhaustive_scan():
    """The pair search, in integers on lattice nodes and by an exact field
    scan otherwise, finds exactly the pairs a plain all-pairs scan finds,
    for every squared distance that occurs and for some that occur
    nowhere."""
    rng = random.Random(11)
    patch = _lattice_cfg([ab for ab in hex_indices(4) if rng.random() < 0.6])
    rot = chord_rotation(node(0, 0), -1)
    entries = [(f"p{i}", node(a, b)) for i, (a, b) in enumerate(hex_indices(2))]
    turned = Configuration(entries + [(f"q{i}", rot(p)) for i, (_, p) in enumerate(entries)])
    for cfg in (load_figure("fig3").cfg, turned, patch):
        values = {dist2(p, q) for i, p in enumerate(cfg.points) for q in cfg.points[i + 1:]}
        if cfg is not patch:
            assert any(not d2.is_rational() for d2 in values)
        for d2 in values:
            assert cfg.pairs_with_dist2(d2) == _pairs_brute(cfg, d2)
        for absent in (fe(0), fe(2), fe(0, 0, 1), fe(3, 0, 0, Fraction(1, 10**9))):
            assert absent not in values
            assert cfg.pairs_with_dist2(absent) == []


# Longest edge of norm 7, which 12 lattice vectors have: anchoring it on
# the six that are not unit multiples of (2, 1) is a rotation that is not a
# lattice symmetry, so the third point's image is not a node.
N7 = Template("N7", (node(0, 0), node(1, 0), node(2, 1)))


def _with_distant_non_node(cfg):
    """The same configuration plus one far point that is not a lattice
    node, which sends every query down the exact path."""
    far = Point(fe(1000), fe(Fraction(1, 3)))
    return Configuration(list(zip(cfg.names, cfg.points)) + [("far", far)])


def test_integer_path_agrees_with_exact_path():
    rng = random.Random(5)
    cases = [_lattice_cfg(hex_indices(3)),
             _lattice_cfg([ab for ab in hex_indices(4) if rng.random() < 0.7]),
             load_figure("fig4").cfg, load_figure("fig5").cfg]
    for cfg in cases:
        mixed = _with_distant_non_node(cfg)
        assert cfg.lattice() is not None and mixed.lattice() is None
        values = {dist2(p, q) for i, p in enumerate(cfg.points) for q in cfg.points[i + 1:]}
        for d2 in values | {fe(0), fe(2), fe(-1), fe(Fraction(1, 2)), fe(0, 1)}:
            assert cfg.pairs_with_dist2(d2) == mixed.pairs_with_dist2(d2), d2
        for k in range(2, 6):
            assert ell_chains(cfg, k) == ell_chains(mixed, k), k
        for tpl in list(TEMPLATES.values()) + [N7]:
            assert match_template(cfg, tpl) == match_template(mixed, tpl), tpl.id
    patch = _lattice_cfg(hex_indices(5))
    mixed = _with_distant_non_node(patch)
    for tpl in list(TEMPLATES.values()) + [N7]:
        assert match_template(patch, tpl) == match_template(mixed, tpl), tpl.id
    # the anchor norm 7 has 12 lattice vectors; for each, exactly one of the
    # direct and the mirrored map sends N7 onto nodes
    table = configuration._OFFSET_TABLES[tuple(lattice_coords(p) for p in N7.points)]
    assert len(table) == 12
    assert sum(offsets is None for entry in table.values() for offsets in entry) == 12


def test_matches_of_two_templates_with_one_id_are_not_shared():
    """Matching is not cached by template id: a second template with the
    same id but another shape gets its own embeddings."""
    t3, t7 = template("T3"), template("T7")
    fresh = len(match_template(_lattice_cfg(hex_indices(3)), t7))
    assert fresh == 36
    patch = _lattice_cfg(hex_indices(3))
    assert len(match_template(patch, Template("X", t3.points))) == 228
    assert len(match_template(patch, Template("X", t7.points))) == fresh


def test_distance_check_rejects_a_wrong_offset_table(monkeypatch):
    """Swapping the centre's offset with a vertex's places the same point
    set in the wrong role order, which the pair-by-pair check catches."""
    eq3 = template("EQ3_CENTERED")
    coords = tuple(lattice_coords(p) for p in eq3.points)
    assert match_template(_lattice_cfg(hex_indices(3)), eq3)
    table = configuration._OFFSET_TABLES[coords]
    swapped = {v: tuple(None if offsets is None else [offsets[3], *offsets[1:3], offsets[0]]
                        for offsets in entry)
               for v, entry in table.items()}
    monkeypatch.setitem(configuration._OFFSET_TABLES, coords, swapped)
    with pytest.raises(AssertionError):
        match_template(_lattice_cfg(hex_indices(3)), eq3)


def test_patch_with_turned_copy_against_brute_force():
    rot = chord_rotation(node(0, 0), 1)
    patch = [(f"p{i}", node(a, b)) for i, (a, b) in enumerate(hex_indices(2))]
    cfg = Configuration(patch + [(f"q{i}", rot(p)) for i, (_, p) in enumerate(patch)])
    lattice_part = cfg.restrict([nm for nm, _ in patch])
    assert cfg.lattice() is None and lattice_part.lattice() is not None
    for c in (cfg, lattice_part):
        assert {frozenset(ch) for ch in ell_chains(c, 3)} == chain_sets_brute(c, 3)
        for tid in ("T3", "EQ3_CENTERED", "L2"):
            tpl = template(tid)
            assert set(match_template(c, tpl)) == embeddings_brute(c, tpl), tid
        got = match_template(c, N7)
        assert len(got) == len(set(got)) > 0
        assert set(got) == embeddings_brute(c, N7)


def test_single_run_gives_one_chain():
    cfg = _lattice_cfg([(i, 0) for i in range(5)])
    assert len(ell_chains(cfg, 5)) == 1


def test_chains_against_brute_force():
    rng = random.Random(42)
    cases = [
        _lattice_cfg([(i, 0) for i in range(6)]),
        _lattice_cfg(hex_indices(2)),
    ]
    for _ in range(6):
        coords = set()
        while len(coords) < 14:
            coords.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        cases.append(_lattice_cfg(sorted(coords)))
    for cfg in cases:
        got = {frozenset(chain) for chain in ell_chains(cfg, 5)}
        assert got == chain_sets_brute(cfg, 5)


def test_chains_against_brute_force_on_figures():
    for fid in FIGURE_IDS:
        cfg = load_figure(fid).cfg
        got = {frozenset(chain) for chain in ell_chains(cfg, 5)}
        assert got == chain_sets_brute(cfg, 5), fid


def test_unit_chain_claims():
    cfg = Configuration([(f"p{i}", node(i, 0)) for i in range(5)]
                        + [("q", node(0, 1)), ("twin", node(4, 0))])
    names = ("p0", "p1", "p2", "p3", "p4")
    assert is_unit_chain(cfg, names)
    assert is_unit_chain(cfg, names[::-1])
    assert is_unit_chain(cfg, ("p0", "p1", "p2", "p3", "twin"))
    assert not is_unit_chain(cfg, ("p1", "p0", "p2", "p3", "p4"))  # permuted
    assert not is_unit_chain(cfg, ("q", "p1", "p2", "p3", "p4"))  # unit steps, bent


def test_placement_claims():
    # side-3 triangle with its centre p3; p0, p4, p3 are a three-point shape
    cfg = _lattice_cfg([(0, 0), (3, 0), (0, 3), (1, 1), (2, -1)])
    eq3 = template("EQ3_CENTERED")
    tri = ("p0", "p1", "p2", "p3")
    assert placement_count(cfg, eq3, tri, center_last=True) == 6
    assert placement_count(cfg, eq3, tri) == len(
        [e for e in match_template(cfg, eq3) if set(e) == set(tri)])
    assert placement_count(cfg, eq3, ("p3", "p0", "p1", "p2")) == 6
    assert placement_count(cfg, eq3, ("p3", "p0", "p1", "p2"), center_last=True) == 0
    assert placement_count(cfg, template("T4"), tri) == 0
    assert placement_count(cfg, template("T3"), ("p0", "p4", "p3")) > 0
    assert placement_count(cfg, template("T3"), ("p0", "p1", "p2")) == 0


def test_template_smallest_distances():
    for tid in ("T3", "T4", "T5", "T6", "T7"):
        pts = template(tid).points
        smallest = min(dist2(pts[i], pts[j])
                       for i in range(len(pts)) for j in range(i + 1, len(pts)))
        assert smallest == fe(3), tid
    for tid, k in (("L2", 2), ("L5", 5)):
        pts = template(tid).points
        assert len(pts) == k
        assert all(dist2(pts[i], pts[i + 1]) == fe(1) for i in range(k - 1))


def test_match_t3_on_single_triangle():
    cfg = Configuration(
        (f"t{i}", p) for i, p in enumerate(template("T3").points))
    assert len(match_template(cfg, template("T3"))) == 6


def test_match_cardinality_prefilter():
    cfg = _lattice_cfg([(0, 0), (2, -1), (1, 1)])
    assert match_template(cfg, template("T4")) == []


def test_match_l2_equals_unit_pairs():
    cfg = load_figure("fig1a").cfg
    pairs = {frozenset((cfg.names[i], cfg.names[j])) for i, j in cfg.pairs_with_dist2(ONE)}
    embs = {frozenset(e) for e in match_template(cfg, template("L2"))}
    assert pairs == embs


def test_match_against_brute_force():
    rng = random.Random(7)
    tpls = ["T3", "T4", "EQ3_CENTERED", "L2", "L5"]
    cases = []
    for _ in range(5):
        coords = set()
        while len(coords) < 12:
            coords.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        cases.append(_lattice_cfg(sorted(coords)))
    for cfg in cases:
        for tid in tpls:
            tpl = template(tid)
            assert set(match_template(cfg, tpl)) == embeddings_brute(cfg, tpl), tid


def test_match_against_brute_force_on_figures():
    jobs = [
        ("fig1a", "EQ3_CENTERED"), ("fig1b", "EQ3_CENTERED"),
        ("fig3", "T7"), ("fig3", "EQ3_CENTERED"),
        ("fig4", "T4"), ("fig5", "T5"), ("fig6", "T7"), ("fig6", "T6"),
        ("figcol2", "T3"),
    ]
    for fid, tid in jobs:
        cfg = load_figure(fid).cfg
        tpl = template(tid)
        assert set(match_template(cfg, tpl)) == embeddings_brute(cfg, tpl), (fid, tid)


# sha256 over the nine registries, each also with a far non-node added so
# that it takes the exact path: the matches of every template in TEMPLATES
# order, every `patterns` claim's placement count and every `extensions`
# claim's placements
MATCH_ORDER_SHA256 = "d0de74a3f14c6410ed97145bb8877bef76336d73b1fff910fe09df0c5e890090"


def test_match_order_pinned_on_every_registry():
    h = hashlib.sha256()
    for fid in FIGURE_IDS:
        fig = load_figure(fid)
        for cfg in (fig.cfg, _with_distant_non_node(fig.cfg)):
            for tid, tpl in TEMPLATES.items():
                h.update(repr((fid, tid, match_template(cfg, tpl))).encode())
        for claim in fig.claims.get("patterns", ()):
            hits = placement_count(fig.cfg, template(claim["template"]), claim["nodes"],
                                   claim.get("center_last", False))
            h.update(repr((fid, claim["nodes"], hits)).encode())
        for claim in fig.claims.get("extensions", ()):
            small, big = claim["extend"]
            images = template_extensions(small, big,
                                         [fig.cfg.point_of(n) for n in claim["nodes"]])
            h.update(json.dumps([[p.serialize() for p in img] for img in images]).encode())
    assert h.hexdigest() == MATCH_ORDER_SHA256


def test_t5_placements_named_in_second_stage():
    cfg = load_figure("fig5").cfg
    t5 = template("T5")
    sets = {frozenset(e) for e in match_template(cfg, t5)}
    for extra in ("X", "F", "G"):
        assert frozenset(("A", "B", "C", "D", extra)) in sets


def test_template_extension_counts():
    t3_pts = [node(0, 0), node(2, -1), node(1, 1)]
    assert len(template_extensions("T3", "T4", t3_pts)) == 3
    assert len(template_extensions("T3", "T6", t3_pts)) == 4
    t4_pts = t3_pts + [node(3, 0)]
    assert len(template_extensions("T4", "T5", t4_pts)) == 4


def test_template_extensions_do_not_depend_on_anchor_order():
    t4_pts = [node(0, 0), node(2, -1), node(1, 1), node(3, 0)]
    turn = chord_rotation(node(0, 0), 1)
    for anchor in (t4_pts, [turn(p) for p in t4_pts]):
        want = {frozenset(img) for img in template_extensions("T4", "T5", anchor)}
        assert len(want) == 4 and all(set(anchor) < img for img in want)
        for order in itertools.permutations(anchor):
            got = template_extensions("T4", "T5", list(order))
            assert {frozenset(img) for img in got} == want


def test_emit_clause_counts_for_first_figure():
    cfg = load_figure("fig1a").cfg
    problem = emit_clauses(cfg, RuleSet(),
                           {"O": "red", "A": "blue", "B": "blue", "C": "blue"})
    # 14 unit pairs + 2 chains + 4 fixed colours
    assert len(problem.clauses) == 20
    assert solve(problem).kind == "unsat"


def test_emit_single_pair_and_single_chain():
    cfg = _lattice_cfg([(0, 0), (1, 0)])
    problem = emit_clauses(cfg, RuleSet(base=("RED_L2_FORBIDDEN",)), {})
    assert problem.clauses == [(-1, -2)]
    cfg5 = _lattice_cfg([(i, 0) for i in range(5)])
    problem5 = emit_clauses(cfg5, RuleSet(base=("BLUE_L5_FORBIDDEN",)), {})
    assert problem5.clauses == [(1, 2, 3, 4, 5)]


def test_fixed_colours_resolve_aliases():
    cfg = Configuration([("a", node(0, 0)), ("twin", node(0, 0)),
                         ("b", node(1, 0))])
    problem = emit_clauses(cfg, RuleSet(), {"twin": "red"})
    assert (1,) in problem.clauses
    import pytest as _pytest
    with _pytest.raises(ValueError):
        emit_clauses(cfg, RuleSet(), {"twin": "red", "a": "blue"})


def test_restriction_matches_filtered_clauses():
    cfg = load_figure("fig1a").cfg
    fixed = {"O": "red", "A": "blue", "B": "blue", "C": "blue"}
    full = emit_clauses(cfg, RuleSet(), fixed)
    drop = {full.name_to_var["X"], full.name_to_var["Y"]}
    filtered = sorted(c for c in full.clauses if not any(abs(l) in drop for l in c))
    sub = cfg.restrict([n for n in cfg.names if n not in ("X", "Y")])
    direct = emit_clauses(sub, RuleSet(), fixed)
    remap = {direct.name_to_var[nm]: full.name_to_var[nm] for nm in sub.names}
    translated = sorted(
        tuple(sorted((remap[abs(l)] if l > 0 else -remap[abs(l)]) for l in c))
        for c in direct.clauses)
    assert translated == sorted(tuple(sorted(c)) for c in filtered)


def _same_problem(got, want):
    return (got.clauses, got.names, got.name_to_var) == (want.clauses, want.names,
                                                         want.name_to_var)


@pytest.mark.parametrize("radius", [0, 3, 7, 8, 11, 12])
def test_emission_equals_the_reference_on_every_stage(radius):
    for sid in SCRIPTS:
        stages, _ = build_stages(sid, Options(patch_radius=radius))
        for stage in stages.values():
            got = emit_clauses(stage.cfg, stage.rules, stage.fixed)
            assert _same_problem(got, reference_clauses(stage.cfg, stage.rules, stage.fixed)), (
                sid, stage.sid)


def test_emission_equals_the_reference_on_random_subsets():
    """One embedding per orbit of the role-keeping symmetries gives the
    clauses of all embeddings, in their order, and builds no clause twice:
    random lattice subsets in shuffled insertion order, on the lattice path
    and the exact one, for every template with all-red and mixed roles."""
    rng = random.Random(27)
    cases = 0
    for trial in range(24):
        coords = [ab for ab in hex_indices(4) if rng.random() < 0.75]
        rng.shuffle(coords)
        cfg = _lattice_cfg(coords)
        for c in (cfg, _with_distant_non_node(cfg)) if trial % 4 == 0 else (cfg,):
            for tid, tpl in TEMPLATES.items():
                mixed = tuple(rng.choice(("red", "blue")) for _ in tpl.points)
                for roles in (("red",) * len(tpl.points), mixed):
                    rules = RuleSet(base=(), derived=(PatternRule("R", tid, roles),))
                    got = emit_clauses(c, rules, {})
                    assert _same_problem(got, reference_clauses(c, rules, {})), (trial, tid,
                                                                                 roles)
                    # one embedding is built per clause
                    assert len(configuration._embeddings(c, tpl, roles)) == len(got.clauses)
                    cases += bool(got.clauses)
    assert cases > 300


SYMMETRY_ORDERS = {"L2": 2, "L5": 2, "T3": 6, "T4": 4, "T5": 2, "T6": 6, "T7": 2,
                   "EQ3_CENTERED": 6}


def test_template_symmetries_keep_every_distance():
    """Each template's symmetry group has its order, lists the identity
    first and keeps every pairwise squared distance; a turned copy off the
    lattice (the exact path) has the same group, and N7 only the identity."""
    turn = chord_rotation(node(0, 0), 1)
    shapes = [(tpl, SYMMETRY_ORDERS[tid]) for tid, tpl in TEMPLATES.items()]
    shapes += [(Template("turned", tuple(map(turn, tpl.points))), order)
               for tpl, order in shapes] + [(N7, 1)]
    for tpl, order in shapes:
        perms = configuration._automorphisms(tpl)
        pts, m = tpl.points, len(tpl.points)
        assert len(set(perms)) == len(perms) == order, tpl
        assert perms[0] == tuple(range(m)) and all(tuple(sorted(s)) == perms[0] for s in perms)
        assert all(dist2(pts[s[i]], pts[s[j]]) == dist2(pts[i], pts[j])
                   for s in perms for i in range(m) for j in range(i + 1, m)), tpl


def test_template_symmetries_are_not_computed_at_import():
    code = ("import bluefive.cli, bluefive.configuration as c; "
            "assert c._automorphisms.cache_info().currsize == 0")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(configuration.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_schema_clauses_force_extension():
    # anchor triple red plus schema: the six-point extension cells follow
    pts = {}
    for i, (a, b) in enumerate([(0, 0), (2, -1), (1, 1)]):
        pts[f"t{i}"] = node(a, b)
    extension_cells = [(4, -2), (3, 0), (2, 2)]
    for i, (a, b) in enumerate(extension_cells):
        pts[f"e{i}"] = node(a, b)
    # blockers: one cell of each of the other three candidate extensions
    for i, (a, b) in enumerate([(-2, 1), (-1, -1), (1, -2)]):
        pts[f"x{i}"] = node(a, b)
    cfg = Configuration(pts.items())
    schema = ExtensionSchema(anchors=(("t0", "t1", "t2"),))
    rules = RuleSet(base=(), existential=schema)
    fixed = {"t0": "red", "t1": "red", "t2": "red",
             "x0": "blue", "x1": "blue", "x2": "blue"}
    problem = emit_clauses(cfg, rules, fixed)
    from bluefive.solver import forced_color
    for i in range(3):
        assert forced_color(problem, f"e{i}").status == "ForcedRed"
