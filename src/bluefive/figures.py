"""Shipped point registries for the construction diagrams.

Each registry is a JSON data file holding exact coordinates, the colours
the diagram shows (red / blue / undetermined), the rule ids of its
instance, and the named facts that `self_check` re-verifies against the
coordinates: eight claim sections, each of a shape in CLAIM_SHAPES and
decided by one checker in CLAIM_CHECKS.  They are squared distances
(`dist2`), images under a chord turn, mirror, lattice translation or
turn by sixths (`images`), five-chains (`ell5`), template placements
(`patterns`), template extensions (`extensions`), a block symmetry
(`symmetry`), a pattern's sublattice (`sublattice`) and norm-25
invariance (`invariance`).  A claim with an "id" is also the sole
statement of the verification obligation of that id, which reports the
self-check's one decision of it under the kind of CLAIM_KINDS its section
maps to.  The colours drawn are `lemmata.figure_colors`, as each run
checks; the registries are also ready-to-run oracle instance files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .configuration import (Configuration, RuleSet, _json_field, instance_from_json,
                            is_unit_chain, placement_count, template, template_extensions)
from .field import fe
from .geometry import (chord_rotation, dist2, lattice_coords, lattice_norm2,
                       lattice_vectors_of_norm2, node, reflection, rotation60)
from .tilings import PATTERNS, distance5_invariance

FIGURE_IDS = ("fig1a", "fig1b", "fig3", "fig4", "fig5", "fig6", "figcol1", "figcol2",
              "figthm")


@dataclass
class Figure:
    id: str
    cfg: Configuration
    colors: dict[str, str]
    rules: RuleSet
    claims: dict


def load_figure(fid: str) -> Figure:
    if fid not in FIGURE_IDS:
        raise KeyError(f"unknown figure {fid!r}")
    data = json.loads(resources.files("bluefive").joinpath(f"data/figures/{fid}.json").read_text())
    cfg, fixed, rules = instance_from_json(data)
    return Figure(id=fid, cfg=cfg, colors=fixed, rules=rules, claims=data.get("claims", {}))


def _check_dist2(cfg: Configuration, claim: dict):
    a, b = claim["nodes"]
    got, want = dist2(cfg.point_of(a), cfg.point_of(b)), fe(claim["equals"])
    return ({"dist2": str(got), "expected": str(want)},
            got != want and f"{a},{b} is at squared distance {got}, not {want}")


def _image_map(cfg: Configuration, spec: list):
    kind, p, q = spec
    if kind == "chord":
        return chord_rotation(cfg.point_of(p), q)
    if kind == "mirror":
        return reflection(cfg.point_of(p), cfg.point_of(q))
    if kind == "translate":
        shift = node(p, q)
        return lambda pt: pt + shift
    if kind == "turn60":
        return rotation60(cfg.point_of(p), q)
    raise ValueError(f"unknown map kind {kind!r}")


def _check_image(cfg: Configuration, claim: dict):
    src, dst = claim["nodes"]
    got, want = _image_map(cfg, claim["map"])(cfg.point_of(src)), cfg.point_of(dst)
    return ({"image": f"({got.x}, {got.y})", "expected": f"({want.x}, {want.y})"},
            got != want and f"{claim['map']} takes {src} to ({got.x}, {got.y}), not to {dst}")


def _check_chain(cfg: Configuration, claim: dict):
    names = list(claim["nodes"])
    return ({"chain": names},
            not is_unit_chain(cfg, names) and f"{'-'.join(names)} is not a unit five-chain")


def _check_placement(cfg: Configuration, claim: dict):
    names, tid = list(claim["nodes"]), claim["template"]
    hits = placement_count(cfg, template(tid), names, claim.get("center_last", False))
    want = sorted({cfg.primary(n) for n in names})
    return ({"template": tid, "nodes": names, "embeddings": hits},
            not hits and f"nodes {want} do not form a {tid}")


def _check_extensions(cfg: Configuration, claim: dict):
    """The plane placements of the big template that contain the anchor
    copy of the small one number `count`; of those that add no `blocked`
    node, the ones whose added points are all nodes add exactly the `open`
    node sets, and `outside` more leave the configuration.  An anchor that
    is no copy of the small template raises ValueError."""
    small, big = claim["extend"]
    anchor = [cfg.point_of(n) for n in claim["nodes"]]
    blocked = {cfg.point_of(n) for n in claim["blocked"]}
    cands = template_extensions(small, big, anchor)
    opened, outside = [], 0
    for cand in cands:
        added = set(cand).difference(anchor)
        if added & blocked:
            continue
        if all(p in cfg.point_index for p in added):
            opened.append(sorted(cfg.name_at(p) for p in added))
        else:
            outside += 1
    got = {"candidates": len(cands), "open": sorted(opened), "outside": outside}
    want = {"candidates": claim["count"],
            "open": sorted(sorted(cfg.primary(n) for n in names) for names in claim["open"]),
            "outside": claim["outside"]}
    return got, got != want and (f"the {small} anchor {','.join(claim['nodes'])} "
                                 f"extends to {big} as {got}, not {want}")


def _check_symmetry(cfg: Configuration, claim: dict):
    """`sixths` sixths of a turn about the centroid node permute the block
    and take each step vector to the next, cyclically; every step has
    squared length `norm2`."""
    k = claim["sixths"]
    block = [cfg.point_of(nm) for nm in claim["nodes"]]
    rot = rotation60(node(*claim["centroid"]), k)
    invariant = {rot(p) for p in block} == set(block)
    steps = claim["steps"]
    rot0 = rotation60(node(0, 0), k)
    ok = invariant and all(rot0(node(*s)) == node(*t) and lattice_norm2(*s) == claim["norm2"]
                           for s, t in zip(steps, steps[1:] + steps[:1]))
    return ({"block_invariant": invariant, "steps": steps},
            not ok and f"{k} sixths of a turn about {claim['centroid']} do not map "
                       f"{','.join(claim['nodes'])} and the steps {steps} onto themselves")


def _check_sublattice(cfg: Configuration, claim: dict):
    """Each node of `steps` is the origin node moved by [i, j] times the
    generators of the pattern, each `members` node lies in its sublattice,
    and the sublattice has the given index."""
    pattern = PATTERNS[claim["pattern"]]
    (g1a, g1b), (g2a, g2b) = pattern.gen1, pattern.gen2
    origin = cfg.point_of(claim["origin"])
    facts = {nm: cfg.point_of(nm) == origin + node(i * g1a + j * g2a, i * g1b + j * g2b)
             for nm, (i, j) in claim["steps"].items()}
    for nm in claim["members"]:
        ab = lattice_coords(cfg.point_of(nm))
        facts[nm] = ab is not None and pattern.lattice_contains(*ab)
    index = abs(pattern.det)
    missed = sorted(nm for nm, held in facts.items() if not held)
    return ({"verified": sorted(nm for nm, held in facts.items() if held),
             "lattice_index": index},
            (missed or index != claim["index"])
            and f"pattern {claim['pattern']}'s sublattice of index {index} misses {missed}")


def _check_invariance(cfg: Configuration, claim: dict):
    """The lattice vectors of squared length 25 are exactly `vectors`, and
    translating by any of them preserves the red set of each pattern."""
    found, want = sorted(lattice_vectors_of_norm2(25)), sorted(map(tuple, claim["vectors"]))
    moved = [p for p in claim["patterns"] if not distance5_invariance(PATTERNS[p])]
    return ({"patterns": claim["patterns"], "vectors": found},
            (found != want and f"the norm-25 lattice vectors are {found}, not {want}")
            or (moved and f"a norm-25 translation moves the red set of patterns {moved}"))


# One checker per claim section: checker(cfg, claim) returns the detail an
# obligation reports and a failure message, or a false value when it holds.
CLAIM_CHECKS = {"dist2": _check_dist2, "images": _check_image,
                "ell5": _check_chain, "patterns": _check_placement,
                "extensions": _check_extensions, "symmetry": _check_symmetry,
                "sublattice": _check_sublattice, "invariance": _check_invariance}
# Each section's claim shape (configuration._json_field).
_CLAIM = {"id": str, "nodes": [str], "template": str, "map": [object, 3]}
CLAIM_SHAPES = {
    "dist2": {**_CLAIM, "nodes": [str, 2], "equals": int},
    "images": {**_CLAIM, "nodes": [str, 2]}, "ell5": {**_CLAIM, "nodes": [str, 5]},
    "patterns": _CLAIM, "extensions": {**_CLAIM, "extend": [str, 2], "blocked": [str],
                                       "open": [[str]], "count": int, "outside": int},
    "symmetry": {**_CLAIM, "sixths": int, "centroid": [int, 2], "steps": [[int, 2]]},
    "sublattice": {**_CLAIM, "pattern": str, "origin": str, "members": [str], "steps": dict},
    "invariance": {**_CLAIM, "patterns": [str], "vectors": [[int, 2]]}}
# The obligation kind each claim section reports.
CLAIM_KINDS = {**dict.fromkeys(CLAIM_CHECKS, "GEOM_IDENTITY"),
               "ell5": "CHAIN_CLAIM", "patterns": "PATTERN_PRESENT"}


def self_check(figures: Sequence[Figure]) -> tuple[list[str], dict[str, list[tuple]]]:
    """Verify every named claim of the figures against their exact coordinates.

    Returns the human-readable failures (none when every transcription is
    consistent) and, per claim id, the (kind, detail, failure) of each claim.
    A section with no checker fails, as does a claim not of its section's shape
    (a section that is not a list, or claims that are not an object, are
    one such claim) or whose checker raises KeyError, TypeError or ValueError.
    """
    problems: list[str] = []
    decided: dict[str, list[tuple]] = {}
    for figure in figures:
        claims = figure.claims if isinstance(figure.claims, dict) else {None: figure.claims}
        problems += [f"{figure.id}: unknown claim section {section!r}"
                     for section in claims if section not in CLAIM_CHECKS and section is not None]
        for section in [s for s in (None, *CLAIM_CHECKS) if s in claims]:
            listed = claims[section]
            for claim in listed if section and isinstance(listed, list) else [listed]:
                try:
                    _json_field(figure.claims, dict, "they")
                    _json_field(listed, list, f"the {section} section")
                    detail, failure = CLAIM_CHECKS[section](
                        figure.cfg, _json_field(claim, CLAIM_SHAPES[section], "it"))
                except (KeyError, TypeError, ValueError) as exc:  # unknown or malformed data
                    detail = {"error": str(exc.args[0]) if exc.args else type(exc).__name__}
                    label = (claim.get("id", claim.get("nodes")) if isinstance(claim, dict)
                             else repr(claim))
                    what = f"the {section} claim {label}" if section else "the claims"
                    failure = f"{what} cannot be decided: {detail['error']}"
                if failure:
                    problems.append(f"{figure.id}: {failure}")
                claim_id = claim.get("id") if isinstance(claim, dict) else None
                if section in CLAIM_KINDS and isinstance(claim_id, str):
                    decided.setdefault(claim_id, []).append(
                        (CLAIM_KINDS[section], detail, failure))
    return problems, decided
