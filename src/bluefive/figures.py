"""Shipped point registries for the construction diagrams.

Each registry is a JSON data file holding exact coordinates, the colours
the diagram shows (red / blue / undetermined), the rule ids of its
instance, and the named facts that `self_check` re-verifies against the
coordinates.  Besides blue unit pairs there are four claim sections:
squared distances (`dist2`), turned or mirrored images (`images`),
five-chains (`ell5`) and template placements (`patterns`), each decided
by one checker in CLAIM_CHECKS.  A claim with an "id" is also the sole
statement of the verification obligation of that id.  `self_check`
decides each claim once per run: it lists a failing claim, and returns
every decision by id, which the obligation of that id reports under the
kind its section maps to in CLAIM_KINDS.  The registries double as
ready-to-run instance files for the oracle command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .configuration import (Configuration, RuleSet, instance_from_json, is_unit_chain,
                            placement_count, template)
from .field import ONE, fe
from .geometry import chord_rotation, dist2, reflection

FIGURE_IDS = ("fig1a", "fig1b", "fig3", "fig4", "fig5", "fig6", "figcol1", "figcol2")


@dataclass
class Figure:
    id: str
    cfg: Configuration
    colors: dict[str, str]
    rules: RuleSet
    claims: dict


def _data_text(fid: str) -> str:
    res = resources.files("bluefive").joinpath(f"data/figures/{fid}.json")
    return res.read_text()


def load_figure(fid: str) -> Figure:
    if fid not in FIGURE_IDS:
        raise KeyError(f"unknown figure {fid!r}")
    data = json.loads(_data_text(fid))
    cfg, fixed, rules = instance_from_json(data)
    return Figure(id=fid, cfg=cfg, colors=fixed, rules=rules,
                  claims=data.get("claims", {}))


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
    raise ValueError(f"unknown map kind {kind!r}")


def _check_image(cfg: Configuration, claim: dict):
    src, dst = claim["nodes"]
    got, want = _image_map(cfg, claim["map"])(cfg.point_of(src)), cfg.point_of(dst)
    return ({"image": f"({got.x}, {got.y})", "expected": f"({want.x}, {want.y})"},
            got != want and f"{claim['map']} takes {src} to ({got.x}, {got.y}), not to {dst}")


def _check_chain(cfg: Configuration, claim: dict):
    names = list(claim["nodes"])
    return ({"chain": names},
            not (len(names) == 5 and is_unit_chain(cfg, names))
            and f"{'-'.join(names)} is not a unit five-chain")


def _check_placement(cfg: Configuration, claim: dict):
    names, tid = list(claim["nodes"]), claim["template"]
    hits = placement_count(cfg, template(tid), names, claim.get("center_last", False))
    want = sorted({cfg.primary(n) for n in names})
    return ({"template": tid, "nodes": names, "embeddings": hits},
            not hits and f"nodes {want} do not form a {tid}")


# One checker per claim section: checker(cfg, claim) returns the detail an
# obligation reports and a failure message, or a false value when it holds.
CLAIM_CHECKS = {"dist2": _check_dist2, "images": _check_image,
                "ell5": _check_chain, "patterns": _check_placement}
# The obligation kind each claim section reports.
CLAIM_KINDS = {"dist2": "GEOM_IDENTITY", "images": "GEOM_IDENTITY",
               "ell5": "CHAIN_CLAIM", "patterns": "PATTERN_PRESENT"}


def self_check(figures: Sequence[Figure]) -> tuple[list[str], dict[str, list[tuple]]]:
    """Verify every named claim of the figures against their exact coordinates.

    Returns the human-readable failures (none when every transcription is
    consistent) and, per claim id, the (kind, detail, failure) of each claim.
    """
    problems: list[str] = []
    decided: dict[str, list[tuple]] = {}
    for figure in figures:
        cfg = figure.cfg
        for blue_name, red_name in figure.claims.get("blue_unit", ()):
            if dist2(cfg.point_of(blue_name), cfg.point_of(red_name)) != ONE:
                problems.append(f"{figure.id}: {blue_name} is not at unit distance from {red_name}")
            if figure.colors.get(blue_name, "blue") != "blue":
                problems.append(f"{figure.id}: {blue_name} is not drawn blue")
        for section, check in CLAIM_CHECKS.items():
            for claim in figure.claims.get(section, ()):
                detail, failure = check(cfg, claim)
                if failure:
                    problems.append(f"{figure.id}: {failure}")
                if "id" in claim:
                    decided.setdefault(claim["id"], []).append(
                        (CLAIM_KINDS[section], detail, failure))
    return problems, decided
