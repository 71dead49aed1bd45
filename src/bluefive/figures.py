"""Shipped point registries for the construction diagrams.

Each registry is a JSON data file holding exact coordinates, the colours
the diagram shows (red / blue / undetermined), the rule ids of its
instance, and the named facts (unit pairs, five-chains, template
placements) that `self_check` re-verifies against the coordinates.  A
five-chain or placement with an "id" is also the sole statement of the
verification obligation of that id.  The registries double as
ready-to-run instance files for the oracle command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .configuration import (Configuration, RuleSet, instance_from_json, is_unit_chain,
                            placement_count, template, unit_pairs)
from .field import ONE
from .geometry import dist2

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


def figure_instance(fid: str):
    """(configuration, fixed colours, rules) for the as-depicted instance."""
    figure = load_figure(fid)
    return figure.cfg, figure.colors, figure.rules


def self_check(figure: Figure) -> list[str]:
    """Verify every named claim against the exact coordinates.

    Returns a list of human-readable failures; empty means the
    transcription is internally consistent.
    """
    cfg = figure.cfg
    problems: list[str] = []
    claims = figure.claims

    for blue_name, red_name in claims.get("blue_unit", ()):
        if dist2(cfg.point_of(blue_name), cfg.point_of(red_name)) != ONE:
            problems.append(f"{figure.id}: {blue_name} is not at unit distance from {red_name}")
        if figure.colors.get(blue_name, "blue") != "blue":
            problems.append(f"{figure.id}: {blue_name} is not drawn blue")

    pair_set = {frozenset(p) for p in unit_pairs(cfg)}
    for a, b in claims.get("unit", ()):
        if frozenset((cfg.primary(a), cfg.primary(b))) not in pair_set:
            problems.append(f"{figure.id}: {a},{b} is not a unit pair")

    for chain in claims.get("ell5", ()):
        names = chain["nodes"]
        if len(names) != 5 or not is_unit_chain(cfg, names):
            problems.append(f"{figure.id}: {'-'.join(names)} is not a unit five-chain")

    for pat in claims.get("patterns", ()):
        if not placement_count(cfg, template(pat["template"]), pat["nodes"],
                               pat.get("center_last", False)):
            want = sorted({cfg.primary(n) for n in pat["nodes"]})
            problems.append(f"{figure.id}: nodes {want} do not form a {pat['template']}")
    return problems
