#!/usr/bin/env python3
"""Regenerate the shipped figure registries under src/bluefive/data/figures/.

Each registry records exact coordinates, the colours shown in the
construction diagram (red / blue / undetermined), the rule ids its
instance uses, and the named facts that the transcription self-check
re-verifies: squared distances (`dist2`), images under a chord turn,
mirror, lattice translation or turn by sixths (`images`), five-chains
(`ell5`), template placements (`patterns`), template extensions
(`extensions`), a block symmetry (`symmetry`), a pattern's sublattice
(`sublattice`) and norm-25 invariance (`invariance`).  A fact that a
verification script proves carries the id of that script's obligation,
which reads it from here.  The colours are not written here: they are
what the stage reading the figure in scripts.json fixes and forces
(`lemmata.figure_colors`).

Run from the root of a checkout with `PYTHONPATH=src python3
tools/make_figures.py`.
"""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

from bluefive.configuration import Configuration, rules_from_ids
from bluefive.field import SQRT3, fe
from bluefive.figures import Figure
from bluefive.geometry import chord_rotation, node, point
from bluefive.lemmata import figure_colors

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "bluefive" / "data" / "figures"


def dump(fid: str, entries, rules, claims):
    figure = Figure(fid, Configuration(entries), {}, rules_from_ids(rules), claims)
    data = {
        "id": fid,
        "points": [{"name": name, "x": pt.x.serialize(), "y": pt.y.serialize()}
                   for name, pt in entries],
        "fixed": figure_colors(figure),
        "rules": rules,
        "claims": claims,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{fid}.json"
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")


def dist2(oid, a: str, b: str, equals: int) -> dict:
    """The claim |ab|^2 = equals, carrying the obligation id if one proves it."""
    claim = {"nodes": [a, b], "equals": equals}
    return claim if oid is None else {"id": oid, **claim}


def units(*pairs) -> list[dict]:
    return [dist2(None, a, b, 1) for a, b in pairs]


def image(oid: str, mapping: list, src: str, dst: str) -> dict:
    """The claim that the map ["chord", centre, sense], ["mirror", p, q],
    ["translate", a, b] (by the lattice vector (a, b)) or ["turn60",
    centre, k] (k sixths of a turn) takes src to dst."""
    return {"id": oid, "map": mapping, "nodes": [src, dst]}


def extensions(oid: str, small: str, big: str, anchor: list, count: int,
               opened: list, outside: int, blocked=()) -> dict:
    """The claim that the anchor copy of the small template has `count`
    plane extensions to the big one; those avoiding the blocked nodes add
    the `opened` node sets, and `outside` more leave the registry."""
    return {"id": oid, "extend": [small, big], "nodes": anchor, "blocked": list(blocked),
            "count": count, "open": opened, "outside": outside}


def fig1a():
    pts = {
        "A": node(0, 0), "F": node(0, 1), "G": node(0, 2), "C": node(0, 3),
        "D": node(-1, 1), "E": node(-2, 2), "B": node(-3, 3), "O": node(-1, 2),
        "Y": node(0, -1), "X": node(1, -1),
    }
    order = ["A", "F", "G", "C", "D", "E", "B", "O", "Y", "X"]
    claims = {
        "dist2": [
            dist2("side-ab", "A", "B", 9), dist2("side-bc", "B", "C", 9),
            dist2("side-ca", "C", "A", 9), dist2("centre-oa", "O", "A", 3),
            dist2("centre-ob", "O", "B", 3), dist2("centre-oc", "O", "C", 3),
            dist2("xy-unit", "X", "Y", 1), dist2(None, "X", "A", 1), dist2(None, "Y", "A", 1),
            *units(["D", "O"], ["E", "O"], ["F", "O"], ["G", "O"]),
        ],
        "images": [],
        "ell5": [
            {"id": "chain-xadeb", "nodes": ["X", "A", "D", "E", "B"]},
            {"id": "chain-yafgc", "nodes": ["Y", "A", "F", "G", "C"]},
        ],
        "patterns": [{"template": "EQ3_CENTERED", "nodes": ["A", "B", "C", "O"],
                      "center_last": True}],
    }
    dump("fig1a", [(n, pts[n]) for n in order], ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN"],
         claims)


def fig1b():
    O = point(0, 0)
    A = point(0, -SQRT3)
    B = point(Fraction(-3, 2), fe(0, Fraction(1, 2)))
    C = point(Fraction(3, 2), fe(0, Fraction(1, 2)))
    rot = chord_rotation(O, -1)
    Ap, Bp, Cp = rot(A), rot(B), rot(C)
    order = [("O", O), ("C", C), ("C'", Cp), ("B", B), ("B'", Bp), ("A", A), ("A'", Ap)]
    claims = {
        "dist2": [
            dist2("side-ab", "A", "B", 9), dist2("side-bc", "B", "C", 9),
            dist2("side-ca", "C", "A", 9), dist2("centre-oa", "O", "A", 3),
            # the turn keeps A' on the circle through A only if it is an isometry
            dist2("chord-pair", "O", "A'", 3),
            dist2("chord-A", "A", "A'", 1), dist2("chord-B", "B", "B'", 1),
            dist2("chord-C", "C", "C'", 1),
        ],
        "images": [image("image-A'", ["chord", "O", -1], "A", "A'"),
                   image("image-B'", ["chord", "O", -1], "B", "B'"),
                   image("image-C'", ["chord", "O", -1], "C", "C'")],
        "ell5": [],
        "patterns": [
            {"template": "EQ3_CENTERED", "nodes": ["A", "B", "C", "O"], "center_last": True},
            {"id": "turned-triangle", "template": "EQ3_CENTERED",
             "nodes": ["A'", "B'", "C'", "O"], "center_last": True},
        ],
    }
    dump("fig1b", order,
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN", "BLUE_EQ3_RED_CENTER"], claims)


def fig3():
    s = SQRT3
    half_s = fe(0, Fraction(1, 2))
    h = fe(Fraction(3, 2))
    B = point(0, 0)
    C = point(s, 0)
    A = point(fe(0, -1), 0)
    D = point(fe(0, 2), 0)
    X = point(half_s, h)
    F = point(half_s, -h)
    E = point(-half_s, -h)
    G = point(fe(0, Fraction(3, 2)), -h)
    rotB = chord_rotation(B, -1)
    rotC = chord_rotation(C, -1)
    Xp, Ap, Fp = rotB(X), rotB(A), rotB(F)
    Xpp, Dpp, Fpp = rotC(X), rotC(D), rotC(F)
    order = [("B", B), ("C", C), ("A", A), ("A'", Ap), ("D", D), ("X", X),
             ("X'", Xp), ("F", F), ("F'", Fp), ("E", E), ("G", G),
             ("D''", Dpp), ("X''", Xpp), ("F''", Fpp)]
    claims = {
        "dist2": [
            dist2("chord-a", "A", "A'", 1), dist2("chord-f", "F", "F'", 1),
            dist2("chord-x", "X", "X'", 1), dist2("chord-d", "D", "D''", 1),
            dist2("chord-f2", "F", "F''", 1), dist2("chord-x2", "X", "X''", 1),
            dist2(None, "X'", "X''", 1),
        ],
        "images": [
            image("x-mirror", ["mirror", "B", "C"], "F", "X"),
            image("image-xp", ["chord", "B", -1], "X", "X'"),
            image("image-ap", ["chord", "B", -1], "A", "A'"),
            image("image-fp", ["chord", "B", -1], "F", "F'"),
            image("image-xpp", ["chord", "C", -1], "X", "X''"),
            image("image-dpp", ["chord", "C", -1], "D", "D''"),
            image("image-fpp", ["chord", "C", -1], "F", "F''"),
            image("unit-triangle", ["turn60", "X", -1], "X''", "X'"),
        ],
        "ell5": [],
        "patterns": [
            {"id": "seven-red", "template": "T7", "nodes": ["A", "B", "C", "D", "E", "F", "G"]},
            {"id": "triangle-b", "template": "EQ3_CENTERED",
             "nodes": ["X'", "A'", "F'", "B"], "center_last": True},
            {"id": "triangle-c", "template": "EQ3_CENTERED",
             "nodes": ["X''", "D''", "F''", "C"], "center_last": True},
        ],
    }
    dump("fig3", order,
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN", "BLUE_EQ3_RED_CENTER"], claims)


def fig4():
    pts = {
        "A": (0, 0), "B": (1, 1), "C": (2, -1),
        "J": (-1, 0), "I": (-1, 1), "Z": (-1, 2), "N": (-1, 3), "P": (-1, 4),
        "K": (-1, -1), "L": (-1, -2), "M": (0, -2), "Y": (1, -2),
        "G": (2, -2), "H": (3, -2), "X": (3, 0), "E": (2, 1), "F": (1, 2),
        "Q": (0, 3),
    }
    order = ["A", "B", "C", "J", "I", "Z", "N", "P", "K", "L", "M", "Y",
             "G", "H", "X", "E", "F", "Q"]
    claims = {
        "dist2": units(["K", "L"], ["K", "M"], ["N", "P"], ["N", "Q"],
                       ["E", "B"], ["F", "B"], ["G", "C"], ["H", "C"], ["I", "A"], ["J", "A"]),
        "extensions": [extensions("s1-completions", "T3", "T4", ["A", "B", "C"], 3,
                                  [["X"], ["Y"], ["Z"]], 0)],
        "images": [],
        "ell5": [
            {"id": "s1-chain-lmygh", "nodes": ["L", "M", "Y", "G", "H"]},
            {"id": "s1-chain-kjizn", "nodes": ["K", "J", "I", "Z", "N"]},
            {"id": "s1-chain-pqfex", "nodes": ["P", "Q", "F", "E", "X"]},
        ],
        "patterns": [
            {"id": "s1-t3", "template": "T3", "nodes": ["A", "B", "C"]},
            {"id": "s1-t4-X", "template": "T4", "nodes": ["A", "B", "C", "X"]},
            {"id": "s1-t4-Y", "template": "T4", "nodes": ["A", "B", "C", "Y"]},
            {"id": "s1-t4-Z", "template": "T4", "nodes": ["A", "B", "C", "Z"]},
        ],
    }
    dump("fig4", [(n, node(*pts[n])) for n in order],
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN"], claims)


def fig5():
    pts = {
        "A": (0, 0), "B": (1, 1), "C": (2, -1), "D": (3, 0),
        "K": (0, 2), "L": (1, 2), "X": (2, 2),
        "F": (1, -2), "H": (2, -2), "I": (3, -2), "G": (4, -2),
        "P": (5, -2), "R": (6, -2), "M": (4, 0), "N": (3, 1), "Q": (5, -1),
    }
    order = ["A", "B", "C", "D", "K", "L", "X", "F", "H", "I", "G",
             "P", "R", "M", "N", "Q"]
    claims = {
        "dist2": units(["P", "Q"], ["P", "R"],
                       ["H", "C"], ["I", "C"], ["K", "B"], ["L", "B"], ["M", "D"], ["N", "D"]),
        "extensions": [extensions("s2-completions", "T4", "T5", ["A", "B", "C", "D"], 4,
                                  [["X"], ["F"], ["G"]], 1)],
        "images": [],
        "ell5": [
            {"id": "s2-chain-fhigp", "nodes": ["F", "H", "I", "G", "P"]},
            {"id": "s2-chain-xnmqr", "nodes": ["X", "N", "M", "Q", "R"]},
        ],
        "patterns": [
            {"id": "s2-t4", "template": "T4", "nodes": ["A", "B", "C", "D"]},
            {"id": "s2-t5-X", "template": "T5", "nodes": ["A", "B", "C", "D", "X"]},
            {"id": "s2-t5-F", "template": "T5", "nodes": ["A", "B", "C", "D", "F"]},
            {"id": "s2-t5-G", "template": "T5", "nodes": ["A", "B", "C", "D", "G"]},
        ],
    }
    dump("fig5", [(n, node(*pts[n])) for n in order],
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN"], claims)


def fig6():
    pts = {
        "A": (0, 0), "B": (1, 1), "C": (2, -1), "D": (3, 0), "E": (2, 2),
        "G": (-1, 0), "H": (-1, 1), "X": (-1, 2),
        "U": (-1, -1), "T": (-1, -2), "Q": (0, -2), "P": (1, -2),
        "K": (2, -2), "L": (3, -2), "F": (4, -2),
        "N": (4, 0), "M": (4, -1), "R": (4, 1), "S": (4, 2), "V": (4, 3),
        "W": (3, 3), "J": (2, 3), "I": (1, 3), "Y": (0, 3),
    }
    order = ["A", "B", "C", "D", "E", "G", "H", "X", "U", "T", "Q", "P",
             "K", "L", "F", "N", "M", "R", "S", "V", "W", "J", "I", "Y"]
    claims = {
        "dist2": units(["Q", "P"], ["Q", "U"], ["Q", "T"], ["S", "R"], ["S", "V"], ["S", "W"],
                       ["G", "A"], ["H", "A"], ["I", "E"], ["J", "E"],
                       ["K", "C"], ["L", "C"], ["M", "D"], ["N", "D"]),
        "images": [],
        "ell5": [
            {"id": "s3-chain-qpklf", "nodes": ["Q", "P", "K", "L", "F"]},
            {"id": "s3-chain-tughx", "nodes": ["T", "U", "G", "H", "X"]},
            {"id": "s3-chain-fmnrs", "nodes": ["F", "M", "N", "R", "S"]},
            {"nodes": ["M", "N", "R", "S", "V"]},
            {"id": "s3-chain-vwjiy", "nodes": ["V", "W", "J", "I", "Y"]},
        ],
        "patterns": [
            {"id": "s3-t5", "template": "T5", "nodes": ["A", "B", "C", "D", "E"]},
            {"id": "s3-tri-x", "template": "EQ3_CENTERED",
             "nodes": ["X", "E", "C", "B"], "center_last": True},
            {"id": "s3-tri-y", "template": "EQ3_CENTERED",
             "nodes": ["Y", "A", "D", "B"], "center_last": True},
            {"id": "s3-t7", "template": "T7", "nodes": ["A", "B", "C", "D", "E", "P", "R"]},
            {"id": "s3-t6", "template": "T6", "nodes": ["A", "B", "C", "D", "E", "F"]},
        ],
    }
    dump("fig6", [(n, node(*pts[n])) for n in order],
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN", "RED_EQ3_RED_CENTER", "T7_ALL_RED"],
         claims)


def figcol1():
    pts = {
        "A": (0, 0), "B": (1, 1), "F": (2, -1), "C": (2, 2), "D": (3, 0), "E": (4, -2),
        "A'": (5, 0), "B'": (6, 1), "F'": (7, -1), "C'": (7, 2), "D'": (8, 0), "E'": (9, -2),
        "K": (1, -1), "L": (2, -2), "I": (3, -3), "Q": (4, -4), "P": (5, -5),
        "J": (5, -1), "N": (5, -2), "M": (5, -3), "R": (5, -4),
        "U": (0, 3), "V": (1, 3), "W": (2, 3), "X1": (3, 3), "X2": (4, 3),
        "S1": (2, 1), "S2": (3, 1), "S3": (4, 1), "S4": (5, 1),
        "X": (4, 2), "Y": (6, -2),
        # unlabeled lattice nodes used by the mirrored forcing rows
        "S1'": (3, -1), "S2'": (4, -1), "S4'": (6, -1),
        "V'": (4, -3), "X1'": (6, -3), "X2'": (7, -3),
    }
    order = ["A", "B", "F", "C", "D", "E",
             "A'", "B'", "F'", "C'", "D'", "E'",
             "K", "L", "I", "Q", "P", "J", "N", "M", "R",
             "U", "V", "W", "X1", "X2", "S1", "S2", "S3", "S4", "X", "Y",
             "S1'", "S2'", "S4'", "V'", "X1'", "X2'"]
    claims = {
        "dist2": units(["R", "Q"], ["R", "P"], ["X", "X1"], ["X", "X2"],
                       ["Y", "X1'"], ["Y", "X2'"],
                       ["K", "A"], ["L", "F"], ["M", "E"], ["N", "E"], ["V", "C"], ["W", "C"],
                       ["S1", "D"], ["S2", "D"], ["S3", "A'"], ["S4", "A'"],
                       ["S1'", "D"], ["S2'", "E"], ["S4'", "A'"], ["V'", "E"]),
        "images": [image(f"translate-{n}", ["translate", 5, 0], n, f"{n}'") for n in "ABCDEF"],
        "extensions": [extensions("t6-candidates", "T3", "T6", ["A'", "B'", "F'"], 4,
                                  [["C'", "D'", "E'"]], 0, blocked=["X", "Y"])],
        "symmetry": [{"id": "step-symmetry", "nodes": ["A", "B", "C", "D", "E", "F"],
                      "centroid": [2, 0], "sixths": 2, "steps": [[5, 0], [-5, 5], [0, -5]],
                      "norm2": 25}],
        "ell5": [
            {"id": "chain-kliqp", "nodes": ["K", "L", "I", "Q", "P"]},
            {"id": "chain-ajnmr", "nodes": ["A'", "J", "N", "M", "R"]},
            {"id": "chain-srow", "nodes": ["S1", "S2", "S3", "S4", "B'"]},
            {"id": "chain-srow-mirror", "nodes": ["S1'", "S2'", "J", "S4'", "F'"]},
            {"id": "chain-uvwx", "nodes": ["U", "V", "W", "X1", "X2"]},
            {"id": "chain-uvwx-mirror", "nodes": ["I", "V'", "M", "X1'", "X2'"]},
        ],
        "patterns": [
            {"id": "block-t6", "template": "T6", "nodes": ["A", "B", "C", "D", "E", "F"]},
            {"id": "block-t6-shifted", "template": "T6",
             "nodes": ["A'", "B'", "C'", "D'", "E'", "F'"]},
            {"id": "tri-i", "template": "EQ3_CENTERED",
             "nodes": ["A", "D", "I", "F"], "center_last": True},
            {"id": "tri-j", "template": "EQ3_CENTERED",
             "nodes": ["C", "F", "J", "D"], "center_last": True},
            {"id": "tri-u", "template": "EQ3_CENTERED",
             "nodes": ["A", "D", "U", "B"], "center_last": True},
            {"id": "anchor-t3", "template": "T3", "nodes": ["A'", "B'", "F'"]},
        ],
    }
    dump("figcol1", [(n, node(*pts[n])) for n in order],
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN", "RED_EQ3_RED_CENTER"],
         claims)


def figcol2():
    pts = {
        "A": (0, 0), "B": (-1, 2),
        "A'''": (-5, 0), "B'''": (-6, 2), "C": (-2, 4),
        "H": (-1, 3), "I": (0, 2), "G": (1, 1), "N": (2, 0), "A'": (3, -1),
        "F": (0, 1), "E": (-1, 1), "D": (-2, 1), "B''": (-3, 1), "B'": (2, 1),
        "J": (-2, 2), "K": (-2, 3), "W0": (-2, 0), "A''": (-2, -1),
    }
    order = ["A", "B", "A'''", "B'''", "C", "H", "I", "G", "N", "A'",
             "F", "E", "D", "B''", "B'", "J", "K", "W0", "A''"]
    claims = {
        "dist2": [dist2("ab-sqrt3", "A", "B", 3), dist2(None, "N", "B'", 1),
                  *units(["E", "B"], ["F", "B"], ["I", "B"], ["H", "B"], ["K", "B"], ["J", "B"])],
        "sublattice": [{"id": "line-lattice", "pattern": "B", "origin": "A",
                        "steps": {"B": [1, 0], "C": [2, 0], "A'": [0, 1], "B'": [1, 1]},
                        "members": ["A''", "B''", "A'''", "B'''"], "index": 5}],
        "images": [],
        "ell5": [
            {"id": "chain-defgb", "nodes": ["D", "E", "F", "G", "B'"]},
            {"id": "chain-chign", "nodes": ["C", "H", "I", "G", "N"]},
            {"id": "chain-higna", "nodes": ["H", "I", "G", "N", "A'"]},
        ],
        "patterns": [
            {"id": "t3-D", "template": "T3", "nodes": ["A", "B", "D"]},
            {"id": "t3-G", "template": "T3", "nodes": ["A", "B", "G"]},
        ],
    }
    dump("figcol2", [(n, node(*pts[n])) for n in order],
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN", "NO_RED_T3"],
         claims)


def figthm():
    """The closing step: a unit pair B, C both at distance 5 from the red
    point A, and the lattice facts that make every such point red."""
    A, B = node(0, 0), node(5, 0)
    C = point(Fraction(49, 10), fe(0, 0, Fraction(3, 10)))
    claims = {
        "dist2": [dist2("witness-pair-geometry", "A", "C", 25), dist2(None, "A", "B", 25),
                  dist2(None, "B", "C", 1)],
        "images": [image("blue-point-on-lattice", ["translate", 5, 0], "A", "B")],
        "ell5": [],
        "patterns": [],
        "invariance": [{"id": "distance5-invariance", "patterns": ["A", "B"],
                        "vectors": [[5, 0], [-5, 0], [0, 5], [0, -5], [5, -5], [-5, 5]]}],
    }
    dump("figthm", [("A", A), ("B", B), ("C", C)],
         ["RED_L2_FORBIDDEN", "BLUE_L5_FORBIDDEN"], claims)


if __name__ == "__main__":
    fig1a()
    fig1b()
    fig3()
    fig4()
    fig5()
    fig6()
    figcol1()
    figcol2()
    figthm()
