"""Declarative verification scripts and their runner.

Each script re-derives one step of the colouring argument as an ordered
list of machine-checkable obligations over a fixed configuration:

* GEOM_IDENTITY   - an exact equation between field values,
* CHAIN_CLAIM     - a figure's five-chain claim holds,
* PATTERN_PRESENT - a figure's template-placement claim holds,
* FORCED          - a node's colour is forced (its negation is unsat and
                    the asserted colour is satisfiable),
* UNSAT           - a case instance is contradictory,
* SAT_WITNESS     - an explicit colouring satisfies an instance.

Squared-distance, image, chain and placement obligations are written as
CLAIM: the fact lives only in the figure claim that carries the
obligation's id, the checker of the claim's section in
figures.CLAIM_CHECKS decides it (the same one the transcription
self-check runs), and the section decides the reported kind: dist2 and
images report GEOM_IDENTITY.  Scripts run in dependency
order; a passing script unlocks its derived rule for the scripts above
it.  Forced colours accumulate inside a script, mirroring how the
argument walks point by point.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .configuration import (BLUE_EQ3_RED_CENTER, Configuration, ExtensionSchema,
                            NO_RED_T3, RED_EQ3_RED_CENTER, RuleSet, T7_ALL_RED,
                            emit_clauses, pattern_rule, template_extensions)
from .field import ONE, fe
from .figures import CLAIM_CHECKS, Figure, load_figure, self_check
from .geometry import (Point, chord_rotation, dist2, hex_indices, lattice_coords,
                       lattice_norm2, lattice_symmetries, lattice_vectors_of_norm2,
                       node, point, rotation60)
from .solver import (ColoringProblem, FORCED_BLUE, FORCED_RED, Verdict,
                     enumerate_models, export_dimacs, forced_color, solve)
from .tilings import PATTERN_A, PATTERN_B, PeriodicColoring, distance5_invariance

GEOM_IDENTITY = "GEOM_IDENTITY"
CHAIN_CLAIM = "CHAIN_CLAIM"
PATTERN_PRESENT = "PATTERN_PRESENT"
FORCED = "FORCED"
UNSAT = "UNSAT"
SAT_WITNESS = "SAT_WITNESS"
# written kind of an obligation stated by a figure claim; reported as the
# kind of the claim section that holds its id
CLAIM = "CLAIM"
_CLAIM_KINDS = {"dist2": GEOM_IDENTITY, "images": GEOM_IDENTITY,
                "ell5": CHAIN_CLAIM, "patterns": PATTERN_PRESENT}

SCRIPT_ORDER = ("bluetr", "redtr", "t7", "t3t6", "col1", "col2", "theorem")

DEPENDENCIES: dict[str, tuple[str, ...]] = {
    "bluetr": (),
    "redtr": ("bluetr",),
    "t7": ("bluetr",),
    "t3t6": ("redtr", "t7"),
    "col1": ("t3t6", "redtr"),
    "col2": ("bluetr",),
    "theorem": ("col1", "col2"),
}

GRANTS: dict[str, tuple[str, ...]] = {
    "bluetr": (BLUE_EQ3_RED_CENTER,),
    "redtr": (RED_EQ3_RED_CENTER,),
    "t7": (T7_ALL_RED,),
    "t3t6": ("T3_TO_T6_SCHEMA",),
    "col1": ("PATTERN_A_VALID",),
    "col2": ("PATTERN_B_VALID",),
    "theorem": (),
}

# Source-drawing inconsistencies resolved by the shipped data; each report
# repeats the notes that apply to its script.
TRANSCRIPTION_NOTES: tuple[dict, ...] = (
    {"id": "chain-colour-xadeb", "applies_to": "bluetr",
     "note": "the five-chain X-A-D-E-B is an all-blue line in context; "
             "it is checked as a blue chain"},
    {"id": "triangle-side-three", "applies_to": "redtr",
     "note": "the red-triangle rule is stated and used for side length 3 "
             "(circumradius sqrt3); the literal side-sqrt3 variant is kept "
             "as a bonus obligation and is immediate from the unit pairs"},
    {"id": "t5-completion-count", "applies_to": "t3t6",
     "note": "a red rhombus has four plane completions to the five-point "
             "shape; blocking the three named ones already yields the "
             "contradiction, the fourth is recorded in the completion check"},
    {"id": "chain-colour-ajnmr", "applies_to": "col1",
     "note": "the five-chain A'-J-N-M-R is an all-blue line in context; "
             "it is checked as a blue chain"},
    {"id": "translate-colour-red", "applies_to": "col1",
     "note": "the translated six-point block A'..F' is established red; "
             "the closing colour word is corrected accordingly"},
    {"id": "mirror-row-helpers", "applies_to": "col1",
     "note": "the mirrored forcing rows use unlabeled lattice nodes; they "
             "are included with primed names (S1', S2', S4', V', X1', X2')"},
)


# hex radius of the central cells the uniqueness enumeration projects onto
CENTER_RADIUS = 2
# most projected models the uniqueness enumeration collects
MODEL_CAP = 10 ** 6


@dataclass
class Options:
    patch_radius: int = 7
    emit_certificates: bool = False
    stretch: bool = False
    stretch_radius: int = 6


@dataclass
class Stage:
    sid: str
    cfg: Configuration
    rules: RuleSet
    fixed: dict[str, str]
    accumulated: dict[str, str] = field(default_factory=dict)
    _base: Optional[ColoringProblem] = None

    def base_problem(self) -> ColoringProblem:
        if self._base is None:
            self._base = emit_clauses(self.cfg, self.rules, self.fixed)
        return self._base

    def problem(self, exclude: Sequence[str] = ()) -> ColoringProblem:
        """Base problem restricted to the nodes outside `exclude`, plus the
        accumulated forced colours.

        Dropping every clause that mentions an excluded node is exactly the
        clause set of the induced sub-configuration; excluded variables stay
        present but unconstrained, which cannot change any verdict.
        """
        base = self.base_problem()
        if not exclude and not self.accumulated:
            return base
        cut = {base.name_to_var[self.cfg.primary(n)] for n in exclude}
        clauses = ([c for c in base.clauses if not any(abs(l) in cut for l in c)]
                   if cut else list(base.clauses))
        units = {c for c in clauses if len(c) == 1}
        for name, colour in self.accumulated.items():
            v = base.name_to_var[self.cfg.primary(name)]
            if v in cut:
                continue
            lit = v if colour == "red" else -v
            if (lit,) not in units:
                units.add((lit,))
                clauses.append((lit,))
        return ColoringProblem(var_count=base.var_count, clauses=clauses, names=base.names,
                               is_aux=base.is_aux, name_to_var=base.name_to_var)


@dataclass
class Obligation:
    oid: str
    kind: str
    statement: str
    stage: Optional[str] = None
    node: Optional[str] = None
    color: Optional[str] = None
    exclude: tuple[str, ...] = ()
    coloring: Optional[PeriodicColoring] = None
    check: Optional[Callable[[], tuple[bool, dict]]] = None
    problem_fn: Optional[Callable[[], ColoringProblem]] = None


@dataclass
class ObligationResult:
    oid: str
    kind: str
    statement: str
    status: str  # "pass" | "fail"
    detail: dict
    certificate: Optional[dict] = None
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        data = {
            "id": self.oid,
            "kind": self.kind,
            "statement": self.statement,
            "status": self.status,
            "detail": self.detail,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.certificate is not None:
            data["certificate"] = self.certificate
        return data


@dataclass
class Report:
    script: str
    status: str  # "passed" | "failed" | "blocked"
    obligations: list[ObligationResult] = field(default_factory=list)
    notes: list[dict] = field(default_factory=list)
    stages: dict[str, dict] = field(default_factory=dict)
    stretch: Optional[dict] = None
    reason: Optional[str] = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def to_json(self) -> dict:
        data = {
            "script": self.script,
            "status": self.status,
            "obligations": [o.to_json() for o in self.obligations],
            "notes": self.notes,
            "stages": self.stages,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.stretch is not None:
            data["stretch"] = self.stretch
        if self.reason is not None:
            data["reason"] = self.reason
        return data


# ---------------------------------------------------------------------------
# small constructors used by the script builders
# ---------------------------------------------------------------------------


def _points_key(pts) -> list:
    return [[str(p.x), str(p.y)] for p in sorted(pts, key=lambda q: q.coord_key())]


def _dist2_check(pts: dict[str, Point], want: dict[tuple[str, str], int]):
    """Is each named pair at its wanted squared distance?  The detail
    shows every squared distance found."""
    got = {(a, b): dist2(pts[a], pts[b]) for a, b in want}
    return (all(got[pair] == fe(k) for pair, k in want.items()),
            {f"d2({a},{b})": str(d2) for (a, b), d2 in got.items()})


def _step_check(p: Point, q: Point, want: tuple[int, int], keys: tuple[str, str]):
    """Is q - p the lattice vector `want`, of squared length its norm?  The
    detail shows the vector found, as "(a,b)" or as exact coordinates off
    the lattice, and its squared length, under the two given keys."""
    v = q - p
    ab = lattice_coords(v)
    d2 = dist2(p, q)
    shown = f"({v.x}, {v.y})" if ab is None else f"({ab[0]},{ab[1]})"
    return ab == want and d2 == fe(lattice_norm2(*want)), dict(zip(keys, (shown, str(d2))))


def _rules(base_extra: Sequence = (), schema: Optional[ExtensionSchema] = None,
           granted: frozenset = frozenset()) -> RuleSet:
    derived = tuple(pattern_rule(rid, proved=(rid == NO_RED_T3 or rid in granted))
                    for rid in base_extra)
    return RuleSet(derived=derived, existential=schema)


# ---------------------------------------------------------------------------
# script builders
# ---------------------------------------------------------------------------


# figure, patch anchor (unit-lattice coordinates) and canonical colouring
# of each colouring script
_PATCHES = {
    "col1": ("figcol1", (3, 0), PATTERN_A),
    "col2": ("figcol2", (0, 0), PATTERN_B),
}


def _patch(script_id: str, radius: int):
    """The script's figure, its registry plus every lattice node within the
    hex radius of the anchor, and its canonical colouring."""
    fid, (aa, ab), pattern = _PATCHES[script_id]
    figure = load_figure(fid)
    entries = list(zip(figure.cfg.names, figure.cfg.points))
    for a, b in hex_indices(radius):
        entries.append((f"n({a + aa},{b + ab})", node(a + aa, b + ab)))
    return figure, Configuration(entries), pattern


def _build_bluetr(granted: frozenset, options: Options):
    figure = load_figure("fig1a")
    cfg = figure.cfg
    stage = Stage("main", cfg, RuleSet(),
                  {"O": "red", "A": "blue", "B": "blue", "C": "blue"})
    obls = [
        Obligation("side-ab", CLAIM, "the anchor triangle has side 3: |AB|^2 = 9"),
        Obligation("side-bc", CLAIM, "the anchor triangle has side 3: |BC|^2 = 9"),
        Obligation("side-ca", CLAIM, "the anchor triangle has side 3: |CA|^2 = 9"),
        Obligation("centre-oa", CLAIM, "O is the centre: |OA|^2 = 3"),
        Obligation("centre-ob", CLAIM, "O is the centre: |OB|^2 = 3"),
        Obligation("centre-oc", CLAIM, "O is the centre: |OC|^2 = 3"),
    ]
    for nm in ("D", "E", "F", "G"):
        obls.append(Obligation(
            f"forced-{nm}-blue", FORCED,
            f"{nm} is blue: it sits at unit distance from the red centre O",
            stage="main", node=nm, color="blue", exclude=("X", "Y")))
    obls.append(Obligation("chain-xadeb", CLAIM,
                           "X, A, D, E, B are collinear at unit spacing"))
    obls.append(Obligation("forced-X-red", FORCED,
                           "X is red: otherwise the five-chain X-A-D-E-B is all blue",
                           stage="main", node="X", color="red", exclude=("Y",)))
    obls.append(Obligation("chain-yafgc", CLAIM,
                           "Y, A, F, G, C are collinear at unit spacing"))
    obls.append(Obligation("forced-Y-red", FORCED,
                           "Y is red: otherwise the five-chain Y-A-F-G-C is all blue",
                           stage="main", node="Y", color="red", exclude=("X",)))
    obls.append(Obligation("xy-unit", CLAIM, "X and Y are at unit distance"))
    obls.append(Obligation("contradiction", UNSAT,
                           "a blue side-3 triangle with red centre is impossible: "
                           "the full instance is unsatisfiable",
                           stage="main"))
    return {"main": stage}, obls, (figure,)


def _build_redtr(granted: frozenset, options: Options):
    figure = load_figure("fig1b")
    cfg = figure.cfg
    stage = Stage("main", cfg,
                  _rules((BLUE_EQ3_RED_CENTER,), granted=granted),
                  {"O": "red", "A": "red", "B": "red", "C": "red"})

    # bonus gadget: a red side-sqrt3 triangle with red centre dies on unit pairs
    centre = point(0, 0)
    v1 = point(1, 0)
    v2 = point(Fraction(-1, 2), fe(0, Fraction(1, 2)))
    v3 = point(Fraction(-1, 2), fe(0, Fraction(-1, 2)))
    small_cfg = Configuration([("Q", centre), ("P1", v1), ("P2", v2), ("P3", v3)])
    small = Stage("side-sqrt3", small_cfg, RuleSet(),
                  {"Q": "red", "P1": "red", "P2": "red", "P3": "red"})

    turn = chord_rotation(point(0, 0), 1)
    obls = [
        Obligation("side-ab", CLAIM, "the red triangle has side 3: |AB|^2 = 9"),
        Obligation("side-bc", CLAIM, "the red triangle has side 3: |BC|^2 = 9"),
        Obligation("side-ca", CLAIM, "the red triangle has side 3: |CA|^2 = 9"),
        Obligation("centre-oa", CLAIM, "O is the centre: |OA|^2 = 3"),
        Obligation("chord-pair", GEOM_IDENTITY,
                   "the turning pair (5/6, sqrt11/6) is exactly on the unit circle",
                   check=lambda: (turn.cos ** 2 + turn.sin ** 2 == ONE,
                                  {"cos": str(turn.cos), "sin": str(turn.sin)})),
    ]
    for src, dst in (("A", "A'"), ("B", "B'"), ("C", "C'")):
        obls.append(Obligation(f"image-{dst}", CLAIM,
                               f"{dst} is the turned image of {src} about O"))
        obls.append(Obligation(f"chord-{src}", CLAIM,
                               f"the turn moves {src} by exactly distance 1"))
        obls.append(Obligation(
            f"forced-{dst}-blue", FORCED,
            f"{dst} is blue: it sits at unit distance from red {src}",
            stage="main", node=dst, color="blue",
            exclude=tuple(d for _, d in (("A", "A'"), ("B", "B'"), ("C", "C'")) if d != dst)))
    obls.append(Obligation("turned-triangle", CLAIM,
                           "A', B', C' form a side-3 triangle with centre O"))
    obls.append(Obligation("contradiction", UNSAT,
                           "a red side-3 triangle with red centre is impossible: "
                           "the turned triangle is blue with red centre",
                           stage="main"))
    obls.append(Obligation("side-sqrt3-immediate", UNSAT,
                           "bonus: a red side-sqrt3 triangle with red centre dies "
                           "on unit pairs alone (vertices at distance 1 from the centre)",
                           stage="side-sqrt3"))
    return {"main": stage, "side-sqrt3": small}, obls, (figure,)


def _build_t7(granted: frozenset, options: Options):
    figure = load_figure("fig3")
    cfg = figure.cfg
    reds = {nm: "red" for nm in ("A", "B", "C", "D", "E", "F", "G")}
    stage = Stage("main", cfg, _rules((BLUE_EQ3_RED_CENTER,), granted=granted), reds)
    obls = [
        Obligation("seven-red", CLAIM, "A..G form the seven-point sqrt3 shape"),
        Obligation("x-mirror", CLAIM, "X is the mirror image of F in the line B-C"),
    ]
    for oid, src, dst, centre in (("image-xp", "X", "X'", "B"), ("image-ap", "A", "A'", "B"),
                                  ("image-fp", "F", "F'", "B"), ("image-xpp", "X", "X''", "C"),
                                  ("image-dpp", "D", "D''", "C"), ("image-fpp", "F", "F''", "C")):
        obls.append(Obligation(oid, CLAIM, f"{dst} is the turned image of {src} about {centre}"))
    for oid, src, centre in (("chord-a", "A", "B"), ("chord-f", "F", "B"), ("chord-x", "X", "B"),
                             ("chord-d", "D", "C"), ("chord-f2", "F", "C"), ("chord-x2", "X", "C")):
        obls.append(Obligation(oid, CLAIM,
                               f"the turn about {centre} moves {src} by distance 1"))
    for nm, partner in (("A'", "A"), ("F'", "F")):
        obls.append(Obligation(
            f"forced-{nm}-blue", FORCED,
            f"{nm} is blue: it sits at unit distance from red {partner}",
            stage="main", node=nm, color="blue",
            exclude=("X''", "D''", "F''")))
    obls.append(Obligation("triangle-b", CLAIM,
                           "X', A', F' form a side-3 triangle with centre B"))
    obls.append(Obligation("forced-xp-red", FORCED,
                           "X' is red: otherwise X'-A'-F' is a blue side-3 "
                           "triangle with red centre B",
                           stage="main", node="X'", color="red",
                           exclude=("X''", "D''", "F''")))
    for nm, partner in (("D''", "D"), ("F''", "F")):
        obls.append(Obligation(
            f"forced-{nm}-blue", FORCED,
            f"{nm} is blue: it sits at unit distance from red {partner}",
            stage="main", node=nm, color="blue", exclude=("A'", "F'", "X'")))
    obls.append(Obligation("triangle-c", CLAIM,
                           "X'', D'', F'' form a side-3 triangle with centre C"))
    obls.append(Obligation("forced-xpp-red", FORCED,
                           "X'' is red: otherwise X''-D''-F'' is a blue side-3 "
                           "triangle with red centre C",
                           stage="main", node="X''", color="red",
                           exclude=("A'", "F'", "X'")))
    obls.append(Obligation(
        "unit-triangle", GEOM_IDENTITY,
        "X, X', X'' form a unit triangle; X' is X'' turned -60 degrees about X",
        check=lambda: _unit_triangle_check(cfg)))
    obls.append(Obligation("contradiction", UNSAT,
                           "seven red points in the sqrt3 shape are impossible: "
                           "X' and X'' are both red at unit distance",
                           stage="main"))
    return {"main": stage}, obls, (figure,)


def _unit_triangle_check(cfg: Configuration):
    pts = {nm: cfg.point_of(nm) for nm in ("X", "X'", "X''")}
    ok, detail = _dist2_check(pts, {("X'", "X''"): 1, ("X", "X'"): 1, ("X", "X''"): 1})
    return ok and rotation60(pts["X"], -1)(pts["X''"]) == pts["X'"], detail


def _completion_ob(oid: str, cfg: Configuration, small: str, big: str,
                   anchor: tuple[str, ...], expected_names: tuple[str, ...],
                   statement: str) -> Obligation:
    """The plane completions of the anchor (each adds one point) whose added
    point lies in the configuration are exactly `expected_names`."""

    def check():
        anchor_pts = [cfg.point_of(n) for n in anchor]
        anchor_set = frozenset(anchor_pts)
        cands = template_extensions(small, big, anchor_pts)
        inside = []
        outside = []
        for cand in cands:
            extra = sorted(set(cand) - anchor_set, key=lambda p: p.coord_key())
            if len(extra) != 1:
                return False, {"error": "completion does not add exactly one point"}
            p = extra[0]
            if p in cfg.point_index:
                inside.append(cfg.name_at(p))
            else:
                outside.append(_points_key(extra))
        ok = sorted(inside) == sorted(cfg.primary(nm) for nm in expected_names)
        return ok, {"in_configuration": sorted(inside),
                    "outside_configuration": outside,
                    "candidates": len(cands)}

    return Obligation(oid, GEOM_IDENTITY, statement, check=check)


def _t6_candidates_ob(oid: str, cfg: Configuration, anchor: tuple[str, ...],
                      blockers: tuple[str, ...], survivor: tuple[str, ...],
                      statement: str) -> Obligation:
    """Of all plane extensions of the anchor triple to the six-point shape,
    exactly one avoids the blocker nodes, and it is the survivor set."""

    def check():
        anchor_pts = [cfg.point_of(n) for n in anchor]
        cands = template_extensions("T3", "T6", anchor_pts)
        blocker_pts = {cfg.point_of(n) for n in blockers}
        open_sets = [cand for cand in cands
                     if not (set(cand) & blocker_pts)]
        want = frozenset(cfg.point_of(n) for n in survivor)
        ok = (len(cands) == 4 and len(open_sets) == 1
              and frozenset(open_sets[0]) == want)
        return ok, {"candidates": len(cands),
                    "open": [_points_key(c) for c in open_sets],
                    "blockers": list(blockers)}

    return Obligation(oid, GEOM_IDENTITY, statement, check=check)


def _build_t3t6(granted: frozenset, options: Options):
    fig4 = load_figure("fig4")
    fig5 = load_figure("fig5")
    fig6 = load_figure("fig6")
    st1 = Stage("t3-to-t4", fig4.cfg, RuleSet(),
                {"A": "red", "B": "red", "C": "red",
                 "X": "blue", "Y": "blue", "Z": "blue"})
    st2 = Stage("t4-to-t5", fig5.cfg, RuleSet(),
                {"A": "red", "B": "red", "C": "red", "D": "red",
                 "X": "blue", "F": "blue", "G": "blue"})
    st3 = Stage("t5-to-t6", fig6.cfg,
                _rules((RED_EQ3_RED_CENTER, T7_ALL_RED), granted=granted),
                {"A": "red", "B": "red", "C": "red", "D": "red", "E": "red",
                 "F": "blue"})
    obls: list[Obligation] = []

    # stage 1: a red T3 with no red T4 completion is contradictory
    obls.append(Obligation("s1-t3", CLAIM, "A, B, C form the three-point shape"))
    obls.append(_completion_ob(
        "s1-completions", fig4.cfg, "T3", "T4", ("A", "B", "C"),
        ("X", "Y", "Z"),
        "X, Y and Z are exactly the plane completions of A,B,C to the "
        "four-point shape; assuming no red completion fixes them blue"))
    for nm in ("X", "Y", "Z"):
        obls.append(Obligation(f"s1-t4-{nm}", CLAIM,
                               f"A, B, C, {nm} form the four-point shape"))
    for nm in ("E", "F", "G", "H", "I", "J"):
        obls.append(Obligation(f"s1-forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from a red point",
                               stage="t3-to-t4", node=nm, color="blue",
                               exclude=("K", "L", "M", "N", "P", "Q")))
    obls.append(Obligation("s1-chain-lmygh", CLAIM, "L, M, Y, G, H form a unit five-chain"))
    obls.append(Obligation("s1-forced-K", FORCED,
                           "K is blue: if K were red, L and M would be blue and "
                           "L-M-Y-G-H all blue", stage="t3-to-t4", node="K",
                           color="blue", exclude=("N", "P", "Q")))
    obls.append(Obligation("s1-chain-kjizn", CLAIM, "K, J, I, Z, N form a unit five-chain"))
    obls.append(Obligation("s1-forced-N", FORCED,
                           "N is red: otherwise K-J-I-Z-N is all blue",
                           stage="t3-to-t4", node="N", color="red",
                           exclude=("P", "Q")))
    obls.append(Obligation("s1-forced-P", FORCED,
                           "P is blue: unit distance from red N",
                           stage="t3-to-t4", node="P", color="blue", exclude=("Q",)))
    obls.append(Obligation("s1-forced-Q", FORCED,
                           "Q is blue: unit distance from red N",
                           stage="t3-to-t4", node="Q", color="blue", exclude=("P",)))
    obls.append(Obligation("s1-chain-pqfex", CLAIM, "P, Q, F, E, X form a unit five-chain"))
    obls.append(Obligation("s1-contradiction", UNSAT,
                           "no red completion of the red three-point shape is "
                           "contradictory: P-Q-F-E-X ends up all blue",
                           stage="t3-to-t4"))

    # stage 2: a red T4 with no red T5 completion is contradictory
    obls.append(Obligation("s2-t4", CLAIM, "A, B, C, D form the four-point shape"))
    obls.append(_completion_ob(
        "s2-completions", fig5.cfg, "T4", "T5", ("A", "B", "C", "D"),
        ("X", "F", "G"),
        "the four-point shape has four plane completions to the five-point "
        "shape; X, F, G are the three lying in this configuration (the "
        "fourth falls outside it) and blocking them suffices"))
    for nm in ("X", "F", "G"):
        obls.append(Obligation(f"s2-t5-{nm}", CLAIM,
                               f"A, B, C, D, {nm} form the five-point shape"))
    for nm in ("H", "I", "K", "L", "M", "N"):
        obls.append(Obligation(f"s2-forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from a red point",
                               stage="t4-to-t5", node=nm, color="blue",
                               exclude=("P", "Q", "R")))
    obls.append(Obligation("s2-chain-fhigp", CLAIM, "F, H, I, G, P form a unit five-chain"))
    obls.append(Obligation("s2-forced-P", FORCED,
                           "P is red: otherwise F-H-I-G-P is all blue",
                           stage="t4-to-t5", node="P", color="red",
                           exclude=("Q", "R")))
    obls.append(Obligation("s2-forced-Q", FORCED,
                           "Q is blue: unit distance from red P",
                           stage="t4-to-t5", node="Q", color="blue", exclude=("R",)))
    obls.append(Obligation("s2-forced-R", FORCED,
                           "R is blue: unit distance from red P",
                           stage="t4-to-t5", node="R", color="blue", exclude=("Q",)))
    obls.append(Obligation("s2-chain-xnmqr", CLAIM, "X, N, M, Q, R form a unit five-chain"))
    obls.append(Obligation("s2-contradiction", UNSAT,
                           "no red completion of the red four-point shape is "
                           "contradictory: X-N-M-Q-R ends up all blue",
                           stage="t4-to-t5"))

    # stage 3: a red T5 whose sixth cell is blue is contradictory
    obls.append(Obligation("s3-t5", CLAIM, "A, B, C, D, E form the five-point shape"))
    obls.append(Obligation("s3-tri-x", CLAIM, "X, E, C form a side-3 triangle with centre B"))
    obls.append(Obligation("s3-forced-X", FORCED,
                           "X is blue: a red X would close a red side-3 triangle "
                           "with red centre B",
                           stage="t5-to-t6", node="X", color="blue",
                           exclude=("U", "T", "Q", "P", "R", "S", "V", "W")))
    obls.append(Obligation("s3-tri-y", CLAIM, "Y, A, D form a side-3 triangle with centre B"))
    obls.append(Obligation("s3-forced-Y", FORCED,
                           "Y is blue: a red Y would close a red side-3 triangle "
                           "with red centre B",
                           stage="t5-to-t6", node="Y", color="blue",
                           exclude=("U", "T", "Q", "P", "R", "S", "V", "W")))
    for nm in ("G", "H", "I", "J", "K", "L", "M", "N"):
        obls.append(Obligation(f"s3-forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from a red point",
                               stage="t5-to-t6", node=nm, color="blue",
                               exclude=("U", "T", "Q", "P", "R", "S", "V", "W")))
    obls.append(Obligation("s3-chain-qpklf", CLAIM, "Q, P, K, L, F form a unit five-chain"))
    obls.append(Obligation("s3-chain-tughx", CLAIM, "T, U, G, H, X form a unit five-chain"))
    obls.append(Obligation("s3-forced-P", FORCED,
                           "P is red: a blue P forces Q red, then T, U blue, and "
                           "T-U-G-H-X all blue",
                           stage="t5-to-t6", node="P", color="red",
                           exclude=("R", "S", "V", "W")))
    obls.append(Obligation("s3-chain-fmnrs", CLAIM, "F, M, N, R, S form a unit five-chain"))
    obls.append(Obligation("s3-chain-vwjiy", CLAIM, "V, W, J, I, Y form a unit five-chain"))
    obls.append(Obligation("s3-forced-R", FORCED,
                           "R is red: a blue R forces S red, then V, W blue, and "
                           "V-W-J-I-Y all blue (P stays out of scope so the "
                           "seven-point rule does not fire yet)",
                           stage="t5-to-t6", node="R", color="red",
                           exclude=("U", "T", "Q", "P")))
    obls.append(Obligation("s3-t7", CLAIM, "A, B, C, D, E, P, R form the seven-point shape"))
    obls.append(Obligation("s3-contradiction", UNSAT,
                           "a blue sixth cell is contradictory: A,B,C,D,E,P,R "
                           "would be seven red points in the forbidden shape",
                           stage="t5-to-t6"))
    obls.append(Obligation("s3-t6", CLAIM, "hence F is red and A..F form the six-point shape"))
    stages = {"t3-to-t4": st1, "t4-to-t5": st2, "t5-to-t6": st3}
    return stages, obls, (fig4, fig5, fig6)


def _build_col1(granted: frozenset, options: Options):
    figure, cfg, pattern = _patch("col1", options.patch_radius)
    schema = ExtensionSchema(lemma_id="t3t6", proved="T3_TO_T6_SCHEMA" in granted,
                             anchors=(("A'", "B'", "F'"),))
    rules = _rules((RED_EQ3_RED_CENTER,), schema, granted)
    fixed = {nm: "red" for nm in ("A", "B", "C", "D", "E", "F")}
    stage = Stage("patch", cfg, rules, fixed)
    obls: list[Obligation] = []

    obls.append(Obligation("block-t6", CLAIM,
                           "the six red anchor cells form the six-point shape"))
    for src in ("A", "B", "C", "D", "E", "F"):
        dst = src + "'"
        obls.append(Obligation(
            f"translate-{src}", GEOM_IDENTITY,
            f"{dst} is {src} shifted by the length-5 lattice vector (5,0)",
            check=lambda s=src, d=dst: _step_check(cfg.point_of(s), cfg.point_of(d),
                                                    (5, 0), ("shift", "dist2"))))
    obls.append(Obligation("tri-i", CLAIM, "A, D, I form a side-3 triangle with centre F"))
    obls.append(Obligation("forced-I", FORCED,
                           "I is blue: a red I closes a red side-3 triangle "
                           "A-D-I with red centre F",
                           stage="patch", node="I", color="blue"))
    obls.append(Obligation("tri-j", CLAIM, "C, F, J form a side-3 triangle with centre D"))
    obls.append(Obligation("forced-J", FORCED,
                           "J is blue: a red J closes a red side-3 triangle "
                           "C-F-J with red centre D",
                           stage="patch", node="J", color="blue"))
    for nm in ("K", "L", "M", "N"):
        obls.append(Obligation(f"forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from a red point",
                               stage="patch", node=nm, color="blue"))
    obls.append(Obligation("chain-kliqp", CLAIM, "K, L, I, Q, P form a unit five-chain"))
    obls.append(Obligation("forced-R", FORCED,
                           "R is blue: a red R forces P and Q blue and "
                           "K-L-I-Q-P all blue",
                           stage="patch", node="R", color="blue"))
    obls.append(Obligation("chain-ajnmr", CLAIM, "A', J, N, M, R form a unit five-chain"))
    obls.append(Obligation("forced-Ap", FORCED,
                           "A' is red: otherwise A'-J-N-M-R is all blue",
                           stage="patch", node="A'", color="red"))
    for nm in ("S1", "S2", "S3", "S4"):
        obls.append(Obligation(f"forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from red D or A'",
                               stage="patch", node=nm, color="blue"))
    obls.append(Obligation("chain-srow", CLAIM, "S1, S2, S3, S4, B' form a unit five-chain"))
    obls.append(Obligation("forced-Bp", FORCED,
                           "B' is red: otherwise S1-S2-S3-S4-B' is all blue",
                           stage="patch", node="B'", color="red"))
    for nm in ("S1'", "S2'", "S4'"):
        obls.append(Obligation(f"forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from red D, E or A'",
                               stage="patch", node=nm, color="blue"))
    obls.append(Obligation("chain-srow-mirror", CLAIM,
                           "S1', S2', J, S4', F' form a unit five-chain"))
    obls.append(Obligation("forced-Fp", FORCED,
                           "F' is red: otherwise S1'-S2'-J-S4'-F' is all blue",
                           stage="patch", node="F'", color="red"))
    for nm in ("V", "W"):
        obls.append(Obligation(f"forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from red C",
                               stage="patch", node=nm, color="blue"))
    obls.append(Obligation("tri-u", CLAIM, "A, D, U form a side-3 triangle with centre B"))
    obls.append(Obligation("forced-U", FORCED,
                           "U is blue: a red U closes a red side-3 triangle "
                           "A-D-U with red centre B",
                           stage="patch", node="U", color="blue"))
    obls.append(Obligation("chain-uvwx", CLAIM, "U, V, W, X1, X2 form a unit five-chain"))
    obls.append(Obligation("forced-X", FORCED,
                           "X is blue: a red X forces X1 and X2 blue and "
                           "U-V-W-X1-X2 all blue",
                           stage="patch", node="X", color="blue"))
    obls.append(Obligation("forced-Vp", FORCED,
                           "V' is blue: unit distance from red E",
                           stage="patch", node="V'", color="blue"))
    obls.append(Obligation("chain-uvwx-mirror", CLAIM,
                           "I, V', M, X1', X2' form a unit five-chain"))
    obls.append(Obligation("forced-Y", FORCED,
                           "Y is blue: a red Y forces X1' and X2' blue and "
                           "I-V'-M-X1'-X2' all blue",
                           stage="patch", node="Y", color="blue"))
    obls.append(Obligation("anchor-t3", CLAIM, "A', B', F' form the red three-point shape"))
    obls.append(_t6_candidates_ob(
        "t6-candidates", cfg, ("A'", "B'", "F'"), ("X", "Y"),
        ("A'", "B'", "C'", "D'", "E'", "F'"),
        "the red triple A',B',F' has four plane extensions to the six-point "
        "shape; with X and Y blue the only open one is A'..F'"))
    for nm in ("C'", "D'", "E'"):
        obls.append(Obligation(f"forced-{nm}", FORCED,
                               f"{nm} is red: every red three-point shape extends "
                               f"to a red six-point shape, and with X, Y blue the "
                               f"only extension of A',B',F' runs through {nm}",
                               stage="patch", node=nm, color="red"))
    obls.append(Obligation("block-t6-shifted", CLAIM,
                           "the translated cells A'..F' form the six-point shape"))
    obls.append(Obligation(
        "step-symmetry", GEOM_IDENTITY,
        "a 120-degree turn about the block centroid permutes the six red "
        "cells and cycles the step vectors (5,0) -> (-5,5) -> (0,-5), all of "
        "squared length 25",
        check=lambda: _col1_symmetry_check(cfg)))
    obls.append(Obligation("pattern-model", SAT_WITNESS,
                           "the periodic pattern with the six-cell cluster over "
                           "the 5x5 sublattice satisfies every constraint and "
                           "every forced colour on the patch",
                           stage="patch", coloring=pattern))
    return {"patch": stage}, obls, (figure,)


def _col1_symmetry_check(cfg: Configuration):
    centroid = node(2, 0)
    rot = rotation60(centroid, 2)
    block = [cfg.point_of(nm) for nm in ("A", "B", "C", "D", "E", "F")]
    invariant = {rot(p) for p in block} == set(block)
    ok = invariant
    steps = [(5, 0), (-5, 5), (0, -5)]
    origin = node(0, 0)
    rot0 = rotation60(origin, 2)
    for (a, b), (c, d) in zip(steps, steps[1:] + steps[:1]):
        ok = ok and rot0(node(a, b)) == node(c, d)
        ok = ok and lattice_norm2(a, b) == 25
    return ok, {"block_invariant": invariant, "steps": [list(s) for s in steps]}


def _build_col2(granted: frozenset, options: Options):
    figure, cfg, pattern = _patch("col2", options.patch_radius)
    stage = Stage("patch", cfg, _rules((NO_RED_T3,), granted=granted),
                  {"A": "red", "B": "red"})

    # gadget: around any red point, one of the six sqrt3-neighbours is red
    centre = node(0, 0)
    ring = [node(1, 1), node(2, -1), node(1, -2), node(-1, -1), node(-2, 1), node(-1, 2)]
    gadget_cfg = Configuration([("Z", centre)] + [(f"R{i}", p) for i, p in enumerate(ring)])
    gadget = Stage("ring", gadget_cfg,
                   _rules((BLUE_EQ3_RED_CENTER,), granted=granted),
                   {"Z": "red", **{f"R{i}": "blue" for i in range(6)}})

    obls: list[Obligation] = []
    obls.append(Obligation("ring-red-neighbour", UNSAT,
                           "a red point cannot have all six sqrt3-neighbours "
                           "blue: two of their alternating triples are blue "
                           "side-3 triangles with a red centre",
                           stage="ring"))
    obls.append(Obligation("ab-sqrt3", CLAIM,
                           "the chosen red neighbour B is at squared distance 3 from A"))
    for nm in ("D", "G"):
        obls.append(Obligation(f"t3-{nm}", CLAIM, f"A, B, {nm} form the three-point shape"))
        obls.append(Obligation(f"forced-{nm}", FORCED,
                               f"{nm} is blue: a red {nm} would close a red "
                               f"three-point shape with A and B",
                               stage="patch", node=nm, color="blue"))
    for nm in ("E", "F", "I", "H", "K", "J"):
        obls.append(Obligation(f"forced-{nm}", FORCED,
                               f"{nm} is blue: unit distance from red B",
                               stage="patch", node=nm, color="blue"))
    obls.append(Obligation("chain-defgb", CLAIM, "D, E, F, G, B' form a unit five-chain"))
    obls.append(Obligation("forced-Bp", FORCED,
                           "B' is red: otherwise D-E-F-G-B' is all blue",
                           stage="patch", node="B'", color="red"))
    obls.append(Obligation("forced-N", FORCED,
                           "N is blue: unit distance from red B'",
                           stage="patch", node="N", color="blue"))
    obls.append(Obligation("chain-chign", CLAIM, "C, H, I, G, N form a unit five-chain"))
    obls.append(Obligation("forced-C", FORCED,
                           "C is red: otherwise C-H-I-G-N is all blue",
                           stage="patch", node="C", color="red"))
    obls.append(Obligation("chain-higna", CLAIM, "H, I, G, N, A' form a unit five-chain"))
    obls.append(Obligation("forced-Ap", FORCED,
                           "A' is red: otherwise H-I-G-N-A' is all blue",
                           stage="patch", node="A'", color="red"))
    obls.append(Obligation(
        "line-lattice", GEOM_IDENTITY,
        "the red set repeats along the generators (-1,2) and (3,-1): B, C "
        "extend A along the line, A', B' start the parallel line, and the "
        "primed anchors lie in the generated index-5 sublattice",
        check=lambda: _col2_lattice_check(cfg, pattern)))
    obls.append(Obligation("pattern-model", SAT_WITNESS,
                           "the periodic pattern with red on the index-5 "
                           "sublattice satisfies every constraint and every "
                           "forced colour on the patch",
                           stage="patch", coloring=pattern))
    return {"patch": stage, "ring": gadget}, obls, (figure,)


def _col2_lattice_check(cfg: Configuration, pattern):
    a = cfg.point_of("A")
    facts = {
        "B": cfg.point_of("B") == a + node(-1, 2),
        "C": cfg.point_of("C") == a + node(-2, 4),
        "A'": cfg.point_of("A'") == a + node(3, -1),
        "B'": cfg.point_of("B'") == a + node(2, 1),
    }
    det = (-1) * (-1) - 2 * 3
    member = pattern.lattice_contains
    for nm in ("A''", "B''", "A'''", "B'''"):
        ab = lattice_coords(cfg.point_of(nm))
        facts[nm] = ab is not None and member(*ab)
    ok = all(facts.values()) and abs(det) == 5
    return ok, {"verified": sorted(nm for nm, held in facts.items() if held),
                "lattice_index": abs(det)}


def _build_theorem(granted: frozenset, options: Options):
    # all-blue line gadget: some point must be red
    line_cfg = Configuration([(f"p{i}", node(i, 0)) for i in range(5)])
    allblue = Stage("all-blue-line", line_cfg, RuleSet(),
                    {f"p{i}": "blue" for i in range(5)})

    # distance-5 witness pair: B and C both at distance 5 from A, |BC| = 1
    a_pt = point(0, 0)
    b_pt = node(5, 0)
    c_pt = point(Fraction(49, 10), fe(0, 0, Fraction(3, 10)))
    pair_cfg = Configuration([("B", b_pt), ("C", c_pt)])
    pair = Stage("witness-pair", pair_cfg, RuleSet(base=("RED_L2_FORBIDDEN",)),
                 {"B": "red", "C": "red"})

    radius = 12
    patch_cfg = Configuration(
        (f"n({a},{b})", node(a, b)) for a, b in hex_indices(radius))
    patch_a = Stage("pattern-a-patch", patch_cfg, RuleSet(), {})
    patch_b = Stage("pattern-b-patch", patch_cfg, RuleSet(), {})

    def mono5_problem() -> ColoringProblem:
        names = ["P", "Q"]
        return ColoringProblem(
            var_count=2,
            clauses=[(-1, 2), (1, -2), (1,), (-2,)],
            names=names, is_aux=[False, False],
            name_to_var={"P": 1, "Q": 2})

    obls: list[Obligation] = []
    obls.append(Obligation("red-point-exists", UNSAT,
                           "an entirely blue colouring is impossible: any five "
                           "collinear unit-spaced points would be a blue five-chain",
                           stage="all-blue-line"))
    obls.append(Obligation(
        "witness-pair-geometry", GEOM_IDENTITY,
        "B = (5,0) and C = (49/10, 3*sqrt11/10) are both at distance 5 from "
        "the origin and at distance 1 from each other, exactly",
        check=lambda: _dist2_check({"A": a_pt, "B": b_pt, "C": c_pt},
                                   {("A", "B"): 25, ("A", "C"): 25, ("B", "C"): 1})))
    obls.append(Obligation("pair-not-both-red", UNSAT,
                           "B and C cannot both be red: they are a unit pair",
                           stage="witness-pair"))
    obls.append(Obligation(
        "blue-point-on-lattice", GEOM_IDENTITY,
        "B lies on the unit lattice through the red point: B - A is the "
        "lattice vector (5,0) of squared length 25",
        check=lambda: _step_check(a_pt, b_pt, (5, 0), ("vector", "norm2"))))
    obls.append(Obligation(
        "norm25-vectors", GEOM_IDENTITY,
        "the lattice vectors of squared length 25 are exactly "
        "+-(5,0), +-(0,5), +-(5,-5)",
        check=lambda: (
            sorted(lattice_vectors_of_norm2(25)) ==
            sorted([(5, 0), (-5, 0), (0, 5), (0, -5), (5, -5), (-5, 5)]),
            {"vectors": sorted(lattice_vectors_of_norm2(25))})))
    obls.append(Obligation("pattern-a-valid", SAT_WITNESS,
                           "the first canonical colouring satisfies both base "
                           "rules on the radius-12 patch",
                           stage="pattern-a-patch", coloring=PATTERN_A))
    obls.append(Obligation("pattern-b-valid", SAT_WITNESS,
                           "the second canonical colouring satisfies both base "
                           "rules on the radius-12 patch",
                           stage="pattern-b-patch", coloring=PATTERN_B))
    obls.append(Obligation(
        "distance5-invariance", GEOM_IDENTITY,
        "both canonical colourings are invariant under every norm-25 lattice "
        "translation, so distance-5 lattice pairs are monochromatic",
        check=lambda: (distance5_invariance(PATTERN_A) and distance5_invariance(PATTERN_B),
                       {"patterns": ["A", "B"],
                        "vectors": sorted(lattice_vectors_of_norm2(25))})))
    obls.append(Obligation(
        "colour-split-impossible", UNSAT,
        "a red point and a blue point at lattice distance 5 contradict the "
        "monochromaticity of both canonical colourings",
        problem_fn=mono5_problem))
    stages = {"all-blue-line": allblue, "witness-pair": pair,
              "pattern-a-patch": patch_a, "pattern-b-patch": patch_b}
    return stages, obls, ()


_BUILDERS = {
    "bluetr": _build_bluetr,
    "redtr": _build_redtr,
    "t7": _build_t7,
    "t3t6": _build_t3t6,
    "col1": _build_col1,
    "col2": _build_col2,
    "theorem": _build_theorem,
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _certificate(problem: ColoringProblem, verdicts: dict[str, Verdict],
                 assumptions: dict[str, list[int]]) -> dict:
    cnf, varmap = export_dimacs(problem)
    cert: dict = {"cnf": cnf, "varmap": varmap}
    for tag, verdict in verdicts.items():
        entry: dict = {"kind": verdict.kind,
                       "assumptions": assumptions.get(tag, [])}
        if verdict.model is not None:
            entry["model"] = [1 if b else 0 for b in verdict.model]
        if verdict.trace is not None:
            entry["trace"] = [list(ev) for ev in verdict.trace]
        cert[tag] = entry
    return cert


def _run_obligation(ob: Obligation, stages: dict[str, Stage],
                    figures: Sequence[Figure], options: Options) -> ObligationResult:
    t0 = time.perf_counter()
    emit = options.emit_certificates
    kind = ob.kind
    status = "fail"
    detail: dict = {}
    certificate = None

    if ob.kind == GEOM_IDENTITY:
        ok, detail = ob.check()
        status = "pass" if ok else "fail"
    elif ob.kind == CLAIM:
        found = [(section, figure, claim) for figure in figures for section in _CLAIM_KINDS
                 for claim in figure.claims.get(section, ()) if claim.get("id") == ob.oid]
        if len(found) != 1:
            detail = {"claims_with_id": len(found)}
        else:
            section, figure, claim = found[0]
            kind = _CLAIM_KINDS[section]
            detail, failure = CLAIM_CHECKS[section](figure.cfg, claim)
            status = "fail" if failure else "pass"
    elif ob.kind == FORCED:
        stage = stages[ob.stage]
        problem = stage.problem(ob.exclude)
        res = forced_color(problem, ob.node, record_trace=emit)
        want = FORCED_RED if ob.color == "red" else FORCED_BLUE
        status = "pass" if res.status == want else "fail"
        detail = {"node": ob.node, "expected": want, "got": res.status,
                  "excluded": list(ob.exclude)}
        if status == "pass":
            stage.accumulated[ob.node] = ob.color
        if emit:
            var = problem.node_var_of(ob.node)
            certificate = _certificate(
                problem,
                {"refuted_side": res.when_blue if ob.color == "red" else res.when_red,
                 "asserted_side": res.when_red if ob.color == "red" else res.when_blue},
                {"refuted_side": [-var if ob.color == "red" else var],
                 "asserted_side": [var if ob.color == "red" else -var]})
    elif ob.kind == UNSAT:
        problem = (ob.problem_fn() if ob.problem_fn is not None
                   else stages[ob.stage].problem(ob.exclude))
        verdict = solve(problem, record_trace=emit)
        status = "pass" if verdict.kind == "unsat" else "fail"
        detail = {"verdict": verdict.kind, "clauses": len(problem.clauses)}
        if emit:
            certificate = _certificate(problem, {"unsat": verdict}, {})
    elif ob.kind == SAT_WITNESS:
        stage = stages[ob.stage]
        problem = stage.problem()
        assumptions = []
        for name, pt in zip(stage.cfg.names, stage.cfg.points):
            ab = lattice_coords(pt)
            if ab is None:
                raise ValueError(f"node {name} is not a lattice node")
            v = problem.name_to_var[name]
            assumptions.append(v if ob.coloring.is_red(*ab) else -v)
        verdict = solve(problem, assumptions=assumptions)
        status = "pass" if verdict.kind == "sat" else "fail"
        detail = {"verdict": verdict.kind, "nodes": len(assumptions)}
        if emit and verdict.model is not None:
            certificate = _certificate(problem, {"witness": verdict},
                                       {"witness": assumptions})
    else:
        raise ValueError(f"unknown obligation kind {ob.kind!r}")
    if emit and kind == GEOM_IDENTITY:
        certificate = {"identity": detail}

    return ObligationResult(ob.oid, kind, ob.statement, status, detail,
                            certificate, (time.perf_counter() - t0) * 1e3)


def run_script(script_id: str, options: Optional[Options] = None,
               granted: frozenset = frozenset()) -> Report:
    """Run one script (its dependencies must already be granted)."""
    options = options or Options()
    if script_id not in _BUILDERS:
        raise KeyError(f"unknown script {script_id!r}")
    missing = [dep for dep in DEPENDENCIES[script_id]
               if not set(GRANTS[dep]) <= granted]
    if missing:
        return Report(script=script_id, status="blocked",
                      reason=f"unverified dependencies: {', '.join(missing)}")

    t0 = time.perf_counter()
    stages, obligations, figures = _BUILDERS[script_id](granted, options)
    report = Report(script=script_id, status="passed")
    report.notes = [n for n in TRANSCRIPTION_NOTES if n["applies_to"] == script_id]

    if figures:
        problems = [p for figure in figures for p in self_check(figure)]
        report.obligations.append(ObligationResult(
            "transcription-self-check", GEOM_IDENTITY,
            "the shipped registry satisfies all of its named facts",
            "pass" if not problems else "fail", {"failures": problems}))
        if problems:
            report.status = "failed"

    for ob in obligations:
        result = _run_obligation(ob, stages, figures, options)
        report.obligations.append(result)
        if result.status != "pass":
            report.status = "failed"

    for sid, stage in stages.items():
        base = stage.base_problem()
        report.stages[sid] = {"nodes": len(stage.cfg), "variables": base.var_count,
                              "clauses": len(base.clauses)}

    if options.stretch and script_id in ("col1", "col2"):
        report.stretch = uniqueness_enumeration(script_id, options, granted)

    report.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return report


@dataclass
class RunResult:
    reports: dict[str, Report]
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.reports.values())

    @property
    def obligation_count(self) -> int:
        return sum(len(r.obligations) for r in self.reports.values())

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "obligations": self.obligation_count,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "reports": {sid: r.to_json() for sid, r in self.reports.items()},
        }


def verify_all(options: Optional[Options] = None,
               disable: frozenset = frozenset(),
               only: Optional[Sequence[str]] = None) -> RunResult:
    """Run scripts one after another in dependency order, propagating
    grants and blocks.  `only` selects scripts; their dependencies run too."""
    options = options or Options()
    t0 = time.perf_counter()
    wanted = set(SCRIPT_ORDER if only is None else only)
    unknown = wanted - set(SCRIPT_ORDER)
    if unknown:
        raise KeyError(f"unknown script {sorted(unknown)[0]!r}")
    # dependencies precede their dependents, so one backward pass closes the set
    for sid in reversed(SCRIPT_ORDER):
        if sid in wanted:
            wanted.update(DEPENDENCIES[sid])
    granted: set[str] = set()
    reports: dict[str, Report] = {}
    for sid in SCRIPT_ORDER:
        if sid not in wanted:
            continue
        if sid in disable:
            reports[sid] = Report(script=sid, status="blocked",
                                  reason="disabled for this run")
        elif not all(reports[dep].passed for dep in DEPENDENCIES[sid]):
            reports[sid] = Report(script=sid, status="blocked",
                                  reason="a dependency did not pass")
        else:
            reports[sid] = run_script(sid, options, frozenset(granted))
            if reports[sid].passed:
                granted.update(GRANTS[sid])
    return RunResult(reports, (time.perf_counter() - t0) * 1e3)


# ---------------------------------------------------------------------------
# uniqueness enumeration (stretch mode)
# ---------------------------------------------------------------------------


def uniqueness_enumeration(script_id: str, options: Options,
                           granted: frozenset) -> dict:
    """Enumerate patch colourings projected onto the central cells and compare
    each against the canonical pattern up to the 12 lattice symmetries."""
    sub = Options(patch_radius=options.stretch_radius)
    stages, _, _ = _BUILDERS[script_id](granted, sub)
    stage = stages["patch"]
    _, anchor, pattern = _PATCHES[script_id]
    problem = stage.problem()

    central = []
    for da, db in hex_indices(CENTER_RADIUS):
        pt = node(anchor[0] + da, anchor[1] + db)
        name = stage.cfg.name_at(pt)
        central.append((problem.name_to_var[name], (da, db)))
    # enumerate_models reports projections in ascending variable order
    central.sort()
    proj_vars = [v for v, _ in central]

    allowed = set()
    for sym in lattice_symmetries():
        image = []
        for _, (da, db) in central:
            sa, sb = sym(da, db)
            image.append(pattern.is_red(anchor[0] + sa, anchor[1] + sb))
        allowed.add(tuple(image))

    models, exhausted = enumerate_models(problem, cap=MODEL_CAP, project=proj_vars)
    mismatches = [list(m) for m in models if tuple(m) not in allowed]
    return {
        "patch_radius": options.stretch_radius,
        "center_radius": CENTER_RADIUS,
        "model_cap": MODEL_CAP,
        "central_restrictions": len(models),
        "exhausted": exhausted,
        "all_match_canonical": not mismatches,
        "mismatches": mismatches[:5],
    }


# ---------------------------------------------------------------------------
# certificate bundles
# ---------------------------------------------------------------------------


def write_certificates(run: RunResult, outdir) -> dict:
    """Write one JSON file per certified obligation plus a manifest."""
    import pathlib

    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    for sid, report in run.reports.items():
        for res in report.obligations:
            if res.certificate is None:
                continue
            payload = {
                "script": sid,
                "obligation": res.oid,
                "kind": res.kind,
                "statement": res.statement,
                "status": res.status,
                "certificate": res.certificate,
            }
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            safe = res.oid.replace("'", "p")
            fname = f"{sid}__{safe}.json"
            (out / fname).write_text(text)
            files[fname] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {
        "dag": {sid: list(deps) for sid, deps in DEPENDENCIES.items()},
        "scripts": {sid: r.status for sid, r in run.reports.items()},
        "transcription_notes": list(TRANSCRIPTION_NOTES),
        "files": files,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (out / "manifest.json").write_text(text)
    return manifest


def replay_certificate(payload: dict) -> bool:
    """Re-check one written certificate with the independent replayer."""
    from .solver import (check_trace_assumptions, parse_dimacs, replay_model,
                         replay_unsat_trace)

    cert = payload["certificate"]
    if "cnf" not in cert:
        return True  # geometric identity: restated values, nothing to replay
    problem = parse_dimacs(cert["cnf"], cert["varmap"])
    for tag, entry in cert.items():
        if tag in ("cnf", "varmap"):
            continue
        assumptions = entry.get("assumptions", [])
        if entry["kind"] == "unsat":
            check_trace_assumptions(entry["trace"], assumptions)
            replay_unsat_trace(problem.clauses, entry["trace"])
        else:
            model = [bool(b) for b in entry["model"]]
            replay_model(problem.clauses, model, assumptions)
    return True
