"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's anchor-pair matcher and direction
walker: chains are found by exhaustive subset growth, embeddings by
distance-preserving bijection search.  Both enumerations are exact and
complete (pruning only discards subsets whose partial distance multiset
already fails, which can never exclude a true hit).

`reference_clauses` is `emit_clauses` as first written: a clause from
every embedding `match_template` lists, each repeat then dropped.

`ReferenceEngine` and `reference_search` are the solver's DPLL engine as
first written, kept as the reference that the solver's traces, models
and verdicts must match exactly.  `reference_absorb` is
`_Engine.absorb` as first written, filtering each literal of a new
clause on its own.  `reference_stage_problem` builds a
stage's problem from scratch at each call, as `Stage.problem` did before
it kept one problem per exclude set.
"""

from collections import Counter
from dataclasses import replace
from typing import Iterator, Optional, Sequence

from bluefive.configuration import (BLUE_L5_FORBIDDEN, RED_L2_FORBIDDEN, ell_chains,
                                    match_template, template, template_extensions)
from bluefive.field import ONE, FieldElement
from bluefive.geometry import collinear, dist2
from bluefive.solver import AUX_PREFIX, ColoringProblem, check_model


def _pair_key(p, q):
    return tuple(dist2(p, q).serialize())


def chain_sets_brute(cfg, k):
    """Frozensets of node names forming a k-run of unit-spaced collinear points."""
    n = len(cfg)
    pts = cfg.points
    allowed = {tuple(FieldElement(d * d).serialize()) for d in range(1, k)}
    hits = set()

    def extend(chosen, start):
        if len(chosen) == k:
            if _is_chain([pts[i] for i in chosen]):
                hits.add(frozenset(cfg.names[i] for i in chosen))
            return
        for j in range(start, n):
            if all(_pair_key(pts[j], pts[i]) in allowed for i in chosen):
                extend(chosen + [j], j + 1)

    extend([], 0)
    return hits


def _is_chain(points):
    k = len(points)
    for i in range(2, k):
        if not collinear(points[0], points[1], points[i]):
            return False
    pts = sorted(points, key=lambda p: p.coord_key())
    step = pts[1] - pts[0]
    if dist2(pts[0], pts[1]) != FieldElement(1):
        return False
    for i in range(1, k - 1):
        if pts[i + 1] - pts[i] != step:
            return False
    return True


def embeddings_brute(cfg, tpl):
    """All ordered embeddings of the template, by bijection backtracking."""
    m = len(tpl.points)
    n = len(cfg)
    tpl_multiset = Counter()
    for i in range(m):
        for j in range(i + 1, m):
            tpl_multiset[_pair_key(tpl.points[i], tpl.points[j])] += 1
    hits = []

    def subsets(chosen, start, multiset):
        if len(chosen) == m:
            if multiset == tpl_multiset:
                _assign(chosen)
            return
        for j in range(start, n):
            extra = Counter()
            ok = True
            for i in chosen:
                key = _pair_key(cfg.points[j], cfg.points[i])
                extra[key] += 1
                if multiset[key] + extra[key] > tpl_multiset[key]:
                    ok = False
                    break
            if ok:
                subsets(chosen + [j], j + 1, multiset + extra)

    def _assign(subset):
        # try every distance-preserving bijection template -> subset
        def rec(mapping, used):
            t = len(mapping)
            if t == m:
                hits.append(tuple(cfg.names[i] for i in mapping))
                return
            for j in subset:
                if j in used:
                    continue
                if all(_pair_key(tpl.points[t], tpl.points[s])
                       == _pair_key(cfg.points[j], cfg.points[mapping[s]])
                       for s in range(t)):
                    rec(mapping + [j], used | {j})

        rec([], set())

    subsets([], 0, Counter())
    return set(hits)


# ---------------------------------------------------------------------------
# Reference clause emission
# ---------------------------------------------------------------------------


def reference_clauses(cfg, rules, fixed) -> ColoringProblem:
    """The problem emit_clauses builds, from every chain ell_chains lists
    and every embedding match_template lists, mapped through node names;
    a clause whose literal set was already emitted is dropped."""
    names = list(cfg.names)
    clauses, seen = [], set()

    def add(clause):
        if frozenset(clause) not in seen:
            seen.add(frozenset(clause))
            clauses.append(tuple(clause))

    index = cfg.index
    if RED_L2_FORBIDDEN in rules.base:
        for i, j in cfg.pairs_with_dist2(ONE):
            add((-(i + 1), -(j + 1)))
    if BLUE_L5_FORBIDDEN in rules.base:
        for chain in ell_chains(cfg, 5):
            add(tuple(index[nm] + 1 for nm in chain))
    for rule in rules.derived:
        signs = [-1 if role == "red" else 1 for role in rule.roles]
        for emb in match_template(cfg, template(rule.template_id)):
            add(tuple(sign * (index[nm] + 1) for sign, nm in zip(signs, emb)))
    if rules.existential is not None:
        for anchor in (tuple(cfg.primary(nm) for nm in a) for a in rules.existential.anchors):
            tag = ",".join(anchor)
            allred = len(names) + 1
            names.append(f"{AUX_PREFIX}allred:{tag}")
            add((allred, *(-(index[nm] + 1) for nm in anchor)))
            sel_vars = []
            cands = template_extensions("T3", "T6", [cfg.point_of(nm) for nm in anchor])
            for ci, cand in enumerate(cands):
                sel_vars.append(len(names) + 1)
                names.append(f"{AUX_PREFIX}sel:{tag}:{ci}")
                for p in cand:
                    if p in cfg.point_index:
                        add((-sel_vars[-1], cfg.point_index[p] + 1))
            add((-allred, *sel_vars))
    pinned = {cfg.index_of(nm): colour for nm, colour in fixed.items()}
    for idx in sorted(pinned):
        add((idx + 1,) if pinned[idx] == "red" else (-(idx + 1),))
    name_to_var = ({nm: i + 1 for i, nm in enumerate(names)}
                   | {nm: i + 1 for nm, i in cfg.index.items()})
    return ColoringProblem(clauses=clauses, names=names, name_to_var=name_to_var)


# ---------------------------------------------------------------------------
# Reference DPLL engine
# ---------------------------------------------------------------------------

# reason codes for trail entries
_R_DECISION = -1
_R_FLIP = -2


class ReferenceEngine:
    """The solver's DPLL engine in its first, plainly written form.

    Values are indexed by variable and watch lists by `_widx`; every
    literal read goes through `_value`.  `bluefive.solver._Engine` must
    make the same decisions, implications, clause-literal swaps and
    trace events.
    """

    def __init__(self, problem, assumptions: Sequence[int],
                 trace: Optional[list[tuple]]) -> None:
        nv = problem.var_count
        self.nv = nv
        self.assign = [0] * (nv + 1)  # 0 unassigned, 1 true, -1 false
        self.trail: list[int] = []
        self.lim: list[int] = []          # trail position of each decision
        self.flipped: list[bool] = []
        self.proj: list[bool] = []        # was the decision on a projected var
        self.qhead = 0
        self.trace = trace
        self.clauses = [list(c) for c in problem.clauses]
        self.watch: list[list[int]] = [[] for _ in range(2 * nv + 2)]
        self.failed = None  # set to a conflict marker if setup is contradictory

        units: list[tuple[int, int]] = []
        for cid, clause in enumerate(self.clauses):
            if not clause:
                self.failed = ("conflict", cid)
                if self.trace is not None:
                    self.trace.append(("conflict", cid))
                return
            if len(clause) == 1:
                units.append((clause[0], cid))
            else:
                self.watch[_widx(clause[0])].append(cid)
                self.watch[_widx(clause[1])].append(cid)
        for lit, cid in units:
            if not self._enqueue(lit, cid):
                self.failed = ("conflict", cid)
                return
        # assumption i is the unit clause of id C + i after the C clauses
        for cid, lit in enumerate(assumptions, len(self.clauses)):
            if not self._enqueue(lit, cid):
                self.failed = ("conflict", cid)
                return

    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = abs(lit)
        val = 1 if lit > 0 else -1
        cur = self.assign[var]
        if cur != 0:
            if cur == val:
                return True
            if self.trace is not None and reason >= 0:
                self.trace.append(("conflict", reason))
            return False
        self.assign[var] = val
        self.trail.append(lit)
        if self.trace is not None:
            if reason >= 0:
                self.trace.append(("imply", lit, reason))
            elif reason == _R_DECISION:
                self.trace.append(("decide", lit))
            elif reason == _R_FLIP:
                self.trace.append(("flip", lit))
        return True

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def propagate(self) -> Optional[int]:
        """Run unit propagation; return a conflicting clause id or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            neg = -lit
            wl = self.watch[_widx(neg)]
            i = 0
            while i < len(wl):
                cid = wl[i]
                clause = self.clauses[cid]
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watch[_widx(clause[1])].append(cid)
                        wl[i] = wl[-1]
                        wl.pop()
                        moved = True
                        break
                if moved:
                    continue
                # clause is unit or conflicting under the current trail
                if self._value(first) == -1:
                    if self.trace is not None:
                        self.trace.append(("conflict", cid))
                    return cid
                if not self._enqueue(first, cid):
                    return cid
                i += 1
        return None

    def decide(self, var: int, projected: bool) -> None:
        self.lim.append(len(self.trail))
        self.flipped.append(False)
        self.proj.append(projected)
        self._enqueue(var, _R_DECISION)  # red (true) branch first

    def backtrack(self, after_model: bool) -> bool:
        """Chronological backtrack; flip the relevant deepest decision.

        After a conflict any decision may flip; after a model only a
        projected decision may (deeper branches would repeat the same
        projection).  Returns False when the tree is exhausted.
        """
        while self.lim:
            dpos = self.lim[-1]
            dlit = self.trail[dpos]
            for lit_ in reversed(self.trail[dpos:]):
                self.assign[abs(lit_)] = 0
            del self.trail[dpos:]
            self.qhead = dpos
            flippable = not self.flipped[-1] and (self.proj[-1] or not after_model)
            if flippable:
                self.flipped[-1] = True
                self._enqueue(-dlit, _R_FLIP)
                return True
            self.lim.pop()
            self.flipped.pop()
            self.proj.pop()
        return False

    def next_var(self, order: Sequence[int]) -> Optional[int]:
        for v in order:
            if self.assign[v] == 0:
                return v
        return None

    def model(self) -> tuple[bool, ...]:
        return tuple(self.assign[v] == 1 for v in range(1, self.nv + 1))


def _widx(lit: int) -> int:
    return 2 * lit if lit > 0 else -2 * lit + 1


def reference_search(problem, assumptions: Sequence[int],
                     proj_vars: Sequence[int],
                     trace: Optional[list[tuple]]) -> Iterator[tuple[bool, ...]]:
    """Yield full models in search-tree order, deciding `proj_vars` first.

    After a model only a projected decision flips, as a blocking clause
    over `proj_vars` would.  Events go to `trace` when it is a list.
    """
    eng = ReferenceEngine(problem, assumptions, trace)
    if eng.failed is not None:
        return
    proj_set = set(proj_vars)
    rest = [v for v in range(1, problem.var_count + 1) if v not in proj_set]
    while True:
        if eng.propagate() is not None:
            if not eng.backtrack(after_model=False):
                return
            continue
        var = eng.next_var(proj_vars)
        projected = var is not None
        if var is None:
            var = eng.next_var(rest)
        if var is None:
            model = eng.model()
            if not check_model(problem.clauses, model, assumptions):
                raise AssertionError("solver produced an invalid model")
            yield model
            if not eng.backtrack(after_model=True):
                return
            continue
        eng.decide(var, projected=projected)


def reference_absorb(eng, clauses: Sequence[Sequence[int]],
                     seen: Optional[Counter] = None) -> bool:
    """`bluefive.solver._Engine.absorb` as first written: drop each new
    clause's literals false at level 0, skip the clause if a kept one is
    true, and store, assign or fail on what is left.  `seen` counts the
    clauses skipped ("satisfied"), filtered ("false literal") and taken
    whole ("whole")."""
    val = eng.val
    for clause in clauses[eng.absorbed:]:
        lits = [lit for lit in clause if val[lit] != -1]
        if any(val[lit] == 1 for lit in lits):
            if seen is not None:
                seen["satisfied"] += 1
            continue
        if seen is not None:
            seen["false literal" if len(lits) < len(clause) else "whole"] += 1
        if len(lits) > 1:
            eng._attach(lits)
        elif lits:
            eng._assign(lits[0])
        else:
            eng.unsat = True
    eng.absorbed = len(clauses)
    if not eng.unsat and eng.propagate() is not None:
        eng.unsat = True
    return not eng.unsat


# ---------------------------------------------------------------------------
# Reference stage problems
# ---------------------------------------------------------------------------


def reference_stage_problem(stage, exclude: Sequence[str] = ()) -> ColoringProblem:
    """The stage's base problem restricted to the nodes outside `exclude`,
    plus its accumulated forced colours, each unit clause once, built anew."""
    base = stage.base_problem()
    if not exclude and not stage.accumulated:
        return base
    cut = {base.name_to_var[stage.cfg.primary(n)] for n in exclude}
    clauses = ([c for c in base.clauses if not any(abs(l) in cut for l in c)]
               if cut else list(base.clauses))
    units = {c for c in clauses if len(c) == 1}
    for name, colour in stage.accumulated.items():
        v = base.name_to_var[stage.cfg.primary(name)]
        if v in cut:
            continue
        lit = v if colour == "red" else -v
        if (lit,) not in units:
            units.add((lit,))
            clauses.append((lit,))
    return replace(base, clauses=clauses)
