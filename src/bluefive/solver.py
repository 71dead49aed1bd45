"""Two-colouring constraint solver: DPLL with watched literals, and
clause learning when no trace is recorded.

Every search decides variables in a fixed order (ascending index unless
the caller gives one), tries the red (true) branch first, never restarts
and uses no randomness.  A search that records a trace builds a fresh
engine on a copy of the watch lists that the problem indexes once per
clause, copies a clause only when propagation first reorders it, and
backtracks chronologically.  The trace lists every decision, propagation,
flip and conflict; an assumption is one more unit clause after the
problem's, so setting it is a propagation.  An independent replayer
re-checks traces and models without touching the search code.  The
solver sees clauses only: whether a stage may use the rules behind them
is checked before they are emitted, by `lemmata.build_stages`.

A search that records no trace runs on the problem's one learning engine
(MiniSat's incremental scheme, Een & Sorensson 2003), built by the first
such query and kept for the problem's life.  Each query jumps it back to
decision level 0, takes in the clauses added since the last query,
decides the assumptions first, one decision level each, and then learns
a clause at each conflict by 1-UIP analysis (GRASP, Marques-Silva &
Sakallah 1999), jumping back to the clause's second-highest level.
Because assumptions are decisions, not level-0 facts, a learned clause
follows from the clauses alone, and it is kept for every later query.
Both searches find the same model: every implied value, learned or not,
follows from the clauses, the assumptions and the decisions on earlier
variables, so the first model found is the lexicographically first one
over the decision order.

Each kind of search keeps the model of its last query in ascending
order that found one, with that query's assumptions and the number of
clauses the model was checked against: untraced searches on the kept
engine, traced ones on the problem's clause index.  A later query of the
same kind returns it without deciding anything when every kept
assumption is assumed again or a fact, and the model satisfies the
clauses added since and the query's assumptions (`_reuse_kept`).  A fact
is a literal true at level 0 after the new clauses are taken in for the
engine, and a unit clause of the problem for the index.  Facts follow
from the clauses, so the query's models are then a subset of the models
the kept one was first among, and it holds in the subset: it is first
there too.  `clauses` only grows, as `absorb` relies on, so only the
clauses added since need checking.  A reused traced model comes with an
empty trace; a model must satisfy every clause and assumption, so an
unsat verdict is never answered this way and its trace is always
searched in full.  The two kept models never read each other, so
`oracle`'s cross-check of learned against traced searches stays
independent of both.

`parse_dimacs` reads only the DIMACS form `export_dimacs` writes: the
line ``p cnf V C`` and C lines of single-space-separated literals ending
in `` 0``, each line ending in a newline; anything else, comment lines
included, is a ValueError.  A certificate replay
(`lemmata.replay_certificate`) first checks that the certificate has the
shape of a proof of the claim it is filed under, then reads its CNF here
and replays its traces and models with `replay_unsat_trace` and
`replay_model`, each against the CNF's clauses followed by one unit
clause per assumption of the entry.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import not_
from typing import Iterable, Optional, Sequence

FORCED_RED = "ForcedRed"
FORCED_BLUE = "ForcedBlue"
FREE = "Free"
INCONSISTENT = "Inconsistent"

BRUTE_FORCE_MAX_FREE = 25

AUX_PREFIX = "aux:"  # names of auxiliary variables, which are not nodes


class CertificateError(Exception):
    """A trace or model failed independent replay."""


@dataclass
class ColoringProblem:
    """CNF over one boolean per node (true = red) plus optional auxiliaries.

    Variable v is named `names[v - 1]`; an auxiliary's name starts with
    AUX_PREFIX.  `clauses` only grows, through `add_clause`: the learning
    engine that untraced searches keep, and the index that export and
    traced searches read, each take in a clause once.
    """

    clauses: list[tuple[int, ...]]
    names: list[str]
    name_to_var: dict[str, int]
    _engine: Optional[_Engine] = field(default=None, init=False, repr=False, compare=False)
    _index: Optional[_ClauseIndex] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check_literals(self.clauses)

    @property
    def var_count(self) -> int:
        return len(self.names)

    def _check_literals(self, clauses: Sequence[Sequence[int]]) -> None:
        nv = self.var_count
        lits = set(chain.from_iterable(clauses))
        if lits and (0 in lits or min(lits) < -nv or max(lits) > nv):
            bad = next(lit for lit in chain.from_iterable(clauses)
                       if lit == 0 or abs(lit) > nv)
            raise ValueError(f"literal {bad} references an undeclared variable")

    def add_clause(self, clause: Sequence[int]) -> None:
        """Append one clause; ValueError on a literal of no declared variable."""
        clause = tuple(clause)
        self._check_literals((clause,))
        self.clauses.append(clause)

    def _indexed(self) -> _ClauseIndex:
        """The problem's index, extended by the clauses added since the last call."""
        if self._index is None:
            self._index = _ClauseIndex(self.names)
        self._index.extend(self.clauses)
        return self._index

    def node_var_of(self, name: str) -> int:
        try:
            var = self.name_to_var[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None
        if name.startswith(AUX_PREFIX):
            raise ValueError(f"{name!r} is an auxiliary variable, not a node")
        return var


class _ClauseIndex:
    """What export and a traced search read of a clause list that only
    grows, built once per clause: its DIMACS lines, the variable map
    text, the watch lists of every clause of 2+ literals (on its first
    two), the unit clauses with their ids and the id of the first empty
    clause, all in clause order; and the traced searches' kept model.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self.count = 0  # clauses indexed so far
        self.lines: list[str] = []
        self.varmap = "\n".join(f"{v} {name}" for v, name in enumerate(names, 1)) + "\n"
        self.watch: list[list[int]] = [[] for _ in range(2 * len(names) + 1)]
        self.units: list[tuple[int, int]] = []
        self.empty: Optional[int] = None
        # as `_Engine.kept`, for traced searches
        self.kept: Optional[tuple[tuple[bool, ...], tuple[int, ...], int]] = None

    def extend(self, clauses: Sequence[Sequence[int]]) -> None:
        watch = self.watch
        for cid in range(self.count, len(clauses)):
            lits = clauses[cid]
            self.lines.append(" ".join(map(str, lits)) + " 0\n")
            if len(lits) > 1:
                watch[lits[0]].append(cid)
                watch[lits[1]].append(cid)
            elif lits:
                self.units.append((lits[0], cid))
            elif self.empty is None:
                self.empty = cid
        self.count = len(clauses)

    def kept_first(self, clauses: Sequence[Sequence[int]],
                   assumptions: Sequence[int]) -> Optional[tuple[bool, ...]]:
        """`_reuse_kept` with the unit clauses of `clauses`, all indexed,
        as its facts."""
        units = self.units
        return _reuse_kept(self, lambda lit: any(u == lit for u, _ in units),
                           clauses, assumptions)


def _reuse_kept(holder, is_fact, clauses: Sequence[Sequence[int]],
                assumptions: Sequence[int]) -> Optional[tuple[bool, ...]]:
    """The model of `holder.kept` when it is also the first model of
    `clauses` and `assumptions` in ascending order, else None.  It is
    when every kept assumption is assumed again or `is_fact`, a literal
    that follows from the clauses, and the model satisfies the clauses
    added since it was checked and the assumptions.  A model returned is
    kept with the new assumptions and clause count."""
    if holder.kept is None:
        return None
    model, held, checked = holder.kept
    for lit in held:
        if lit not in assumptions and not is_fact(lit):
            return None
    if not check_model(clauses[checked:], model, assumptions):
        return None
    holder.kept = (model, tuple(assumptions), len(clauses))
    return model


@dataclass
class Verdict:
    kind: str  # "sat" | "unsat"
    model: Optional[tuple[bool, ...]] = None
    trace: Optional[list[tuple]] = None

    @property
    def is_sat(self) -> bool:
        return self.kind == "sat"


class _Engine:
    """Search state over a clause set that only grows.

    Values and watch lists are indexed by literal: literal ``l`` lives at
    ``val[l]`` and ``-l`` at ``val[-l]`` (Python's negative indexing), and
    both entries are set together, so a literal's value is one list read.
    A value is 1 (true), -1 (false) or 0 (unassigned).  ``reason[l]`` and
    ``lvl[l]`` hold the clause that implied a true literal ``l`` and its
    decision level; they are read only while ``l`` is on the trail.
    Clause ids index the engine's own ``clauses``; only a traced search,
    set up by `load`, keeps them equal to the problem's.
    """

    def __init__(self, var_count: int, trace: Optional[list[tuple]] = None) -> None:
        self.nv = var_count
        self.val = [0] * (2 * var_count + 1)
        self.reason = [0] * (2 * var_count + 1)
        self.lvl = [0] * (2 * var_count + 1)
        self.trail: list[int] = []
        self.lim: list[int] = []          # trail position of each decision level
        self.qhead = 0
        self.trace = trace
        self.clauses: list[list[int]] = []
        self.shared: Sequence[Sequence[int]] = ()  # the problem's clauses, never written
        self.watch: list[list[int]] = [[] for _ in range(2 * var_count + 1)]
        self.absorbed = 0   # problem clauses taken in by `absorb`
        self.unsat = False  # a level-0 conflict: no query has a model
        # (model, assumptions, clauses checked): the model is the first
        # model of the problem's first `checked` clauses and the assumptions
        self.kept: Optional[tuple[tuple[bool, ...], tuple[int, ...], int]] = None

    def load(self, problem: ColoringProblem, assumptions: Sequence[int]) -> bool:
        """Set up a traced search on the problem's clauses (`propagate`
        copies one before reordering it) and a copy of its indexed watch
        lists: an empty clause conflicts at once; otherwise assign the unit
        clauses and then the assumptions at level 0, in order, recording
        each.  Assumption i is the unit clause of id C + i after the
        problem's C clauses.  False on a contradiction."""
        trace = self.trace
        index = problem._indexed()
        if index.empty is not None:
            trace.append(("conflict", index.empty))
            return False
        self.clauses = list(problem.clauses)
        self.shared = problem.clauses
        self.watch = list(map(list.copy, index.watch))
        val = self.val
        for lit, cid in chain(index.units, zip(assumptions, count(index.count))):
            cur = val[lit]
            if cur == -1:
                trace.append(("conflict", cid))
                return False
            if cur == 0:
                self._assign(lit)
                trace.append(("imply", lit, cid))
        return True

    def absorb(self, clauses: Sequence[Sequence[int]]) -> bool:
        """Take in, at level 0, the clauses appended since the last call.

        Literals false at level 0 stay false, so they are dropped, and a
        clause true at level 0 is skipped.  A unit left over is assigned
        at level 0; a longer clause is watched on its first two literals.
        Each literal's value is read once, and only a clause with a false
        literal is filtered.  Returns False, and marks the engine unsat for
        good, when a clause or the propagation that follows is falsified at
        level 0.
        """
        value = self.val.__getitem__
        for clause in clauses[self.absorbed:]:
            vals = list(map(value, clause))
            if 1 in vals:
                continue
            if -1 in vals:
                lits = [lit for lit, v in zip(clause, vals) if not v]
            else:
                lits = list(clause)
            if len(lits) > 1:
                self._attach(lits)
            elif lits:
                self._assign(lits[0])
            else:
                self.unsat = True
        self.absorbed = len(clauses)
        if not self.unsat and self.propagate() is not None:
            self.unsat = True
        return not self.unsat

    def kept_first(self, clauses: Sequence[Sequence[int]],
                   assumptions: Sequence[int]) -> Optional[tuple[bool, ...]]:
        """`_reuse_kept` with the literals true at level 0 as its facts;
        called at level 0 after `absorb`."""
        val = self.val
        return _reuse_kept(self, lambda lit: val[lit] == 1, clauses, assumptions)

    # ------------------------------------------------------------------

    def _attach(self, lits: list[int]) -> int:
        """Store a clause of 2+ literals, watched on its first two; return its id."""
        cid = len(self.clauses)
        self.clauses.append(lits)
        self.watch[lits[0]].append(cid)
        self.watch[lits[1]].append(cid)
        return cid

    def _assign(self, lit: int) -> None:
        self.val[lit] = 1
        self.val[-lit] = -1
        self.lvl[lit] = len(self.lim)
        self.trail.append(lit)

    def propagate(self) -> Optional[int]:
        """Run unit propagation; return a conflicting clause id or None.

        Each clause keeps its two watched literals in positions 0 and 1.
        When a watch turns false it moves to position 1, and is replaced
        by the first later literal that is not false; a clause that is
        still the problem's own object (`shared`) is copied first.
        """
        val = self.val
        watch = self.watch
        clauses = self.clauses
        shared, n_shared = self.shared, len(self.shared)
        trail = self.trail
        trace = self.trace
        reason = self.reason
        lvl = self.lvl
        level = len(self.lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            wl = watch[neg]
            i = 0
            while i < len(wl):
                cid = wl[i]
                clause = clauses[cid]
                first = clause[0]
                if first == neg:
                    if cid < n_shared and clause is shared[cid]:
                        clause = clauses[cid] = list(clause)
                    first = clause[0] = clause[1]
                    clause[1] = neg
                if val[first] == 1:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if val[lit] != -1:
                        if cid < n_shared and clause is shared[cid]:
                            clause = clauses[cid] = list(clause)
                        clause[k] = clause[1]
                        clause[1] = lit
                        watch[lit].append(cid)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    # clause is unit or conflicting under the current trail
                    if val[first] == -1:
                        self.qhead = qhead
                        if trace is not None:
                            trace.append(("conflict", cid))
                        return cid
                    val[first] = 1
                    val[-first] = -1
                    trail.append(first)
                    reason[first] = cid
                    lvl[first] = level
                    if trace is not None:
                        trace.append(("imply", first, cid))
                    i += 1
        self.qhead = qhead
        return None

    def decide(self, lit: int) -> None:
        """Open a decision level that assigns `lit`; the level stays empty
        when `lit` is already true."""
        self.lim.append(len(self.trail))
        if self.val[lit] == 0:
            self._assign(lit)
            if self.trace is not None:
                self.trace.append(("decide", lit))

    def cancel(self, level: int) -> None:
        """Undo every assignment above decision level `level`."""
        if len(self.lim) > level:
            val = self.val
            dpos = self.lim[level]
            for lit in self.trail[dpos:]:
                val[lit] = val[-lit] = 0
            del self.trail[dpos:]
            del self.lim[level:]
            self.qhead = dpos

    def backtrack(self) -> bool:
        """Chronological backtrack: flip the deepest unflipped decision.

        Only the traced search backtracks, and it decides positive
        literals only, so a level is flipped exactly when its decision
        literal is negative.  Returns False when the tree is exhausted.
        """
        while self.lim:
            dlit = self.trail[self.lim[-1]]
            self.cancel(len(self.lim) - 1)
            if dlit > 0:
                self.lim.append(len(self.trail))
                self._assign(-dlit)
                if self.trace is not None:
                    self.trace.append(("flip", -dlit))
                return True
        return False

    def learn(self, conflict: int) -> bool:
        """1-UIP conflict analysis with a non-chronological backjump.

        Resolves the conflict clause with the reasons of its current-level
        literals, newest on the trail first, until one current-level
        literal is left: the first unique implication point.  Level-0
        literals hold for the engine's life and are dropped.  The learned
        clause follows from the clauses and the level-0 assignments, and
        it is kept; the engine jumps back to the clause's second-highest
        level and asserts the negated implication point there.  Returns
        False, and marks the engine unsat for good, when the conflict is
        at level 0.
        """
        level = len(self.lim)
        if level == 0:
            self.unsat = True
            return False
        trail = self.trail
        lvl = self.lvl
        reason = self.reason
        clauses = self.clauses
        seen: set[int] = set()  # true literals already resolved or kept
        learnt = [0]  # position 0 becomes the asserting literal
        pending = 0   # current-level literals not yet resolved away
        idx = len(trail)
        clause = clauses[conflict]
        p = 0
        while True:
            for q in clause:
                t = -q
                if q != p and t not in seen and lvl[t] > 0:
                    seen.add(t)
                    if lvl[t] == level:
                        pending += 1
                    else:
                        learnt.append(q)
            idx -= 1
            while trail[idx] not in seen:
                idx -= 1
            p = trail[idx]
            pending -= 1
            if pending == 0:
                break
            clause = clauses[reason[p]]
        learnt[0] = -p

        back = 0
        if len(learnt) > 1:
            # watch a literal of the highest remaining level beside the asserting one
            top = max(range(1, len(learnt)), key=lambda i: lvl[-learnt[i]])
            learnt[1], learnt[top] = learnt[top], learnt[1]
            back = lvl[-learnt[1]]
        self.cancel(back)
        self._assign(-p)
        if len(learnt) > 1:
            reason[-p] = self._attach(learnt)
        return True

    def next_var(self, order: Sequence[int]) -> Optional[int]:
        val = self.val
        for v in order:
            if val[v] == 0:
                return v
        return None

    def model(self) -> tuple[bool, ...]:
        return tuple([x == 1 for x in self.val[1:self.nv + 1]])


def check_model(clauses: Iterable[Sequence[int]], model: Sequence[bool],
                assumptions: Sequence[int] = ()) -> bool:
    """Independent model evaluator used before any Sat verdict is returned:
    every assumption is true and every clause holds a true literal.  A
    variable past the end of `model` is unassigned: neither of its
    literals is true."""
    n = len(model)
    true = set(compress(range(1, n + 1), model))
    true.update(compress(range(-1, -n - 1, -1), map(not_, model)))
    return true.issuperset(assumptions) and not any(map(true.isdisjoint, clauses))


def _first_model(problem: ColoringProblem, assumptions: Sequence[int],
                 order: Optional[Sequence[int]],
                 trace: Optional[list[tuple]]) -> Optional[tuple[bool, ...]]:
    """The first model in search-tree order, deciding variables in `order`
    (ascending when None), or None when there is none.  Events go to
    `trace` when it is a list.

    A traced search runs on a fresh engine and backtracks chronologically.
    An untraced one runs on the problem's kept engine, decides the
    assumptions first and learns a clause at each conflict.  Every
    implied value holds in all models that extend the assumptions and the
    decisions before it, so either way the first model is the
    lexicographically first one over `order`, with true before false.
    A query in ascending order returns the kept model of its kind (the
    engine's or, traced, the index's) when it is still first, with no
    trace events, and keeps the model it finds.
    """
    nv = problem.var_count
    for lit in assumptions:
        if lit == 0 or not -nv <= lit <= nv:  # val[lit] would alias another literal
            raise ValueError(f"assumption {lit} references an undeclared variable")
    keep = order is None
    if order is None:
        order = range(1, nv + 1)
    if trace is not None:
        holder = problem._indexed()
        if keep:
            model = holder.kept_first(problem.clauses, assumptions)
            if model is not None:
                return model
        eng = _Engine(nv, trace)
        if not eng.load(problem, assumptions):
            return None
        first = ()  # the assumptions hold at level 0
    else:
        eng = problem._engine
        if eng is None:
            eng = problem._engine = _Engine(nv)
        eng.cancel(0)
        if not eng.absorb(problem.clauses):
            return None
        holder = eng
        if keep:
            model = eng.kept_first(problem.clauses, assumptions)
            if model is not None:
                return model
        first = assumptions  # assumption i is decided at level i + 1
    while True:
        conflict = eng.propagate()
        if conflict is not None:
            if not (eng.backtrack() if trace is not None else eng.learn(conflict)):
                return None
            continue
        level = len(eng.lim)
        if level < len(first):
            if eng.val[first[level]] == -1:
                return None
            eng.decide(first[level])
            continue
        var = eng.next_var(order)
        if var is None:
            model = eng.model()
            if not check_model(problem.clauses, model, assumptions):
                raise AssertionError("solver produced an invalid model")
            if keep:
                holder.kept = (model, tuple(assumptions), len(problem.clauses))
            return model
        eng.decide(var)  # red (true) branch first


def solve(problem: ColoringProblem, assumptions: Sequence[int] = (),
          record_trace: bool = False) -> Verdict:
    """Decide the problem; deterministic given the clause set and assumptions."""
    trace: Optional[list[tuple]] = [] if record_trace else None
    model = _first_model(problem, assumptions, None, trace)
    return Verdict("unsat" if model is None else "sat", model=model, trace=trace)


@dataclass
class ForcedResult:
    status: str
    when_blue: Verdict  # verdict with the node assumed blue
    when_red: Verdict   # verdict with the node assumed red


def forced_color(problem: ColoringProblem, node: str,
                 record_trace: bool = False) -> ForcedResult:
    """Classify a node: a colour is forced iff assuming its negation is unsat."""
    var = problem.node_var_of(node)
    when_blue = solve(problem, assumptions=[-var], record_trace=record_trace)
    when_red = solve(problem, assumptions=[var], record_trace=record_trace)
    if when_blue.is_sat and when_red.is_sat:
        status = FREE
    elif when_blue.is_sat:
        status = FORCED_BLUE
    elif when_red.is_sat:
        status = FORCED_RED
    else:
        status = INCONSISTENT
    return ForcedResult(status, when_blue, when_red)


def enumerate_models(problem: ColoringProblem, cap: int,
                     project: Optional[Sequence[int]] = None,
                     ) -> tuple[list[tuple[bool, ...]], bool]:
    """Enumerate distinct models (optionally projected onto `project` vars).

    Each search decides the projected variables first and finds the
    lexicographically first model; a blocking clause over the projected
    variables then rules out its projection, and the search restarts.  So
    projections come in lexicographic order (true first) over the
    variables in ascending order.  Returns (models, exhausted).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if project is None:
        proj_vars = list(range(1, problem.var_count + 1))
    else:
        proj_vars = sorted(set(project))
        for v in proj_vars:
            if not (1 <= v <= problem.var_count):
                raise ValueError(f"projection variable {v} out of range")
    proj_set = set(proj_vars)
    order = proj_vars + [v for v in range(1, problem.var_count + 1) if v not in proj_set]
    # a problem of its own: blocking clauses do not follow from the
    # problem's, so they must not reach its learning engine or index.  Its
    # clauses are the problem's, checked already, so it is copied without
    # `__post_init__`; `add_clause` still checks each blocking clause.
    blocked = copy.copy(problem)
    blocked.clauses = list(problem.clauses)
    blocked._engine = blocked._index = None
    models: list[tuple[bool, ...]] = []
    while len(models) < cap:
        full = _first_model(blocked, (), order, None)
        if full is None:
            return models, True
        models.append(tuple(full[v - 1] for v in proj_vars))
        blocked.add_clause([-v if full[v - 1] else v for v in proj_vars])
    return models, False


def brute_force(problem: ColoringProblem) -> Verdict:
    """Exhaustive oracle: enumerate all assignments of the free variables.

    Variables pinned by unit clauses are substituted first; at most
    BRUTE_FORCE_MAX_FREE free variables are allowed.
    """
    fixed: dict[int, bool] = {}
    for clause in problem.clauses:
        if len(clause) == 1:
            lit = clause[0]
            want = lit > 0
            if fixed.get(abs(lit), want) != want:
                return Verdict("unsat")
            fixed[abs(lit)] = want

    free = [v for v in range(1, problem.var_count + 1) if v not in fixed]
    if len(free) > BRUTE_FORCE_MAX_FREE:
        raise ValueError(
            f"{len(free)} free variables exceed the brute-force limit of {BRUTE_FORCE_MAX_FREE}")
    bit_of = {v: i for i, v in enumerate(free)}

    residual: list[list[int]] = []
    for clause in problem.clauses:
        lits = []
        satisfied = False
        for lit in clause:
            var = abs(lit)
            if var in fixed:
                if fixed[var] == (lit > 0):
                    satisfied = True
                    break
            else:
                lits.append(lit)
        if satisfied:
            continue
        if not lits:
            return Verdict("unsat")
        residual.append(lits)

    def build_model(index: int) -> tuple[bool, ...]:
        vals = [False] * problem.var_count
        for var, val in fixed.items():
            vals[var - 1] = val
        for var in free:
            vals[var - 1] = bool((index >> bit_of[var]) & 1)
        return tuple(vals)

    if not residual:
        return Verdict("sat", model=build_model(0))

    # Blocks of at most 2**20 assignments: bit j of an int is index
    # block * 2**low + j.  Each of the `low` lowest free variables has a
    # truth column; the higher ones are constant in a block.  A clause is
    # the OR of its literal columns, the instance the AND of its clauses.
    low = min(len(free), 20)
    pos, size = [], 1
    for _ in range(low):  # double the block: old columns repeat, a new one is high
        pos = [col | col << size for col in pos] + [((1 << size) - 1) << size]
        size <<= 1
    full = (1 << size) - 1
    neg = [full ^ col for col in pos]
    for block in range(1 << (len(free) - low)):
        sat = full
        for lits in residual:
            clause = 0
            for lit in lits:
                bit = bit_of[abs(lit)]
                if bit < low:
                    clause |= pos[bit] if lit > 0 else neg[bit]
                elif ((block >> (bit - low)) & 1) == (lit > 0):
                    clause = full
                    break
            sat &= clause
            if not sat:
                break
        if sat:
            # the lowest satisfying index
            model = build_model((block << low) + (sat & -sat).bit_length() - 1)
            if not check_model(problem.clauses, model):
                raise AssertionError("brute force produced an invalid model")
            return Verdict("sat", model=model)
    return Verdict("unsat")


# ---------------------------------------------------------------------------
# DIMACS export / import
# ---------------------------------------------------------------------------


def export_dimacs(problem: ColoringProblem) -> tuple[str, str]:
    """Byte-deterministic DIMACS CNF text plus an 'index name' variable map."""
    index = problem._indexed()
    return f"p cnf {problem.var_count} {index.count}\n" + "".join(index.lines), index.varmap


_HEADER = re.compile(r"p cnf (0|[1-9][0-9]*) (0|[1-9][0-9]*)")
_CLAUSE_CHARS = re.compile(r"[-0-9 \n]*")


def _line_at(text: str, pos: int) -> str:
    """The line of `text` that holds position `pos`."""
    return text[text.rfind("\n", 0, pos) + 1:].partition("\n")[0]


def parse_dimacs(cnf_text: str, varmap_text: str) -> ColoringProblem:
    """Read the DIMACS CNF text and the full 'index name' variable map
    that `export_dimacs` writes; ValueError on anything else.

    The text is the line ``p cnf V C`` and then C clause lines, each its
    literals separated by single spaces and then `` 0`` (an empty clause
    is the line `` 0``), every line ending in a newline.  Comment lines,
    tabs, repeated spaces and leading zeros are refused.  The clause lines
    are checked and decoded in bulk: a character scan, a count of line
    ends and terminators, and one JSON decode of all literals; the
    ColoringProblem then rejects a zero or undeclared literal.
    """
    head, newline, body = cnf_text.partition("\n")
    header = _HEADER.fullmatch(head)
    if header is None or not newline:
        raise ValueError(f"bad problem line, want 'p cnf V C' and a newline: {head!r}"
                         if head.startswith("p") else "missing 'p cnf' header")
    var_count, clause_count = int(header[1]), int(header[2])
    names = _read_varmap(varmap_text, var_count)
    bad = _CLAUSE_CHARS.match(body).end()
    if bad != len(body):
        line = _line_at(body, bad)
        raise ValueError(f"second problem line: {line!r}" if line.startswith("p")
                         else f"clause line has a character other than digits, "
                              f"'-', ' ' and a newline: {line!r}")
    # every line ends in " 0\n" exactly when each newline is one's and the
    # body ends in a newline (" 0\n" cannot overlap itself)
    lines = body.count("\n")
    if body.count(" 0\n") != lines or body[-1:] not in ("", "\n"):
        *ended, last = body.split("\n")
        line = next((line for line in ended if not line.endswith(" 0")), last)
        raise ValueError(f"clause line must end with ' 0' and a newline: {line!r}")
    if clause_count != lines:
        raise ValueError(f"header declares {clause_count} clauses, found {lines}")
    # " 0\n" and "],[" have the same length, so a JSON offset is the body's
    # plus 2; the trailing "],[" opens one extra empty list
    try:
        decoded = json.loads("[[" + body.replace(" 0\n", "],[").replace(" ", ",") + "]]")
    except json.JSONDecodeError as exc:
        raise ValueError(f"clause line is not integers separated by single spaces: "
                         f"{_line_at(body, exc.pos - 2)!r}") from None
    decoded.pop()
    # each list is freed as its tuple is made, so the two never all coexist
    decoded.reverse()
    clauses = list(map(tuple, map(decoded.pop, repeat(-1, len(decoded)))))
    name_to_var = dict(zip(names, range(1, var_count + 1)))
    if len(name_to_var) != var_count:
        raise ValueError("variable map gives two variables the same name")
    return ColoringProblem(clauses=clauses, names=names, name_to_var=name_to_var)


def _read_varmap(text: str, var_count: int) -> list[str]:
    """The names of variables 1..var_count given by an 'index name' map,
    one entry per non-blank line in any order.  ValueError on an entry
    without a name or without a new index in 1..var_count, and then, before
    the names are listed, on an entry count other than var_count."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    named: dict[int, str] = {}
    if lines:
        index_text, _, given = zip(*map(str.partition, lines, repeat(" ")))
        indices = list(map(int, index_text))
        named = dict(zip(indices, given))
        if not (all(given) and len(named) == len(lines)
                and 1 <= min(indices) and max(indices) <= var_count):
            seen: set[int] = set()
            for line, idx, name in zip(lines, indices, given):
                if not name or not 1 <= idx <= var_count or idx in seen:
                    raise ValueError(f"variable map line {line!r} needs a name "
                                     f"and a new index in 1..{var_count}")
                seen.add(idx)
    if len(lines) != var_count:
        raise ValueError(f"header declares {var_count} variables, "
                         f"the variable map names {len(lines)}")
    return [named[v] for v in range(1, var_count + 1)]


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------


# arguments after each event's tag: a clause id for "conflict", else a literal first
_EVENT_ARITY = {"decide": 1, "flip": 1, "imply": 2, "conflict": 1}


def _event_tag(ev) -> str:
    """The tag of a well-formed trace event; raises CertificateError otherwise."""
    if type(ev) in (list, tuple) and ev and type(ev[0]) is str:
        tag = ev[0]
        if tag not in _EVENT_ARITY:
            raise CertificateError(f"unknown trace event {tag!r}")
        if (len(ev) == 1 + _EVENT_ARITY[tag] and type(ev[1]) is int
                and (len(ev) == 2 or type(ev[2]) is int) and (ev[1] or tag == "conflict")):
            return tag
    raise CertificateError(f"malformed trace event {ev!r}")


def replay_unsat_trace(clauses: Sequence[Sequence[int]], trace: Sequence[Sequence]) -> bool:
    """Re-check an unsat trace step by step, independently of the engine.

    Verifies that every event has a known tag and arity, every
    implication is forced by its reason clause, every conflict clause is
    fully falsified, every flip answers a conflict on the deepest open
    decision, and that the final conflict happens with no open decision
    left (decision level 0).  A refutation under assumptions is checked
    with each assumption appended to `clauses` as a unit clause, so the
    trace can use no other.  Raises CertificateError on the first
    discrepancy.
    """
    assign: dict[int, bool] = {}
    trail: list[int] = []
    # decisions: [position in trail, literal, flipped?]
    decisions: list[list] = []
    conflict_pending = False

    def clause_at(cid) -> Sequence[int]:
        if not 0 <= cid < len(clauses):
            raise CertificateError(f"clause id {cid!r} out of range")
        return clauses[cid]

    def set_lit(lit: int) -> None:
        var = abs(lit)
        if var in assign:
            raise CertificateError(f"literal {lit} assigned twice")
        assign[var] = lit > 0
        trail.append(lit)

    def lit_false(lit: int) -> bool:
        var = abs(lit)
        return var in assign and assign[var] != (lit > 0)

    for ev in trace:
        tag = _event_tag(ev)
        if conflict_pending and tag != "flip":
            raise CertificateError(f"expected flip after conflict, got {tag}")
        if tag == "decide":
            lit = ev[1]
            decisions.append([len(trail), lit, False])
            set_lit(lit)
        elif tag == "imply":
            lit, cid = ev[1], ev[2]
            clause = clause_at(cid)
            if lit not in clause:
                raise CertificateError(f"implied literal {lit} not in clause {cid}")
            for other in clause:
                if other != lit and not lit_false(other):
                    raise CertificateError(
                        f"clause {cid} does not force {lit}: {other} is not false")
            set_lit(lit)
        elif tag == "conflict":
            cid = ev[1]
            for lit in clause_at(cid):
                if not lit_false(lit):
                    raise CertificateError(f"conflict clause {cid} is not fully falsified")
            conflict_pending = True
        elif tag == "flip":
            lit = ev[1]
            if not conflict_pending:
                raise CertificateError("flip without a preceding conflict")
            while decisions:
                pos, dlit, flipped = decisions[-1]
                for undone in reversed(trail[pos:]):
                    del assign[abs(undone)]
                del trail[pos:]
                if flipped:
                    decisions.pop()
                    continue
                if lit != -dlit:
                    raise CertificateError(
                        f"flip {lit} does not negate the deepest open decision {dlit}")
                decisions[-1][2] = True
                set_lit(lit)
                break
            else:
                raise CertificateError("flip with no open decision")
            conflict_pending = False

    if not conflict_pending:
        raise CertificateError("trace does not end in a conflict")
    if any(not flipped for _, _, flipped in decisions):
        raise CertificateError("final conflict leaves an unexplored branch")
    return True


def replay_model(clauses: Sequence[Sequence[int]], model: Sequence[bool]) -> bool:
    if not check_model(clauses, model):
        raise CertificateError("model does not satisfy the clause set")
    return True
