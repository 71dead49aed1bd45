import collections
import copy
import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest

import bluefive.solver as solver
from _oracles import ReferenceEngine, reference_absorb, reference_search
from bluefive.geometry import hex_indices, node
from bluefive.lemmata import CENTER_RADIUS, SCRIPTS, Options, build_stages
from bluefive.solver import (BRUTE_FORCE_MAX_FREE, CertificateError,
                             ColoringProblem, brute_force, check_model,
                             enumerate_models, export_dimacs, forced_color,
                             parse_dimacs, replay_model, replay_unsat_trace, solve)


def _problem(nvars, clauses):
    names = [f"v{i}" for i in range(1, nvars + 1)]
    return ColoringProblem(clauses=[tuple(c) for c in clauses], names=names,
                           name_to_var={n: i + 1 for i, n in enumerate(names)})


@pytest.mark.parametrize("clauses, message", [
    ([(1, 0)], "literal 0 references"),
    ([(1,), (-2, 3), (0,)], "literal 3 references"),
    ([(2, -3), (1,)], "literal -3 references"),
], ids=["zero", "above-var-count", "below-minus-var-count"])
def test_problem_rejects_undeclared_literals(clauses, message):
    with pytest.raises(ValueError, match=message):
        _problem(2, clauses)
    problem = _problem(2, [])
    with pytest.raises(ValueError, match=message):
        for clause in clauses:
            problem.add_clause(clause)
    assert all(0 < abs(lit) <= 2 for c in problem.clauses for lit in c)  # the bad one is not added


def test_empty_problem_is_sat():
    verdict = solve(_problem(3, []))
    assert verdict.kind == "sat"
    assert verdict.model == (True, True, True)  # red branch first


def test_contradictory_units():
    assert solve(_problem(1, [(1,), (-1,)])).kind == "unsat"


@pytest.mark.parametrize("clauses, assumptions, trace", [
    ([(1, 2), (), (-1,)], [], [("conflict", 1)]),
    ([(1,), (2, -1), (-1,)], [2], [("imply", 1, 0), ("conflict", 2)]),
    # assumption i is the unit clause C + i: the first is implied, the second conflicts
    ([(-2,), (1, 2)], [1, 2], [("imply", -2, 0), ("imply", 1, 2), ("conflict", 3)]),
], ids=["empty-clause", "contradictory-units", "assumption-falsified-by-unit"])
def test_setup_failures_give_replayable_traces(clauses, assumptions, trace):
    problem = _problem(2, clauses)
    verdict = solve(problem, assumptions, record_trace=True)
    assert verdict.kind == "unsat" and verdict.trace == trace
    assert replay_unsat_trace(problem.clauses + [(lit,) for lit in assumptions], verdict.trace)


@pytest.mark.parametrize("lit", [0, 3, -3])
def test_solve_rejects_undeclared_assumptions(lit):
    with pytest.raises(ValueError, match=f"assumption {lit} references"):
        solve(_problem(2, [(1,), ()]), [1, lit])


def test_deterministic_first_model():
    problem = _problem(3, [(-1, -2), (2, 3)])
    v1 = solve(problem)
    v2 = solve(problem)
    assert v1.model == v2.model


def test_forced_color_on_empty_problem():
    res = forced_color(_problem(2, []), "v1")
    assert res.status == "Free"


def test_forced_color_rejects_aux():
    p = ColoringProblem(clauses=[], names=["v1", "aux:v2"], name_to_var={"v1": 1, "aux:v2": 2})
    with pytest.raises(ValueError, match="auxiliary"):
        forced_color(p, "aux:v2")


def test_forced_color_statuses():
    # v1 forced red by clause, v2 free, inconsistent problem detected
    p = _problem(2, [(1,)])
    assert forced_color(p, "v1").status == "ForcedRed"
    assert forced_color(p, "v2").status == "Free"
    p2 = _problem(1, [(1,), (-1,)])
    assert forced_color(p2, "v1").status == "Inconsistent"
    p3 = _problem(2, [(-1, -2), (2,)])
    assert forced_color(p3, "v1").status == "ForcedBlue"


def test_enumerate_models_chain_example():
    # one five-chain of free nodes: all assignments except all-blue
    problem = _problem(5, [(1, 2, 3, 4, 5)])
    models, exhausted = enumerate_models(problem, cap=64)
    assert exhausted and len(models) == 31
    assert len(set(models)) == 31


def test_enumerate_models_free_and_unsat():
    models, exhausted = enumerate_models(_problem(1, []), cap=10)
    assert exhausted and len(models) == 2
    models, exhausted = enumerate_models(_problem(1, [(1,), (-1,)]), cap=10)
    assert exhausted and models == []


def test_enumerate_models_cap():
    models, exhausted = enumerate_models(_problem(4, []), cap=5)
    assert not exhausted and len(models) == 5


def test_enumerate_models_projection():
    # v1 free, v2 forced equal to v1, v3 free: projection onto v1 has 2 models
    problem = _problem(3, [(-1, 2), (1, -2)])
    models, exhausted = enumerate_models(problem, cap=100, project=[1])
    assert exhausted and sorted(models) == [(False,), (True,)]


def test_forced_consistent_with_enumeration():
    problem = _problem(3, [(1, 2), (-1, 3)])
    models, exhausted = enumerate_models(problem, cap=100)
    assert exhausted
    for var, name in ((1, "v1"), (2, "v2"), (3, "v3")):
        always_red = all(m[var - 1] for m in models)
        always_blue = all(not m[var - 1] for m in models)
        status = forced_color(problem, name).status
        if always_red:
            assert status == "ForcedRed"
        elif always_blue:
            assert status == "ForcedBlue"
        else:
            assert status == "Free"


def test_dimacs_export_example():
    problem = _problem(2, [(1, -2)])
    cnf, varmap = export_dimacs(problem)
    assert cnf == "p cnf 2 1\n1 -2 0\n"
    assert varmap == "1 v1\n2 v2\n"


def test_dimacs_round_trip_byte_identical():
    problem = _problem(4, [(1, -2), (2, 3, -4), (-1,)])
    cnf, varmap = export_dimacs(problem)
    again = parse_dimacs(cnf, varmap)
    cnf2, varmap2 = export_dimacs(again)
    assert cnf2 == cnf and varmap2 == varmap
    assert solve(problem).kind == solve(again).kind


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force(_problem(BRUTE_FORCE_MAX_FREE + 1, []))


def test_brute_force_agrees_on_examples():
    p = _problem(1, [(1,), (-1,)])
    assert brute_force(p).kind == solve(p).kind == "unsat"


def _lowest_model(problem):
    """The first model in index order: variables pinned by unit clauses keep
    their value, and the free ones count up with the lowest as bit 0."""
    pinned = {}
    for clause in problem.clauses:
        if len(clause) == 1 and pinned.setdefault(abs(clause[0]), clause[0] > 0) != (clause[0] > 0):
            return None
    free = [v for v in range(1, problem.var_count + 1) if v not in pinned]
    for bits in itertools.product((False, True), repeat=len(free)):
        model = [pinned.get(v, False) for v in range(1, problem.var_count + 1)]
        for v, val in zip(reversed(free), bits):
            model[v - 1] = val
        if all(any(model[abs(lit) - 1] == (lit > 0) for lit in c) for c in problem.clauses):
            return tuple(model)
    return None


def test_brute_force_returns_the_lowest_index_model():
    rng = random.Random(5)
    units = 0
    for _ in range(300):
        nvars = rng.randint(1, 12)
        clauses = []
        for _ in range(rng.randint(0, 30)):
            vs = rng.sample(range(1, nvars + 1), min(rng.randint(1, 3), nvars))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        units += any(len(c) == 1 for c in clauses)
        problem = _problem(nvars, clauses)
        want = _lowest_model(problem)
        verdict = brute_force(problem)
        assert verdict.kind == ("unsat" if want is None else "sat")
        assert verdict.model == want
    assert units > 100


def test_brute_force_scans_blocks_of_2_20_assignments():
    # 22 free variables: v21 and v22 are constant inside each block
    problem = _problem(22, [(21, 21), (-22, -22), (-1, 2), (1, 22, 3)])
    assert brute_force(problem).model == tuple(v in (1, 2, 21) for v in range(1, 23))
    assert brute_force(_problem(22, [(21, 22), (-21, -21), (-22, -22)])).kind == "unsat"


def _random_instance(rng):
    nvars = rng.randint(2, 18)
    nclauses = rng.randint(1, 40)
    clauses = []
    for _ in range(nclauses):
        width = rng.randint(1, 4)
        vs = rng.sample(range(1, nvars + 1), min(width, nvars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return _problem(nvars, clauses)


def test_random_oracle_equivalence_and_replay():
    rng = random.Random(1234)
    for _ in range(120):
        problem = _random_instance(rng)
        fast = solve(problem, record_trace=True)
        slow = brute_force(problem)
        assert fast.kind == slow.kind
        if fast.kind == "sat":
            assert check_model(problem.clauses, fast.model)
            assert check_model(problem.clauses, slow.model)
            replay_model(problem.clauses, fast.model)
        else:
            assert replay_unsat_trace(problem.clauses, fast.trace)


def test_solve_and_enumeration_agree():
    rng = random.Random(1234)
    for _ in range(120):
        problem = _random_instance(rng)
        verdict = solve(problem)
        models, exhausted = enumerate_models(problem, cap=1)
        if verdict.kind == "sat":
            assert models == [verdict.model]
        else:
            assert (models, exhausted) == ([], True)


def _ref_solve(problem, assumptions):
    trace = []
    for model in reference_search(problem, assumptions, range(1, problem.var_count + 1), trace):
        return "sat", model, trace
    return "unsat", None, trace


def _holds(model, clause):
    return any(model[abs(lit) - 1] == (lit > 0) for lit in clause)


def _traced_ref(problem, assumptions, kept):
    """What a traced query on `problem` must return, given `kept`: the
    (model, assumptions, clause count) of the problem's last traced query
    that found a model, or None.  The reference (kind, model, trace) on a
    fresh problem, but with the trace [] when the query reuses the kept
    model: every kept assumption is assumed again or a unit clause, and
    the model satisfies the clauses added since and the assumptions.
    Returns it with the kept model after the query."""
    clauses = problem.clauses
    kind, model, trace = _ref_solve(_problem(problem.var_count, clauses), assumptions)
    if kind == "sat":
        if kept is not None:
            old, held, checked = kept
            units = {c[0] for c in clauses if len(c) == 1}
            if (all(lit in assumptions or lit in units for lit in held)
                    and all(_holds(old, c) for c in clauses[checked:])
                    and all(_holds(old, (lit,)) for lit in assumptions)):
                assert old == model  # a reused model is the first one
                trace = []
        kept = (model, tuple(assumptions), len(clauses))
    return (kind, model, trace), kept


def _ref_models(problem, cap, proj_vars):
    models = []
    for full in reference_search(problem, (), proj_vars, None):
        models.append(tuple(full[v - 1] for v in proj_vars))
        if len(models) >= cap:
            return models, False
    return models, True


def test_engine_matches_reference_engine(monkeypatch):
    """Traced verdicts, models and trace events equal the reference
    engine's, but for the empty trace of a traced query that reuses the
    kept model (`_traced_ref`); untraced (learning) searches give the same
    verdicts and models, and so do enumerations."""
    backjumps = []  # levels jumped over by each learned clause of 2+ literals
    learn = solver._Engine.learn

    def counting_learn(eng, conflict):
        level, stored = len(eng.lim), len(eng.clauses)
        learned = learn(eng, conflict)
        if len(eng.clauses) > stored:  # a unit clause always jumps to level 0
            backjumps.append(level - len(eng.lim))
        return learned

    monkeypatch.setattr(solver._Engine, "learn", counting_learn)
    rng = random.Random(8)
    seen = {"unit": 0, "duplicate": 0, "tautology": 0, "assume-against-unit": 0,
            "unsat": 0, "flip": 0, "backjump": 0}
    for _ in range(300):
        nvars = rng.randint(1, 14)
        # literals drawn with replacement: clauses repeat literals and
        # hold both signs of a variable
        clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, nvars)
                         for _ in range(rng.choice((2, 3, 3, 4, 6))))
                   for _ in range(rng.randint(0, 5 * nvars))]
        units = [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(rng.randint(0, 2))]
        for lit in units:
            clauses.insert(rng.randint(0, len(clauses)), (lit,))
        problem = _problem(nvars, clauses)
        seen["unit"] += bool(units)
        seen["duplicate"] += any(len(set(c)) < len(c) for c in clauses)
        seen["tautology"] += any(-lit in c for c in clauses for lit in c)

        assumptions = [rng.choice((1, -1)) * rng.randint(1, nvars)
                       for _ in range(rng.randint(0, 3))]
        if units and rng.random() < 0.3:
            assumptions.insert(rng.randint(0, len(assumptions)), -rng.choice(units))
            seen["assume-against-unit"] += 1
        verdict = solve(problem, assumptions, record_trace=True)
        want, kept = _traced_ref(problem, assumptions, None)
        assert (verdict.kind, verdict.model, verdict.trace) == want
        if verdict.kind == "unsat":  # each assumption replays as one more unit clause
            assert replay_unsat_trace(clauses + [(lit,) for lit in assumptions], verdict.trace)
        traced = verdict
        verdict = solve(problem, assumptions)
        assert (verdict.kind, verdict.model, verdict.trace) == (*want[:2], None)

        var = rng.randint(1, nvars)  # the traced sides may reuse the model found above
        res = forced_color(problem, f"v{var}", record_trace=True)
        for side, lit in ((res.when_blue, -var), (res.when_red, var)):
            want, kept = _traced_ref(problem, [lit], kept)
            assert (side.kind, side.model, side.trace) == want
        untraced = forced_color(problem, f"v{var}")
        assert untraced.status == res.status
        for side, lit in ((untraced.when_blue, -var), (untraced.when_red, var)):
            assert (side.kind, side.model, side.trace) == (*_ref_solve(problem, [lit])[:2], None)
        seen["unsat"] += res.when_blue.kind == "unsat"
        seen["flip"] += any(ev[0] == "flip" for ev in traced.trace + res.when_blue.trace)

        cap = rng.randint(1, 40)
        everything = list(range(1, nvars + 1))
        project = sorted(rng.sample(everything, rng.randint(1, nvars)))
        assert enumerate_models(problem, cap) == _ref_models(problem, cap, everything)
        assert (enumerate_models(problem, cap, project=project)
                == _ref_models(problem, cap, project))
        seen["backjump"] += any(jump > 1 for jump in backjumps)
        del backjumps[:]
    assert min(seen.values()) >= 30, seen


def _fixed_at_level0(problem):
    """Per variable, the value unit propagation gives it (1, -1 or 0), or
    None when unit propagation alone meets a conflict."""
    eng = ReferenceEngine(problem, (), None)
    if eng.failed is not None or eng.propagate() is not None:
        return None
    return eng.assign


def test_kept_engine_matches_a_fresh_search(monkeypatch):
    """One problem object takes untraced queries interleaved with
    add_clause and enumerate_models; every verdict and model equals the
    reference engine's on a fresh problem holding the clauses so far, a
    traced solve in between equals the reference trace or reuses the
    traced kept model (`_traced_ref`), and enumeration leaves the clauses
    as they were."""
    learned = {}  # engine id -> clauses of 2+ literals it has kept
    learn = solver._Engine.learn

    def counting_learn(eng, conflict):
        stored = len(eng.clauses)
        out = learn(eng, conflict)
        learned[id(eng)] = learned.get(id(eng), 0) + len(eng.clauses) - stored
        return out

    monkeypatch.setattr(solver._Engine, "learn", counting_learn)
    rng = random.Random(21)

    def clause(nvars, widths):
        return tuple(rng.choice((1, -1)) * rng.randint(1, nvars)
                     for _ in range(rng.choice(widths)))

    seen = {"after-learning": 0, "assume-false-at-level-0": 0,
            "unsat-by-add-clause": 0, "both-signs": 0}
    for _ in range(300):
        nvars = rng.randint(2, 14)
        problem = _problem(nvars, [clause(nvars, (2, 3, 3, 4))
                                   for _ in range(rng.randint(0, 4 * nvars))])
        cases = set()
        engine = traced_kept = None
        for _ in range(rng.randint(4, 6)):
            for _ in range(rng.randint(0, 2)):
                was_sat = _ref_solve(_problem(nvars, problem.clauses), [])[0] == "sat"
                problem.add_clause(clause(nvars, (1, 2, 3)))
                if was_sat and _ref_solve(_problem(nvars, problem.clauses), [])[0] == "unsat":
                    cases.add("unsat-by-add-clause")
            fresh = _problem(nvars, problem.clauses)
            if engine is not None and learned.get(id(engine)):
                cases.add("after-learning")
            if rng.random() < 0.5:
                verdict = solve(problem, [1], record_trace=True)
                want, traced_kept = _traced_ref(problem, [1], traced_kept)
                assert (verdict.kind, verdict.model, verdict.trace) == want
            forced = rng.random() < 0.5
            if forced:
                var = rng.randint(1, nvars)
                assumptions = [-var, var]  # one per query of forced_color
            else:
                assumptions = [rng.choice((1, -1)) * rng.randint(1, nvars)
                               for _ in range(rng.randint(0, 3))]
                if rng.random() < 0.2:
                    assumptions.append(-rng.choice(assumptions or [1]))
                if len({abs(lit) for lit in assumptions}) < len(set(assumptions)):
                    cases.add("both-signs")
            fixed = _fixed_at_level0(fresh)
            if fixed is not None and any(fixed[abs(lit)] == (-1 if lit > 0 else 1)
                                         for lit in assumptions):
                cases.add("assume-false-at-level-0")
            if forced:
                res = forced_color(problem, f"v{var}")
                sides = ((res.when_blue, [-var]), (res.when_red, [var]))
            else:
                sides = ((solve(problem, assumptions), assumptions),)
            for verdict, lits in sides:
                assert (verdict.kind, verdict.model, verdict.trace) == (
                    *_ref_solve(fresh, lits)[:2], None)
            engine = engine or problem._engine
            assert problem._engine is engine  # one engine for the problem's life
            if rng.random() < 0.3:
                clauses = list(problem.clauses)
                cap = rng.randint(1, 10)
                assert enumerate_models(problem, cap) == _ref_models(
                    fresh, cap, list(range(1, nvars + 1)))
                assert problem.clauses == clauses
        for case in cases:
            seen[case] += 1
    assert min(seen.values()) >= 30, seen


def test_kept_model_is_reused_only_while_it_stays_first(monkeypatch):
    """One random sequence per problem mixes add_clause (units and longer
    clauses) with untraced solve and forced_color queries under random
    assumptions, and now and then a traced solve.  Every verdict and model
    equals the reference engine's on the clauses so far.  Each lookup of
    the kept model is sorted by why it was or was not reused: a kept
    assumption neither assumed nor true at level 0, an added clause the
    kept model falsifies, an assumption it falsifies, or none of these,
    which must be a reuse.  A kept assumption taken as a level-0 fact must
    follow from the clauses, and a traced solve leaves the kept model be."""
    kept_first = solver._Engine.kept_first
    seen = collections.Counter()

    def sorted_kept_first(eng, clauses, assumptions):
        kept = eng.kept
        got = kept_first(eng, clauses, assumptions)
        if kept is None:
            assert got is None
            return got
        model, held, checked = kept
        facts = [lit for lit in held if lit not in assumptions and eng.val[lit] == 1]
        for lit in facts:
            assert _ref_solve(_problem(eng.nv, clauses), [-lit])[0] == "unsat"
        if len(facts) + sum(lit in assumptions for lit in held) < len(held):
            case = "kept-assumption-dropped"
        elif not all(_holds(model, clause) for clause in clauses[checked:]):
            case = "added-clause-falsifies"
        elif not all(_holds(model, (lit,)) for lit in assumptions):
            case = "assumption-falsified"
        else:
            case = "reuse"
            assert got is model and eng.kept == (model, tuple(assumptions), len(clauses))
        if case != "reuse":
            assert got is None and eng.kept is kept
        seen[case] += 1
        return got

    monkeypatch.setattr(solver._Engine, "kept_first", sorted_kept_first)
    rng = random.Random(28)

    def literal(nvars):
        return rng.choice((1, -1)) * rng.randint(1, nvars)

    for _ in range(150):
        nvars = rng.randint(2, 12)
        problem = _problem(nvars, [tuple(literal(nvars) for _ in range(rng.choice((2, 3, 3, 4))))
                                   for _ in range(rng.randint(0, 3 * nvars))])
        last, asked = None, []  # the last model an untraced query returned, and its assumptions
        traced_kept = None
        for _ in range(rng.randint(6, 14)):
            step = rng.random()
            if step < 0.3:
                width = rng.choice((1, 2, 3, 3, 4))
                if last is not None and rng.random() < 0.4:  # false in the last model
                    clause = [v if not last[v - 1] else -v
                              for v in rng.sample(range(1, nvars + 1), min(width, nvars))]
                else:
                    clause = [literal(nvars) for _ in range(width)]
                problem.add_clause(clause)
                continue
            fresh = _problem(nvars, problem.clauses)
            if step < 0.4:
                kept = problem._engine and problem._engine.kept
                assumptions = [literal(nvars) for _ in range(rng.randint(0, 2))]
                verdict = solve(problem, assumptions, record_trace=True)
                want, traced_kept = _traced_ref(problem, assumptions, traced_kept)
                assert (verdict.kind, verdict.model, verdict.trace) == want
                assert (problem._engine and problem._engine.kept) is kept
                continue
            if step < 0.7:
                var = rng.randint(1, nvars)
                res = forced_color(problem, f"v{var}")
                sides = ((res.when_blue, [-var]), (res.when_red, [var]))
            else:
                assumptions = [literal(nvars) for _ in range(rng.randint(0, 3))]
                if rng.random() < 0.5:  # ask again, perhaps with more
                    assumptions = asked + assumptions[:rng.randint(0, 1)]
                sides = ((solve(problem, assumptions), assumptions),)
            for verdict, lits in sides:
                assert (verdict.kind, verdict.model, verdict.trace) == (
                    *_ref_solve(fresh, lits)[:2], None)
                if verdict.is_sat:
                    last, asked = verdict.model, lits
    assert min(seen[case] for case in ("reuse", "kept-assumption-dropped",
                                       "added-clause-falsifies")) >= 30, seen


def test_traced_kept_model_is_reused_only_while_it_stays_first(monkeypatch):
    """The traced sibling of the test above.  One random sequence per
    problem mixes add_clause (units and longer clauses, some of them units
    of a kept assumption) with traced solve and forced_color queries under
    random assumptions, and now and then an untraced solve.  Every traced
    kind and model equals the reference engine's on the clauses so far,
    every unsat trace equals the reference trace and replays, and a sat
    trace is [] exactly when the kept model is reused.  Each lookup of the
    index's kept model is sorted by why it was or was not reused: a kept
    assumption neither assumed nor a unit clause, an added clause the kept
    model falsifies, an assumption it falsifies, or none of these, which
    must be a reuse.  Untraced queries never look up or change the traced
    kept model, and traced queries never the engine's."""
    index_first, engine_first = solver._ClauseIndex.kept_first, solver._Engine.kept_first
    seen = collections.Counter()
    lookups = collections.Counter()  # kept_first calls per kind of search
    cases = []  # the case of each traced lookup of the query being checked

    def sorted_kept_first(index, clauses, assumptions):
        lookups["traced"] += 1
        kept = index.kept
        got = index_first(index, clauses, assumptions)
        if kept is None:
            assert got is None
            cases.append("nothing-kept")
            return got
        model, held, checked = kept
        units = {c[0] for c in clauses if len(c) == 1}
        if not all(lit in assumptions or lit in units for lit in held):
            case = "kept-assumption-dropped"
        elif not all(_holds(model, clause) for clause in clauses[checked:]):
            case = "added-clause-falsifies"
        elif not all(_holds(model, (lit,)) for lit in assumptions):
            case = "assumption-falsified"
        else:
            case = "reuse"
            seen["reuse-by-unit"] += any(lit not in assumptions for lit in held)
            assert got is model and index.kept == (model, tuple(assumptions), len(clauses))
        if case != "reuse":
            assert got is None and index.kept is kept
        seen[case] += 1
        cases.append(case)
        return got

    def counted_engine_first(eng, clauses, assumptions):
        lookups["untraced"] += 1
        return engine_first(eng, clauses, assumptions)

    monkeypatch.setattr(solver._ClauseIndex, "kept_first", sorted_kept_first)
    monkeypatch.setattr(solver._Engine, "kept_first", counted_engine_first)
    rng = random.Random(33)

    def literal(nvars):
        return rng.choice((1, -1)) * rng.randint(1, nvars)

    for _ in range(150):
        nvars = rng.randint(2, 12)
        problem = _problem(nvars, [tuple(literal(nvars) for _ in range(rng.choice((2, 3, 3, 4))))
                                   for _ in range(rng.randint(0, 3 * nvars))])
        kept = None  # the traced kept model, as `_traced_ref` follows it
        for _ in range(rng.randint(6, 14)):
            step = rng.random()
            if step < 0.3:
                if kept is not None and kept[1] and rng.random() < 0.5:  # a kept assumption
                    clause = [rng.choice(kept[1])]
                elif kept is not None and rng.random() < 0.4:  # false in the kept model
                    clause = [v if not kept[0][v - 1] else -v
                              for v in rng.sample(range(1, nvars + 1),
                                                  min(rng.choice((1, 2, 3)), nvars))]
                else:
                    clause = [literal(nvars) for _ in range(rng.choice((1, 2, 3, 3, 4)))]
                problem.add_clause(clause)
                continue
            traced_kept = getattr(problem._index, "kept", None)
            before = lookups.copy()
            if step < 0.4:
                assumptions = [literal(nvars) for _ in range(rng.randint(0, 2))]
                verdict = solve(problem, assumptions)
                assert (verdict.kind, verdict.model) == _ref_solve(
                    _problem(nvars, problem.clauses), assumptions)[:2]
                assert getattr(problem._index, "kept", None) is traced_kept
                assert lookups["traced"] == before["traced"]
                continue
            engine_kept = problem._engine and problem._engine.kept
            del cases[:]
            if step < 0.7:
                var = rng.randint(1, nvars)
                res = forced_color(problem, f"v{var}", record_trace=True)
                sides = ((res.when_blue, [-var]), (res.when_red, [var]))
            else:
                assumptions = [literal(nvars) for _ in range(rng.randint(0, 3))]
                if kept is not None and rng.random() < 0.5:  # ask again, perhaps with more
                    assumptions = list(kept[1]) + assumptions[:rng.randint(0, 1)]
                    if rng.random() < 0.5:  # but not for what is now a unit clause
                        assumptions = [lit for lit in assumptions if (lit,) not in problem.clauses]
                sides = ((solve(problem, assumptions, record_trace=True), assumptions),)
            assert (problem._engine and problem._engine.kept) is engine_kept
            assert lookups["untraced"] == before["untraced"]
            assert len(cases) == len(sides)  # one lookup per side
            for (verdict, lits), case in zip(sides, cases):
                want, kept = _traced_ref(problem, lits, kept)
                assert (verdict.kind, verdict.model, verdict.trace) == want
                if verdict.is_sat:  # a reused model is the only one with no events
                    assert (verdict.trace == []) == (case == "reuse")
                else:
                    assert replay_unsat_trace(problem.clauses + [(lit,) for lit in lits],
                                              verdict.trace)
                    seen["unsat"] += 1
            assert problem._index.kept == kept
    assert min(seen[case] for case in ("reuse", "reuse-by-unit", "kept-assumption-dropped",
                                       "added-clause-falsifies", "assumption-falsified",
                                       "unsat")) >= 30, seen


def test_absorb_equals_the_per_literal_filter():
    """`absorb` leaves the trail, values, levels, watch lists and stored
    clauses that filtering each literal on its own leaves, batch after
    batch, on random clause lists with level-0 units, clauses already
    satisfied at level 0 and clauses with literals false there."""
    rng = random.Random(29)
    seen = collections.Counter()
    for _ in range(300):
        nvars = rng.randint(2, 12)
        clauses = []
        for _ in range(rng.randint(1, 4 * nvars)):
            width = rng.choice((1, 1, 2, 3, 3, 4, 5))
            clauses.append(tuple(rng.choice((1, -1)) * rng.randint(1, nvars)
                                 for _ in range(width)))
        if rng.random() < 0.05:
            clauses.insert(rng.randint(0, len(clauses)), ())
        fast, slow = solver._Engine(nvars), solver._Engine(nvars)
        cuts = sorted(rng.sample(range(1, len(clauses) + 1), min(3, len(clauses))))
        for cut in cuts:
            assert fast.absorb(clauses[:cut]) == reference_absorb(slow, clauses[:cut], seen)
            assert vars(fast) == vars(slow)
    assert min(seen[case] for case in ("satisfied", "false literal", "whole")) >= 100, seen


def _render_dimacs(problem):
    """export_dimacs's bytes, rendered from scratch."""
    lines = [f"p cnf {problem.var_count} {len(problem.clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in problem.clauses]
    varmap = "\n".join(f"{v} {name}" for v, name in enumerate(problem.names, 1))
    return "\n".join(lines) + "\n", varmap + "\n"


def test_clause_index_is_exact():
    """One problem takes add_clause, export_dimacs and traced solves in a
    random interleaving, with clauses that repeat a literal, units added
    late and, in some rounds, an empty clause.  Each export equals a
    from-scratch render, each traced verdict equals the one on a fresh
    problem with the same clauses and the reference engine's, but for the
    empty trace of a reuse of the traced kept model (`_traced_ref`), and a
    `replace` copy starts with an empty index."""
    rng = random.Random(31)
    seen = {"duplicate": 0, "late-unit": 0, "empty": 0, "unit-before-empty": 0, "sat": 0,
            "unsat": 0}
    for _ in range(200):
        nvars = rng.randint(1, 10)
        problem = _problem(nvars, [])
        kept = None
        for _ in range(rng.randint(3, 12)):
            step = rng.random()
            if step < 0.5:
                width = 0 if rng.random() < 0.05 else rng.choice((1, 1, 2, 2, 3, 4))
                clause = [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(width)]
                if width > 1 and rng.random() < 0.2:
                    clause.append(clause[0])
                seen["duplicate"] += len(set(clause)) < len(clause)
                seen["late-unit"] += width == 1 and len(problem.clauses) > 2
                problem.add_clause(clause)
            elif step < 0.75:
                assert export_dimacs(problem) == _render_dimacs(problem)
            else:
                assumptions = [rng.choice((1, -1)) * rng.randint(1, nvars)
                               for _ in range(rng.randint(0, 2))]
                verdict = solve(problem, assumptions, record_trace=True)
                fresh = solve(_problem(nvars, problem.clauses), assumptions, record_trace=True)
                assert (fresh.kind, fresh.model, fresh.trace) == _ref_solve(problem, assumptions)
                want, kept = _traced_ref(problem, assumptions, kept)
                assert (verdict.kind, verdict.model, verdict.trace) == want
                seen[verdict.kind] += 1
                if () in problem.clauses:
                    seen["empty"] += 1
                    first = problem.clauses.index(())
                    seen["unit-before-empty"] += any(len(c) == 1 for c in problem.clauses[:first])
        copy = replace(problem, clauses=list(problem.clauses))
        assert copy._index is None and copy.clauses == problem.clauses
        assert export_dimacs(copy) == export_dimacs(problem) == _render_dimacs(problem)
        assert copy._index is not problem._index
    assert min(seen.values()) >= 10, seen


def test_traced_search_leaves_the_problem_clauses_alone():
    """A traced search reorders literals only in its own copies: a problem
    built with list clauses equals its deep copy after a traced solve, and
    of two traced solves with an untraced query between them the first
    traces as the reference engine does and the second does too, or, when
    the first found a model, reuses it with an empty trace."""
    rng = random.Random(17)
    seen = {"sat": 0, "unsat": 0, "flip": 0}
    for _ in range(40):
        nvars = 12
        clauses = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, nvars + 1), 3)]
                   for _ in range(rng.randint(40, 60))]
        names = [f"v{i}" for i in range(1, nvars + 1)]
        problem = ColoringProblem(clauses=clauses, names=names,
                                  name_to_var={n: i + 1 for i, n in enumerate(names)})
        before = copy.deepcopy(problem.clauses)
        assumptions = [rng.choice((1, -1)) * rng.randint(1, nvars)]
        first = solve(problem, assumptions, record_trace=True)
        assert problem.clauses == before
        want, kept = _traced_ref(problem, assumptions, None)
        assert (first.kind, first.model, first.trace) == want
        assert solve(problem, assumptions).kind == first.kind
        second = solve(problem, assumptions, record_trace=True)
        assert problem.clauses == before
        want, _ = _traced_ref(problem, assumptions, kept)  # a sat side reuses the first model
        assert (second.kind, second.model, second.trace) == want
        seen[first.kind] += 1
        seen["flip"] += any(ev[0] == "flip" for ev in first.trace)
    assert min(seen.values()) >= 5, seen


def test_empty_clause_conflicts_before_any_unit():
    problem = _problem(2, [(1,), (-1, 2)])
    assert solve(problem, record_trace=True).trace == [("imply", 1, 0), ("imply", 2, 1)]
    problem.add_clause((-2,))
    problem.add_clause(())
    problem.add_clause(())
    verdict = solve(problem, [1], record_trace=True)
    assert verdict.kind == "unsat" and verdict.trace == [("conflict", 3)]
    assert replay_unsat_trace(problem.clauses, verdict.trace)
    assert export_dimacs(problem)[0] == "p cnf 2 5\n1 0\n-1 2 0\n-2 0\n 0\n 0\n"


@pytest.mark.parametrize("script_id, radius, count",
                         [("col1", 6, 1), ("col2", 6, 1), ("col2", 2, 5)])
def test_enumeration_matches_reference_on_stretch_patches(script_id, radius, count):
    """On a patch, projected onto the 19 central cells that the uniqueness
    enumeration reads, the projections equal the reference engine's and
    the problem's clause list is left as it was.  At radius 6 the central
    colouring is unique; col2's radius-2 patch leaves five."""
    stage = build_stages(script_id, Options(patch_radius=radius))[0]["patch"]
    problem = stage.problem()
    a0, b0 = SCRIPTS[script_id]["stages"]["patch"]["patch"]["anchor"]
    project = sorted(problem.name_to_var[stage.cfg.name_at(node(a0 + a, b0 + b))]
                     for a, b in hex_indices(CENTER_RADIUS))
    assert len(project) == 19
    clauses = list(problem.clauses)
    for cap in (1, 10):
        models = enumerate_models(problem, cap, project=project)
        assert models == _ref_models(problem, cap, project)
    assert len(models[0]) == count and models[1]
    assert problem.clauses == clauses


def test_enumeration_checks_only_its_blocking_clauses(monkeypatch):
    """`enumerate_models` copies the problem without checking its clauses
    again: the only literal checks are those of `add_clause`, one per
    blocking clause, and the caller's problem keeps its clauses, its
    engine and its index as they were."""
    problem = _problem(4, [(1, 2), (-3, 4), (-1, -2)])
    solve(problem, record_trace=True)
    solve(problem)
    clauses, engine, index = list(problem.clauses), problem._engine, problem._index
    kept, indexed = (engine.kept, engine.absorbed), (index.kept, index.count)
    checked = []
    check = ColoringProblem._check_literals

    def recording(self, new):
        checked.append(list(new))
        return check(self, new)

    monkeypatch.setattr(ColoringProblem, "_check_literals", recording)
    models, exhausted = enumerate_models(problem, cap=3)
    assert not exhausted and len(models) == 3
    assert checked == [[tuple(-v if m[v - 1] else v for v in range(1, 5))] for m in models]
    assert problem.clauses == clauses
    assert problem._engine is engine and (engine.kept, engine.absorbed) == kept
    assert problem._index is index and (index.kept, index.count) == indexed


def test_monotonicity_adding_clauses_keeps_unsat():
    rng = random.Random(99)
    found = 0
    while found < 20:
        problem = _random_instance(rng)
        if solve(problem).kind != "unsat":
            continue
        found += 1
        extra = _random_instance(rng)
        merged = _problem(max(problem.var_count, extra.var_count),
                          list(problem.clauses) + list(extra.clauses))
        assert solve(merged).kind == "unsat"


def test_replayer_rejects_tampered_trace():
    problem = _problem(2, [(1,), (-1, 2), (-2, -1)])
    verdict = solve(problem, record_trace=True)
    assert verdict.kind == "unsat"
    assert replay_unsat_trace(problem.clauses, verdict.trace)
    bad = [list(ev) for ev in verdict.trace]
    # claim a different clause forced the first implication
    for ev in bad:
        if ev[0] == "imply":
            ev[2] = (ev[2] + 1) % len(problem.clauses)
            break
    with pytest.raises(CertificateError):
        replay_unsat_trace(problem.clauses, bad)


def test_case_split_refutation_replays_only_with_its_assumption_unit():
    # forcing v1 blue needs a case split: with v1 red every sign of v2, v3 dies
    problem = _problem(3, [(-1, 2, 3), (-1, 2, -3), (-1, -2, 3), (-1, -2, -3)])
    refuted = forced_color(problem, "v1", record_trace=True).when_red
    trace = refuted.trace
    assert trace[0] == ("imply", 1, 4) and trace[1][0] == "decide"
    assert any(ev[0] == "flip" for ev in trace)
    assert replay_unsat_trace(problem.clauses + [(1,)], trace)
    with pytest.raises(CertificateError, match="clause id 4 out of range"):
        replay_unsat_trace(problem.clauses, trace)
    with pytest.raises(CertificateError, match="implied literal 1 not in clause 4"):
        replay_unsat_trace(problem.clauses + [(-1,)], trace)


def test_replayer_rejects_truncated_trace():
    problem = _problem(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])
    verdict = solve(problem, record_trace=True)
    assert verdict.kind == "unsat"
    with pytest.raises(CertificateError):
        replay_unsat_trace(problem.clauses, verdict.trace[:-1])


def test_model_replay_rejects_bad_model():
    problem = _problem(2, [(1, 2)])
    with pytest.raises(CertificateError):
        replay_model(problem.clauses, (False, False))


_CNF = "p cnf 2 2\n1 -2 0\n2 0\n"


@pytest.mark.parametrize("cnf, varmap, message", [
    (_CNF, "1 A\n2 B\n0 B\n", "variable map line '0 B'"),
    (_CNF, "1 A\n2 B\n-1 Z\n", "variable map line '-1 Z'"),
    (_CNF, "1 A\n2 B\n3 C\n", "variable map line '3 C'"),
    (_CNF + "p cnf 5 2\n", "1 A\n2 B\n", "second problem line"),
    ("p cnf 2 3\n1 -2 0\n2 0\n", "1 A\n2 B\n", "declares 3 clauses, found 2"),
    (_CNF, "1 A\n2 A\n", "two variables the same name"),
], ids=["varmap-index-0", "varmap-index-negative", "varmap-index-undeclared",
        "second-header", "clause-count", "varmap-name-twice"])
def test_parse_dimacs_rejects_bad_input(cnf, varmap, message):
    with pytest.raises(ValueError, match=message):
        parse_dimacs(cnf, varmap)


def test_parse_dimacs_rejects_repeated_or_unnamed_variables():
    for varmap in ("1 A\n2 B\n1 C\n", "1 A\n2\n"):
        with pytest.raises(ValueError, match="needs a name and a new index"):
            parse_dimacs(_CNF, varmap)
    assert parse_dimacs(_CNF, "2 B\n1 A\n").names == ["A", "B"]


def test_parse_dimacs_checks_the_header_against_the_map_before_building_names():
    """A header that declares more variables than the map names is refused
    before anything of the declared size is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="declares 200000 variables"):
            parse_dimacs("p cnf 200000 0\n", "1 A\n2 A\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _random_clauses(rng, nv, count):
    """`count` clauses over variables 1..nv: some empty, some units."""
    return [tuple(rng.choice((1, -1)) * rng.randint(1, nv)
                  for _ in range(rng.choice((0, 1, 1, 2, 3, 4)) if nv else 0))
            for _ in range(count)]


def test_parse_dimacs_reads_back_what_export_writes():
    """parse_dimacs(*export_dimacs(p)) has p's clauses and names, with zero
    clauses, unit and empty clauses, and the variable map in any order."""
    rng = random.Random(20)
    for trial in range(300):
        nv = rng.randint(0, 9)
        names = [f"n{v}" if v % 3 else f"P({v}, {-v})" for v in rng.sample(range(100), nv)]
        problem = ColoringProblem(
            clauses=_random_clauses(rng, nv, rng.choice((0, 1, rng.randint(2, 30)))),
            names=names, name_to_var={n: i + 1 for i, n in enumerate(names)})
        cnf, varmap = export_dimacs(problem)
        lines = varmap.splitlines(keepends=True)
        for text in (varmap, "".join(rng.sample(lines, len(lines)))):
            again = parse_dimacs(cnf, text)
            assert again.clauses == problem.clauses, (trial, cnf)
            assert again.names == problem.names and again.name_to_var == problem.name_to_var
        if nv:
            with pytest.raises(ValueError, match=f"variable map names {nv - 1}"):
                parse_dimacs(cnf, "".join(lines[1:]))
    assert parse_dimacs("p cnf 2 2\n 0\n2 0\n", "1 a\n2 b\n").clauses == [(), (2,)]
    with pytest.raises(ValueError, match="variable map names 1"):
        parse_dimacs("p cnf 3 0\n", "\n2 B\n")
    assert parse_dimacs("p cnf 0 0\n", "").clauses == []


_GOOD = "p cnf 3 2\n1 -2 0\n3 0\n"
_GOOD_MAP = "1 a\n2 b\n3 c\n"


@pytest.mark.parametrize("cnf", [
    "p cnf 3 2\n1 -2\n3 0\n",
    "p cnf 3 2\n1 -2 0\n\n3 0\n",
    "p cnf 3 2\n1\t-2 0\n3 0\n",
    "p cnf 3 2\n1  -2 0\n3 0\n",
    "p cnf 3 2\n1.5 -2 0\n3 0\n",
    "p cnf 3 2\n1e3 0\n3 0\n",
    "p cnf 3 2\ntrue 0\n3 0\n",
    "p cnf 3 2\n[2] 0\n3 0\n",
    "p cnf 3 2\n--1 0\n3 0\n",
    "p cnf 3 2\n01 -2 0\n3 0\n",
    "p cnf 3 2\n1 0 -2 0\n3 0\n",
    "p cnf 3 2\n1 -4 0\n3 0\n",
    "p cnf 3 2\n1 -2 0\np cnf 3 2\n3 0\n",
    "p cnf 3 2\n1 -2 0\n3 0",
    "c made by hand\np cnf 3 2\n1 -2 0\n3 0\n",
    "p cnf 3 2\nc made by hand\n1 -2 0\n3 0\n",
    "p cnf 3 3\n1 -2 0\n3 0\n",
    "p cnf 3 1\n1 -2 0\n3 0\n",
    "p cnf 3 2\n1 -2 0 \n3 0\n",
    "p cnf 3 2\n 1 -2 0\n3 0\n",
    "p cnf 3 2\n1 -2 0\r\n3 0\r\n",
    "p cnf 3 2\n1 -0 0\n3 0\n",
    "p cnf 3 2\n1 - 0\n3 0\n",
    "p cnf 3 2\n1-2 0\n3 0\n",
    "p cnf 3 2\n1 -2 0\n3 0 0\n",
    "p cnf 3 2\n1 -2 0\n0\n",
    "p cnf 3 2\n1 -2 0\n3 0\n0\n",
    "p cnf 3 2\n1 -2 0\n" + "9" * 5000 + " 0\n",
    "p cnf 03 2\n1 -2 0\n3 0\n",
    "p  cnf 3 2\n1 -2 0\n3 0\n",
    "p cnf 3 2 \n1 -2 0\n3 0\n",
    "p cnf 3\n1 -2 0\n3 0\n",
    "p cnf 0 0",
    "",
], ids=["dropped-zero", "blank-line", "tab", "double-space", "decimal", "exponent",
        "true", "bracketed", "double-minus", "leading-zero", "zero-inside-clause",
        "out-of-range", "second-header", "no-final-newline", "comment-first",
        "comment-inside", "count-too-high", "count-too-low", "trailing-space",
        "leading-space", "crlf", "minus-zero", "bare-minus", "no-space-between",
        "double-terminator", "bare-zero-line", "extra-line", "huge-literal",
        "header-leading-zero", "header-double-space", "header-trailing-space",
        "header-short", "header-without-newline", "empty-text"])
def test_parse_dimacs_refuses_every_other_form(cnf):
    assert parse_dimacs(_GOOD, _GOOD_MAP).clauses == [(1, -2), (3,)]
    with pytest.raises(ValueError):
        parse_dimacs(cnf, _GOOD_MAP)


def _naive_check(clauses, model, assumptions):
    def true(lit):
        return abs(lit) <= len(model) and bool(model[abs(lit) - 1]) == (lit > 0)
    return all(map(true, assumptions)) and all(any(map(true, c)) for c in clauses)


def test_check_model_agrees_with_a_naive_evaluator():
    """On random clause sets (empty clauses included), models of bools or
    0/1, some shorter than the variable count, and random assumptions."""
    rng = random.Random(21)
    outcomes = set()
    for _ in range(3000):
        nv = rng.randint(0, 6)
        clauses = _random_clauses(rng, nv, rng.randint(0, 8))
        model = [rng.random() < 0.5 for _ in range(rng.randint(max(nv - 2, 0), nv))]
        if rng.random() < 0.5:
            model = [int(b) for b in model]
        assumptions = [rng.choice((1, -1)) * rng.randint(1, nv)
                       for _ in range(rng.randint(0, 2) if nv else 0)]
        got = check_model(clauses, model, assumptions)
        assert got == _naive_check(clauses, model, assumptions), (clauses, model, assumptions)
        outcomes.add(got)
    assert outcomes == {True, False}
    assert check_model([(3,)], (True, True)) is False
    assert check_model([(1, 3)], (True, False)) is True
    assert check_model([(1,)], (True,), [2]) is False
    assert check_model([()], (True,)) is False
    assert check_model([], ()) is True


@pytest.mark.parametrize("event", [[], ["imply", 1], ["conflict"], ["decide"],
                                   ["decide", 0], ["imply", 1, "0"], 7, ["nosuch", 1]],
                         ids=["empty", "imply-without-clause", "conflict-without-clause",
                              "decide-without-literal", "zero-literal",
                              "string-clause-id", "not-a-list", "unknown-tag"])
def test_malformed_trace_events_are_certificate_errors(event):
    problem = _problem(2, [(1,), (-1, 2), (-2, -1)])
    trace = list(solve(problem, record_trace=True).trace)
    assert replay_unsat_trace(problem.clauses, trace)
    bad = trace[:1] + [event] + trace[1:]
    with pytest.raises(CertificateError):
        replay_unsat_trace(problem.clauses, bad)
