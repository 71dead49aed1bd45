"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (the tool's contract is exact arithmetic); the only
tolerances are the wall-clock bound on the full verification run and the
model cap of the enumeration mode.
"""

import json
import random

from _oracles import chain_sets_brute, embeddings_brute
from bluefive.configuration import (Configuration, ell_chains, emit_clauses,
                                    match_template, template)
from bluefive.field import ONE
from bluefive.figures import FIGURE_IDS, load_figure, self_check
from bluefive.geometry import (chord_rotation, dist2, hex_indices, node,
                               lattice_vectors_of_norm2)
from bluefive.lemmata import (Options, SCRIPT_ORDER, replay_certificate,
                              verify_all, write_certificates)
from bluefive.solver import (ColoringProblem, brute_force, check_model, solve)
from bluefive.tilings import (PATTERN_A, PATTERN_B, distance5_invariance,
                              validate_pattern)

from test_geometry import _random_isometry
from test_tilings import flip


def _report(flag: bool, label: str) -> None:
    print(f"{'PASS' if flag else 'FAIL'} {label}")
    assert flag, label


def test_criterion_1_full_verification_with_certificates(full_run, tmp_path):
    run, elapsed = full_run
    ok = (set(run.reports) == set(SCRIPT_ORDER)
          and all(r.status == "passed" for r in run.reports.values()))
    ok = ok and run.obligation_count >= 40
    ok = ok and elapsed < 60.0

    certified = replayed = 0
    for report in run.reports.values():
        for res in report.obligations:
            if res.kind in ("FORCED", "UNSAT"):
                certified += 1
                assert res.certificate is not None, res.oid
    manifest = write_certificates(run, tmp_path)
    for fname in manifest["files"]:
        payload = json.loads((tmp_path / fname).read_text())
        if payload["kind"] in ("FORCED", "UNSAT"):
            assert replay_certificate(payload)
            replayed += 1
    ok = ok and certified > 0 and replayed == certified
    _report(ok, "criterion 1: all 7 scripts pass "
                f"({run.obligation_count} obligations, {elapsed:.1f}s < 60s, "
                f"{replayed}/{certified} certificates replayed)")


def test_criterion_2_solver_oracle_equivalence():
    mismatches = 0
    checked = 0
    for fid in FIGURE_IDS:
        figure = load_figure(fid)
        problem = emit_clauses(figure.cfg, figure.rules, figure.colors)
        fast, slow = solve(problem), brute_force(problem)
        checked += 1
        if fast.kind != slow.kind:
            mismatches += 1
        for verdict in (fast, slow):
            if verdict.kind == "sat":
                assert check_model(problem.clauses, verdict.model)

    rng = random.Random(20240831)
    for _ in range(500):
        nvars = rng.randint(2, 18)
        clauses = []
        for _ in range(rng.randint(1, 40)):
            width = rng.randint(1, 4)
            vs = rng.sample(range(1, nvars + 1), min(width, nvars))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        names = [f"v{i}" for i in range(1, nvars + 1)]
        problem = ColoringProblem(clauses, names, {n: i + 1 for i, n in enumerate(names)})
        fast, slow = solve(problem), brute_force(problem)
        checked += 1
        if fast.kind != slow.kind:
            mismatches += 1
        if fast.kind == "sat":
            assert check_model(problem.clauses, fast.model)
            assert check_model(problem.clauses, slow.model)
    _report(mismatches == 0,
            f"criterion 2: solve == brute force on {checked} instances "
            f"(8 registries + 500 random), 0 mismatches required")


def test_criterion_3_geometry_suite():
    rng = random.Random(20240831)
    failures = 0
    for _ in range(10 ** 4):
        isos = [_random_isometry(rng) for _ in range(rng.randint(1, 3))]
        p = node(rng.randint(-5, 5), rng.randint(-5, 5))
        q = node(rng.randint(-5, 5), rng.randint(-5, 5))
        ip, iq = p, q
        for iso in isos:
            ip, iq = iso(ip), iso(iq)
        if dist2(ip, iq) != dist2(p, q):
            failures += 1
    rot = chord_rotation(node(0, 0), -1)
    exact = (rot.cos * rot.cos + rot.sin * rot.sin == ONE)
    for a, b in ((1, 1), (2, -1), (-1, 2)):
        exact = exact and dist2(node(a, b), rot(node(a, b))) == ONE
    fig3 = load_figure("fig3").cfg
    exact = exact and dist2(fig3.point_of("X'"), fig3.point_of("X''")) == ONE
    _report(failures == 0 and exact,
            "criterion 3: 10^4 isometry applications preserve dist2 exactly; "
            "turn identities and the unit triangle X-X'-X'' hold exactly")


def test_criterion_4_tilings():
    ok = True
    for pattern in (PATTERN_A, PATTERN_B):
        report = validate_pattern(pattern, 12)
        ok = ok and report.ok and report.red_unit_pairs == 0 and report.blue_chains == 0
        ok = ok and distance5_invariance(pattern)
        ok = ok and len(lattice_vectors_of_norm2(25)) == 6
    fault = validate_pattern(flip(PATTERN_B, (1, 0)), 8)
    ok = ok and not fault.ok and bool(fault.pair_witnesses)
    _report(ok, "criterion 4: both patterns valid at R=12, distance-5 "
                "invariant for all 6 norm-25 vectors, injected fault located")


def test_criterion_5_matching_and_chains_oracle():
    rng = random.Random(77)
    ok = True

    def lattice_cfg(coords):
        return Configuration(
            (f"p{i}", node(a, b)) for i, (a, b) in enumerate(coords))

    chain_cases = [lattice_cfg(hex_indices(2))]
    for _ in range(4):
        coords = set()
        while len(coords) < 14:
            coords.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        chain_cases.append(lattice_cfg(sorted(coords)))
    chain_cases += [load_figure(fid).cfg for fid in FIGURE_IDS]
    for cfg in chain_cases:
        got = {frozenset(c) for c in ell_chains(cfg, 5)}
        ok = ok and got == chain_sets_brute(cfg, 5)

    match_cases = []
    for _ in range(3):
        coords = set()
        while len(coords) < 12:
            coords.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        match_cases.append((lattice_cfg(sorted(coords)), "T3"))
        match_cases.append((match_cases[-1][0], "EQ3_CENTERED"))
    match_cases += [(load_figure("fig1a").cfg, "EQ3_CENTERED"),
                    (load_figure("fig1b").cfg, "EQ3_CENTERED"),
                    (load_figure("fig3").cfg, "T7"),
                    (load_figure("fig4").cfg, "T4"),
                    (load_figure("fig5").cfg, "T5"),
                    (load_figure("fig6").cfg, "T7"),
                    (load_figure("figcol1").cfg, "T6"),
                    (load_figure("figcol2").cfg, "T3")]
    for cfg, tid in match_cases:
        tpl = template(tid)
        ok = ok and set(match_template(cfg, tpl)) == embeddings_brute(cfg, tpl)
    _report(ok, "criterion 5: chain and embedding enumeration agree with "
                "brute-force subset search on random configurations and "
                "every shipped registry")


def test_criterion_6_transcription_self_check():
    failures = []
    for fid in FIGURE_IDS:
        failures += self_check([load_figure(fid)])[0]
    _report(not failures,
            f"criterion 6: all {len(FIGURE_IDS)} registries pass the "
            f"transcription self-check (named blue points, five-chains, "
            f"template placements)")


def test_criterion_7_uniqueness_enumeration(full_run):
    run = verify_all(Options(stretch=True, stretch_radius=6), only=["col1", "col2"])
    ok = True
    details = []
    for sid in ("col1", "col2"):
        stretch = run.reports[sid].stretch
        # a cap hit would be reported via exhausted=False without failing the
        # criterion; every enumerated restriction must still match
        ok = ok and stretch is not None and stretch["all_match_canonical"]
        details.append(f"{sid}: {stretch['central_restrictions']} "
                       f"restriction(s), exhausted={stretch['exhausted']}")
    _report(ok, "criterion 7 (stretch): radius-6 enumeration terminates and "
                "every central restriction matches the canonical pattern "
                f"up to lattice symmetry [{'; '.join(details)}]")
