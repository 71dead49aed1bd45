import hashlib
import json
from collections import Counter

import pytest

import bluefive.lemmata as lemmata
from _oracles import reference_stage_problem
from bluefive.configuration import Configuration, RuleSet, emit_clauses
from bluefive.figures import CLAIM_CHECKS, CLAIM_KINDS, load_figure
from bluefive.geometry import hex_indices, lattice_symmetries, node
from bluefive.lemmata import (ANCESTORS, DEPENDENCIES, Options, SCRIPT_ORDER,
                              Stage, UnprovedRuleError, build_stages, replay_certificate,
                              run_script, verify_all, write_certificates)
from bluefive.solver import (CertificateError, enumerate_models, export_dimacs, parse_dimacs,
                             replay_unsat_trace, solve)
from bluefive.tilings import PATTERNS


def test_all_scripts_pass(full_run):
    run, _ = full_run
    assert set(run.reports) == set(SCRIPT_ORDER)
    for sid, report in run.reports.items():
        assert report.status == "passed", (sid, [o.oid for o in report.obligations
                                                 if o.status != "pass"])
    assert run.ok


def test_obligation_count(full_run):
    """The benchmark's proof workload expects exactly this many rows."""
    run, _ = full_run
    assert run.obligation_count == 198
    kinds = Counter(o.kind for r in run.reports.values() for o in r.obligations)
    assert kinds == {"FORCED": 84, "GEOM_IDENTITY": 54, "PATTERN_PRESENT": 25,
                     "CHAIN_CLAIM": 20, "UNSAT": 11, "SAT_WITNESS": 4}


def test_forcing_order_col1(full_run):
    run, _ = full_run
    oids = [o.oid for o in run.reports["col1"].obligations if o.kind == "FORCED"]
    spine = ["forced-I", "forced-J", "forced-K", "forced-L", "forced-M",
             "forced-N", "forced-R", "forced-Ap", "forced-Bp", "forced-Fp",
             "forced-X", "forced-Y", "forced-C'", "forced-D'", "forced-E'"]
    positions = [oids.index(o) for o in spine]
    assert positions == sorted(positions)


def test_forcing_order_col2(full_run):
    run, _ = full_run
    oids = [o.oid for o in run.reports["col2"].obligations if o.kind == "FORCED"]
    groups = [{"forced-D", "forced-G"},
              {"forced-E", "forced-F", "forced-H", "forced-I", "forced-J",
               "forced-K"},
              {"forced-Bp"}, {"forced-N"}, {"forced-C", "forced-Ap"}]
    boundary = -1
    for group in groups:
        positions = [oids.index(o) for o in group]
        assert min(positions) > boundary
        boundary = max(positions)


def _break_dist2_claim(monkeypatch, fid, claim_id):
    """Have the scripts read `fid` with one squared-distance claim made false."""
    def corrupted(name):
        figure = load_figure(name)
        if name == fid:
            claim = next(c for c in figure.claims["dist2"] if c.get("id") == claim_id)
            claim["equals"] += 1
        return figure

    monkeypatch.setattr(lemmata, "load_figure", corrupted)


def test_gating_blocks_downstream(monkeypatch):
    _break_dist2_claim(monkeypatch, "fig1a", "side-ab")
    run = verify_all()
    assert run.reports["bluetr"].status == "failed"
    for sid in ("redtr", "t7", "t3t6", "col1", "col2", "theorem"):
        assert run.reports[sid].status == "blocked", sid
    assert not run.ok


def test_only_adds_dependencies_in_script_order():
    run = verify_all(only=["t7"])
    assert list(run.reports) == ["bluetr", "t7"]
    assert run.ok


def test_unknown_script_rejected():
    with pytest.raises(KeyError):
        verify_all(only=["nosuch"])


def test_disabled_script_blocks_only_its_dependents(monkeypatch):
    _break_dist2_claim(monkeypatch, "fig3", "chord-a")
    run = verify_all()
    assert list(run.reports) == list(SCRIPT_ORDER)
    assert run.reports["t7"].status == "failed"
    for sid, missing in (("t3t6", "t7"), ("col1", "t3t6, t7"), ("theorem", "col1, t3t6, t7")):
        assert run.reports[sid].status == "blocked", sid
        assert run.reports[sid].reason == f"unverified dependencies: {missing}", sid
    for sid in ("bluetr", "redtr", "col2"):
        assert run.reports[sid].passed, sid


def test_run_script_requires_grants():
    report = run_script("redtr", Options(), passed=frozenset())
    assert report.status == "blocked"
    assert report.reason == "unverified dependencies: bluetr"


def test_t3t6_self_checks_every_registry(monkeypatch):
    def corrupted(fid):
        figure = load_figure(fid)
        if fid == "fig6":
            chain = next(c for c in figure.claims["ell5"]
                         if c["nodes"] == ["M", "N", "R", "S", "V"])
            chain["nodes"] = ["M", "N", "S", "R", "V"]
        return figure

    monkeypatch.setattr(lemmata, "load_figure", corrupted)
    report = run_script("t3t6", passed=ANCESTORS["t3t6"])
    check = report.obligations[0]
    assert check.oid == "transcription-self-check" and check.status == "fail"
    assert check.detail == {"failures": ["fig6: M-N-S-R-V is not a unit five-chain"]}
    assert report.status == "failed"


def test_claim_obligations_resolve_to_one_figure_claim(full_run):
    """Each CLAIM obligation id names exactly one claim among its script's
    figures, each claim id names one obligation, and the claim's section
    sets the reported kind."""
    sections = dict.fromkeys(CLAIM_CHECKS, 0)
    run, _ = full_run
    for sid in SCRIPT_ORDER:
        _, figures = build_stages(sid, Options())
        obligations = lemmata.OBLIGATIONS[sid]
        claims = [(section, claim) for figure in figures for section in sections
                  for claim in figure.claims.get(section, ()) if "id" in claim]
        ids = [claim["id"] for _, claim in claims]
        assert len(set(ids)) == len(ids), sid
        assert sorted(ids) == sorted(ob.oid for ob in obligations
                                     if ob.kind == lemmata.CLAIM), sid
        reported = {o.oid: o for o in run.reports[sid].obligations}
        for section, claim in claims:
            sections[section] += 1
            result = reported[claim["id"]]
            assert (result.kind, result.status) == (CLAIM_KINDS[section], "pass")
    assert sections == {"dist2": 23, "images": 18, "ell5": 20, "patterns": 25,
                        "extensions": 3, "symmetry": 1, "sublattice": 1, "invariance": 1}
    kinds = [o.kind for r in run.reports.values() for o in r.obligations
             if o.kind in ("CHAIN_CLAIM", "PATTERN_PRESENT") and o.status == "pass"]
    assert (kinds.count("CHAIN_CLAIM"), kinds.count("PATTERN_PRESENT")) == (20, 25)


def test_each_claim_is_decided_once_per_run(monkeypatch):
    """The transcription self-check decides every claim of the figures the
    scripts load, and each CLAIM row reports that decision without
    deciding it again."""
    calls = []
    for section, check in list(CLAIM_CHECKS.items()):
        def counted(cfg, claim, check=check):
            calls.append(claim)
            return check(cfg, claim)
        monkeypatch.setitem(CLAIM_CHECKS, section, counted)
    assert verify_all(Options()).ok
    # 44 of them are id-less unit pairs, each of a blue node and its red neighbour
    assert len(calls) == 163


def _bluetr_with_edited_chains(monkeypatch, edit):
    def edited(fid):
        figure = load_figure(fid)
        edit({c.get("id"): c for c in figure.claims["ell5"]})
        return figure

    monkeypatch.setattr(lemmata, "load_figure", edited)
    report = run_script("bluetr")
    assert report.status == "failed"
    return {o.oid: o for o in report.obligations}


def test_corrupted_claim_fails_self_check_and_obligation(monkeypatch):
    def swap(chains):
        chains["chain-xadeb"]["nodes"] = ["X", "A", "E", "D", "B"]

    results = _bluetr_with_edited_chains(monkeypatch, swap)
    assert results["transcription-self-check"].detail == {
        "failures": ["fig1a: X-A-E-D-B is not a unit five-chain"]}
    chain = results["chain-xadeb"]
    assert (chain.kind, chain.status) == ("CHAIN_CLAIM", "fail")
    assert chain.detail == {"chain": ["X", "A", "E", "D", "B"]}
    assert results["chain-yafgc"].status == "pass"


def test_corrupted_distance_and_image_claims_fail_self_check_and_obligation(monkeypatch):
    def edited(fid):
        figure = load_figure(fid)
        claims = {c["id"]: c for section in ("dist2", "images")
                  for c in figure.claims[section] if "id" in c}
        claims["side-ab"]["equals"] = 8
        claims["image-B'"]["nodes"] = ["B", "C'"]
        return figure

    monkeypatch.setattr(lemmata, "load_figure", edited)
    report = run_script("redtr", passed=frozenset({"bluetr"}))
    assert report.status == "failed"
    results = {o.oid: o for o in report.obligations}
    cfg = load_figure("fig1b").cfg
    bp, cp = cfg.point_of("B'"), cfg.point_of("C'")
    assert results["transcription-self-check"].detail == {"failures": [
        "fig1b: A,B is at squared distance 9, not 8",
        f"fig1b: ['chord', 'O', -1] takes B to ({bp.x}, {bp.y}), not to C'"]}
    side, image = results["side-ab"], results["image-B'"]
    assert (side.kind, side.status) == (image.kind, image.status) == ("GEOM_IDENTITY", "fail")
    assert side.detail == {"dist2": "9", "expected": "8"}
    assert image.detail == {"image": f"({bp.x}, {bp.y})", "expected": f"({cp.x}, {cp.y})"}
    assert results["side-bc"].status == results["image-A'"].status == "pass"


def _moved(name: str, to):
    """An edit that moves the registry node `name` to the point `to`."""
    def edit(figure):
        figure.cfg = Configuration((nm, to if nm == name else pt)
                                   for nm, pt in zip(figure.cfg.names, figure.cfg.points))
    return edit


def _claim_set(section: str, index: int, **changes):
    """An edit that changes fields of one claim of a registry section."""
    def edit(figure):
        figure.claims[section][index].update(changes)
    return edit


def _failed_rows(monkeypatch, sid: str, fid: str, edit) -> dict:
    """The results of running `sid`, with its ancestors passed, on registry
    `fid` changed by `edit`; the script must fail."""
    def edited(name):
        figure = load_figure(name)
        if name == fid:
            edit(figure)
        return figure

    monkeypatch.setattr(lemmata, "load_figure", edited)
    report = run_script(sid, Options(patch_radius=2), ANCESTORS[sid])
    assert report.status == "failed"
    return {o.oid: o for o in report.obligations}


_VECTORS25 = [[-5, 0], [-5, 5], [0, -5], [0, 5], [5, -5], [5, 0]]


@pytest.mark.parametrize("sid, fid, edit, oid, detail, failure", [
    ("t7", "fig3", _moved("X''", node(0, 0)), "unit-triangle",
     {"image": "(-1/2*sqrt3, 3/2)", "expected": "(5/12*sqrt3 + 1/4*sqrt11, 5/4 + -1/12*sqrt33)"},
     "fig3: ['turn60', 'X', -1] takes X'' to (-1/2*sqrt3, 3/2), not to X'"),
    ("col1", "figcol1", _moved("A", node(-1, 0)), "translate-A",
     {"image": "(4, 0)", "expected": "(5, 0)"},
     "figcol1: ['translate', 5, 0] takes A to (4, 0), not to A'"),
    ("col1", "figcol1", _moved("A", node(-1, 0)), "step-symmetry",
     {"block_invariant": False, "steps": [[5, 0], [-5, 5], [0, -5]]},
     "figcol1: 2 sixths of a turn about [2, 0] do not map A,B,C,D,E,F and the steps "
     "[[5, 0], [-5, 5], [0, -5]] onto themselves"),
    ("col2", "figcol2", _moved("B", node(5, 5)), "line-lattice",
     {"verified": ["A'", "A''", "A'''", "B'", "B''", "B'''", "C"], "lattice_index": 5},
     "figcol2: pattern B's sublattice of index 5 misses ['B']"),
    ("t3t6", "fig4", _moved("X", node(5, 5)), "s1-completions",
     {"candidates": 3, "open": [["Y"], ["Z"]], "outside": 1},
     "fig4: the T3 anchor A,B,C extends to T4 as {'candidates': 3, 'open': [['Y'], ['Z']], "
     "'outside': 1}, not {'candidates': 3, 'open': [['X'], ['Y'], ['Z']], 'outside': 0}"),
    ("t3t6", "fig4", _moved("A", node(9, 9)), "s1-completions",
     {"error": "anchor is not congruent to template T3"},
     "fig4: the extensions claim s1-completions cannot be decided: "
     "anchor is not congruent to template T3"),
    ("theorem", "figthm", _claim_set("invariance", 0, vectors=_VECTORS25[1:]),
     "distance5-invariance", {"patterns": ["A", "B"], "vectors": [tuple(v) for v in _VECTORS25]},
     f"figthm: the norm-25 lattice vectors are {[tuple(v) for v in _VECTORS25]}, "
     f"not {[tuple(v) for v in _VECTORS25[1:]]}"),
    ("redtr", "fig1b", _moved("A'", node(1, 0)), "chord-pair",
     {"dist2": "1", "expected": "3"}, "fig1b: O,A' is at squared distance 1, not 3"),
], ids=["turn60", "translate", "symmetry", "sublattice", "extensions",
        "extensions-anchor", "invariance", "chord-pair"])
def test_moved_geometry_fails_its_claim_row_and_the_self_check(monkeypatch, sid, fid, edit,
                                                               oid, detail, failure):
    """Each claim section and map kind decides its row on the registry's
    coordinates: a broken figure fails the row, which shows the values it
    found, and the self-check lists the claim."""
    results = _failed_rows(monkeypatch, sid, fid, edit)
    row = results[oid]
    assert (row.kind, row.status, row.detail) == ("GEOM_IDENTITY", "fail", detail)
    assert failure in results["transcription-self-check"].detail["failures"]


@pytest.mark.parametrize("section, index, changes, oid, kind, error", [
    ("images", 0, {"map": ["mirror", "B", "B"]}, "x-mirror", "GEOM_IDENTITY",
     "reflection line endpoints must be distinct"),
    ("dist2", 0, {"nodes": ["A", "Z"]}, "chord-a", "GEOM_IDENTITY", "unknown node 'Z'"),
    ("images", 1, {"map": ["chord", "B", 2]}, "image-xp", "GEOM_IDENTITY",
     "sense must be +1 or -1"),
    ("patterns", 0, {"template": "T9"}, "seven-red", "PATTERN_PRESENT",
     "unknown template 'T9'"),
    ("images", 0, {"map": ["shear", "B", "C"]}, "x-mirror", "GEOM_IDENTITY",
     "unknown map kind 'shear'"),
], ids=["mirror-line", "unknown-node", "chord-sense", "unknown-template", "map-kind"])
def test_malformed_claim_fails_its_row(monkeypatch, section, index, changes, oid, kind, error):
    """A claim its checker cannot decide fails its row, with the error as
    the detail, and the self-check names the figure and the claim; the
    run goes on."""
    results = _failed_rows(monkeypatch, "t7", "fig3", _claim_set(section, index, **changes))
    row = results[oid]
    assert (row.kind, row.status, row.detail) == (kind, "fail", {"error": error})
    assert results["transcription-self-check"].detail == {"failures": [
        f"fig3: the {section} claim {oid} cannot be decided: {error}"]}
    assert results["contradiction"].status == "pass"


_FIG1A_DIST2_IDS = ["centre-oa", "centre-ob", "centre-oc", "side-ab", "side-bc", "side-ca",
                    "xy-unit"]


@pytest.mark.parametrize("edit, failure, lost", [
    (lambda figure: figure.claims.update(dist=[{"nodes": ["A", "B"], "equals": 7}]),
     "fig1a: unknown claim section 'dist'", []),
    (lambda figure: figure.claims["dist2"].append({"nodes": ["Q", "O"], "equals": 1}),
     "fig1a: the dist2 claim ['Q', 'O'] cannot be decided: unknown node 'Q'", []),
    (lambda figure: figure.claims["dist2"].append({"nodes": ["D", "G"], "equals": 1}),
     "fig1a: D,G is at squared distance 3, not 1", []),
    (lambda figure: figure.claims["dist2"].append("A"),
     "fig1a: the dist2 claim 'A' cannot be decided: it must be a JSON object, got 'A'", []),
    (lambda figure: figure.claims.update(dist2={"nodes": ["A", "B"], "equals": 9}),
     "fig1a: the dist2 claim ['A', 'B'] cannot be decided: the dist2 section must be a JSON "
     "array, got {'nodes': ['A', 'B'], 'equals': 9}", _FIG1A_DIST2_IDS),
    (lambda figure: figure.claims["dist2"].append({"nodes": ["D"], "equals": 1}),
     "fig1a: the dist2 claim ['D'] cannot be decided: its 'nodes' must hold 2 items, not 1", []),
], ids=["unknown-section", "unit-unknown-node", "unit-distance", "claim-not-object",
        "section-not-list", "unit-one-node"])
def test_unchecked_claims_fail_the_self_check(monkeypatch, edit, failure, lost):
    """A claim section with no checker, a section that is not a list, a
    claim that is not an object, and an id-less unit distance claim that
    names an unknown node, is off unit distance or names one node, fail
    the self-check and so the script.  Every row passes but the `lost`
    ones, whose claims the edit removed."""
    results = _failed_rows(monkeypatch, "bluetr", "fig1a", edit)
    assert results.pop("transcription-self-check").detail == {"failures": [failure]}
    assert sorted(oid for oid, row in results.items() if row.status != "pass") == lost
    assert all(results[oid].detail == {"claims_with_id": 0} for oid in lost)


@pytest.mark.parametrize("index, equals, failure", [
    (1, 24, "figthm: A,B is at squared distance 25, not 24"),
    (2, 2, "figthm: B,C is at squared distance 1, not 2"),
], ids=["AB", "BC"])
def test_witness_pair_distances_without_an_id_fail_the_theorem(monkeypatch, index, equals,
                                                               failure):
    """The witness pair's distance |AB|^2 = 25 and its unit distance |BC|^2
    = 1 are claims without an id: only the self-check decides them, and
    breaking either fails the theorem."""
    results = _failed_rows(monkeypatch, "theorem", "figthm",
                           _claim_set("dist2", index, equals=equals))
    assert results["transcription-self-check"].detail == {"failures": [failure]}
    assert results["witness-pair-geometry"].status == "pass"


@pytest.mark.parametrize("sid, fid, edit, failure", [
    ("bluetr", "fig1a", lambda colors: colors.update(D="red"),
     "fig1a: D is drawn red, but its stage proves blue"),
    ("t7", "fig3", lambda colors: colors.update(X="blue"),
     "fig3: X is drawn blue, but its stage proves no colour"),
    ("col2", "figcol2", lambda colors: colors.pop("N"),
     "figcol2: N is drawn hollow, but its stage proves blue"),
], ids=["flip", "add", "drop"])
def test_edited_drawn_colour_fails_the_self_check(monkeypatch, sid, fid, edit, failure):
    """A registry draws exactly the colours its stage fixes and forces: one
    drawn colour flipped, added or dropped fails the self-check, naming the
    figure and the node, and no other row, since stages read their
    premises from the script table and not from the registry."""
    results = _failed_rows(monkeypatch, sid, fid, lambda figure: edit(figure.colors))
    assert results.pop("transcription-self-check").detail == {"failures": [failure]}
    assert all(row.status == "pass" for row in results.values())


def test_edited_drawn_colour_fails_verify_lemma(monkeypatch, tmp_path, capsys):
    """`bluefive verify lemma` exits 1 on a registry with a flipped colour,
    and both its report and its printed output, under the failing row,
    name the figure and the node."""
    from bluefive.cli import main

    def edited(name):
        figure = load_figure(name)
        if name == "fig3":
            figure.colors["A'"] = "red"
        return figure

    monkeypatch.setattr(lemmata, "load_figure", edited)
    report = tmp_path / "t7.json"
    assert main(["verify", "lemma", "t7", "--json", str(report)]) == 1
    failure = "fig3: A' is drawn red, but its stage proves blue"
    rows = {row["id"]: row for row in json.loads(report.read_text())["reports"]["t7"][
        "obligations"]}
    assert rows["transcription-self-check"]["detail"] == {"failures": [failure]}
    lines = capsys.readouterr().out.splitlines()
    row = next(i for i, line in enumerate(lines) if "FAIL transcription-self-check" in line)
    assert lines[row + 1].strip() == failure


def test_claim_obligation_needs_exactly_one_claim(monkeypatch):
    def relabel(chains):
        chains["chain-yafgc"]["id"] = "chain-xadeb"

    results = _bluetr_with_edited_chains(monkeypatch, relabel)
    assert results["transcription-self-check"].status == "pass"
    for oid, found in (("chain-xadeb", 2), ("chain-yafgc", 0)):
        assert (results[oid].kind, results[oid].status) == ("CLAIM", "fail")
        assert results[oid].detail == {"claims_with_id": found}


def _refused_stages() -> list:
    """The message of each script's refusal by build_stages."""
    found = []
    for sid in SCRIPT_ORDER:
        try:
            build_stages(sid, Options(patch_radius=2))
        except UnprovedRuleError as exc:
            found.append(str(exc))
    return found


def _refusal(sid: str, stage: str, rule: str) -> str:
    return f"script {sid}, stage {stage}: derived rule {rule} has not been granted"


def test_registry_rules_are_proved_only_once_granted(monkeypatch):
    """The registries encode every rule they list; build_stages lets a
    stage use a derived rule only when an ancestor of its script grants
    it, and names the script, the stage and the first rule it lacks."""
    assert _refused_stages() == []
    monkeypatch.setitem(lemmata.GRANTS, "t3t6", ())
    assert _refused_stages() == [_refusal("col1", "patch", "T3_TO_T6_SCHEMA")]
    monkeypatch.setattr(lemmata, "GRANTS", dict.fromkeys(SCRIPT_ORDER, ()))
    assert _refused_stages() == [
        _refusal("redtr", "main", "BLUE_EQ3_RED_CENTER"),
        _refusal("t7", "main", "BLUE_EQ3_RED_CENTER"),
        _refusal("t3t6", "t5-to-t6", "RED_EQ3_RED_CENTER"),
        _refusal("col1", "patch", "RED_EQ3_RED_CENTER"),
        _refusal("col2", "ring", "BLUE_EQ3_RED_CENTER")]
    monkeypatch.undo()
    stages, (figure,) = build_stages("redtr", Options())
    assert stages["main"].rules is figure.rules


def test_a_script_uses_only_its_ancestors_grants(monkeypatch):
    """A rule granted by a script that passed but is no ancestor is not
    admitted: with its ancestors emptied, col2's ring stage is refused,
    alone and in a full run alike."""
    monkeypatch.setitem(lemmata.ANCESTORS, "col2", frozenset())
    refusal = _refusal("col2", "ring", "BLUE_EQ3_RED_CENTER")
    with pytest.raises(UnprovedRuleError) as alone:
        build_stages("col2", Options(patch_radius=2))
    with pytest.raises(UnprovedRuleError) as full:
        verify_all(Options(patch_radius=2))
    assert str(alone.value) == str(full.value) == refusal


def test_script_table_rows_resolve():
    """Ids are unique per script, every named stage and node exists, the id
    of exactly the CLAIM rows is carried by exactly one claim of the
    script's registries, and exactly the SAT_WITNESS rows name a canonical
    colouring."""
    spec_keys = {"figure", "patch", "points", "rules", "fixed", "anchors"}
    for sid in SCRIPT_ORDER:
        assert all(set(spec) <= spec_keys for spec in lemmata.SCRIPTS[sid]["stages"].values())
        stages, figures = build_stages(sid, Options())
        carried = Counter(claim["id"] for figure in figures for section in CLAIM_CHECKS
                          for claim in figure.claims.get(section, ()) if "id" in claim)
        obligations = lemmata.OBLIGATIONS[sid]
        ids = [ob.oid for ob in obligations]
        assert len(set(ids)) == len(ids), sid
        # write_certificates names each file after its id with ' spelled p
        assert len({oid.replace("'", "p") for oid in ids}) == len(ids), sid
        for ob in obligations:
            where = (sid, ob.oid)
            assert (carried[ob.oid] == 1) == (ob.kind == "CLAIM"), where
            assert (ob.coloring in PATTERNS) == (ob.kind == "SAT_WITNESS"), where
            if ob.kind in ("FORCED", "SAT_WITNESS") or (ob.kind == "UNSAT" and ob.cnf is None):
                assert ob.stage in stages, where
            if ob.stage is None:
                continue
            cfg = stages[ob.stage].cfg
            for name in (ob.node or "", *ob.exclude):
                assert not name or name in cfg.index, (where, name)
    with pytest.raises(TypeError):
        lemmata.Obligation(oid="x", kind="FORCED", statement="", nod="X")


def test_dependencies_acyclic_and_ordered():
    seen = set()
    for sid in SCRIPT_ORDER:
        assert all(dep in seen for dep in DEPENDENCIES[sid]), sid
        seen.add(sid)
    # ANCESTORS is the transitive closure of DEPENDENCIES, here by search
    for sid in SCRIPT_ORDER:
        reached, frontier = set(), list(DEPENDENCIES[sid])
        while frontier:
            dep = frontier.pop()
            if dep not in reached:
                reached.add(dep)
                frontier += DEPENDENCIES[dep]
        assert ANCESTORS[sid] == reached, sid


def test_notes_attached_to_reports(full_run):
    run, _ = full_run
    assert any(n["id"] == "chain-colour-xadeb" for n in run.reports["bluetr"].notes)
    assert any(n["id"] == "triangle-side-three" for n in run.reports["redtr"].notes)
    assert any(n["id"] == "chain-colour-ajnmr" for n in run.reports["col1"].notes)


def test_forced_and_unsat_have_certificates(full_run):
    run, _ = full_run
    for sid, report in run.reports.items():
        for res in report.obligations:
            if res.kind in ("FORCED", "UNSAT"):
                assert res.certificate is not None, (sid, res.oid)


def test_bundle_holds_only_what_the_replayer_checks(bundle):
    """Only FORCED, UNSAT and SAT_WITNESS rows write files; a sat entry
    carries its model and no trace, and every trace event is a decision,
    an implication, a flip or a conflict (at R=7 every refutation is by
    propagation alone)."""
    assert Counter(p["kind"] for p in bundle.values()) == {
        "FORCED": 84, "UNSAT": 11, "SAT_WITNESS": 4}
    tags = set()
    for payload in bundle.values():
        for tag, entry in payload["certificate"].items():
            if tag in ("cnf", "varmap"):
                continue
            evidence = "model" if entry["kind"] == "sat" else "trace"
            assert set(entry) == {"kind", "assumptions", evidence}
            tags.update(ev[0] for ev in entry.get("trace", ()))
    assert {"imply", "conflict"} <= tags <= {"imply", "decide", "flip", "conflict"}


@pytest.mark.parametrize("radius", [7, 9])
def test_certified_models_are_the_untraced_models(full_run, radius):
    """Each sat entry's model is the one an untraced solve of its CNF under
    its assumptions finds, so the sat sides need no traced search."""
    run = (full_run[0] if radius == 7
           else verify_all(Options(patch_radius=radius, emit_certificates=True)))
    entries = [(res.certificate, entry) for report in run.reports.values()
               for res in report.obligations if res.certificate is not None
               for entry in res.certificate.values()
               if isinstance(entry, dict) and entry["kind"] == "sat"]
    assert len(entries) == 88
    for cert, entry in entries:
        model = solve(parse_dimacs(cert["cnf"], cert["varmap"]), entry["assumptions"]).model
        assert [int(b) for b in model] == entry["model"]


def test_certificates_replay(full_run, tmp_path):
    run, _ = full_run
    manifest = write_certificates(run, tmp_path)
    names = sorted(manifest["files"])
    assert names
    for fname in names:
        payload = json.loads((tmp_path / fname).read_text())
        assert replay_certificate(payload)


def test_certified_rows_have_distinct_bundle_file_names(full_run, tmp_path):
    """Every certified row of the table, across scripts, gets its own file
    `{script}__{oid with ' spelled p}.json`: write_certificates keys its
    files by that name, so two rows of one name would leave one
    certificate silently overwritten by the other."""
    certified = [sid + "__" + ob.oid.replace("'", "p") + ".json" for sid in SCRIPT_ORDER
                 for ob in lemmata.OBLIGATIONS[sid]
                 if ob.kind in ("FORCED", "UNSAT", "SAT_WITNESS")]
    assert [name for name, n in Counter(certified).items() if n > 1] == []
    assert sorted(write_certificates(full_run[0], tmp_path)["files"]) == sorted(certified)


def test_refutation_trace_bound_to_declared_assumption(bundle):
    """A FORCED refutation may use only the assumption its entry declares,
    which replays as the unit clause of id C after the CNF's C clauses:
    with the declared assumption negated the replay itself fails, and an
    implication that cites clause C + 1 cites no clause."""
    for payload in bundle.values():
        if payload["kind"] != "FORCED":
            continue
        cert = payload["certificate"]
        problem = parse_dimacs(cert["cnf"], cert["varmap"])
        count = len(problem.clauses)
        trace = cert["refuted_side"]["trace"]
        [declared] = cert["refuted_side"]["assumptions"]
        if ["imply", declared, count] in trace:
            break
    else:
        pytest.fail("no FORCED refutation sets its assumption by an implication")
    at = trace.index(["imply", declared, count]) + 1
    assigned = {abs(ev[1]) for ev in trace if ev[0] != "conflict"}
    free = next(v for v in range(1, problem.var_count + 1) if v not in assigned)
    assert replay_unsat_trace(problem.clauses + [(declared,)], trace)
    with pytest.raises(CertificateError, match=f"implied literal {declared} not in clause"):
        replay_unsat_trace(problem.clauses + [(-declared,)], trace)

    negated = json.loads(json.dumps(payload))
    negated["certificate"]["refuted_side"]["assumptions"] = [-declared]
    negated["certificate"]["asserted_side"]["assumptions"] = [declared]
    extra = json.loads(json.dumps(payload))
    extra["certificate"]["refuted_side"]["trace"].insert(at, ["imply", free, count + 1])
    for bad, message in ((negated, "not in clause"), (extra, "out of range")):
        with pytest.raises(CertificateError, match=message):
            replay_certificate(bad)
    assert replay_certificate(payload)


@pytest.fixture(scope="module")
def bundle(full_run, tmp_path_factory):
    """The payload of every file of the R=7 bundle, by file name."""
    out = tmp_path_factory.mktemp("bundle")
    manifest = write_certificates(full_run[0], out)
    return {name: json.loads((out / name).read_text()) for name in sorted(manifest["files"])}


def _swap_sides(cert):
    cert["refuted_side"], cert["asserted_side"] = cert["asserted_side"], cert["refuted_side"]


# a certificate that proves nothing, or not the claim it is filed under:
# (kind of the file, change made to a copy of its payload)
_MUTATIONS = {
    "refuted-side-is-asserted-side": (
        "FORCED", lambda p, c: c.update(refuted_side=c["asserted_side"])),
    "forced-relabelled-unsat": ("FORCED", lambda p, c: p.update(kind="UNSAT")),
    "forced-status-fail": ("FORCED", lambda p, c: p.update(status="fail")),
    "sides-swapped": ("FORCED", lambda p, c: _swap_sides(c)),
    "asserted-side-assumes-the-refuted-literal": (
        "FORCED", lambda p, c: c["asserted_side"].update(
            assumptions=[-c["asserted_side"]["assumptions"][0]])),
    "refuted-side-assumes-two-literals": (
        "FORCED", lambda p, c: c["refuted_side"]["assumptions"].append(
            c["refuted_side"]["assumptions"][0])),
    "no-asserted-side": ("FORCED", lambda p, c: c.pop("asserted_side")),
    "extra-entry": ("FORCED", lambda p, c: c.update(witness=c["asserted_side"])),
    "no-kind": ("FORCED", lambda p, c: p.pop("kind")),
    "no-status": ("FORCED", lambda p, c: p.pop("status")),
    "no-trace": ("FORCED", lambda p, c: c["refuted_side"].pop("trace")),
    "no-model": ("FORCED", lambda p, c: c["asserted_side"].pop("model")),
    "no-varmap": ("FORCED", lambda p, c: c.pop("varmap")),
    "short-model": ("FORCED", lambda p, c: c["asserted_side"]["model"].pop()),
    "model-value-2": ("FORCED", lambda p, c: c["asserted_side"]["model"].__setitem__(0, 2)),
    "string-assumption": ("FORCED", lambda p, c: c["refuted_side"].update(assumptions=["1"])),
    "unsat-assumes-a-literal": ("UNSAT", lambda p, c: c["unsat"].update(assumptions=[1])),
    "unsat-relabelled-forced": ("UNSAT", lambda p, c: p.update(kind="FORCED")),
    "unsat-entry-marked-sat": ("UNSAT", lambda p, c: c["unsat"].update(kind="sat")),
    "witness-relabelled-unsat": ("SAT_WITNESS", lambda p, c: p.update(kind="UNSAT")),
    "witness-entry-marked-unsat": ("SAT_WITNESS", lambda p, c: c["witness"].update(kind="unsat")),
    "witness-status-fail": ("SAT_WITNESS", lambda p, c: p.update(status="fail")),
    "unsat-status": ("UNSAT", lambda p, c: p.update(status="fail")),
    "unknown-kind": ("FORCED", lambda p, c: p.update(kind="LEMMA")),
    # no certificate proves a geometric claim
    "geom-identity": ("FORCED", lambda p, c: p.update(kind="GEOM_IDENTITY")),
    # an entry holds exactly the evidence its verdict is checked by
    "sat-with-trace": ("FORCED", lambda p, c: c["asserted_side"].update(
        trace=c["refuted_side"]["trace"])),
    "unsat-with-model": ("UNSAT", lambda p, c: c["unsat"].update(model=[])),
    "no-certificate": ("SAT_WITNESS", lambda p, c: p.pop("certificate")),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_replay_rejects_a_certificate_that_does_not_prove_its_claim(bundle, mutation):
    kind, mutate = _MUTATIONS[mutation]
    files = [name for name, payload in bundle.items() if payload["kind"] == kind]
    assert files
    for name in files[:3]:
        payload = json.loads(json.dumps(bundle[name]))
        assert replay_certificate(payload)
        mutate(payload, payload["certificate"])
        with pytest.raises(CertificateError):
            replay_certificate(payload)


def test_replay_rejects_what_is_not_a_certificate_payload():
    identity = {"kind": "GEOM_IDENTITY", "status": "pass",
                "certificate": {"identity": {"dist2": "25", "expected": "25"}}}
    for payload in ([], None, {"kind": "FORCED", "status": "pass", "certificate": []},
                    identity):
        with pytest.raises(CertificateError):
            replay_certificate(payload)


def test_replay_reads_only_the_exported_cnf_form(bundle):
    """With a comment line in front of its CNF, no file of a real bundle
    replays: the reader takes only what `export_dimacs` writes."""
    for payload in bundle.values():
        payload = json.loads(json.dumps(payload))
        payload["certificate"]["cnf"] = "c comment\n" + payload["certificate"]["cnf"]
        with pytest.raises(ValueError, match="missing 'p cnf' header"):
            replay_certificate(payload)


def test_certificate_files_hash_match(full_run, tmp_path):
    import hashlib

    run, _ = full_run
    manifest = write_certificates(run, tmp_path)
    for fname, digest in manifest["files"].items():
        text = (tmp_path / fname).read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _lists(obj):
    """`obj` with every tuple turned into a list, as JSON reads it back."""
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lists(v) for v in obj]
    return obj


def test_certificate_files_are_compact_lines_of_their_payload(full_run, tmp_path):
    """Each certificate file is one line of compact JSON that reads back
    as its in-memory payload; the manifest stays indented."""
    run, _ = full_run
    manifest = write_certificates(run, tmp_path)
    payloads = {}
    for sid, report in run.reports.items():
        for res in report.obligations:
            if res.certificate is not None:
                safe = res.oid.replace("'", "p")
                payloads[f"{sid}__{safe}.json"] = {
                    "script": sid, "obligation": res.oid, "kind": res.kind,
                    "statement": res.statement, "status": res.status,
                    "certificate": res.certificate}
    assert sorted(manifest["files"]) == sorted(payloads) and len(payloads) == 99
    for fname, payload in payloads.items():
        text = (tmp_path / fname).read_text()
        assert text.endswith("\n") and text.count("\n") == 1, fname
        assert json.loads(text) == _lists(payload), fname
    text = (tmp_path / "manifest.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_in_memory_certificates_with_tuple_traces_replay(full_run):
    """A certificate held in memory keeps the solver's tuple trace events,
    and replays as it is."""
    run, _ = full_run
    traced = 0
    for report in run.reports.values():
        for res in report.obligations:
            if res.certificate is None:
                continue
            for entry in res.certificate.values():
                if isinstance(entry, dict) and "trace" in entry:
                    traced += 1
                    assert all(type(ev) is tuple for ev in entry["trace"])
            assert replay_certificate({"kind": res.kind, "status": res.status,
                                       "certificate": res.certificate})
    assert traced == 84 + 11  # one refutation per FORCED row and per UNSAT row


def test_reused_certs_directory_holds_only_the_new_bundle(full_run, tmp_path):
    """A directory that holds an earlier bundle ends up holding exactly the
    files the new manifest lists."""
    run, _ = full_run
    write_certificates(run, tmp_path)
    small = verify_all(Options(emit_certificates=True), only=["bluetr"])
    manifest = write_certificates(small, tmp_path)
    assert len(manifest["files"]) == 7
    assert ({p.name for p in tmp_path.iterdir()}
            == set(manifest["files"]) | {"manifest.json"})


@pytest.mark.parametrize("stray", ["notes.txt", "sub/", "manifest.json"])
def test_certs_directory_with_other_files_is_refused(tmp_path, stray):
    """A directory that holds anything no manifest there lists is refused
    before any file is removed or written; so is one whose manifest.json
    is not a manifest."""
    small = verify_all(Options(emit_certificates=True), only=["bluetr"])
    write_certificates(small, tmp_path)
    if stray == "manifest.json":
        (tmp_path / stray).write_text("[]\n")
    elif stray.endswith("/"):
        (tmp_path / stray).mkdir()
    else:
        (tmp_path / stray).write_text("kept\n")
    before = {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(FileExistsError, match="no certificate manifest there lists") as err:
        write_certificates(small, tmp_path)
    assert stray == "manifest.json" or f" {stray.rstrip('/')}," in str(err.value)
    assert {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()} == before


def test_report_json_round_trip(full_run, tmp_path):
    run, _ = full_run
    text = json.dumps(run.to_json(), sort_keys=True, indent=2) + "\n"
    path = tmp_path / "report.json"
    path.write_text(text)
    loaded = json.loads(path.read_text())
    assert json.dumps(loaded, sort_keys=True, indent=2) + "\n" == text


def test_first_forcing_example_matches_contract(full_run):
    # inside the first script, X resolves ForcedRed on its stage instance
    run, _ = full_run
    rep = run.reports["bluetr"]
    forced_x = next(o for o in rep.obligations if o.oid == "forced-X-red")
    assert forced_x.detail["got"] == "ForcedRed"
    forced_d = next(o for o in rep.obligations if o.oid == "forced-D-blue")
    assert forced_d.detail["got"] == "ForcedBlue"


def test_rule_style_equals_gadget_style():
    """The derived-rule encoding agrees with instantiating the construction:
    the red side-3 triangle is refuted (a) with the granted pattern rule and
    (b) with only base rules after adding the first diagram's six auxiliary
    points mapped rigidly onto the turned triangle."""
    from bluefive.configuration import Configuration, _placements, pattern_rule

    fig = load_figure("fig1b").cfg
    base = load_figure("fig1a").cfg
    fixed = {"O": "red", "A": "red", "B": "red", "C": "red"}

    # style (a): derived rule
    rules = RuleSet(derived=(pattern_rule("BLUE_EQ3_RED_CENTER"),))
    assert solve(emit_clauses(fig, rules, fixed)).kind == "unsat"

    # style (b): map the construction onto the turned triangle A'B'C', by
    # the direct and by the mirrored rigid map
    place = _placements(base.points, base.index_of("O"), base.index_of("A"))
    verdicts = []
    for image in place(fig.point_of("O"), fig.point_of("A'")):
        mapped = dict(zip(base.names, image))
        if {mapped["B"], mapped["C"]} != {fig.point_of("B'"), fig.point_of("C'")}:
            continue
        entries = list(zip(fig.names, fig.points))
        entries += [(f"g{nm}", mapped[nm]) for nm in ("D", "E", "F", "G", "X", "Y")]
        cfg = Configuration(entries)
        verdicts.append(solve(emit_clauses(cfg, RuleSet(), fixed)).kind)
    assert verdicts and all(v == "unsat" for v in verdicts)


def test_stretch_mode(full_run):
    run = verify_all(Options(stretch=True), only=["col1", "col2"])
    for sid in ("col1", "col2"):
        stretch = run.reports[sid].stretch
        assert stretch is not None
        assert stretch["exhausted"]
        assert stretch["central_restrictions"] >= 1
        assert stretch["all_match_canonical"]


def _reference_stretch(script_id: str, stage: Stage) -> dict:
    """The stretch report read straight off `stage`, built at the stretch
    radius: its base problem's models projected onto the central cells."""
    (a0, b0), radius = stage.patch
    problem = stage.base_problem()
    central = sorted((problem.name_to_var[stage.cfg.name_at(node(a0 + a, b0 + b))], (a, b))
                     for a, b in hex_indices(lemmata.CENTER_RADIUS))
    pattern = PATTERNS[next(ob.coloring for ob in lemmata.OBLIGATIONS[script_id]
                            if ob.kind == lemmata.SAT_WITNESS)]
    allowed = {tuple(pattern.is_red(a0 + sym(a, b)[0], b0 + sym(a, b)[1]) for _, (a, b) in central)
               for sym in lattice_symmetries()}
    models, exhausted = enumerate_models(problem, lemmata.MODEL_CAP,
                                         project=[v for v, _ in central])
    mismatches = [list(m) for m in models if m not in allowed]
    return {"patch_radius": radius, "center_radius": lemmata.CENTER_RADIUS,
            "model_cap": lemmata.MODEL_CAP, "central_restrictions": len(models),
            "exhausted": exhausted, "all_match_canonical": not mismatches,
            "mismatches": mismatches[:5]}


@pytest.mark.parametrize("script_id, patch, stretch, restrictions", [
    *[(sid, patch, stretch, 1) for sid in ("col1", "col2")
      for patch, stretch in ((11, 8), (7, 6), (3, 6))],
    ("col2", 12, 2, 5)])
def test_stretch_enumeration_restricts_the_patch_stage(monkeypatch, script_id, patch, stretch,
                                                       restrictions):
    """The enumeration's problem is the base problem of the stage built at
    the stretch radius: the same variable names in the same order, hence
    the same clauses named by node, and the same aliases.  Its report is
    the one read straight off that stage.  A patch smaller than the
    stretch radius is replaced by a stage built at that radius."""
    enumerated = []

    def recording(problem, *args, **kwargs):
        enumerated.append(problem)
        return enumerate_models(problem, *args, **kwargs)

    monkeypatch.setattr(lemmata, "enumerate_models", recording)
    stage = build_stages(script_id, Options(patch_radius=patch))[0]["patch"]
    report = lemmata.uniqueness_enumeration(
        script_id, Options(patch_radius=patch, stretch_radius=stretch), stage)
    reference = build_stages(script_id, Options(patch_radius=stretch))[0]["patch"]
    assert enumerated == [reference.base_problem()]
    assert report == _reference_stretch(script_id, reference)
    assert (report["central_restrictions"], report["exhausted"]) == (restrictions, True)
    assert report["all_match_canonical"] == (restrictions == 1)


@pytest.mark.parametrize("patch, builds", [(7, 1), (3, 2)])
def test_stretch_reads_the_run_patch_stage(monkeypatch, patch, builds):
    """A stretch run builds col1's stages once, and a stage at the stretch
    radius (6) only when the run's patch is smaller.  The problem it
    enumerates holds none of the colours the run's rows forced."""
    calls, enumerated = [], []

    def counting(script_id, options=None):
        calls.append(script_id)
        return build_stages(script_id, options)

    def recording(problem, *args, **kwargs):
        enumerated.append(problem)
        return enumerate_models(problem, *args, **kwargs)

    monkeypatch.setattr(lemmata, "build_stages", counting)
    monkeypatch.setattr(lemmata, "enumerate_models", recording)
    run = verify_all(Options(patch_radius=patch, stretch=True), only=["col1"])
    assert run.ok and run.reports["col1"].stretch["central_restrictions"] == 1
    assert calls.count("col1") == builds
    assert enumerated == [build_stages("col1", Options(patch_radius=6))[0]["patch"].base_problem()]


def test_stretch_radius_below_the_centre_is_refused(monkeypatch):
    """A stretch radius that leaves out central cells is refused before
    any stage is built, naming the least radius."""
    monkeypatch.setattr(lemmata, "build_stages", None)
    with pytest.raises(ValueError, match="the least stretch radius is 2"):
        verify_all(Options(patch_radius=5, stretch=True, stretch_radius=1), only=["col1", "col2"])
    assert Options(stretch_radius=2).stretch_radius == 2


# sha256 of the certified run's report JSON (sort_keys, every elapsed_ms
# removed) and of its manifest.json, at the default patch radius
REPORT_SHA256 = "8f59ca8b76bef1c01c6fd7a6c126d59ab9245f448e3864473a3652e92ad6dce1"
MANIFEST_SHA256 = "3aced4d0c8ea277a676b846885273f6fbd55b1096a35aeeca1c330d49aa07114"


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def test_report_and_manifest_bytes_unchanged(full_run, tmp_path):
    """Refactors must leave the report and the certificate bundle
    byte-identical.  A change that alters these bytes on purpose updates
    the two constants and says why in CHANGES.md."""
    run, _ = full_run
    write_certificates(run, tmp_path)
    report = json.dumps(_strip_timings(run.to_json()), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
    manifest = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == MANIFEST_SHA256


def test_learning_and_chronological_search_agree_on_patches():
    """A certified run searches chronologically (its traces are the
    certificates) and an uncertified run learns clauses: on col1 and
    col2 at radius 9 the reports are equal once timings and certificates
    are removed."""
    def verdicts(emit):
        run = verify_all(Options(patch_radius=9, emit_certificates=emit),
                         only=["col1", "col2"])
        data = _strip_timings(run.to_json())
        for report in data["reports"].values():
            for ob in report["obligations"]:
                ob.pop("certificate", None)
        return data

    certified = verdicts(True)
    assert certified["ok"] and certified == verdicts(False)


# sha256 over `cnf + varmap` of every stage's base problem with every
# grant, in SCRIPT_ORDER and table order: the bytes export-cnf writes
DIMACS_SHA256 = {
    7: "0355e0e26d5f03f094260251ad3982ab6f1b8eb41caa56c38a804637b03d959a",
    11: "41a55c9edb6847d856fb5dbfc0d8e272dcf34ac5a68ccb84ce3b60f63b345edc",
}


@pytest.mark.parametrize("radius", sorted(DIMACS_SHA256))
def test_dimacs_bytes_unchanged(radius):
    """Like the report pin: a change that alters the exported CNF or
    variable maps on purpose updates the constant and says why."""
    digest = hashlib.sha256()
    for sid in SCRIPT_ORDER:
        stages, _ = build_stages(sid, Options(patch_radius=radius))
        for stage in stages.values():
            cnf, varmap = export_dimacs(stage.base_problem())
            digest.update((cnf + varmap).encode())
    assert digest.hexdigest() == DIMACS_SHA256[radius]


def test_stage_problem_adds_each_forced_colour_once_in_order(monkeypatch):
    """One problem per exclude set, never the base one, grown by exactly
    the colours forced since the last call; on a full radius-7 run every
    problem a row reads equals a from-scratch build."""
    cfg = Configuration([(f"p{i}", node(i, 0)) for i in range(4)] + [("twin", node(2, 0))])
    stage = Stage("s", cfg, RuleSet(base=("RED_L2_FORBIDDEN",)), {"p0": "red"})
    base = list(stage.base_problem().clauses)
    assert base == [(-1, -2), (-2, -3), (-3, -4), (1,)]
    whole = stage.problem()
    assert whole is not stage.base_problem() and whole.clauses == base
    stage.accumulated.update({"p0": "red", "p2": "blue", "twin": "blue"})
    assert stage.problem() is whole and whole.clauses == base + [(-3,)]
    cut = stage.problem(exclude=("p3", "p0"))
    assert stage.problem(exclude=("p0", "p3", "p0")) is cut
    assert cut.clauses == [(-2, -3), (-3,)]
    stage.accumulated["p3"] = "red"
    assert stage.problem() is whole and whole.clauses == base + [(-3,), (4,)]
    assert stage.problem(exclude=("p3", "p0")).clauses == [(-2, -3), (-3,)]
    assert stage.problem(exclude=("p3",)).clauses == [(-1, -2), (-2, -3), (1,), (-3,)]
    assert stage.base_problem().clauses == base

    kept = lemmata.Stage.problem
    checked = []

    def checked_problem(stage, exclude=()):
        problem = kept(stage, exclude)
        assert problem.clauses == reference_stage_problem(stage, exclude).clauses
        checked.append(exclude)
        return problem

    monkeypatch.setattr(lemmata.Stage, "problem", checked_problem)
    assert verify_all(Options(patch_radius=7)).ok
    assert len(checked) >= 84 and any(checked)  # every FORCED row, some with exclusions


def test_stage_problems_are_freed_after_the_stages_last_row(monkeypatch):
    """In a certified theorem run, the problems (and learning engines) of
    the stages whose rows are done are gone by the time the patch stage's
    SAT_WITNESS rows solve.  Both rows solve the patch's one problem, the
    second on the learning engine the first built; every problem is
    freed after the run, while the base problems stay."""
    stages = {}
    kept_build, kept_solve = lemmata.build_stages, lemmata.solve

    def capture(script_id, *args, **kwargs):
        built, figures = kept_build(script_id, *args, **kwargs)
        stages.update(built)
        return built, figures

    held = []

    def watched_solve(problem, *args, **kwargs):
        patch_problem = stages["patch"]._problems.get(frozenset(), (None,))[0]
        if problem is patch_problem:
            held.append((problem, problem._engine,
                         len(stages["all-blue-line"]._problems)
                         + len(stages["witness-pair"]._problems)))
        return kept_solve(problem, *args, **kwargs)

    monkeypatch.setattr(lemmata, "build_stages", capture)
    monkeypatch.setattr(lemmata, "solve", watched_solve)
    report = run_script("theorem", Options(emit_certificates=True), ANCESTORS["theorem"])
    assert report.status == "passed"
    assert list(stages) == ["all-blue-line", "witness-pair", "patch"]
    (first, engine_a, open_a), (second, engine_b, open_b) = held
    assert first is second and engine_a is None and engine_b is first._engine is not None
    assert open_a == open_b == 0
    assert all(not stage._problems for stage in stages.values())
    assert all(stage._base is not None for stage in stages.values())
