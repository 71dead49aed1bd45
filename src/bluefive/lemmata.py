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

The scripts are data: data/scripts.json holds, per script, its
dependencies, the rules it grants, its transcription notes, its stages
and one obligation row per line, in dependency order.  A stage is a figure
registry (its configuration and rules), optionally grown by a hex patch
of lattice nodes, or a bare patch, or an inline instance in the registry
format; each also names its fixed premises.  A SAT_WITNESS row names the
canonical colouring it checks on its stage.

Every geometric, chain and placement obligation is written as CLAIM: the
fact lives only in the figure claim that carries the obligation's id.
The transcription self-check decides each claim once per run and lists
it if it fails; the obligation of that id reports that decision under
the kind of the claim's section (every section but ell5 and patterns
reports GEOM_IDENTITY).  Scripts run in dependency order; a passing script's
grants reach the scripts that rest on it, and no other.  Forced colours
accumulate inside a script, mirroring how the argument walks point by point.

A certified run writes a certificate for each FORCED, UNSAT and
SAT_WITNESS row and for no figure-claim row: the instance's CNF and, per
verdict, its assumptions and either the model (sat) or the trace (unsat)
that `replay_certificate` checks.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Optional, Sequence

from .configuration import (Configuration, ExtensionSchema, NO_RED_T3, RuleSet, emit_clauses,
                            instance_from_json)
from .figures import Figure, load_figure, self_check
from .geometry import hex_indices, lattice_symmetries, node
from .solver import (CertificateError, ColoringProblem, FORCED_BLUE, FORCED_RED, Verdict,
                     enumerate_models, export_dimacs, forced_color, parse_dimacs,
                     replay_model, replay_unsat_trace, solve)
from .tilings import PATTERNS

GEOM_IDENTITY = "GEOM_IDENTITY"
FORCED = "FORCED"
UNSAT = "UNSAT"
SAT_WITNESS = "SAT_WITNESS"
# written kind of an obligation stated by a figure claim; reported as the
# figures.CLAIM_KINDS kind of the claim section that holds its id
CLAIM = "CLAIM"

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

    def __post_init__(self) -> None:
        if self.stretch_radius < CENTER_RADIUS:
            raise ValueError(f"stretch radius {self.stretch_radius} leaves out central cells; "
                             f"the least stretch radius is {CENTER_RADIUS}")


@dataclass
class Stage:
    sid: str
    cfg: Configuration
    rules: RuleSet
    fixed: dict[str, str]
    accumulated: dict[str, str] = field(default_factory=dict)
    # anchor and radius of the hex patch the stage grows its figure by
    patch: Optional[tuple[tuple[int, int], int]] = None
    _base: Optional[ColoringProblem] = None
    # cut variables -> (their problem, the unit clauses it holds)
    _problems: dict[frozenset, tuple[ColoringProblem, set]] = field(default_factory=dict)

    def base_problem(self) -> ColoringProblem:
        if self._base is None:
            self._base = emit_clauses(self.cfg, self.rules, self.fixed)
        return self._base

    def problem(self, exclude: Sequence[str] = ()) -> ColoringProblem:
        """Base problem restricted to the nodes outside `exclude`, plus the
        accumulated forced colours.

        Dropping every clause that mentions an excluded node is exactly the
        clause set of the induced sub-configuration; excluded variables stay
        present but unconstrained, which cannot change any verdict.  Each
        exclude set has one problem for the stage's life, so its untraced
        queries share one learning engine; a call adds the colours forced
        since the last one.  It is never the base problem, whose clause
        count the report states.
        """
        base = self.base_problem()
        cut = frozenset(base.name_to_var[self.cfg.primary(n)] for n in exclude)
        if cut not in self._problems:
            clauses = _clauses_outside(base.clauses, cut)
            self._problems[cut] = (replace(base, clauses=clauses),
                                   {c for c in clauses if len(c) == 1})
        problem, units = self._problems[cut]
        for name, colour in self.accumulated.items():
            v = base.name_to_var[self.cfg.primary(name)]
            if v in cut:
                continue
            lit = v if colour == "red" else -v
            if (lit,) not in units:
                units.add((lit,))
                problem.add_clause((lit,))
        return problem


def _clauses_outside(clauses: Sequence[tuple[int, ...]], cut: frozenset) -> list:
    """The clauses that mention no variable of `cut`, in order."""
    lits = cut | {-v for v in cut}
    return [c for c in clauses if lits.isdisjoint(c)]


@dataclass(frozen=True)
class Obligation:
    """One obligation row of data/scripts.json.

    FORCED, UNSAT and SAT_WITNESS rows name their stage; an UNSAT row may
    instead carry its instance as DIMACS `cnf` and `varmap` text, and a
    SAT_WITNESS row names the `coloring` in PATTERNS it checks.  A CLAIM
    row names nothing more: its fact is the figure claim that carries its
    id, in a `dist2`, `images` (map kinds chord, mirror, translate and
    turn60), `ell5`, `patterns`, `extensions`, `symmetry`, `sublattice`
    or `invariance` section of a registry its script reads.
    """
    oid: str
    kind: str
    statement: str
    stage: Optional[str] = None
    node: Optional[str] = None
    color: Optional[str] = None
    coloring: Optional[str] = None
    exclude: tuple[str, ...] = ()
    cnf: Optional[str] = None
    varmap: Optional[str] = None


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
# the script table
# ---------------------------------------------------------------------------


SCRIPTS: dict[str, dict] = json.loads(
    resources.files("bluefive").joinpath("data/scripts.json").read_text())
SCRIPT_ORDER = tuple(SCRIPTS)
DEPENDENCIES: dict[str, tuple[str, ...]] = {
    sid: tuple(s["depends"]) for sid, s in SCRIPTS.items()}
# each script's transitive dependencies; the table lists a script after its dependencies
ANCESTORS: dict[str, frozenset[str]] = {}
for _sid, _deps in DEPENDENCIES.items():
    ANCESTORS[_sid] = frozenset(_deps).union(*(ANCESTORS[dep] for dep in _deps))
GRANTS: dict[str, tuple[str, ...]] = {sid: tuple(s["grants"]) for sid, s in SCRIPTS.items()}
# Source-drawing inconsistencies resolved by the shipped data; each report
# repeats the notes that apply to its script.
TRANSCRIPTION_NOTES: tuple[dict, ...] = tuple(
    {"id": n["id"], "applies_to": sid, "note": n["note"]}
    for sid, s in SCRIPTS.items() for n in s["notes"])
OBLIGATIONS: dict[str, tuple[Obligation, ...]] = {
    sid: tuple(Obligation(**row) for row in s["obligations"]) for sid, s in SCRIPTS.items()}


def figure_colors(figure: Figure) -> dict[str, str]:
    """The colours `figure` draws, by primary name: the premises and FORCED
    colours of the one stage that reads it (ValueError unless exactly one)."""
    [(sid, stage, spec)] = [(sid, stage, spec) for sid, script in SCRIPTS.items()
                            for stage, spec in script["stages"].items()
                            if spec.get("figure") == figure.id]
    colours = {**spec.get("fixed", {}), **{ob.node: ob.color for ob in OBLIGATIONS[sid]
                                            if ob.kind == FORCED and ob.stage == stage}}
    return {figure.cfg.primary(n): c for n, c in colours.items()}


class UnprovedRuleError(Exception):
    """A stage uses a derived rule that none of its script's ancestors grants."""


def build_stages(script_id: str, options: Optional[Options] = None
                 ) -> tuple[dict[str, Stage], tuple[Figure, ...]]:
    """The script's stages, in table order, and the figures its stages
    read, each loaded once.  A stage that uses a derived rule or the
    extension schema that no ancestor of the script grants raises
    UnprovedRuleError; NO_RED_T3, the hypothesis of its case, always holds."""
    options = options or Options()
    script = SCRIPTS[script_id]
    granted = {g for sid in ANCESTORS[script_id] for g in GRANTS[sid]}
    fids = [spec["figure"] for spec in script["stages"].values() if "figure" in spec]
    figures = {fid: load_figure(fid) for fid in dict.fromkeys(fids)}
    stages: dict[str, Stage] = {}
    for sid, spec in script["stages"].items():
        cfg, rules, patch = None, RuleSet(), None
        if "figure" in spec:
            cfg, rules = figures[spec["figure"]].cfg, figures[spec["figure"]].rules
        elif "points" in spec:
            cfg, _, rules = instance_from_json(spec)
        if "patch" in spec:
            patch = (tuple(spec["patch"]["anchor"]),
                     spec["patch"].get("radius", options.patch_radius))
            entries = [] if cfg is None else list(zip(cfg.names, cfg.points))
            cfg = Configuration(entries + [(name, node(a, b))
                                           for name, (a, b) in _patch_cells(*patch)])
        if "anchors" in spec:
            rules = replace(rules, existential=ExtensionSchema(
                tuple(tuple(a) for a in spec["anchors"])))
        unproved = [r for r in rules.hypotheses() if r != NO_RED_T3 and r not in granted]
        if unproved:
            raise UnprovedRuleError(f"script {script_id}, stage {sid}: derived rule "
                                    f"{unproved[0]} has not been granted")
        stages[sid] = Stage(sid, cfg, rules, spec.get("fixed", {}), patch=patch)
    return stages, tuple(figures.values())


def _patch_cells(anchor: tuple[int, int], radius: int) -> list[tuple[str, tuple[int, int]]]:
    """Name and lattice index pair of each node of the hex patch about
    `anchor`, in hex_indices order."""
    a0, b0 = anchor
    return [(f"n({a + a0},{b + b0})", (a + a0, b + b0)) for a, b in hex_indices(radius)]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _certificate(problem: ColoringProblem, verdicts: dict[str, Verdict],
                 assumptions: dict[str, list[int]]) -> dict:
    """The CNF and, per tag, the verdict's assumptions and the evidence a
    replay checks: a sat entry's model or an unsat entry's trace."""
    cnf, varmap = export_dimacs(problem)
    cert: dict = {"cnf": cnf, "varmap": varmap}
    for tag, verdict in verdicts.items():
        entry: dict = {"kind": verdict.kind, "assumptions": assumptions.get(tag, [])}
        if verdict.is_sat:
            entry["model"] = [1 if b else 0 for b in verdict.model]
        else:
            entry["trace"] = verdict.trace
        cert[tag] = entry
    return cert


def _run_obligation(ob: Obligation, stages: dict[str, Stage],
                    decided: dict[str, list[tuple]], options: Options) -> ObligationResult:
    t0 = time.perf_counter()
    emit = options.emit_certificates
    kind = ob.kind
    status = "fail"
    detail: dict = {}
    certificate = None

    if ob.kind == CLAIM:
        found = decided.get(ob.oid, [])
        if len(found) != 1:
            detail = {"claims_with_id": len(found)}
        else:
            kind, detail, failure = found[0]
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
        problem = (parse_dimacs(ob.cnf, ob.varmap) if ob.cnf is not None
                   else stages[ob.stage].problem(ob.exclude))
        verdict = solve(problem, record_trace=emit)
        status = "pass" if verdict.kind == "unsat" else "fail"
        detail = {"verdict": verdict.kind, "clauses": len(problem.clauses)}
        if emit:
            certificate = _certificate(problem, {"unsat": verdict}, {})
    elif ob.kind == SAT_WITNESS:
        stage = stages[ob.stage]
        problem = stage.problem()
        lattice = stage.cfg.lattice()
        if lattice is None:
            raise ValueError(f"stage {ob.stage} has a node off the lattice")
        coloring = PATTERNS[ob.coloring]
        # node i is variable i + 1, as emit_clauses numbers them
        assumptions = [v if coloring.is_red(*ab) else -v
                       for v, ab in enumerate(lattice[0], 1)]
        verdict = solve(problem, assumptions=assumptions)
        status = "pass" if verdict.kind == "sat" else "fail"
        detail = {"verdict": verdict.kind, "nodes": len(assumptions)}
        if emit and verdict.model is not None:
            certificate = _certificate(problem, {"witness": verdict},
                                       {"witness": assumptions})
    else:
        raise ValueError(f"unknown obligation kind {ob.kind!r}")

    return ObligationResult(ob.oid, kind, ob.statement, status, detail,
                            certificate, (time.perf_counter() - t0) * 1e3)


def run_script(script_id: str, options: Optional[Options] = None,
               passed: frozenset = frozenset()) -> Report:
    """Run one script, or report it blocked, naming its ancestors not in `passed`."""
    options = options or Options()
    if script_id not in SCRIPTS:
        raise KeyError(f"unknown script {script_id!r}")
    missing = sorted(ANCESTORS[script_id] - passed)
    if missing:
        return Report(script=script_id, status="blocked",
                      reason=f"unverified dependencies: {', '.join(missing)}")

    t0 = time.perf_counter()
    stages, figures = build_stages(script_id, options)
    report = Report(script=script_id, status="passed")
    report.notes = [n for n in TRANSCRIPTION_NOTES if n["applies_to"] == script_id]

    decided: dict[str, list[tuple]] = {}
    if figures:
        t1 = time.perf_counter()
        problems, decided = self_check(figures)
        for figure in figures:  # each node drawn other than its stage proves fails the row
            drawn = {figure.cfg.primary(n): c for n, c in figure.colors.items()}
            proved = figure_colors(figure)
            problems += [f"{figure.id}: {n} is drawn {drawn.get(n, 'hollow')}, but its stage "
                         f"proves {proved.get(n, 'no colour')}" for n in sorted(drawn | proved)
                         if drawn.get(n) != proved.get(n)]
        report.obligations.append(ObligationResult(
            "transcription-self-check", GEOM_IDENTITY,
            "the shipped registry satisfies all of its named facts",
            "pass" if not problems else "fail", {"failures": problems},
            elapsed_ms=(time.perf_counter() - t1) * 1e3))
        if problems:
            report.status = "failed"

    rows = OBLIGATIONS[script_id]
    last_row = {ob.stage: i for i, ob in enumerate(rows) if ob.stage is not None}
    for i, ob in enumerate(rows):
        result = _run_obligation(ob, stages, decided, options)
        report.obligations.append(result)
        if result.status != "pass":
            report.status = "failed"
        if ob.stage is not None and last_row[ob.stage] == i:
            # no later row reads this stage's problems: free their learning engines
            stages[ob.stage]._problems.clear()

    report.stages = {sid: {"nodes": len(stage.cfg), "variables": stage.base_problem().var_count,
                           "clauses": len(stage.base_problem().clauses)}
                     for sid, stage in stages.items()}

    if options.stretch and script_id in ("col1", "col2"):
        report.stretch = uniqueness_enumeration(script_id, options, stages["patch"])

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
               only: Optional[Sequence[str]] = None) -> RunResult:
    """Run scripts in dependency order; `run_script` blocks each one whose
    ancestors did not all pass.  `only` selects scripts; their ancestors run too."""
    options = options or Options()
    t0 = time.perf_counter()
    wanted = set(SCRIPT_ORDER if only is None else only)
    unknown = wanted - set(SCRIPT_ORDER)
    if unknown:
        raise KeyError(f"unknown script {sorted(unknown)[0]!r}")
    wanted |= {dep for sid in wanted for dep in ANCESTORS[sid]}
    passed: set[str] = set()
    reports: dict[str, Report] = {}
    for sid in SCRIPT_ORDER:
        if sid in wanted:
            reports[sid] = run_script(sid, options, frozenset(passed))
            if reports[sid].passed:
                passed.add(sid)
    return RunResult(reports, (time.perf_counter() - t0) * 1e3)


# ---------------------------------------------------------------------------
# uniqueness enumeration (stretch mode)
# ---------------------------------------------------------------------------


def _stretch_problem(stage: Stage, radius: int) -> ColoringProblem:
    """The base problem of `stage`, without the colours its rows forced,
    restricted to its figure's nodes and the radius-`radius` part of its
    patch, which is at least that large.

    Dropping every clause that mentions another node is exactly the clause
    set of the induced sub-configuration, as in `Stage.problem`.  The kept
    variables are renumbered in ascending order, auxiliaries last, so the
    problem is the base problem of the stage built at `radius`: both number
    the figure's nodes first, then the patch's in hex_indices order.
    """
    base = stage.base_problem()
    anchor, outer = stage.patch
    inner = {name for name, _ in _patch_cells(anchor, radius)}
    ring = {name for name, _ in _patch_cells(anchor, outer) if name not in inner}
    # a patch name that is not primary names a figure node, which stays
    cut = frozenset(base.name_to_var[name] for name in ring if stage.cfg.primary(name) == name)
    kept = [v for v in range(1, base.var_count + 1) if v not in cut]
    renumber = {v: i for i, v in enumerate(kept, 1)}
    renumber.update({-v: -i for v, i in renumber.items()})
    return ColoringProblem(
        clauses=[tuple(map(renumber.__getitem__, c)) for c in _clauses_outside(base.clauses, cut)],
        names=[base.names[v - 1] for v in kept],
        name_to_var={name: renumber[v] for name, v in base.name_to_var.items()
                     if name not in ring})


def uniqueness_enumeration(script_id: str, options: Options, stage: Stage) -> dict:
    """Enumerate colourings of the script's patch stage, cut down to the
    stretch radius, projected onto the central cells, and compare each
    against the canonical pattern up to the 12 lattice symmetries.

    `stage` is the run's patch stage; when its patch is smaller than the
    stretch radius, a stage built at that radius takes its place."""
    if stage.patch[1] < options.stretch_radius:
        stage = build_stages(script_id, Options(patch_radius=options.stretch_radius))[0]["patch"]
    anchor = stage.patch[0]
    pattern = PATTERNS[next(ob.coloring for ob in OBLIGATIONS[script_id]
                            if ob.kind == SAT_WITNESS)]
    problem = _stretch_problem(stage, options.stretch_radius)

    # enumerate_models reports projections in ascending variable order
    central = sorted((problem.name_to_var[name], (a - anchor[0], b - anchor[1]))
                     for name, (a, b) in _patch_cells(anchor, CENTER_RADIUS))
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


def _earlier_bundle(out: pathlib.Path) -> list[pathlib.Path]:
    """The entries of `out`, which must all belong to the bundle an earlier
    run wrote there: its manifest and the files the manifest lists.
    FileExistsError when `out` holds anything else."""
    manifest = out / "manifest.json"
    try:
        listed = {*json.loads(manifest.read_text())["files"], manifest.name}
    except (OSError, ValueError, KeyError, TypeError):
        listed = set()  # no manifest, or not one: every entry is foreign
    entries = list(out.iterdir())
    foreign = sorted(p.name for p in entries if p.name not in listed or not p.is_file())
    if foreign:
        raise FileExistsError(
            f"{out} holds {', '.join(foreign[:3])}{' ...' if len(foreign) > 3 else ''}, "
            f"which no certificate manifest there lists; give an empty directory "
            f"or one that holds only an earlier bundle")
    return entries


def check_certificate_dir(outdir) -> None:
    """Raise what `write_certificates` would raise on `outdir` before writing
    anything: FileExistsError when it holds more than an earlier bundle.
    A directory that does not exist yet passes."""
    out = pathlib.Path(outdir)
    if out.exists():
        _earlier_bundle(out)


def write_certificates(run: RunResult, outdir) -> dict:
    """Write one JSON file per certified obligation plus a manifest.

    Each certificate file is one line of compact JSON; the manifest is
    indented, for people to read.  A directory that holds an earlier
    bundle has it removed first, so the directory ends up holding exactly
    the files the new manifest lists.
    """
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for path in _earlier_bundle(out):
        path.unlink()
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
            text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
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


# per claim kind, the entries a certificate proving it holds besides its
# "cnf" and "varmap", each with the verdict kind it records
_PROOF_ENTRIES = {FORCED: {"refuted_side": "unsat", "asserted_side": "sat"},
                  UNSAT: {"unsat": "unsat"},
                  SAT_WITNESS: {"witness": "sat"}}


def _proof_shape(payload) -> dict:
    """The certificate of `payload` once it has the shape of a proof of the
    claim it is filed under; CertificateError otherwise.

    The status is "pass", and the kind is one of `_PROOF_ENTRIES`.  The
    certificate holds its CNF text, its variable map and exactly the
    entries of `_PROOF_ENTRIES` for its kind: an unsat entry holds exactly
    its kind, its assumptions and its trace, and a sat entry its kind, its
    assumptions and its model, the assumptions a list of integers.  A
    FORCED refuted side assumes one literal and its asserted side the
    negation; an UNSAT entry assumes nothing.
    """
    if not isinstance(payload, dict):
        raise CertificateError("a certificate file holds a JSON object")
    kind, status, cert = (payload.get(key) for key in ("kind", "status", "certificate"))
    if status != "pass":
        raise CertificateError(f"status {status!r} claims nothing; a proof has status 'pass'")
    if kind not in _PROOF_ENTRIES:
        raise CertificateError(f"no certificate proves a claim of kind {kind!r}")
    want = {"cnf", "varmap", *_PROOF_ENTRIES[kind]}
    if not isinstance(cert, dict) or set(cert) != want:
        raise CertificateError(f"a {kind} certificate holds exactly {sorted(want)}, "
                               f"not {sorted(cert) if isinstance(cert, dict) else cert!r}")
    if type(cert["cnf"]) is not str or type(cert["varmap"]) is not str:
        raise CertificateError("the CNF and the variable map are strings")
    assumed = {}
    for tag, verdict in _PROOF_ENTRIES[kind].items():
        entry = cert[tag]
        evidence = "trace" if verdict == "unsat" else "model"
        if (not isinstance(entry, dict) or set(entry) != {"kind", "assumptions", evidence}
                or entry["kind"] != verdict or type(entry[evidence]) not in (list, tuple)):
            raise CertificateError(f"{tag} is not a {verdict} entry of exactly a kind, "
                                   f"assumptions and a {evidence}")
        assumed[tag] = entry["assumptions"]
        if type(assumed[tag]) is not list or any(type(a) is not int for a in assumed[tag]):
            raise CertificateError(f"{tag} assumptions are not a list of integers")
    if kind == FORCED:
        refuted, asserted = assumed["refuted_side"], assumed["asserted_side"]
        if len(refuted) != 1 or not refuted[0] or asserted != [-refuted[0]]:
            raise CertificateError(f"a FORCED certificate refutes one literal and asserts "
                                   f"its negation, not {refuted} and {asserted}")
    elif kind == UNSAT and assumed["unsat"]:
        raise CertificateError(f"an UNSAT certificate assumes nothing, not {assumed['unsat']}")
    return cert


def replay_certificate(payload: dict) -> bool:
    """Re-check one written certificate with the independent replayer.

    The certificate must first have the shape of a proof of the claim it
    is filed under (`_proof_shape`).  Its CNF is read with `parse_dimacs`
    (ValueError on text `export_dimacs` would not write), and each entry
    is checked against the CNF's clauses followed by one unit clause per
    entry assumption, in order: an unsat trace must replay, and a model
    must assign every variable and satisfy those clauses.  Raises
    CertificateError otherwise.
    """
    cert = _proof_shape(payload)
    problem = parse_dimacs(cert["cnf"], cert["varmap"])
    for tag, verdict in _PROOF_ENTRIES[payload["kind"]].items():
        entry = cert[tag]
        clauses = problem.clauses + [(lit,) for lit in entry["assumptions"]]
        if verdict == "unsat":
            replay_unsat_trace(clauses, entry["trace"])
        else:
            model = entry["model"]
            if (len(model) != problem.var_count
                    or model.count(0) + model.count(1) != len(model)):
                raise CertificateError(f"{tag} model is not one 0 or 1 per variable "
                                       f"of the {problem.var_count}")
            replay_model(clauses, model)
    return True
