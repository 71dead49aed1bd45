"""The benchmark's three workloads and the checks on every operation.

Every input is fixed by the theorem; the seed only permutes the replay
order in ``audit``.  Each operation returns an Outcome: its wall time,
the problems its checks found (empty when the verdicts are right) and
the digests the determinism gate compares between operations.

The workloads call bluefive through module attributes
(``lemmata.verify_all``), so a Tracer's wrappers are reached.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import bluefive.lemmata as lemmata

BENCH_DIR = Path(__file__).resolve().parent

PROOF_OBLIGATIONS = 198
SCALE_SCRIPTS = ("col1", "col2")
SCALE_RADIUS = 11
SCALE_STRETCH_RADIUS = 8
# the traced scale run adds these radii; the operation itself gives R11
SCALING_RADII = (5, 7, 9)


class Outcome(NamedTuple):
    seconds: float
    problems: list
    digests: dict


def strip_timings(obj):
    """The report JSON with every ``elapsed_ms`` removed."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def report_digest(run) -> str:
    text = json.dumps(strip_timings(run.to_json()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def certified_run(outdir) -> tuple:
    """What ``bluefive verify all --certs DIR`` does: (run, seconds)."""
    t0 = time.perf_counter()
    run = lemmata.verify_all(lemmata.Options(emit_certificates=True))
    lemmata.write_certificates(run, outdir)
    return run, time.perf_counter() - t0


def proof_problems(run) -> list:
    problems = []
    if not run.ok:
        failed = [sid for sid, r in run.reports.items() if not r.passed]
        problems.append(f"scripts did not pass: {failed}")
    if run.obligation_count != PROOF_OBLIGATIONS:
        problems.append(f"{run.obligation_count} obligations, expected {PROOF_OBLIGATIONS}")
    return problems


def bundle_digests(run, outdir) -> dict:
    manifest = Path(outdir, "manifest.json").read_bytes()
    return {"report": report_digest(run), "manifest": hashlib.sha256(manifest).hexdigest()}


class Proof:
    """verify_all with certificates at radius 7, then write the bundle."""

    name = "proof"

    def __init__(self, work: Path, seed: int, src: Path) -> None:
        self.work = work

    def setup(self) -> dict:
        return {}

    def operation(self) -> Outcome:
        outdir = tempfile.mkdtemp(dir=self.work)
        try:
            run, seconds = certified_run(outdir)
            return Outcome(seconds, proof_problems(run), bundle_digests(run, outdir))
        finally:
            shutil.rmtree(outdir)


def scale_problems(run) -> list:
    problems = [] if run.ok else ["verify_all reported a failure"]
    for sid in SCALE_SCRIPTS:
        stretch = run.reports[sid].stretch or {}
        if not stretch.get("exhausted"):
            problems.append(f"{sid}: stretch enumeration not exhausted")
        if not stretch.get("all_match_canonical"):
            problems.append(f"{sid}: a central restriction is not the canonical pattern")
        if stretch.get("central_restrictions") != 1:
            problems.append(f"{sid}: {stretch.get('central_restrictions')} central restrictions")
    return problems


class Scale:
    """col1 and col2 at radius 11 with the radius-8 uniqueness enumeration."""

    name = "scale"

    def __init__(self, work: Path, seed: int, src: Path) -> None:
        pass

    def setup(self) -> dict:
        return {}

    def operation(self) -> Outcome:
        options = lemmata.Options(patch_radius=SCALE_RADIUS, stretch=True,
                                  stretch_radius=SCALE_STRETCH_RADIUS)
        t0 = time.perf_counter()
        run = lemmata.verify_all(options, only=list(SCALE_SCRIPTS))
        seconds = time.perf_counter() - t0
        return Outcome(seconds, scale_problems(run), {"report": report_digest(run)})


def scaling_run(radius: int) -> Outcome:
    """col1 and col2 at one patch radius, for the traced scaling row."""
    t0 = time.perf_counter()
    run = lemmata.verify_all(lemmata.Options(patch_radius=radius), only=list(SCALE_SCRIPTS))
    problems = [] if run.ok else [f"R{radius}: verify_all reported a failure"]
    return Outcome(time.perf_counter() - t0, problems, {})


# -- audit ------------------------------------------------------------------

def read_certificate(path: Path) -> bytes:
    return path.read_bytes()


def certificate_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_certificate(data: bytes) -> dict:
    return json.loads(data)


def audit_bundle(bundle: Path, order: random.Random) -> tuple:
    """One audit pass: check every file's sha256 against the manifest and
    replay it.  Returns (problems, sha256 of manifest.json)."""
    manifest_bytes = read_certificate(bundle / "manifest.json")
    files = parse_certificate(manifest_bytes)["files"]
    problems = []
    present = {p.name for p in bundle.iterdir()} - {"manifest.json"}
    if present != set(files):
        problems.append(f"files not matching the manifest: {sorted(present ^ set(files))}")
    names = sorted(files)
    order.shuffle(names)
    for name in names:
        try:
            data = read_certificate(bundle / name)
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if certificate_sha256(data) != files[name]:
            problems.append(f"{name}: sha256 does not match the manifest")
            continue
        try:
            if lemmata.replay_certificate(parse_certificate(data)) is not True:
                problems.append(f"{name}: replay did not confirm")
        except Exception as exc:  # any replay failure rejects the certificate
            problems.append(f"{name}: replay failed: {type(exc).__name__}: {exc}")
    return problems, certificate_sha256(manifest_bytes)


MAKE_BUNDLE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
run, _ = workloads.certified_run(sys.argv[3])
print(json.dumps({"problems": workloads.proof_problems(run),
                  "digests": workloads.bundle_digests(run, sys.argv[3])}))
"""


def make_bundle(bundle: Path, src: Path) -> dict:
    """Write one certified bundle from a fresh interpreter; returns its
    wall time (interpreter start and import included) and digests."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", MAKE_BUNDLE, str(BENCH_DIR), str(src), str(bundle)],
        capture_output=True, text=True, timeout=170)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"bundle set-up failed:\n{proc.stderr}")
    made = json.loads(proc.stdout.splitlines()[-1])
    if made["problems"]:
        raise RuntimeError(f"bundle set-up failed: {made['problems']}")
    return {"bundle_s": seconds, "bundle_digests": made["digests"]}


class Audit:
    """Re-check a certificate bundle written once at set-up."""

    name = "audit"

    def __init__(self, work: Path, seed: int, src: Path) -> None:
        self.src = src
        self.bundle = work / "bundle"
        self.order = random.Random(seed)

    def setup(self) -> dict:
        return make_bundle(self.bundle, self.src)

    def operation(self) -> Outcome:
        t0 = time.perf_counter()
        problems, manifest = audit_bundle(self.bundle, self.order)
        return Outcome(time.perf_counter() - t0, problems, {"manifest": manifest})


WORKLOADS = {w.name: w for w in (Proof, Scale, Audit)}
