#!/usr/bin/env python3
"""bluefive benchmark: time to a verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload proof|scale|audit --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; bluefive is imported from ``src/``.
One process, one thread.  Operations repeat while the next is expected
to end within ``--seconds`` (at least one runs).  Every operation's verdicts are checked, and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the details: samples, digests, set-up split and machine.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the operations run twice, first under a light tracer
(untraced speed, inclusive per-script times) and then under the full
tracer, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

IMPORT_SAMPLES = 7
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import bluefive.cli"

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SCRIPTS = ("bluetr", "redtr", "t7", "t3t6", "col1", "col2", "theorem")
TEMPLATES = ("T3", "T4", "T5", "T6", "T7", "EQ3_CENTERED")
LAYER_TOTALS = ("field", "geometry", "configuration", "solver", "lemmata", "tilings")

P, S, A = "proof", "scale", "audit"
# Per-layer metric -> the workloads whose traced run must see it non-zero.
# This is the layer map of README.md.
LAYER_MAP: dict[str, tuple[str, ...]] = {
    "field.mul.calls": (P, S), "field.addsub.calls": (P, S),
    "field.inverse.calls": (P, S), "field.sign.calls": (P, S),
    "field.eq_hash.calls": (P, S), "field.s": (P, S),
    "geometry.dist2.calls": (P, S), "geometry.point_hash_eq.calls": (P, S),
    "geometry.s": (P, S),
    "configuration.s": (P, S),
    "configuration.pairs_with_dist2.calls": (P, S),
    "configuration.pairs_with_dist2.s": (P, S),
    "configuration.pairs_with_dist2.pairs": (P, S),
    "configuration.pairs_with_dist2.confirm_ratio": (P, S),
    "configuration.ell_chains.s": (P, S), "configuration.ell_chains.chains": (P, S),
    **{f"configuration.match_template.{t}.s": (P, S) for t in TEMPLATES},
    "configuration.match_template.embeddings": (P, S),
    "configuration.match_template.hit_ratio": (P, S),
    **{f"configuration.emit_clauses.{s}.s": (P,) if s == "theorem" else (P, S)
       for s in SCRIPTS},
    "configuration.emit_clauses.clauses": (P, S),
    **{f"configuration.emit_clauses.{s}.R{r}.s": (P, S) if r == 7 else (S,)
       for s in ("col1", "col2") for r in (5, 7, 9, 11)},
    "configuration.template_extensions.s": (P, S),
    "figures.load_figure.s": (P, S), "figures.self_check.s": (P, S),
    "tilings.s": (P,),
    "solver.s": (P, S, A),
    "solver.solve.calls": (P, S), "solver.solve.s": (P, S),
    "solver.forced_color.calls": (P, S),
    **{f"solver.trace.{e}": (P,) for e in ("imply", "decide", "flip", "conflict")},
    "solver.enumerate_models.s": (S,), "solver.enumerate_models.models": (S,),
    "solver.export_dimacs.s": (P,),
    "solver.parse_dimacs.s": (A,), "solver.replay_unsat_trace.s": (A,),
    "solver.replay_unsat_trace.events": (A,), "solver.replay_model.s": (A,),
    "lemmata.s": (P, S, A),
    "lemmata.write_certificates.s": (P,), "lemmata.certs.files": (P,),
    "lemmata.certs.bytes": (P,), "lemmata.replay_certificate.s": (A,),
    **{f"lemmata.run_script.{s}.s": (P,) if s == "theorem" else (P, S) for s in SCRIPTS},
    "lemmata.uniqueness_enumeration.s": (S,),
    "audit.read.s": (A,), "audit.sha256.s": (A,), "audit.parse.s": (A,),
    "trace.verdict_s": (P, S, A), "trace.overhead_ratio": (P, S, A),
}
COUNTS = ("pairs", "chains", "embeddings", "clauses", "models", "events",
          "files", "bytes", "imply", "decide", "flip", "conflict")


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("s", "verdict_s"):
        return "s"
    if last.endswith("ratio"):
        return "ratio"
    return "count"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- measuring --------------------------------------------------------------

def attempt(workload):
    from workloads import Outcome
    t0 = time.perf_counter()
    try:
        return workload.operation()
    except Exception as exc:  # a crashing operation is a failed operation
        return Outcome(time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], {})


def measure(workload, seconds: float) -> list:
    """Repeat the operation while the next one is expected (at the median
    so far) to end within `seconds`; at least once.  Garbage is collected
    between operations, outside the timed window."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or (time.perf_counter() - start
                           + statistics.median(o.seconds for o in outcomes) <= seconds):
        gc.collect()
        outcomes.append(attempt(workload))
    return outcomes


def gate(outcomes: list) -> tuple:
    """Failed operations: a failed check, or digests unlike those of the
    run's first clean operation.  Returns (failures, reference digests)."""
    clean = [o.digests for o in outcomes if not o.problems]
    reference = clean[0] if clean else {}
    failures = []
    for o in outcomes:
        if o.problems:
            failures.append(o.problems)
        elif o.digests != reference:
            failures.append([f"digests {o.digests} differ from {reference}"])
    return failures, reference


def import_seconds() -> list:
    """Interpreter start plus `import bluefive.cli`, in fresh processes;
    the first, untimed, leaves compiled bytecode behind.  No timeout: with
    one, the wait polls in steps of up to 50 ms."""
    def once() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], check=True)
        return time.perf_counter() - t0
    once()
    return [once() for _ in range(IMPORT_SAMPLES)]


# -- per-layer metrics ------------------------------------------------------

def layer_value(name: str, light, full, n_light: int, n_full: int, row) -> float:
    """One per-layer metric, per operation.  Inclusive per-script and
    emission times come from the light tracer; everything else from the
    full tracer's self times, calls and counts."""
    base, _, last = name.rpartition(".")
    if name.startswith("lemmata.run_script.") or name == "lemmata.uniqueness_enumeration.s":
        return light.total_s(base) / n_light
    if re.search(r"\.R\d+$", base):
        return light.count(base) / n_light + (row.count(base) if row else 0.0)
    if name == "configuration.pairs_with_dist2.confirm_ratio":
        return ratio(full.count(f"{base}.pairs"), full.count(f"{base}.confirmations"))
    if name == "configuration.match_template.hit_ratio":
        return ratio(full.count(f"{base}.embeddings"), 4 * full.count(f"{base}.anchor_pairs"))
    if last == "calls":
        return full.calls(base) / n_full
    if last == "s":
        if base in LAYER_TOTALS:
            return full.layer_self_s(base) / n_full
        return full.self_s(base) / n_full
    if last in COUNTS:
        return full.count(name) / n_full
    raise KeyError(f"no rule for per-layer metric {name!r}")


def traced(workload, seconds: float) -> tuple:
    """Half the time under the light tracer, half under the full one; the
    traced scale run adds the scaling row.  Returns (operation outcomes,
    scaling-row outcomes, metrics, silent layers, details)."""
    import workloads
    from tracer import Tracer

    light = Tracer(light=True)
    with light:
        plain = measure(workload, seconds / 2)
    full = Tracer()
    full.wrap(workloads, "read_certificate", "audit.read")
    full.wrap(workloads, "certificate_sha256", "audit.sha256")
    full.wrap(workloads, "parse_certificate", "audit.parse")
    with full:
        heavy = measure(workload, seconds / 2)
    row, extra = None, []
    if workload.name == "scale":
        row = Tracer(light=True)
        with row:
            extra = [workloads.scaling_run(r) for r in workloads.SCALING_RADII]

    plain_s = statistics.median(o.seconds for o in plain)
    heavy_s = statistics.median(o.seconds for o in heavy)
    metrics = {}
    for name in LAYER_MAP:
        if name == "trace.verdict_s":
            value = heavy_s
        elif name == "trace.overhead_ratio":
            value = heavy_s / plain_s
        else:
            value = layer_value(name, light, full, len(plain), len(heavy), row)
        metrics[name] = {"value": value, "unit": unit_of(name)}
    silent = [n for n, where in LAYER_MAP.items()
              if workload.name in where and metrics[n]["value"] == 0]
    detail = {"untraced_s": [o.seconds for o in plain],
              "traced_s": [o.seconds for o in heavy],
              "scaling_runs_s": [o.seconds for o in extra]}
    return plain + heavy, extra, metrics, silent, detail


# -- the run ----------------------------------------------------------------

def machine() -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "git_sha": sha}


def baseline_match(workload: str, digests: dict) -> dict:
    """Which digests equal those recorded at the benchmark's first commit;
    a difference is recorded, not failed."""
    recorded = json.loads((BENCH_DIR / "baseline_digests.json").read_text())[workload]
    return {k: digests.get(k) == v for k, v in recorded.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](work, seed, SRC)
    setup = workload.setup()
    detail = {"workload": workload_name, "seed": seed, "trace": int(trace)}
    extra_runs = []
    if trace:
        outcomes, extra_runs, metrics, silent, extra = traced(workload, seconds)
        if silent:
            raise SystemExit(f"perfbench: layers recorded nothing on {workload_name}: "
                             f"{', '.join(silent)}")
        detail.update(extra)
    else:
        outcomes = measure(workload, seconds)
        times = [o.seconds for o in outcomes]
        imports = import_seconds()
        setup["import_s"] = imports
        setup_s = setup.get("bundle_s", statistics.median(imports))
        values = {"verdict_s": statistics.median(times), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail["verdict_s_samples"] = times
        if len(times) >= 100:
            detail["verdict_s.p90"] = statistics.quantiles(times, n=10)[-1]

    failures, digests = gate(outcomes)
    failures += [o.problems for o in extra_runs if o.problems]
    outcomes += extra_runs
    detail.update({
        "operations": len(outcomes), "fail_ratio": len(failures) / len(outcomes),
        "failures": failures[:3], "digests": digests,
        "digests_match_baseline": baseline_match(workload_name, digests),
        "setup": setup, "machine": machine(),
    })
    result = {"correct": not failures, "attempted": len(outcomes),
              "failed": len(failures), "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("proof", "scale", "audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bluefive" / "__init__.py").is_file():
        print(f"perfbench: no bluefive sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
