"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest -q perfbench/selftest.py

They are kept out of the default test collection because they build a
certificate bundle.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import bluefive.configuration as configuration  # noqa: E402
import bluefive.figures as figures  # noqa: E402
import bluefive.geometry as geometry  # noqa: E402
import bluefive.lemmata as lemmata  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, public_functions  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    mod = types.SimpleNamespace()

    def leaf():
        clock.t += 1.0

    def inner():
        clock.t += 2.0
        mod.leaf()
        clock.t += 0.5

    def outer():
        clock.t += 3.0
        mod.inner()
        mod.leaf()
        clock.t += 1.0

    def broken():
        clock.t += 4.0
        mod.leaf()
        raise ValueError("boom")

    mod.leaf, mod.inner, mod.outer, mod.broken = leaf, inner, outer, broken
    for name in ("leaf", "inner", "outer", "broken"):
        tr.wrap(mod, name, f"x.{name}")

    mod.outer()
    assert tr.total_s("x.outer") == 8.5
    assert tr.self_s("x.outer") == 4.0          # 8.5 - inner 3.5 - leaf 1
    assert (tr.total_s("x.inner"), tr.self_s("x.inner")) == (3.5, 2.5)
    assert (tr.calls("x.leaf"), tr.self_s("x.leaf")) == (2, 2.0)

    with pytest.raises(ValueError):
        mod.broken()
    assert tr.self_s("x.broken") == 4.0       # closed despite the exception
    assert tr.layer_self_s("x") == 13.5 == clock.t
    assert len(tr._stack) == 1

    tr.uninstall()
    assert mod.outer is outer and mod.leaf is leaf


def test_rebinding_reaches_imported_names():
    originals = {"match": configuration.match_template, "dist2": geometry.dist2,
                 "emit": configuration.emit_clauses}
    public = {id(getattr(owner, name)) for layer in LAYERS
              for owner, name in public_functions(sys.modules[f"bluefive.{layer}"])}
    with Tracer() as tr:
        assert lemmata.match_template is configuration.match_template
        assert lemmata.match_template is not originals["match"]
        assert figures.dist2 is geometry.dist2 is configuration.dist2 is lemmata.dist2
        assert figures.dist2 is not originals["dist2"]
        assert lemmata.emit_clauses is not originals["emit"]
        # no bluefive module still binds an unwrapped public layer function
        for mod in [m for n, m in sys.modules.items() if n.startswith("bluefive")]:
            for name, value in vars(mod).items():
                assert id(value) not in public, f"{mod.__name__}.{name}"
        lemmata.verify_all(lemmata.Options(), only=["bluetr"])
    assert tr.calls("configuration.match_template.EQ3_CENTERED") > 0
    assert tr.calls("geometry.dist2") > 0 and tr.calls("field.mul") > 0
    assert tr.calls("lemmata.run_script.bluetr") == 1
    assert tr.count("configuration.emit_clauses.bluetr.R7") > 0
    assert lemmata.match_template is originals["match"]
    assert figures.dist2 is originals["dist2"]


def test_renamed_function_fails_loudly(monkeypatch):
    monkeypatch.delattr(lemmata, "uniqueness_enumeration")
    tr = Tracer()
    with pytest.raises(AttributeError):
        tr.install()
    assert configuration.emit_clauses is lemmata.emit_clauses
    assert not hasattr(lemmata.emit_clauses, "__wrapped__")


class Idle:
    name = "audit"

    def operation(self):
        return workloads.Outcome(0.001, [], {})


def test_silent_layer_is_reported():
    _, _, metrics, silent, _ = run.traced(Idle(), seconds=0)
    assert "solver.replay_unsat_trace.s" in silent
    assert all(metrics[n]["value"] == 0 for n in silent)


def test_metrics_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_MAP)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    empty = Tracer()
    for name in run.LAYER_MAP:
        if not name.startswith("trace."):
            run.layer_value(name, empty, empty, 1, 1, None)


# -- tampered bundles -------------------------------------------------------

@pytest.fixture(scope="module")
def bundle_run():
    return lemmata.verify_all(lemmata.Options(emit_certificates=True), only=["redtr"])


@pytest.fixture
def audit(tmp_path, bundle_run):
    wl = workloads.Audit(tmp_path, seed=3, src=None)
    lemmata.write_certificates(bundle_run, wl.bundle)
    return wl


def fail_ratio(wl) -> float:
    outcomes = run.measure(wl, seconds=0)
    failures, _ = run.gate(outcomes)
    return len(failures) / len(outcomes)


def test_clean_bundle_passes(audit):
    assert fail_ratio(audit) == 0


def test_flipped_trace_literal_fails_replay(audit):
    manifest_path = audit.bundle / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    name = next(n for n in sorted(manifest["files"]) if "contradiction" in n)
    payload = json.loads((audit.bundle / name).read_text())
    event = next(ev for ev in payload["certificate"]["unsat"]["trace"] if ev[0] == "imply")
    event[1] = -event[1]
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (audit.bundle / name).write_text(text)
    # re-sign, so that only the replay can catch it
    manifest["files"][name] = hashlib.sha256(text.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    problems = audit.operation().problems
    assert len(problems) == 1 and "replay failed" in problems[0]
    assert fail_ratio(audit) == 1


def test_corrupted_bytes_fail_sha256(audit):
    name = sorted(p.name for p in audit.bundle.iterdir() if p.name != "manifest.json")[0]
    path = audit.bundle / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))

    problems = audit.operation().problems
    assert problems == [f"{name}: sha256 does not match the manifest"]
    assert fail_ratio(audit) == 1


def test_differing_digests_fail_the_gate():
    ok = workloads.Outcome(1.0, [], {"report": "a"})
    other = workloads.Outcome(1.0, [], {"report": "b"})
    failures, reference = run.gate([ok, ok, other])
    assert reference == {"report": "a"} and len(failures) == 1
