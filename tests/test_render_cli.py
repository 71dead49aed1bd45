import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import bluefive
import bluefive.cli as cli

from bluefive.cli import RENDER_TARGETS, main
from bluefive.geometry import hex_indices
from bluefive.render import render, render_figure, render_pattern
from bluefive.solver import CertificateError
from bluefive.tilings import PATTERN_B


def test_first_figure_glyph_counts():
    svg = render_figure("fig1a")
    # three red diamonds (O, X, Y), seven blue discs, no hollow disc
    assert svg.count("<polygon") == 3
    assert svg.count('fill="#24c"') == 7
    assert svg.count('fill="white"') == 0


def test_third_figure_has_primed_labels():
    svg = render_figure("fig3")
    assert ">X'</text>" in svg
    assert ">X''</text>" in svg


def test_pattern_red_count_matches_membership():
    radius = 5
    svg = render_pattern("B", radius)
    reds = sum(1 for a, b in hex_indices(radius) if PATTERN_B.is_red(a, b))
    assert svg.count("<polygon") == reds


def test_svg_byte_stable():
    assert render("patternA", 5) == render("patternA", 5)
    assert render_figure("fig4") == render_figure("fig4")


# sha256 of render(t) concatenated over RENDER_TARGETS at the default radius
SVG_SHA256 = "8d6fdcd249001ff75b17d201499859fea2da32ca11befae919a3fef4fc4d24cf"


def test_svg_bytes_unchanged():
    svg = "".join(render(t) for t in RENDER_TARGETS)
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_SHA256


def test_empty_render_is_valid_svg():
    from bluefive.render import render_svg
    svg = render_svg([], lattice=[(0, 0)])
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_cli_verify_lemma(tmp_path, capsys):
    report = tmp_path / "t7.json"
    code = main(["verify", "lemma", "t7", "--json", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASSED ] t7" in out
    payload = json.loads(report.read_text())
    assert payload["ok"] is True
    # byte-identical JSON round trip
    text = report.read_text()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_cli_refuses_a_certs_directory_with_other_files(tmp_path, capsys):
    certs = tmp_path / "certs"
    assert main(["verify", "lemma", "bluetr", "--certs", str(certs)]) == 0
    assert main(["verify", "lemma", "bluetr", "--certs", str(certs)]) == 0
    written = sorted(p.name for p in certs.iterdir())
    (certs / "notes.txt").write_text("kept\n")
    capsys.readouterr()
    assert main(["verify", "lemma", "bluetr", "--certs", str(certs)]) == 2
    assert "notes.txt" in capsys.readouterr().err
    assert sorted(p.name for p in certs.iterdir()) == sorted(written + ["notes.txt"])


def test_cli_refuses_a_certs_directory_before_the_run(tmp_path, capsys, monkeypatch):
    """A --certs DIR that holds other files is refused before any script
    runs: exit 2, the directory message, no report, nothing removed."""
    certs = tmp_path / "certs"
    certs.mkdir()
    (certs / "notes.txt").write_text("kept\n")

    def no_run(*args, **kwargs):
        raise AssertionError("verify_all ran before the directory check")

    monkeypatch.setattr(cli, "verify_all", no_run)
    for argv in (["verify", "all"], ["verify", "lemma", "bluetr"]):
        assert main([*argv, "--certs", str(certs)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "notes.txt" in err and "no certificate manifest there lists" in err
    assert [p.name for p in certs.iterdir()] == ["notes.txt"]


def test_cli_unknown_lemma(capsys):
    assert main(["verify", "lemma", "nosuch"]) == 2
    assert "unknown lemma" in capsys.readouterr().err


def test_cli_bad_usage():
    assert main(["frobnicate"]) == 2


def test_cli_oracle_on_registry(tmp_path, capsys, monkeypatch):
    """Brute force, the learning search and the traced search agree; an
    unsat trace must replay; derived rules are listed as hypotheses."""
    from importlib import resources

    figures = resources.files("bluefive").joinpath("data/figures")
    # a side-sqrt3 triangle P, Q, R under the extension schema
    triangle = {"points": [{"name": n, "x": [x, "0", "0", "0"], "y": ["0", y, "0", "0"]}
                           for n, x, y in (("P", "0", "0"), ("Q", "3/2", "-1/2"),
                                           ("R", "3/2", "1/2"))],
                "fixed": {"P": "red"},
                "rules": ["RED_L2_FORBIDDEN",
                          {"rule": "T3_TO_T6_SCHEMA", "anchors": [["P", "Q", "R"]]}]}
    for fid, instance, kind, hypotheses in (
            ("fig1a", None, "unsat", []),
            ("figcol2", None, "sat", ["NO_RED_T3"]),
            ("triangle", triangle, "sat", ["T3_TO_T6_SCHEMA"])):
        inst = tmp_path / f"{fid}.json"
        inst.write_text(figures.joinpath(f"{fid}.json").read_text() if instance is None
                        else json.dumps(instance))
        report = tmp_path / f"{fid}.report.json"
        assert main(["oracle", str(inst), "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "AGREE" in out
        assert f"unproved hypotheses: {', '.join(hypotheses) or 'none'}" in out
        payload = json.loads(report.read_text())
        assert payload["solve"] == payload["traced_solve"] == payload["brute_force"] == kind
        assert payload["trace_replays"] is (True if kind == "unsat" else None)
        assert payload["unproved_hypotheses"] == hypotheses and payload["agree"]

    def rejecting_replay(clauses, trace):
        raise CertificateError("rejected")

    monkeypatch.setattr(cli, "replay_unsat_trace", rejecting_replay)
    assert main(["oracle", str(tmp_path / "fig1a.json")]) == 1
    assert "trace FAILS" in capsys.readouterr().out
    assert main(["oracle", str(tmp_path / "missing.json")]) == 2


def test_cli_export_cnf_round_trip(tmp_path):
    assert main(["export-cnf", "bluetr", "--out", str(tmp_path)]) == 0
    cnf = (tmp_path / "bluetr_main.cnf").read_text()
    varmap = (tmp_path / "bluetr_main.varmap").read_text()
    from bluefive.solver import brute_force, export_dimacs, parse_dimacs, solve
    problem = parse_dimacs(cnf, varmap)
    assert export_dimacs(problem) == (cnf, varmap)
    assert solve(problem).kind == brute_force(problem).kind == "unsat"


def test_cli_render(tmp_path):
    out = tmp_path / "p.svg"
    assert main(["render", "patternB", "--svg", str(out), "--radius", "5"]) == 0
    assert out.read_text().startswith("<svg")
    assert main(["render", "nosuch", "--svg", str(out)]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "all"], ["export-cnf", "col1", "--out", "{tmp}/cnf"],
    ["render", "patternA", "--svg", "{tmp}/p.svg"], ["coloring", "validate", "A"]])
def test_cli_refuses_a_patch_past_the_node_bound(monkeypatch, tmp_path, capsys, argv):
    """Every command that takes --radius refuses, with exit 2, a radius
    whose hex patch passes the node bound, before it builds anything.  The
    bound is lowered to 19 nodes (radius 2) so that radius 6 stays small
    even if the refusal were missing."""
    monkeypatch.setattr("bluefive.geometry.MAX_PATCH_NODES", 19)
    for name in ("verify_all", "build_stages", "render", "validate_pattern"):
        monkeypatch.setattr(cli, name, None)  # the refusal comes before any of them
    args = [a.format(tmp=tmp_path) for a in argv] + ["--radius", "6"]
    assert main(args) == 2
    assert "radius 6 gives a hex patch of 127 nodes; the most allowed is 19" in (
        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_cli_coloring_validate(tmp_path):
    report = tmp_path / "a.json"
    assert main(["coloring", "validate", "A", "--radius", "12",
                 "--json", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["ok"] and payload["distance5_invariant"]
    assert main(["coloring", "validate", "B", "--radius", "4"]) == 2


# sha256 of the file `coloring validate P --radius 12 --json` writes
COLORING_JSON_SHA256 = {
    "A": "f914369c38ee6e0031dc7f5a2b5f6c09a376fdaf2b7481f662a0054572898dcb",
    "B": "78813709e1800cd74c70519fd1e56177b631f331157f29639abf4dc9c117dd66",
}


@pytest.mark.parametrize("pattern", sorted(COLORING_JSON_SHA256))
def test_coloring_validate_bytes_unchanged(tmp_path, pattern):
    report = tmp_path / f"{pattern}.json"
    assert main(["coloring", "validate", pattern, "--radius", "12",
                 "--json", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == COLORING_JSON_SHA256[pattern]


def test_cli_oracle_rejects_bad_instances(tmp_path, capsys):
    origin = {"name": "A", "x": ["0", "0", "0", "0"], "y": ["0", "0", "0", "0"]}
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"points": [origin], "fixed": {"Z": "red"}}))
    assert main(["oracle", str(unknown)]) == 2
    assert "unknown nodes: Z" in capsys.readouterr().err
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["oracle", str(not_object)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


_ORIGIN = {"name": "A", "x": ["0", "0", "0", "0"], "y": ["0", "0", "0", "0"]}


@pytest.mark.parametrize("instance, message", [
    ({"points": 5}, "'points' must be a JSON array"),
    ({"points": [1]}, "a point must be a JSON object"),
    ({"points": [], "fixed": 5}, "'fixed' must be a JSON object"),
    ({"points": [], "rules": 7}, "'rules' must be a JSON array"),
    ({"points": [dict(_ORIGIN, name=3)]}, "a point name must be a JSON string"),
    ({"points": [dict(_ORIGIN, x="0000")]}, "4 coefficient strings"),
    ({"points": [], "rules": ["T3_TO_T6_SCHEMA"]}, "T3_TO_T6_SCHEMA needs anchors"),
    ({"points": [], "rules": [{"rule": "T3_TO_T6_SCHEMA"}]}, "'anchors' must be a JSON array"),
    ({"points": [], "rules": [{"rule": "T3_TO_T6_SCHEMA", "anchors": []}]},
     "needs at least one anchor"),
    ({"points": [dict(_ORIGIN, name="aux:x")]}, "may not start with 'aux:'"),
    ({"points": [dict(_ORIGIN, x=["1e1000000", "0", "0", "0"])]}, "coefficient '1e1000000'"),
    ({"points": [dict(_ORIGIN, y=["0", "1.5", "0", "0"])]}, "coefficient '1.5'"),
])
def test_cli_oracle_rejects_wrongly_typed_instances(tmp_path, capsys, instance, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(instance))
    assert main(["oracle", str(path)]) == 2
    assert message in capsys.readouterr().err


_WITHOUT_NUMPY = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import bluefive
for mod in pkgutil.iter_modules(bluefive.__path__):
    importlib.import_module("bluefive." + mod.name)
from bluefive.cli import main
sys.exit(max([main(["oracle", path]) for path in sys.argv[1:]]))
"""


def test_runs_on_the_standard_library_alone():
    package = pathlib.Path(bluefive.__file__).resolve().parent
    paths = [str(package / "data" / "figures" / f"{fid}.json") for fid in ("fig1a", "figcol1")]
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *paths],
                          env=dict(os.environ, PYTHONPATH=str(package.parent)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("AGREE") == 2
