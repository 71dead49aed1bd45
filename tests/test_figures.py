import importlib.util
import pathlib

import pytest

from bluefive.field import ONE
from bluefive.figures import CLAIM_SHAPES, FIGURE_IDS, load_figure, self_check
from bluefive.geometry import chord_rotation, dist2, node, reflection
from bluefive.lemmata import figure_colors
from bluefive.solver import BRUTE_FORCE_MAX_FREE, brute_force, solve
from bluefive.configuration import emit_clauses


def test_all_registries_self_check():
    for fid in FIGURE_IDS:
        assert self_check([load_figure(fid)])[0] == [], fid


def test_self_check_reports_bad_claims():
    figure = load_figure("fig1a")
    figure.claims["ell5"].append({"nodes": ["A", "X", "D", "E", "B"]})
    figure.claims["patterns"].append(
        {"template": "EQ3_CENTERED", "nodes": ["O", "A", "B", "C"], "center_last": True})
    problems, _ = self_check([figure])
    assert len(problems) == 2
    assert "A-X-D-E-B is not a unit five-chain" in problems[0]
    assert "do not form a EQ3_CENTERED" in problems[1]


def _name_list_fields() -> list:
    """(figure, section, claim index, field) of the first shipped claim of
    each section that has each list-of-names field."""
    cases = []
    for section, shape in CLAIM_SHAPES.items():
        for key in [key for key, kind in shape.items()
                    if isinstance(kind, list) and kind[0] is str]:
            cases += [case for case in [next(
                ((fid, section, index, key) for fid in FIGURE_IDS
                 for index, claim in enumerate(load_figure(fid).claims.get(section, []))
                 if key in claim), None)] if case]
    return cases


@pytest.mark.parametrize("fid, section, index, key", _name_list_fields())
def test_names_written_as_a_string_fail_the_claim(fid, section, index, key):
    """A string in place of a list of names is not read letter by letter:
    the claim cannot be decided, and the row of its id fails with it."""
    figure = load_figure(fid)
    claims = figure.claims[section]
    text = claims[index][key] = "".join(claims[index][key])
    problems, decided = self_check([figure])
    assert len(problems) == 1, problems
    assert f" cannot be decided: its {key!r} must be a JSON array, got {text!r}" in problems[0]
    claim_id = claims[index].get("id")
    if claim_id:
        [(_, detail, failure)] = decided[claim_id]
        assert f"{fid}: {failure}" == problems[0] and "error" in detail


def _set_claims(figure, claims):
    figure.claims = claims


@pytest.mark.parametrize("edit, failure", [
    (lambda f: f.claims["dist2"].append({"nodes": "AB", "equals": 9}),
     "the dist2 claim AB cannot be decided: its 'nodes' must be a JSON array, got 'AB'"),
    (lambda f: f.claims["ell5"][0].update(nodes="XADEB"),
     "the ell5 claim chain-xadeb cannot be decided: its 'nodes' must be a JSON array, "
     "got 'XADEB'"),
    (lambda f: f.claims["patterns"][0].update(nodes="ABCO"),
     "the patterns claim ABCO cannot be decided: its 'nodes' must be a JSON array, got 'ABCO'"),
    (lambda f: f.claims["dist2"][0].update(nodes=["A", "B", "C"]),
     "the dist2 claim side-ab cannot be decided: its 'nodes' must hold 2 items, not 3"),
    (lambda f: _set_claims(f, []),
     "the claims cannot be decided: they must be a JSON object, got []"),
    (lambda f: f.claims["dist2"][6].update(equals=True),
     "the dist2 claim xy-unit cannot be decided: its 'equals' must be a JSON integer, got True"),
], ids=["dist2-string", "ell5-string", "patterns-string", "dist2-three", "claims-list",
        "dist2-boolean"])
def test_malformed_claims_fail_the_self_check(edit, failure):
    """A claim not of its section's shape cannot be decided.  The three
    strings passed, read letter by letter, `true` passed as the squared
    distance 1, and claims that were a list raised AttributeError, before
    claims were checked against their section's shape."""
    figure = load_figure("fig1a")
    edit(figure)
    assert self_check([figure])[0] == [f"fig1a: {failure}"]


@pytest.mark.parametrize("fid, section, key, value, failure", [
    ("fig1b", "images", "map", ["chord", ["O"], 1],
     "the images claim {} cannot be decided: unhashable type: 'list'"),
    ("figcol2", "sublattice", "steps", {"A": "ab"}, "the sublattice claim {} cannot be "
     "decided: 'str' object cannot be interpreted as an integer"),
], ids=["map-node-list", "sublattice-step-string"])
def test_checker_type_errors_fail_the_claim(fid, section, key, value, failure):
    """A value of the wrong type inside a field that the shapes leave open
    makes its checker raise TypeError, which fails the claim as one that
    cannot be decided rather than escaping the self-check."""
    figure = load_figure(fid)
    claim = figure.claims[section][0]
    claim[key] = value
    assert self_check([figure])[0] == [f"{fid}: {failure.format(claim['id'])}"]


def test_registries_draw_what_their_stages_fix_and_force():
    """Each registry's colours are its stage's premises plus the colours of
    that stage's FORCED rows: no proved colour goes undrawn, and fig3's X
    (proved by no row) and figthm's A (the hypothesis of red-point-exists,
    not a premise of the witness-pair stage) are not drawn."""
    for fid in FIGURE_IDS:
        figure = load_figure(fid)
        assert figure.colors == figure_colors(figure), fid
    assert "X" not in load_figure("fig3").colors and "A" not in load_figure("figthm").colors


def test_first_figure_has_ten_nodes():
    assert len(load_figure("fig1a").cfg) == 10


def test_registry_points_rederive_geometrically():
    # the chord-rotated points of the third diagram equal fresh constructions
    fig = load_figure("fig3").cfg
    rot_b = chord_rotation(fig.point_of("B"), -1)
    rot_c = chord_rotation(fig.point_of("C"), -1)
    assert fig.point_of("X'") == rot_b(fig.point_of("X"))
    assert fig.point_of("A'") == rot_b(fig.point_of("A"))
    assert fig.point_of("F'") == rot_b(fig.point_of("F"))
    assert fig.point_of("X''") == rot_c(fig.point_of("X"))
    mirror = reflection(fig.point_of("B"), fig.point_of("C"))
    assert fig.point_of("X") == mirror(fig.point_of("F"))

    figb = load_figure("fig1b").cfg
    rot_o = chord_rotation(figb.point_of("O"), -1)
    for src, dst in (("A", "A'"), ("B", "B'"), ("C", "C'")):
        assert figb.point_of(dst) == rot_o(figb.point_of(src))
        assert dist2(figb.point_of(src), figb.point_of(dst)) == ONE


def test_lattice_figures_sit_on_canonical_nodes():
    fig = load_figure("figcol1").cfg
    assert fig.point_of("A'") == node(5, 0)
    assert fig.point_of("E'") == node(9, -2)
    fig2 = load_figure("figcol2").cfg
    assert fig2.point_of("B") == node(-1, 2)
    assert fig2.point_of("A'''") == node(-5, 0)


def test_figure_instances_within_oracle_budget():
    for fid in FIGURE_IDS:
        figure = load_figure(fid)
        fixed_primaries = {figure.cfg.primary(n) for n in figure.colors}
        free = len(figure.cfg) - len(fixed_primaries)
        assert free <= 22, (fid, free)
        assert free <= BRUTE_FORCE_MAX_FREE


def test_figure_instances_oracle_agreement():
    for fid in FIGURE_IDS:
        figure = load_figure(fid)
        problem = emit_clauses(figure.cfg, figure.rules, figure.colors)
        fast = solve(problem)
        slow = brute_force(problem)
        assert fast.kind == slow.kind, fid


def test_make_figures_regenerates_shipped_registries(tmp_path):
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_figures", root / "tools" / "make_figures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.OUT = tmp_path
    for fid in FIGURE_IDS:
        getattr(tool, fid)()
    shipped = root / "src" / "bluefive" / "data" / "figures"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in shipped.iterdir())
    for fid in FIGURE_IDS:
        name = f"{fid}.json"
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
