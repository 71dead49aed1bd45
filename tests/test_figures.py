import importlib.util
import pathlib

from bluefive.field import ONE
from bluefive.figures import FIGURE_IDS, load_figure, self_check
from bluefive.geometry import chord_rotation, dist2, node, reflection
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
