"""Deterministic SVG rendering of configurations and pattern patches.

Exact coordinates are rounded to 9 decimal digits for drawing only; the
output is byte-stable across runs.  Red points are diamonds, blue points
are discs, undetermined points are hollow discs, and a dashed lattice
grid is drawn whenever every point lies on the canonical lattice.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .figures import load_figure
from .geometry import hex_indices, node
from .tilings import PATTERNS, PeriodicColoring

SCALE = 48.0
MARGIN = 1.2
POINT_R = 5.0


def _fmt(v: float) -> str:
    return f"{v:.9f}"


def _grid_lines(coords: list[tuple[int, int]], to_px) -> list[str]:
    if not coords:
        return []
    amin = min(a for a, _ in coords) - 1
    amax = max(a for a, _ in coords) + 1
    bmin = min(b for _, b in coords) - 1
    bmax = max(b for _, b in coords) + 1
    smin = min(a + b for a, b in coords) - 1
    smax = max(a + b for a, b in coords) + 1
    lines = []

    def seg(p: tuple[float, float], q: tuple[float, float]) -> None:
        (x1, y1), (x2, y2) = to_px(p), to_px(q)
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'class="grid"/>')

    def xy(a: float, b: float) -> tuple[float, float]:
        return (a + b / 2.0, b * (3 ** 0.5) / 2.0)

    for b in range(bmin, bmax + 1):          # rows along e1
        seg(xy(amin - (bmax - bmin), b), xy(amax + (bmax - bmin), b))
    for a in range(amin, amax + 1):          # lines along e2
        seg(xy(a, bmin - 1), xy(a, bmax + 1))
    for s in range(smin, smax + 1):          # lines along e2 - e1
        seg(xy(s - bmin + 1, bmin - 1), xy(s - bmax - 1, bmax + 1))
    return lines


def render_svg(points: Iterable[tuple[str, tuple[float, float], Optional[str]]],
               lattice: Optional[list[tuple[int, int]]] = None,
               labels: bool = True) -> str:
    """points: (label, (x, y) in plane units, colour 'red' | 'blue' | None)."""
    pts = list(points)
    xs = [p[1][0] for p in pts] or [0.0]
    ys = [p[1][1] for p in pts] or [0.0]
    x0, x1 = min(xs) - MARGIN, max(xs) + MARGIN
    y0, y1 = min(ys) - MARGIN, max(ys) + MARGIN
    width = (x1 - x0) * SCALE
    height = (y1 - y0) * SCALE

    def to_px(xy: tuple[float, float]) -> tuple[float, float]:
        return ((xy[0] - x0) * SCALE, (y1 - xy[1]) * SCALE)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<style>.grid{stroke:#999;stroke-width:0.6;stroke-dasharray:4 3;opacity:0.5}'
        '.lbl{font:11px sans-serif;fill:#222}</style>',
    ]
    if lattice is not None:
        out.extend(_grid_lines(lattice, to_px))
    for label, xy, colour in pts:
        x, y = to_px(xy)
        if colour == "red":
            r = POINT_R + 1.5
            out.append(
                f'<polygon points="{_fmt(x)},{_fmt(y - r)} {_fmt(x + r)},{_fmt(y)} '
                f'{_fmt(x)},{_fmt(y + r)} {_fmt(x - r)},{_fmt(y)}" fill="#c22"/>')
        elif colour == "blue":
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(POINT_R)}" '
                       f'fill="#24c"/>')
        else:
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(POINT_R)}" '
                       f'fill="white" stroke="#222"/>')
        if labels and label:
            out.append(f'<text x="{_fmt(x + 7.0)}" y="{_fmt(y - 7.0)}" class="lbl">'
                       f'{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_figure(fid: str) -> str:
    figure = load_figure(fid)
    cfg = figure.cfg
    lattice = cfg.lattice()
    pts = [(name, (float(pt.x), float(pt.y)), figure.colors.get(name))
           for name, pt in zip(cfg.names, cfg.points)]
    return render_svg(pts, lattice=lattice[0] if lattice else None)


def render_pattern(pattern_id: str, radius: int) -> str:
    coloring: PeriodicColoring = PATTERNS[pattern_id]
    pts = []
    coords = []
    for a, b in hex_indices(radius):
        p = node(a, b)
        coords.append((a, b))
        pts.append(("", (float(p.x), float(p.y)),
                    "red" if coloring.is_red(a, b) else "blue"))
    return render_svg(pts, lattice=coords, labels=False)


def render(target: str, radius: int = 5) -> str:
    if target == "patternA":
        return render_pattern("A", radius)
    if target == "patternB":
        return render_pattern("B", radius)
    return render_figure(target)
