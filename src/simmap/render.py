"""Static SVG output: cell fills, depth-scaled strokes, interlocking glyphs on
constraint-realized edges, dashed unrealized links, disconnect markers, labels."""
from __future__ import annotations

import colorsys
import html
import re
from dataclasses import dataclass

import numpy as np

from .geometry import Diagram
from .similarity import Constraint
from .tree_model import Tree

TABLEAU20 = [
    "#1f77b4", "#aec7e8", "#ff7f0e", "#ffbb78", "#2ca02c", "#98df8a",
    "#d62728", "#ff9896", "#9467bd", "#c5b0d5", "#8c564b", "#c49c94",
    "#e377c2", "#f7b6d2", "#7f7f7f", "#c7c7c7", "#bcbd22", "#dbdb8d",
    "#17becf", "#9edae5",
]
TABLEAU10 = TABLEAU20[::2]


WIDTH = HEIGHT = 900           # SVG canvas, pixels
LABEL_MIN_AREA = 0.01          # smaller leaf cells, as a fraction of the root, go unlabeled
STROKE_BASE = 4.0              # level-1 outline width; each level below is 0.6x thinner
# strong/medium/weak intrusion depths as fractions of shared-edge length
GLYPH_SIZES = (0.35, 0.25, 0.15)


@dataclass
class RenderOptions:
    show_unrealized: bool = False
    show_disconnect_icon: bool = False


def _quoteattr(value: str) -> str:
    """`value` escaped and quoted as an XML attribute, byte for byte as
    xml.sax.saxutils.quoteattr does; importing that module loads
    urllib.request and http.client."""
    value = html.escape(value, quote=False)
    value = value.replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"%s"' % value.replace('"', "&quot;")


def _hex_to_rgb(color: str) -> tuple[float, float, float]:
    color = color.lstrip("#")
    return tuple(int(color[i:i + 2], 16) / 255.0 for i in (0, 2, 4))


def _rgb_to_hex(rgb) -> str:
    return "#%02x%02x%02x" % tuple(int(round(max(0.0, min(1.0, c)) * 255)) for c in rgb)


def assign_colors(tree: Tree, seed: int = 0) -> dict[str, str]:
    """Explicit colors win; depth-1 nodes cycle a Tableau palette; deeper
    nodes perturb the parent color in saturation/value, hue unchanged."""
    n_top = sum(1 for n in tree.nodes.values() if n.depth == 1)
    palette = TABLEAU10 if n_top <= 10 else TABLEAU20
    rng = np.random.default_rng(seed)
    colors: dict[str, str] = {}
    top_index = 0
    for node in tree.iter_bfs():
        if node.color is not None:
            colors[node.id] = node.color
        elif node.depth == 0:
            colors[node.id] = "#ffffff"
        elif node.depth == 1:
            colors[node.id] = palette[top_index % len(palette)]
            top_index += 1
        else:
            parent_color = colors[node.parent]
            if node.is_virtual:
                colors[node.id] = parent_color
            else:
                h, s, v = colorsys.rgb_to_hsv(*_hex_to_rgb(parent_color))
                ds = rng.uniform(-0.08, 0.08)
                dv = rng.uniform(-0.08, 0.08)
                s = max(0.0, min(1.0, s + ds))
                v = max(0.0, min(1.0, v + dv))
                colors[node.id] = _rgb_to_hex(colorsys.hsv_to_rgb(h, s, v))
    return colors


def _css_name(raw: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]", "_", raw)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class _Mapper:
    """Layout coordinates to SVG pixels, y flipped."""

    def __init__(self, diagrams: list[Diagram], width: int, height: int, pad: float = 10.0):
        xs, ys = [], []
        for d in diagrams:
            v = d.boundary.vertices
            xs.extend(v[:, 0])
            ys.extend(v[:, 1])
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        sx = (width - 2 * pad) / max(x1 - x0, 1e-12)
        sy = (height - 2 * pad) / max(y1 - y0, 1e-12)
        self.s = min(sx, sy)
        self.x0, self.y1, self.pad = x0, y1, pad

    def pt(self, p) -> tuple[float, float]:
        return (self.pad + (p[0] - self.x0) * self.s, self.pad + (self.y1 - p[1]) * self.s)

    def path(self, vertices) -> str:
        pieces = []
        for i, p in enumerate(vertices):
            x, y = self.pt(p)
            pieces.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
        pieces.append("Z")
        return " ".join(pieces)


def _glyph_depth_class(bin_index: int) -> float:
    if bin_index == 0:
        return GLYPH_SIZES[0]
    if bin_index in (1, 2):
        return GLYPH_SIZES[1]
    return GLYPH_SIZES[2]


def _tab_vertices(mid, edge_dir, normal, depth, half_base, half_top):
    return [
        mid - half_base * edge_dir,
        mid + half_base * edge_dir,
        mid + half_top * edge_dir + depth * normal,
        mid - half_top * edge_dir + depth * normal,
    ]


def _glyph_tabs(cell, other, segment, bin_index: int):
    """Symmetric trapezoid tab pair on the shared edge, one intruding into
    each cell, shrunk until the tab vertices stay inside the owner polygon."""
    p0, p1, length = segment
    edge_dir = (p1 - p0) / length
    normal = np.array([-edge_dir[1], edge_dir[0]])
    mid = 0.5 * (p0 + p1)
    depth = min(_glyph_depth_class(bin_index) * length, 0.4 * length)
    half_base = 0.2 * length
    half_top = 0.1 * length
    tabs = []
    for owner in (cell, other):
        n = normal if float(normal @ (owner.site - mid)) >= 0.0 else -normal
        d = depth
        for _ in range(8):
            verts = _tab_vertices(mid, edge_dir, n, d, half_base, half_top)
            if owner.polygon is not None and all(
                owner.polygon.contains(v, tol=1e-9 * length) for v in verts
            ):
                break
            d *= 0.6
        else:
            verts = _tab_vertices(mid, edge_dir, n, d, half_base, half_top)
        tabs.append(verts)
    return tabs


def render_svg(
    diagrams_by_level: dict[int, list[Diagram]],
    tree: Tree,
    constraints: list[Constraint],
    neighbor_map: dict,
    opts: RenderOptions,
    seed: int,
) -> str:
    """Serialize the finished treemap, with assign_colors(tree, seed). Element
    classes are stable: cell-<id>, glyph-<a>-<b>, unrealized-<a>-<b>, label-<id>."""
    levels = sorted(diagrams_by_level)
    mapper = _Mapper(diagrams_by_level[levels[0]], WIDTH, HEIGHT)
    colors = assign_colors(tree, seed)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )

    total_area = sum(d.boundary.area for d in diagrams_by_level[levels[0]])
    drawn = {c.node_id: c for d in diagrams_by_level[levels[-1]] for c in d.cells
             if c.polygon is not None}
    fills, labels = [], []
    for nid, c in drawn.items():
        fills.append(
            f'<path class="cell-{_css_name(nid)}" '
            f'd="{mapper.path(c.polygon.vertices)}" '
            f'fill={_quoteattr(colors.get(nid, "#cccccc"))} stroke="none"/>'
        )
        if c.area / total_area < LABEL_MIN_AREA:
            continue
        node = tree.nodes.get(nid)
        label = node.name if node is not None else nid
        x, y = mapper.pt(c.polygon.centroid)
        size = max(8.0, 0.25 * (c.area ** 0.5) * mapper.s)
        labels.append(
            f'<text class="label-{_css_name(nid)}" x="{_fmt(x)}" y="{_fmt(y)}" '
            f'font-size="{_fmt(size)}">{html.escape(label, quote=False)}</text>'
        )
    out.append('<g id="cells">')
    out.extend(fills)
    out.append("</g>")

    out.append('<g id="outlines" fill="none" stroke="#222222">')
    for level in levels:
        width = STROKE_BASE * 0.6 ** (level - 1)
        for d in diagrams_by_level[level]:
            for c in d.cells:
                if c.polygon is None:
                    continue
                out.append(
                    f'<path class="outline-{_css_name(c.node_id)}" '
                    f'd="{mapper.path(c.polygon.vertices)}" '
                    f'stroke-width="{_fmt(width)}"/>'
                )
    out.append("</g>")

    contacts = [(con, neighbor_map.get(tuple(sorted((con.a, con.b))))) for con in constraints]
    unpreserved = [con for con, contact in contacts if contact is None]

    out.append('<g id="glyphs" fill="#ffffff" fill-opacity="0.65" stroke="#222222" stroke-width="1">')
    for con, contact in contacts:
        if contact is None:
            continue
        cls = f"glyph-{_css_name(con.a)}-{_css_name(con.b)}"
        for verts in _glyph_tabs(drawn[con.a], drawn[con.b], contact, con.bin):
            out.append(f'<path class="{cls}" d="{mapper.path(verts)}"/>')
    out.append("</g>")

    if opts.show_unrealized:
        out.append('<g id="unrealized" stroke="#d62728" stroke-width="2" stroke-dasharray="6 4">')
        for con in unpreserved:
            if con.a not in drawn or con.b not in drawn:
                continue
            x1, y1 = mapper.pt(drawn[con.a].polygon.centroid)
            x2, y2 = mapper.pt(drawn[con.b].polygon.centroid)
            out.append(
                f'<line class="unrealized-{_css_name(con.a)}-{_css_name(con.b)}" '
                f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
            )
        out.append("</g>")

    if opts.show_disconnect_icon:
        flagged = sorted({nid for con in unpreserved for nid in (con.a, con.b)} & drawn.keys())
        out.append('<g id="disconnect" fill="#d62728" stroke="#ffffff" stroke-width="1">')
        for nid in flagged:
            x, y = mapper.pt(drawn[nid].polygon.centroid)
            out.append(
                f'<circle class="disconnect-{_css_name(nid)}" '
                f'cx="{_fmt(x)}" cy="{_fmt(y)}" r="5"/>'
            )
        out.append("</g>")

    out.append('<g id="labels" font-family="sans-serif" fill="#111111" text-anchor="middle">')
    out.extend(labels)
    out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"
