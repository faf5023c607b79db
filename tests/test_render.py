"""SVG output: color assignment, stable element classes, glyphs, determinism."""
import colorsys
import html
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from simmap.geometry import cell_neighbors, power_diagram, square
from simmap.render import (
    LABEL_MIN_AREA,
    STROKE_BASE,
    RenderOptions,
    TABLEAU10,
    TABLEAU20,
    _quoteattr,
    assign_colors,
    render_svg,
)
from simmap.similarity import Constraint
from simmap.tree_model import parse_tree, propagate_attributes, uniform_depth


def flat_tree(n, root="root", prefix="c"):
    doc = {
        "name": root,
        "children": [{"name": f"{prefix}{i}", "weight": 1.0} for i in range(n)],
    }
    return propagate_attributes(parse_tree(doc))


def hex_to_hsv(color):
    c = color.lstrip("#")
    rgb = tuple(int(c[i:i + 2], 16) / 255.0 for i in (0, 2, 4))
    return colorsys.rgb_to_hsv(*rgb)


def chain_layout(n, ids=None):
    ids = ids or [f"c{i}" for i in range(n)]
    sites = [((i + 0.5) / n, 0.5) for i in range(n)]
    d = power_diagram(sites, square(1.0), node_ids=ids,
                      targets=[1.0 / n] * n)
    return {1: [d]}


def constraint(a, b, s=0.9, level=1):
    from simmap.similarity import bin_index
    return Constraint(a=a, b=b, similarity=s, bin=bin_index(s), level=level)


# ---------------------------------------------------------------- assign_colors

def test_explicit_color_wins():
    doc = {"name": "r", "children": [
        {"name": "a", "color": "#123456", "weight": 1.0},
        {"name": "b", "weight": 1.0},
    ]}
    tree = propagate_attributes(parse_tree(doc))
    colors = assign_colors(tree)
    assert colors["a"] == "#123456"


def test_top_level_cycles_small_palette():
    tree = flat_tree(3)
    colors = assign_colors(tree)
    got = [colors[f"c{i}"] for i in range(3)]
    assert got == TABLEAU10[:3]


def test_many_siblings_use_large_palette():
    tree = flat_tree(12)
    colors = assign_colors(tree)
    got = {colors[f"c{i}"] for i in range(12)}
    assert got <= set(TABLEAU20)
    assert len(got) == 12


def test_descendant_shades_keep_hue():
    doc = {"name": "r", "children": [
        {"name": "g", "children": [
            {"name": "x", "weight": 1.0},
            {"name": "y", "weight": 1.0},
        ]},
    ]}
    tree = propagate_attributes(parse_tree(doc))
    colors = assign_colors(tree, seed=5)
    h0, s0, v0 = hex_to_hsv(colors["g"])
    for leaf in ("x", "y"):
        h, s, v = hex_to_hsv(colors[leaf])
        assert h == pytest.approx(h0, abs=0.02)  # hue preserved up to 8-bit rounding
        assert abs(s - s0) <= 0.08 + 1e-2
        assert abs(v - v0) <= 0.08 + 1e-2


def test_virtual_node_inherits_parent_color_exactly():
    doc = {"name": "r", "children": [
        {"name": "deep", "children": [
            {"name": "deeper", "children": [{"name": "leaf", "weight": 1.0}]},
        ]},
        {"name": "shallow", "weight": 2.0},
    ]}
    tree = propagate_attributes(uniform_depth(parse_tree(doc)))
    # depth-1 nodes draw from the palette regardless; deeper virtual links
    # must reuse the parent color verbatim
    virtuals = [nid for nid in tree.nodes
                if "__v" in nid and tree.nodes[nid].depth >= 2]
    assert virtuals
    colors = assign_colors(tree)
    for vid in virtuals:
        assert colors[vid] == colors[tree.nodes[vid].parent]


def test_color_assignment_deterministic():
    tree = flat_tree(6)
    assert assign_colors(tree, seed=3) == assign_colors(tree, seed=3)


# ------------------------------------------------------------------ render_svg

def render(n_cells=3, constraints=(), **opts_kw):
    tree = flat_tree(n_cells)
    layout = chain_layout(n_cells)
    nm = cell_neighbors(layout[1])
    svg = render_svg(layout, tree, list(constraints), nm, RenderOptions(**opts_kw), 0)
    return svg


def test_output_is_wellformed_xml():
    svg = render(4, [constraint("c0", "c1")], show_unrealized=True)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_every_cell_has_a_classed_path():
    svg = render(5)
    for i in range(5):
        assert f'class="cell-c{i}"' in svg


def test_no_constraints_means_no_glyphs_or_dashes():
    svg = render(3, [], show_unrealized=True)
    assert "glyph-" not in svg
    assert "unrealized-" not in svg


def test_realized_constraint_draws_two_tabs():
    svg = render(3, [constraint("c0", "c1", 0.9)])
    assert svg.count('class="glyph-c0-c1"') == 2


def test_unrealized_constraint_draws_dashed_line():
    svg = render(4, [constraint("c0", "c3", 0.9)], show_unrealized=True)
    assert 'class="glyph-c0-c3"' not in svg
    assert svg.count('class="unrealized-c0-c3"') == 1
    assert "stroke-dasharray" in svg


def test_unrealized_hidden_by_default():
    svg = render(4, [constraint("c0", "c3", 0.9)])
    assert "unrealized-" not in svg


def test_labels_present_for_large_cells():
    svg = render(3)
    for i in range(3):
        assert f'class="label-c{i}"' in svg


def test_tiny_cells_skip_labels():
    # the radical axis lies at x = 0.9937: the small cell holds 0.63% of the
    # area, below LABEL_MIN_AREA
    ids = ["big", "small"]
    d = power_diagram([(0.2, 0.5), (0.999, 0.5)], square(1.0), node_ids=ids,
                      weights=[0.63, 0.0], targets=[0.995, 0.005])
    assert d.cells[1].area < LABEL_MIN_AREA <= d.cells[0].area
    tree = parse_tree({"name": "r", "children": [
        {"name": "big", "weight": 99.0}, {"name": "small", "weight": 1.0}]})
    tree = propagate_attributes(tree)
    svg = render_svg({1: [d]}, tree, [], {}, RenderOptions(), 0)
    assert 'class="label-big"' in svg
    assert 'class="label-small"' not in svg


def test_byte_identical_across_calls():
    cons = [constraint("c0", "c1", 0.7)]
    assert render(4, cons, show_unrealized=True) == render(
        4, cons, show_unrealized=True)


# render escapes with html.escape and _quoteattr, not xml.sax.saxutils, whose
# import loads urllib.request and http.client; the bytes must not change
MARKUP_TEXT = st.text(alphabet=st.sampled_from("\"'&<>\n\r\t a#1\u00e9"), max_size=12)


@given(MARKUP_TEXT)
def test_escaping_matches_saxutils(text):
    assert _quoteattr(text) == quoteattr(text)
    assert html.escape(text, quote=False) == escape(text)


def test_explicit_color_and_label_are_escaped():
    tree = propagate_attributes(parse_tree({"name": "r", "children": [
        {"name": "x<&>y", "id": "odd", "weight": 1.0},
        {"name": "plain", "weight": 1.0},
    ]}))
    tree.nodes["odd"].color = "a\"b'c&d"   # parse_tree admits only #rrggbb; render escapes any string
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0),
                      node_ids=["odd", "plain"], targets=[0.5, 0.5])
    svg = render_svg({1: [d]}, tree, [], {}, RenderOptions(), 0)
    assert 'fill="a&quot;b\'c&amp;d" stroke="none"/>' in svg
    assert '>x&lt;&amp;&gt;y</text>' in svg


def test_constraints_do_not_move_cell_outlines():
    plain = render(4, [])
    decorated = render(4, [constraint("c0", "c1", 0.9)])
    cell_paths = re.findall(r'class="cell-[^"]*" d="[^"]*"', plain)
    for path in cell_paths:
        assert path in decorated


def test_stronger_bins_get_deeper_tabs():
    def tab_depth(svg, cls):
        paths = re.findall(rf'class="{cls}" d="([^"]*)"', svg)
        depths = []
        for d in paths:
            # cells sit side by side, so the shared edge is vertical and the
            # tab intrudes horizontally
            xs = [float(m) for m in re.findall(r"[ML] ([0-9.]+) [0-9.]+", d)]
            depths.append(max(xs) - min(xs))
        return max(depths)

    strong = render(3, [constraint("c0", "c1", 0.9)])
    weak = render(3, [constraint("c0", "c1", 0.1)])
    assert tab_depth(strong, "glyph-c0-c1") > tab_depth(weak, "glyph-c0-c1")


def test_tab_vertices_stay_inside_owner_cells():
    n = 4
    tree = flat_tree(n)
    layout = chain_layout(n)
    nm = cell_neighbors(layout[1])
    cons = [constraint(f"c{i}", f"c{i+1}", 0.9) for i in range(n - 1)]
    svg = render_svg(layout, tree, cons, nm, RenderOptions(), 0)
    cells = {c.node_id: c for c in layout[1][0].cells}
    # recover pixel-space polygons via the same linear map the renderer used
    for a, b in [(f"c{i}", f"c{i+1}") for i in range(n - 1)]:
        paths = re.findall(rf'class="glyph-{a}-{b}" d="([^"]*)"', svg)
        assert len(paths) == 2
        for d in paths:
            pts = np.array(re.findall(r"[ML] ([0-9.]+) ([0-9.]+)", d), dtype=float)
            assert len(pts) == 4


def test_outline_width_decays_with_depth():
    doc = {"name": "r", "children": [
        {"name": "g1", "children": [
            {"name": "a", "weight": 1.0}, {"name": "b", "weight": 1.0}]},
        {"name": "g2", "children": [
            {"name": "c", "weight": 1.0}, {"name": "d", "weight": 1.0}]},
    ]}
    tree = propagate_attributes(parse_tree(doc))
    top = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0),
                        node_ids=["g1", "g2"])
    sub1 = power_diagram([(0.1, 0.5), (0.4, 0.5)], top.cells[0].polygon,
                         node_ids=["a", "b"])
    sub2 = power_diagram([(0.6, 0.5), (0.9, 0.5)], top.cells[1].polygon,
                         node_ids=["c", "d"])
    layout = {1: [top], 2: [sub1, sub2]}
    nm = cell_neighbors(layout[2])
    svg = render_svg(layout, tree, [], nm, RenderOptions(), 0)
    w1 = re.search(r'class="outline-g1" [^>]*stroke-width="([0-9.]+)"', svg)
    w2 = re.search(r'class="outline-a" [^>]*stroke-width="([0-9.]+)"', svg)
    assert float(w1.group(1)) == pytest.approx(STROKE_BASE)
    assert float(w2.group(1)) == pytest.approx(STROKE_BASE * 0.6)


def test_glyph_count_matches_preserved_constraints():
    n = 5
    cons = [constraint("c0", "c1"), constraint("c1", "c2"),
            constraint("c0", "c4")]  # last one is not adjacent
    svg = render(n, cons, show_unrealized=True)
    assert len(re.findall(r'class="glyph-', svg)) == 2 * 2
    assert len(re.findall(r'class="unrealized-', svg)) == 1


def test_empty_leaf_cell_draws_nothing_and_every_other_cell_is_drawn():
    # c1's weight of -10 puts its power distance above c0's everywhere in the
    # unit square, so its cell is empty
    d = power_diagram([(0.125, 0.5), (0.375, 0.5), (0.625, 0.5), (0.875, 0.5)], square(1.0),
                      node_ids=["c0", "c1", "c2", "c3"], weights=[0.0, -10.0, 0.0, 0.0],
                      targets=[0.25] * 4)
    assert d.cells[1].polygon is None
    assert all(c.polygon is not None for c in d.cells if c.node_id != "c1")
    cons = [constraint("c1", "c3"), constraint("c0", "c3")]
    svg = render_svg({1: [d]}, flat_tree(4), cons, cell_neighbors([d]),
                     RenderOptions(show_unrealized=True, show_disconnect_icon=True), 0)
    ET.fromstring(svg)
    classes = re.findall(r'class="([^"]+)"', svg)
    assert not [c for c in classes if "c1" in c]
    for kind in ("cell", "outline", "label"):
        assert {f"{kind}-c0", f"{kind}-c2", f"{kind}-c3"} <= set(classes), kind
    # the drawn ends of the unrealized constraints are still marked
    assert {"unrealized-c0-c3", "disconnect-c0", "disconnect-c3"} <= set(classes)
