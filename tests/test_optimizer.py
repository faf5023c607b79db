"""Round-robin neighborhood-preserving optimization loop."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmap import geometry, optimizer, pipeline
from simmap.datasets import gen_synthetic
from simmap.geometry import (
    Cell,
    ConvexPolygon,
    Diagram,
    _clip_rings,
    _finish_rings,
    adapt_weights,
    adjacency,
    cell_neighbors,
    power_diagram,
    regular_polygon,
    square,
)
from simmap.optimizer import (
    LevelState,
    OptimizerConfig,
    _aligned,
    build_level_queue,
    move_orthogonal,
    move_toward,
    neighborhood_step,
    optimize_level,
    pure_lloyd_growth,
)
from simmap.pipeline import build_treemap, make_boundary
from simmap.similarity import Constraint, extract_level_constraints
from simmap.tree_model import parse_tree, propagate_attributes, uniform_depth


def prepared(doc):
    return propagate_attributes(uniform_depth(parse_tree(doc)))


def constraint(a, b, s=0.9, level=1):
    return Constraint(a=a, b=b, similarity=s, bin=0, level=level)


def make_state(diagram_or_list, constraints):
    diagrams = diagram_or_list if isinstance(diagram_or_list, list) else [diagram_or_list]
    return LevelState.create(1, diagrams, constraints)


# ---------------------------------------------------------------- OptimizerConfig

def test_growth_start_and_step_schedule():
    cfg = OptimizerConfig()
    assert cfg.growth_start == 120
    assert cfg.step_at(0) == 0.5
    assert cfg.step_at(119) == 0.5
    assert cfg.step_at(120) == pytest.approx(0.5 * 0.95)
    assert cfg.step_at(121) == pytest.approx(0.5 * 0.95 ** 2)


# --------------------------------------------------------------- build_level_queue

def test_queue_depth_one():
    tree = prepared({"name": "r", "children": [{"name": "a"}, {"name": "b"}]})
    queue = build_level_queue(tree)
    assert queue == [(1, [("r", ["a", "b"])])]


def test_queue_partitions_each_level():
    doc = {"name": "r", "children": [
        {"name": "g", "children": [
            {"name": "gg", "children": [{"name": "x"}, {"name": "y"}]},
        ]},
        {"name": "shallow"},
    ]}
    tree = prepared(doc)
    queue = build_level_queue(tree)
    assert [lvl for lvl, _ in queue] == [1, 2, 3]
    for level, groups in queue:
        covered = [c for _, kids in groups for c in kids]
        expected = [n.id for n in tree.nodes_at_depth(level)]
        assert sorted(covered) == sorted(expected)
        assert len(covered) == len(set(covered))


# -------------------------------------------------------------------- move_toward

def test_move_toward_advances_half_the_gap():
    # a long strip: the half gap is far above the band floor of the two cells
    boundary = ConvexPolygon(np.array([[0.0, 0.0], [1000.0, 0.0], [1000.0, 10.0], [0.0, 10.0]]))
    d = power_diagram([(100.0, 5.0), (900.0, 5.0)], boundary, node_ids=["a", "b"])
    a, b = d.cells
    assert 0.5 * 800.0 > optimizer.K_MIN * (a.equiv_radius + b.equiv_radius)
    before = a.site.copy()
    move_toward(a, b, 0.5, d)
    assert a.site == pytest.approx(before + 0.5 * (b.site - before))


def test_move_toward_band_floor_blocks_close_pair():
    boundary = square(100.0)
    d = power_diagram([(48.0, 50.0), (52.0, 50.0)], boundary, node_ids=["a", "b"])
    a, b = d.cells              # equivalent radii are large here
    before = a.site.copy()
    move_toward(a, b, 0.5, d)
    assert np.array_equal(a.site, before)


def test_move_toward_never_overshoots_below_floor():
    boundary = square(100.0)
    d = power_diagram([(10.0, 50.0), (90.0, 50.0)], boundary, node_ids=["a", "b"])
    a, b = d.cells
    floor = optimizer.K_MIN * (a.equiv_radius + b.equiv_radius)
    move_toward(a, b, 0.99, d)
    assert math.hypot(*(a.site - b.site)) >= floor - 1e-9


def test_move_toward_clamped_at_inset_boundary():
    # target far outside the mover's parent, so far that the band floor stops
    # the move outside the parent too: the site must stop at the margin
    left = power_diagram([(50.0, 50.0)], square(100.0), node_ids=["a"])
    right = power_diagram([(390.0, 50.0)], square(100.0, origin=(300.0, 0.0)),
                          node_ids=["b"])
    a = left.cells[0]
    b = right.cells[0]
    assert 390.0 - optimizer.K_MIN * (a.equiv_radius + b.equiv_radius) > 100.0
    move_toward(a, b, 1.0, left)
    margin = optimizer.BOUNDARY_MARGIN_FRACTION * left.scale
    assert left.boundary.contains(a.site, -margin)
    assert a.site[0] == pytest.approx(100.0 - margin, abs=1e-9 * left.scale)


def test_clamped_moves_stop_on_the_inset_boundary():
    # every clamped site passes contains at the margin and lies on the margin
    # line, also when the next move starts from there
    # the target is so far that the band floor stops no move inside the parent
    d = power_diagram([(500.0, 500.0)], make_boundary("circle", 1000.0), node_ids=["a"])
    margin = optimizer.BOUNDARY_MARGIN_FRACTION * d.scale
    a = d.cells[0]
    for angle in np.linspace(0.0, 2.0 * math.pi, 97):
        a.site = np.array([500.0, 500.0])
        for turn in (0.0, 0.3):
            far = a.site + 2000.0 * np.array([math.cos(angle + turn), math.sin(angle + turn)])
            move_toward(a, Cell("target", far), 1.0, d)
            assert d.boundary.contains(a.site, -margin)
            assert not d.boundary.contains(a.site, tol=-margin - 1e-9 * d.scale)


def _reference_inset(polygon, margin):
    """The polygon with each edge moved inward by margin, None if it vanishes:
    one _clip_rings round per edge of nonzero length, in edge order."""
    normals, offsets, _, length = polygon._edge_frame
    k = length > 0.0
    # round r keeps {x : normals[:, k_r] . x - offsets[k_r] >= margin * length[k_r]}
    flat, lengths = _clip_rings([polygon.vertices], [0], -normals.T[k][:, None],
                                (-offsets[k] - margin * length[k])[:, None])
    return _finish_rings(flat, lengths, polygon.diagonal)[0]


def _reference_clamp(old, new, inset):
    """A move clamped to the reference inset along its ray."""
    if inset.contains(new):
        return new
    if not inset.contains(old):
        return old
    d = new - old
    return old + inset.ray_exit(old, d) * d


def _convex_boundary(rng, center, radius):
    """The hull ring of 5-11 points on a random ellipse about center."""
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=int(rng.integers(5, 12))))
        if np.min(np.diff(angles, append=angles[0] + 2.0 * math.pi)) > 0.05:
            break
    axes = radius * rng.uniform(0.3, 1.0, size=2)
    ring = np.stack((axes[0] * np.cos(angles), axes[1] * np.sin(angles)), axis=1)
    return ConvexPolygon(ring + center)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["circle", "square", "hexagon", "random"]),
       st.booleans())
def test_clamp_equals_the_reference_inset_clamp(seed, shape, far):
    """_clamp_into's point passes contains at the margin and lies within
    1e-9 scale of the clamp into the reference inset polygon, for starts and
    ends off the margin line by more than 1e-9 scale, half of them drawn in
    the band between the boundary and 2.5 margins inside it."""
    rng = np.random.default_rng(seed)
    center = (1e6 * np.array([math.cos(seed), math.sin(seed)]) if far
              else rng.uniform(-50.0, 50.0, size=2))
    radius = 10 ** rng.uniform(1, 3)
    boundary = {
        "circle": lambda: regular_polygon(64, radius, center),
        "square": lambda: square(2.0 * radius, origin=center - radius),
        "hexagon": lambda: regular_polygon(6, radius, center),
        "random": lambda: _convex_boundary(rng, center, radius),
    }[shape]()
    diagram = Diagram(boundary=boundary, cells=[], scale=boundary.diagonal)
    margin = optimizer.BOUNDARY_MARGIN_FRACTION * diagram.scale
    inset = _reference_inset(boundary, margin)
    normals, offsets, _, length = boundary._edge_frame
    v = boundary.vertices

    def off_the_margin_line(p):
        height = np.min((p @ normals - offsets) / length)
        return abs(height - margin) > 1e-9 * diagram.scale

    def draw_point():
        while True:
            if rng.uniform() < 0.5:
                p = boundary.sample_point(rng)
            else:
                # on an edge, then inward along the edge's normal
                k = int(rng.integers(len(v)))
                on_edge = v[k] + rng.uniform() * (v[(k + 1) % len(v)] - v[k])
                p = on_edge + rng.uniform(0.0, 2.5) * margin * normals[:, k] / length[k]
            if off_the_margin_line(p):
                return p

    clamped = 0
    for _ in range(40):
        old = draw_point()
        while True:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            new = old + 10 ** rng.uniform(-3, 0.5) * radius * np.array([math.cos(angle),
                                                                         math.sin(angle)])
            if off_the_margin_line(new):
                break
        got = optimizer._clamp_into(old, new, diagram)
        expected = _reference_clamp(old, new, inset)
        if boundary.contains(old, -margin):
            assert boundary.contains(got, -margin)
        assert np.hypot(*(got - expected)) <= 1e-9 * diagram.scale
        clamped += got is not new and got is not old
    assert clamped > 0


def test_parent_narrower_than_twice_the_margin_keeps_a_toward_move_site():
    # the level's scale, as for any diagram of a pipeline level, is the root's
    # diagonal: its margin 0.141 is more than half the small parent's side
    left = power_diagram([(50.0, 50.0)], square(100.0), node_ids=["b"])
    small = power_diagram([(149.95, 50.0), (150.05, 50.0)], square(0.2, origin=(149.9, 49.9)),
                          node_ids=["a", "a2"], scale=left.scale)
    a, b = small.cells[0], left.cells[0]
    margin = optimizer.BOUNDARY_MARGIN_FRACTION * small.scale
    assert 2.0 * margin > 0.2
    assert math.hypot(*(b.site - a.site)) > optimizer.K_MIN * (a.equiv_radius + b.equiv_radius)
    before = a.site.copy()
    move_toward(a, b, 0.5, small)
    assert np.array_equal(a.site, before)


# ----------------------------------------------------------------- move_orthogonal

def test_move_orthogonal_reduces_along_edge_offset():
    boundary = square(100.0)
    d = power_diagram([(30.0, 20.0), (70.0, 80.0)], boundary, node_ids=["a", "b"])
    a, b = d.cells
    edge_dir = np.array([0.0, 1.0])  # slide vertically only
    x_before = a.site[0]
    off_before = abs(a.site[1] - b.site[1])
    move_orthogonal(a, b, edge_dir, 0.5, d)
    assert a.site[0] == pytest.approx(x_before)  # perpendicular part unchanged
    assert abs(a.site[1] - b.site[1]) < off_before


def test_aligned_predicate():
    d = power_diagram([(25.0, 50.0), (75.0, 50.0)], square(100.0),
                      node_ids=["a", "b"])
    a, b = d.cells
    # both cells span the full y range -> fully aligned along a vertical edge
    assert _aligned(a, b, np.array([0.0, 1.0]))


# --------------------------------------------------------------- neighborhood_step

def test_fulfilled_constraint_falls_back_to_centroid():
    d = power_diagram([(30.0, 50.0), (70.0, 50.0)], square(100.0),
                      node_ids=["a", "b"])
    state = make_state(d, [constraint("a", "b")])
    a = d.cells[0]
    before = a.site.copy()
    centroid = a.polygon.centroid
    neighborhood_step(a, state, 0.5, state.saturated(OptimizerConfig().max_neighbor_count))
    assert a.site == pytest.approx(before + 0.5 * (centroid - before))


def test_unrealized_constraint_decreases_distance():
    sites = [(20.0, 20.0), (50.0, 50.0), (80.0, 80.0)]
    d = power_diagram(sites, square(100.0), node_ids=["a", "m", "b"])
    nm = cell_neighbors([d])
    assert ("a", "b") not in nm  # middle cell separates them
    state = make_state(d, [constraint("a", "b")])
    a = d.cells[0]
    b = d.cells[2]
    before = math.hypot(*(a.site - b.site))
    neighborhood_step(a, state, 0.5, state.saturated(OptimizerConfig().max_neighbor_count))
    assert math.hypot(*(a.site - b.site)) < before


def test_saturated_target_is_skipped():
    # hexagonal flower: center cell has exactly 6 neighbors, every one of them
    # constrained to the center; a 7th distant cell must fall back to centroid
    boundary = regular_polygon(6, radius=100.0)
    ring = [(60.0 * math.cos(a), 60.0 * math.sin(a))
            for a in np.linspace(0, 2 * math.pi, 6, endpoint=False)]
    sites = [(0.0, 0.0)] + ring + [(0.0, 82.0)]
    ids = ["center"] + [f"r{i}" for i in range(6)] + ["far"]
    d = power_diagram(sites, boundary, node_ids=ids)
    nm = cell_neighbors([d])
    center_neighbors = {b for a, b in nm if a == "center"} | \
                       {a for a, b in nm if b == "center"}
    cons = [constraint(*sorted(("center", n))) for n in sorted(center_neighbors)]
    cons.append(constraint("center", "far"))
    assert len(center_neighbors) >= 6
    state = make_state(d, cons)
    far = d.cells[-1]
    before = far.site.copy()
    centroid = far.polygon.centroid
    assert state.saturated(OptimizerConfig().max_neighbor_count) == {"center"}
    neighborhood_step(far, state, 0.5, state.saturated(OptimizerConfig().max_neighbor_count))
    # the saturation guard rejects the center target -> centroid fallback
    assert far.site == pytest.approx(before + 0.5 * (centroid - before))


def _pinned_site(cell, expected):
    assert cell.site.tobytes() == np.asarray(expected, dtype=float).tobytes()


def _nonneighbour_level():
    """a and b are constrained but separated by m: b has neighbours, all unconstrained."""
    d = power_diagram([(20.0, 20.0), (50.0, 50.0), (80.0, 80.0)], square(100.0),
                      node_ids=["a", "m", "b"])
    return d, make_state(d, [constraint("a", "b")])


def test_step_toward_an_unsaturated_non_neighbour_is_pinned():
    d, state = _nonneighbour_level()
    a, _, b = d.cells
    assert ("a", "b") not in state.neighbor_map and adjacency(state.neighbor_map)["b"]
    s, t = a.site.copy(), b.site.copy()
    floor = optimizer.K_MIN * (a.equiv_radius + b.equiv_radius)
    d_ab = math.hypot(*(t - s))
    assert (1.0 - 0.5) * d_ab < floor < d_ab       # half the gap would cross the band floor
    neighborhood_step(a, state, 0.5, state.saturated(6))
    _pinned_site(a, t - (t - s) / d_ab * floor)


def test_step_slides_a_misaligned_pair_across_a_parent_border():
    # a spans y in [0, 60], b spans y in [50, 100]: they share 10 of x = 100,
    # under half of b's extent, so a slides along the border toward b
    left = power_diagram([(50.0, 30.0), (50.0, 90.0)], square(100.0), node_ids=["a", "a2"])
    right = power_diagram([(150.0, 10.0), (150.0, 90.0)], square(100.0, origin=(100.0, 0.0)),
                          node_ids=["b2", "b"])
    state = make_state([left, right], [constraint("a", "b")])
    a, b = left.cells[0], right.cells[1]
    p0, p1, length = state.neighbor_map[("a", "b")]
    edge_dir = (p1 - p0) / length
    assert not _aligned(a, b, edge_dir)
    s = a.site.copy()
    neighborhood_step(a, state, 0.5, state.saturated(6))
    _pinned_site(a, s + 0.5 * (float((b.site - s) @ edge_dir) * edge_dir))
    assert a.site[0] == 50.0 and a.site[1] > 30.0


def test_step_past_a_saturated_target_moves_to_the_centroid():
    d, state = _nonneighbour_level()
    a = d.cells[0]
    s, c = a.site.copy(), a.polygon.centroid.copy()
    neighborhood_step(a, state, 0.5, {"b"})
    _pinned_site(a, s + 0.5 * (c - s))


def _isolated_level():
    """a's only partner, lone, sits alone in a parent that touches no other."""
    near = power_diagram([(30.0, 50.0), (70.0, 50.0)], square(100.0), node_ids=["a", "a2"])
    far = power_diagram([(350.0, 50.0)], square(100.0, origin=(300.0, 0.0)), node_ids=["lone"])
    state = make_state([near, far], [constraint("a", "lone")])
    assert "lone" not in adjacency(state.neighbor_map)
    return near.cells[0], far.cells[0], state


def test_isolated_target_is_saturated_only_at_zero_max_neighbors():
    a, _, state = _isolated_level()
    s, c = a.site.copy(), a.polygon.centroid.copy()
    assert state.saturated(0) == {"lone"}
    neighborhood_step(a, state, 0.5, state.saturated(0))
    _pinned_site(a, s + 0.5 * (c - s))

    a, lone, state = _isolated_level()
    assert state.saturated(1) == set()
    s, t = a.site.copy(), lone.site.copy()
    neighborhood_step(a, state, 0.5, state.saturated(1))
    _pinned_site(a, optimizer._clamp_into(s, s + 0.5 * (t - s), state.diagram_of["a"]))
    assert a.site[0] > 70.0


# ----------------------------------------------------------------- optimize_level

def test_single_cell_converges_to_boundary_centroid():
    boundary = regular_polygon(6, radius=10.0)
    d = power_diagram([(4.0, 3.0)], boundary, node_ids=["only"])
    cfg = OptimizerConfig(max_iter=40)
    optimize_level(make_state(d, []), cfg)
    assert d.cells[0].site == pytest.approx(boundary.centroid, abs=1e-4)


def test_optimize_level_runs_exactly_max_iter():
    d = power_diagram([(30.0, 30.0), (70.0, 70.0)], square(100.0),
                      node_ids=["a", "b"])
    cfg = OptimizerConfig(max_iter=7)
    seen = []
    optimize_level(make_state(d, []), cfg, trace_cb=lambda s, it: seen.append(it))
    assert seen == list(range(7))


def test_optimize_level_deterministic():
    def run_once():
        d = power_diagram([(30.0, 40.0), (60.0, 70.0), (75.0, 25.0)],
                          square(100.0), node_ids=["a", "b", "c"],
                          targets=[0.5, 0.3, 0.2])
        cfg = OptimizerConfig(max_iter=30)
        state = make_state(d, [constraint("a", "c")])
        optimize_level(state, cfg, np.random.default_rng(5))
        return d.sites.copy()

    assert np.array_equal(run_once(), run_once())


def test_optimize_level_preserves_partition_and_containment():
    boundary = regular_polygon(16, radius=50.0, center=(50.0, 50.0))
    rng = np.random.default_rng(13)
    sites = [boundary.sample_point(rng) for _ in range(6)]
    d = power_diagram(sites, boundary, node_ids=[f"n{i}" for i in range(6)],
                      targets=[0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
    cons = [constraint("n0", "n5"), constraint("n1", "n4", 0.7)]
    cfg = OptimizerConfig(max_iter=50)      # 10 growth iterations

    bad = []

    def check(state, it):
        total = sum(c.area for c in d.cells)
        if abs(total - boundary.area) > 1e-6 * boundary.area:
            bad.append(("partition", it))
        tol = 1e-9 * d.scale
        for c in d.cells:
            if c.polygon is None:
                continue
            for v in c.polygon.vertices:
                if not boundary.contains(v, tol=tol):
                    bad.append(("containment", it))

    optimize_level(make_state(d, cons), cfg, np.random.default_rng(0), check)
    assert bad == []


def test_zero_constraints_reduce_to_pure_lloyd_growth():
    def init():
        return power_diagram(
            [(20.0, 30.0), (60.0, 70.0), (80.0, 20.0)], square(100.0),
            node_ids=["a", "b", "c"], targets=[0.5, 0.25, 0.25])

    cfg = OptimizerConfig(max_iter=50)
    d1 = init()
    optimize_level(make_state(d1, []), cfg, np.random.default_rng(9))
    d2 = init()
    pure_lloyd_growth([d2], cfg, np.random.default_rng(9))
    assert np.array_equal(d1.sites, d2.sites)  # bit-identical
    assert [c.weight for c in d1.cells] == [c.weight for c in d2.cells]


def test_growth_drives_areas_toward_targets():
    d = power_diagram([(30.0, 50.0), (70.0, 50.0)], square(100.0),
                      node_ids=["a", "b"], targets=[0.75, 0.25])
    cfg = OptimizerConfig(max_iter=100)
    optimize_level(make_state(d, []), cfg)
    a, b = d.cells
    assert abs(a.area - 7500.0) / 7500.0 < 0.05
    assert abs(b.area - 2500.0) / 2500.0 < 0.05


def test_constraint_becomes_realized_during_optimization():
    # two constrained cells separated at start end up sharing an edge
    sites = [(15.0, 15.0), (50.0, 50.0), (85.0, 85.0)]
    d = power_diagram(sites, square(100.0), node_ids=["a", "m", "b"])
    assert ("a", "b") not in cell_neighbors([d])
    cfg = OptimizerConfig(max_iter=60)
    state = make_state(d, [constraint("a", "b")])
    optimize_level(state, cfg, np.random.default_rng(1))
    assert ("a", "b") in state.neighbor_map


# ------------------------------------------------------------------ neighbor maps

def _contact_bytes(contact):
    p0, p1, length = contact
    return p0.tobytes(), p1.tobytes(), length


def _same_map(a, b):
    assert list(a) == list(b)
    for key in a:
        assert _contact_bytes(a[key]) == _contact_bytes(b[key])


def test_level_state_create_builds_neighbor_map():
    rng = np.random.default_rng(3)
    boundary = regular_polygon(8, radius=50.0)
    d = power_diagram([boundary.sample_point(rng) for _ in range(7)], boundary,
                      node_ids=[f"n{i}" for i in range(7)])
    state = LevelState.create(1, [d], [])
    assert state.neighbor_map
    _same_map(state.neighbor_map, cell_neighbors([d]))


@pytest.fixture
def neighbor_calls(monkeypatch):
    """Count cell_neighbors calls made through the optimizer module."""
    calls = []
    real = optimizer.cell_neighbors

    def counting(diagrams):
        calls.append(len(diagrams))
        return real(diagrams)

    monkeypatch.setattr(optimizer, "cell_neighbors", counting)
    return calls


def test_optimize_level_refreshes_map_after_each_trace(neighbor_calls):
    d = power_diagram([(20.0, 30.0), (60.0, 70.0), (80.0, 20.0)], square(100.0),
                      node_ids=["a", "b", "c"])
    cfg = OptimizerConfig(max_iter=5)
    state = make_state(d, [constraint("a", "b")])
    assert len(neighbor_calls) == 1          # built once by LevelState.create
    seen = []
    optimize_level(state, cfg, np.random.default_rng(0),
                   lambda s, it: seen.append(len(neighbor_calls)))
    # iteration it is traced on the map built before it, then refreshed
    assert seen == list(range(1, cfg.max_iter + 1))
    assert len(neighbor_calls) == cfg.max_iter + 1
    _same_map(state.neighbor_map, cell_neighbors([d]))


def test_build_treemap_builds_one_map_per_level_and_iteration(monkeypatch, neighbor_calls):
    monkeypatch.setattr(pipeline, "cell_neighbors", None)   # build_treemap must not call it
    tree = prepared(gen_synthetic("two_level", {"leaves": 8, "parents": 2}, seed=0))
    constraints = extract_level_constraints(tree, "cosine")
    cfg = OptimizerConfig(max_iter=3)
    init_preserved = {}
    levels = build_treemap(tree, constraints, make_boundary("circle", 100.0), "match_swap",
                           "cosine", 0, cfg, init_preserved=init_preserved)
    assert sorted(init_preserved) == sorted(levels) == [1, 2]
    assert len(neighbor_calls) == len(levels) * (cfg.max_iter + 1)


# ------------------------------------------------- reference neighborhood step

def _reference_move_toward(cell, target, f, diagram):
    s = cell.site
    t = target.site
    dvec = t - s
    d = math.hypot(dvec[0], dvec[1])
    if d == 0.0:
        return
    floor = optimizer.K_MIN * (cell.equiv_radius + target.equiv_radius)
    if d <= floor:
        return
    new = s + f * dvec
    nd = (1.0 - f) * d
    if nd < floor:
        new = t - dvec / d * floor
    cell.site = optimizer._clamp_into(s, new, diagram)


def _reference_neighborhood_step(cell, state, cfg, f, adjacency):
    """The per-cell step on numpy pairs, testing each visited target for
    saturation against the adjacency; returns the branch it took and the
    targets it passed over as saturated."""
    cons = [con for con in state.constraints for node in (con.a, con.b) if node == cell.node_id]
    constraint_pairs = {tuple(sorted((con.a, con.b))) for con in state.constraints}
    skipped = []
    if cons:
        def sort_key(con):
            other = con.b if con.a == cell.node_id else con.a
            oc = state.cells_by_id.get(other)
            dist = math.hypot(*(oc.site - cell.site)) if oc is not None else 0.0
            return (-con.similarity, -dist, other)

        for con in sorted(cons, key=sort_key):
            other_id = con.b if con.a == cell.node_id else con.a
            target = state.cells_by_id.get(other_id)
            if target is None:
                continue
            t_neighbors = adjacency.get(other_id, set())
            constrained = {
                n for n in t_neighbors
                if tuple(sorted((other_id, n))) in constraint_pairs
            }
            if len(constrained) >= cfg.max_neighbor_count and constrained == t_neighbors:
                skipped.append(other_id)
                continue
            pair = tuple(sorted((cell.node_id, other_id)))
            contact = state.neighbor_map.get(pair)
            diagram = state.diagram_of[cell.node_id]
            if contact is None:
                _reference_move_toward(cell, target, f, diagram)
                return "toward", skipped
            if state.diagram_of[cell.node_id] is not state.diagram_of[other_id]:
                p0, p1, length = contact
                edge_dir = (p1 - p0) / length
                if not _aligned(cell, target, edge_dir):
                    move_orthogonal(cell, target, edge_dir, f, diagram)
                    return "orthogonal", skipped
    if cell.polygon is not None:
        cell.site = cell.site + f * (cell.polygon.centroid - cell.site)
    return "centroid", skipped


def _use_reference_step(monkeypatch, cfg):
    """Route optimize_level's moves through the reference; returns the
    (branch, skipped targets) log of its calls."""
    branches = []
    seen = {}

    def step(cell, state, f, saturated):
        if seen.get("map") is not state.neighbor_map:
            seen.update(map=state.neighbor_map, adjacency={
                node: set(nbrs) for node, nbrs in adjacency(state.neighbor_map).items()})
        branches.append(_reference_neighborhood_step(cell, state, cfg, f, seen["adjacency"]))

    monkeypatch.setattr(optimizer, "neighborhood_step", step)
    return branches


def _maps_bytes(maps):
    return {level: [(key, _contact_bytes(contact)) for key, contact in nm.items()]
            for level, nm in maps.items()}


@pytest.mark.parametrize("max_neighbors", [0, 1, 6])
@pytest.mark.parametrize("kind, params", [
    ("m_n", {"leaves": 24, "parents": 3, "density": 0.3}),
    ("two_level", {"leaves": 24, "parents": 4}),
])
def test_generated_levels_match_the_reference_step(monkeypatch, kind, params, max_neighbors):
    tree = prepared(gen_synthetic(kind, params, seed=2))
    constraints = extract_level_constraints(tree, "cosine")
    cfg = OptimizerConfig(max_iter=12, max_neighbor_count=max_neighbors)   # 2 growth iterations

    def layout():
        maps = {}
        levels = build_treemap(tree, constraints, make_boundary("circle", 100.0), "match_swap",
                               "cosine", 0, cfg, neighbor_maps=maps)
        return [_level_bytes(levels[lvl]) for lvl in sorted(levels)], _maps_bytes(maps)

    fast = layout()
    branches = _use_reference_step(monkeypatch, cfg)
    assert layout() == fast
    assert {"toward", "centroid"} <= {branch for branch, _ in branches}
    assert any(skipped for _, skipped in branches) == (max_neighbors <= 1)


@pytest.mark.parametrize("max_neighbors", [0, 1, 6])
def test_isolated_target_level_matches_the_reference_step(monkeypatch, max_neighbors):
    cfg = OptimizerConfig(max_iter=12, max_neighbor_count=max_neighbors)

    def level():
        near = power_diagram([(20.0, 30.0), (60.0, 70.0), (80.0, 20.0), (40.0, 80.0)],
                             square(100.0), node_ids=["a", "b", "c", "e"],
                             targets=[0.4, 0.3, 0.2, 0.1])
        far = power_diagram([(350.0, 50.0)], square(100.0, origin=(300.0, 0.0)),
                            node_ids=["lone"])
        cons = [constraint("a", "lone"), constraint("a", "c", 0.7), constraint("b", "e", 0.5)]
        state = make_state([near, far], cons)
        optimize_level(state, cfg, np.random.default_rng(4))
        return _level_bytes(state.diagrams), _maps_bytes({1: state.neighbor_map})

    fast = level()
    branches = _use_reference_step(monkeypatch, cfg)
    assert level() == fast
    skipped = {target for _, targets in branches for target in targets}
    assert ("lone" in skipped) == (max_neighbors == 0)


# ---------------------------------------------------------- level-wide recompute

def _growth_level():
    """Diagrams of one level: two with a dominated cell that the weight bump
    does not revive, so adapt_weights reseeds it, and two healthy ones, one
    of them on hull candidate lists."""
    rng = np.random.default_rng(2)
    boundary = regular_polygon(12, radius=40.0, center=(50.0, 50.0))
    healthy = [boundary.sample_point(rng) for _ in range(12)]
    return [
        power_diagram([(40.0, 50.0), (60.0, 50.0)], square(100.0), weights=[1e5, 0.0],
                      node_ids=["a0", "a1"], targets=[0.5, 0.5]),
        power_diagram([(20.0, 30.0), (60.0, 70.0), (80.0, 20.0)], square(100.0),
                      node_ids=["b0", "b1", "b2"], targets=[0.5, 0.25, 0.25]),
        power_diagram(healthy, boundary, node_ids=[f"c{i}" for i in range(12)],
                      targets=np.full(12, 1.0 / 12)),
        power_diagram([(10.0, 10.0), (30.0, 20.0), (20.0, 30.0)], square(40.0),
                      weights=[0.0, 5e3, 0.0], node_ids=["d0", "d1", "d2"],
                      targets=[0.4, 0.3, 0.3]),
    ]


def _level_bytes(diagrams):
    out = []
    for d in diagrams:
        for c in d.cells:
            out.append((c.node_id, c.site.tobytes(), np.float64(c.weight).tobytes(),
                        None if c.polygon is None else c.polygon.vertices.tobytes(),
                        None if c.polygon is None else np.float64(c.polygon.area).tobytes()))
    return out


def test_adapt_weights_on_a_level_equals_one_diagram_at_a_time(monkeypatch):
    level, alone = _growth_level(), _growth_level()
    assert _level_bytes(level) == _level_bytes(alone)
    assert level[0].cells[1].polygon is None and level[3].cells[0].polygon is None
    reseeds = []
    sample_point = ConvexPolygon.sample_point

    def counting(self, rng):
        reseeds.append(self)
        return sample_point(self, rng)

    monkeypatch.setattr(ConvexPolygon, "sample_point", counting)
    rng_level, rng_alone = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        adapt_weights(level, rng=rng_level)
        for d in alone:
            adapt_weights([d], rng=rng_alone)
        assert _level_bytes(level) == _level_bytes(alone)
    assert len(reseeds) >= 2 * 3 * 2          # both dominated cells, every step, both runs
    assert rng_level.bit_generator.state == rng_alone.bit_generator.state


def test_optimize_level_recomputes_the_level_once_per_move_phase(monkeypatch):
    level = _growth_level()
    calls = []
    recompute_level = optimizer.recompute_level

    def counting(diagrams):
        calls.append(diagrams)
        return recompute_level(diagrams)

    monkeypatch.setattr(optimizer, "recompute_level", counting)
    for module in (geometry, optimizer):                 # no per-diagram recompute
        monkeypatch.setattr(module, "recompute", None)
    cfg = OptimizerConfig(max_iter=10)      # 2 growth iterations
    state = make_state(level, [constraint("c0", "c5"), constraint("b0", "c3")])
    optimize_level(state, cfg, np.random.default_rng(0))
    assert len(calls) == cfg.max_iter
    assert all(diagrams is state.diagrams for diagrams in calls)
