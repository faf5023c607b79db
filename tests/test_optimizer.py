"""Round-robin neighborhood-preserving optimization loop."""
import math

import numpy as np
import pytest

from simmap import optimizer, pipeline
from simmap.datasets import gen_synthetic
from simmap.geometry import cell_neighbors, power_diagram, regular_polygon, square
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


def make_state(diagram_or_list, constraints, cfg=None):
    diagrams = diagram_or_list if isinstance(diagram_or_list, list) else [diagram_or_list]
    cfg = cfg or OptimizerConfig()
    return LevelState.create(1, diagrams, constraints, cfg)


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
    boundary = square(100.0)
    d = power_diagram([(20.0, 50.0), (80.0, 50.0)], boundary,
                      node_ids=["a", "b"], weights=[0.0, 0.0])
    # tiny weights -> small equivalent radii would still floor the band; use a
    # far-apart pair so the band floor does not bind
    cfg = OptimizerConfig(k_min=0.0)
    state = make_state(d, [])
    a, b = d.cells
    before = a.site.copy()
    move_toward(a, b, cfg, 0.5, state.inset_for(d))
    assert a.site == pytest.approx(before + 0.5 * (b.site - before))


def test_move_toward_band_floor_blocks_close_pair():
    boundary = square(100.0)
    d = power_diagram([(48.0, 50.0), (52.0, 50.0)], boundary, node_ids=["a", "b"])
    cfg = OptimizerConfig()  # k_min = 0.9; equivalent radii are large here
    state = make_state(d, [])
    a, b = d.cells
    before = a.site.copy()
    move_toward(a, b, cfg, 0.5, state.inset_for(d))
    assert np.array_equal(a.site, before)


def test_move_toward_never_overshoots_below_floor():
    boundary = square(100.0)
    d = power_diagram([(10.0, 50.0), (90.0, 50.0)], boundary, node_ids=["a", "b"])
    cfg = OptimizerConfig()
    state = make_state(d, [])
    a, b = d.cells
    floor = cfg.k_min * (a.equiv_radius + b.equiv_radius)
    move_toward(a, b, cfg, 0.99, state.inset_for(d))
    assert math.hypot(*(a.site - b.site)) >= floor - 1e-9


def test_move_toward_clamped_at_inset_boundary():
    # target far outside the mover's parent: the site must stop at the margin
    left = power_diagram([(50.0, 50.0)], square(100.0), node_ids=["a"])
    right = power_diagram([(190.0, 50.0)], square(100.0, origin=(100.0, 0.0)),
                          node_ids=["b"])
    cfg = OptimizerConfig(k_min=0.0)
    state = make_state([left, right], [])
    a = left.cells[0]
    b = right.cells[0]
    move_toward(a, b, cfg, 1.0, state.inset_for(left))
    inset = state.inset_for(left)
    assert inset.contains(a.site, tol=1e-9 * left.scale)
    assert a.site[0] < 100.0  # still inside its own parent


# ----------------------------------------------------------------- move_orthogonal

def test_move_orthogonal_reduces_along_edge_offset():
    boundary = square(100.0)
    d = power_diagram([(30.0, 20.0), (70.0, 80.0)], boundary, node_ids=["a", "b"])
    state = make_state(d, [])
    a, b = d.cells
    edge_dir = np.array([0.0, 1.0])  # slide vertically only
    x_before = a.site[0]
    off_before = abs(a.site[1] - b.site[1])
    move_orthogonal(a, b, edge_dir, 0.5, state.inset_for(d))
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
    adjacency = state.adjacency()
    a = d.cells[0]
    before = a.site.copy()
    centroid = a.polygon.centroid
    neighborhood_step(a, state, OptimizerConfig(), 0.5, adjacency)
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
    neighborhood_step(a, state, OptimizerConfig(), 0.5, state.adjacency())
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
    neighborhood_step(far, state, OptimizerConfig(), 0.5, state.adjacency())
    # the saturation guard rejects the center target -> centroid fallback
    assert far.site == pytest.approx(before + 0.5 * (centroid - before))


# ----------------------------------------------------------------- optimize_level

def test_single_cell_converges_to_boundary_centroid():
    boundary = regular_polygon(6, radius=10.0)
    d = power_diagram([(4.0, 3.0)], boundary, node_ids=["only"])
    cfg = OptimizerConfig(max_iter=40)
    optimize_level(make_state(d, [], cfg), cfg)
    assert d.cells[0].site == pytest.approx(boundary.centroid, abs=1e-4)


def test_optimize_level_runs_exactly_max_iter():
    d = power_diagram([(30.0, 30.0), (70.0, 70.0)], square(100.0),
                      node_ids=["a", "b"])
    cfg = OptimizerConfig(max_iter=7)
    seen = []
    optimize_level(make_state(d, [], cfg), cfg, trace_cb=lambda s, it: seen.append(it))
    assert seen == list(range(7))


def test_optimize_level_deterministic():
    def run_once():
        d = power_diagram([(30.0, 40.0), (60.0, 70.0), (75.0, 25.0)],
                          square(100.0), node_ids=["a", "b", "c"],
                          targets=[0.5, 0.3, 0.2])
        cfg = OptimizerConfig(max_iter=30)
        state = make_state(d, [constraint("a", "c")], cfg)
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
    cfg = OptimizerConfig(max_iter=25, growth_start_fraction=0.6)

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

    optimize_level(make_state(d, cons, cfg), cfg, np.random.default_rng(0), check)
    assert bad == []


def test_zero_constraints_reduce_to_pure_lloyd_growth():
    def init():
        return power_diagram(
            [(20.0, 30.0), (60.0, 70.0), (80.0, 20.0)], square(100.0),
            node_ids=["a", "b", "c"], targets=[0.5, 0.25, 0.25])

    cfg = OptimizerConfig(max_iter=50)
    d1 = init()
    optimize_level(make_state(d1, [], cfg), cfg, np.random.default_rng(9))
    d2 = init()
    pure_lloyd_growth([d2], cfg, np.random.default_rng(9))
    assert np.array_equal(d1.sites, d2.sites)  # bit-identical
    assert [c.weight for c in d1.cells] == [c.weight for c in d2.cells]


def test_growth_drives_areas_toward_targets():
    d = power_diagram([(30.0, 50.0), (70.0, 50.0)], square(100.0),
                      node_ids=["a", "b"], targets=[0.75, 0.25])
    cfg = OptimizerConfig(max_iter=100)
    optimize_level(make_state(d, [], cfg), cfg)
    a, b = d.cells
    assert abs(a.area - 7500.0) / 7500.0 < 0.05
    assert abs(b.area - 2500.0) / 2500.0 < 0.05


def test_constraint_becomes_realized_during_optimization():
    # two constrained cells separated at start end up sharing an edge
    sites = [(15.0, 15.0), (50.0, 50.0), (85.0, 85.0)]
    d = power_diagram(sites, square(100.0), node_ids=["a", "m", "b"])
    assert ("a", "b") not in cell_neighbors([d])
    cfg = OptimizerConfig(max_iter=60)
    state = make_state(d, [constraint("a", "b")], cfg)
    optimize_level(state, cfg, np.random.default_rng(1))
    assert ("a", "b") in state.neighbor_map


# ------------------------------------------------------------------ neighbor maps

def _same_map(a, b):
    assert list(a) == list(b)
    for key in a:
        assert [(p0.tobytes(), p1.tobytes(), ln) for p0, p1, ln in a[key]] == \
            [(p0.tobytes(), p1.tobytes(), ln) for p0, p1, ln in b[key]]


def test_level_state_create_builds_neighbor_map():
    rng = np.random.default_rng(3)
    boundary = regular_polygon(8, radius=50.0)
    d = power_diagram([boundary.sample_point(rng) for _ in range(7)], boundary,
                      node_ids=[f"n{i}" for i in range(7)])
    state = LevelState.create(1, [d], [], OptimizerConfig())
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
    state = make_state(d, [constraint("a", "b")], cfg)
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
