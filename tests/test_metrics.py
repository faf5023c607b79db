"""Constraint preservation, area error, aspect ratio, path statistics."""
import math
from collections import deque

import numpy as np
import pytest

from simmap.geometry import power_diagram, square
from simmap.metrics import (
    astar_hops,
    area_and_aspect,
    constraint_path_stats,
    evaluate,
    preserved_constraints,
)
from simmap.geometry import cell_neighbors
from simmap.similarity import Constraint


def constraint(a, b, s=0.9, level=1):
    return Constraint(a=a, b=b, similarity=s, bin=0, level=level)


def chain_diagram(n, ids=None):
    """n cells side by side in a unit-height strip: a path graph."""
    ids = ids or [f"c{i}" for i in range(n)]
    sites = [((i + 0.5) / n, 0.5) for i in range(n)]
    return power_diagram(sites, square(1.0), node_ids=ids)


# ------------------------------------------------------- preserved_constraints

def test_all_adjacent_fraction_one():
    d = chain_diagram(3)
    nm = cell_neighbors([d])
    cons = [constraint("c0", "c1"), constraint("c1", "c2")]
    count, fraction = preserved_constraints(nm, cons)
    assert (count, fraction) == (2, 1.0)


def test_zero_constraints_vacuous():
    assert preserved_constraints({}, []) == (0, 1.0)


def test_partial_preservation():
    d = chain_diagram(4)
    nm = cell_neighbors([d])
    cons = [constraint("c0", "c1"), constraint("c0", "c3")]
    count, fraction = preserved_constraints(nm, cons)
    assert count == 1
    assert fraction == pytest.approx(0.5)


# ------------------------------------------------------------- area_and_aspect

def test_single_full_cell_zero_error():
    d = power_diagram([(0.5, 0.5)], square(1.0), targets=[1.0])
    err, aspect = area_and_aspect([d])
    assert err == pytest.approx(0.0, abs=1e-12)
    assert aspect == pytest.approx(1.0)


def test_aspect_of_square_cells():
    d = chain_diagram(2)  # two 0.5 x 1.0 cells
    _, aspect = area_and_aspect([d])
    assert aspect == pytest.approx(0.5)


def test_area_error_against_targets():
    # equal-weight split but targets 0.75 / 0.25 -> known relative errors
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0),
                      targets=[0.75, 0.25])
    err, _ = area_and_aspect([d])
    # cell areas are 0.5 each: errors |0.5-0.75|/0.75 and |0.5-0.25|/0.25
    assert err == pytest.approx(0.5 * (0.25 / 0.75 + 0.25 / 0.25))


def test_empty_cell_counts_as_full_error():
    d = power_diagram([(0.4, 0.5), (0.6, 0.5)], square(1.0),
                      weights=[10.0, 0.0], targets=[0.5, 0.5])
    assert d.cells[1].polygon is None
    err, _ = area_and_aspect([d])
    # dominated cell contributes 1.0, the other |1.0-0.5|/0.5 = 1.0
    assert err == pytest.approx(1.0)


# ----------------------------------------------------------------- path stats

def bfs_hops(adj, start, goal):
    if start == goal:
        return 0.0
    seen = {start}
    q = deque([(start, 0)])
    while q:
        node, dist = q.popleft()
        for nb in adj[node]:
            if nb == goal:
                return float(dist + 1)
            if nb not in seen:
                seen.add(nb)
                q.append((nb, dist + 1))
    return math.inf


def test_realized_constraint_path_one():
    d = chain_diagram(3)
    nm = cell_neighbors([d])
    median, maximum, details = constraint_path_stats(
        [d], nm, [constraint("c0", "c1")])
    assert (median, maximum) == (1.0, 1.0)
    assert details[0]["realized"] is True


def test_chain_end_to_end_path_matches_bfs():
    d = chain_diagram(4)
    nm = cell_neighbors([d])
    median, maximum, details = constraint_path_stats(
        [d], nm, [constraint("c0", "c3")])
    assert maximum == 3.0
    adj = {f"c{i}": [] for i in range(4)}
    for a, b in nm:
        adj[a].append(b)
        adj[b].append(a)
    assert bfs_hops(adj, "c0", "c3") == 3.0
    assert details[0]["path_length"] == 3.0
    assert details[0]["realized"] is False


def test_unreachable_pair_reported():
    left = power_diagram([(0.5, 0.5)], square(1.0), node_ids=["a"])
    right = power_diagram([(5.5, 0.5)], square(1.0, origin=(5, 0)), node_ids=["b"])
    nm = cell_neighbors([left, right])
    assert nm == {}
    median, maximum, details = constraint_path_stats(
        [left, right], nm, [constraint("a", "b")])
    assert math.isinf(median)
    assert details[0]["path_length"] is None


def test_missing_endpoint_raises():
    d = chain_diagram(2)
    nm = cell_neighbors([d])
    with pytest.raises(KeyError, match="missing"):
        constraint_path_stats([d], nm, [constraint("c0", "ghost")])


def test_astar_equals_bfs_on_random_graph():
    rng = np.random.default_rng(21)
    n = 30
    pts = rng.uniform(0, 10, size=(n, 2))
    ids = [f"v{i}" for i in range(n)]
    adj = {nid: [] for nid in ids}
    for i in range(n):
        for j in range(i + 1, n):
            if math.hypot(*(pts[i] - pts[j])) < 2.2:
                adj[ids[i]].append(ids[j])
                adj[ids[j]].append(ids[i])
    centroids = {ids[i]: pts[i] for i in range(n)}
    for _ in range(50):
        i, j = rng.integers(0, n, size=2)
        a, b = ids[int(i)], ids[int(j)]
        assert astar_hops(adj, centroids, a, b) == bfs_hops(adj, a, b)


def test_astar_same_node_zero():
    assert astar_hops({"a": []}, {"a": np.zeros(2)}, "a", "a") == 0.0


# -------------------------------------------------------------------- evaluate

def test_evaluate_report_roundtrip():
    d = chain_diagram(3)
    nm = cell_neighbors([d])
    cons = [constraint("c0", "c1"), constraint("c0", "c2")]
    report = evaluate([d], nm, cons, level=1)
    assert report.constraints_total == 2
    assert report.constraints_preserved == 1
    assert report.preserved_fraction == pytest.approx(0.5)
    assert report.median_path_distance == pytest.approx(1.5)
    assert report.max_path_distance == 2.0
    doc = report.to_dict()
    assert doc["constraints_preserved"] == 1
    assert len(doc["per_constraint"]) == 2


def test_evaluate_unreachable_encoded_as_minus_one():
    left = power_diagram([(0.5, 0.5)], square(1.0), node_ids=["a"])
    right = power_diagram([(5.5, 0.5)], square(1.0, origin=(5, 0)), node_ids=["b"])
    report = evaluate([left, right], {}, [constraint("a", "b")], level=1)
    assert report.max_path_distance == -1.0
    assert report.unreachable == 1


def test_median_one_iff_half_preserved():
    d = chain_diagram(4)
    nm = cell_neighbors([d])
    half = [constraint("c0", "c1"), constraint("c0", "c2")]
    median, _, _ = constraint_path_stats([d], nm, half)
    assert median == 1.5  # exactly half preserved -> median between 1 and 2
    most = [constraint("c0", "c1"), constraint("c1", "c2"), constraint("c0", "c2")]
    median, _, _ = constraint_path_stats([d], nm, most)
    assert median == 1.0  # more than half preserved


def test_metrics_pure_function_of_geometry():
    d = chain_diagram(3)
    nm = cell_neighbors([d])
    cons = [constraint("c0", "c2")]
    r1 = evaluate([d], nm, cons, 1).to_dict()
    r2 = evaluate([d], cell_neighbors([d]), list(cons), 1).to_dict()
    assert r1 == r2


def test_evaluate_ignores_map_pairs_naming_cells_outside_its_diagrams():
    # c0 - ghost - c3 would be a two-hop shortcut past c1 and c2
    d = chain_diagram(4)
    nm = cell_neighbors([d])
    contact = (np.zeros(2), np.ones(2), math.sqrt(2.0))
    with_ghost = {**nm, ("c0", "ghost"): contact, ("c3", "ghost"): contact}
    cons = [constraint("c0", "c3"), constraint("c1", "c2")]
    report = evaluate([d], with_ghost, cons, level=1)
    assert report.to_dict() == evaluate([d], nm, cons, level=1).to_dict()
    assert report.max_path_distance == 3.0
