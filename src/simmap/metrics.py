"""Quantitative evaluation of a finished treemap."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Diagram, adjacency
from .similarity import Constraint


@dataclass
class MetricsReport:
    level: int
    constraints_total: int
    constraints_preserved: int
    preserved_fraction: float
    avg_area_error: float
    avg_aspect_ratio: float
    median_path_distance: float
    max_path_distance: float
    unreachable: int = 0
    per_constraint: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = dict(vars(self))
        for key in ("preserved_fraction", "avg_area_error", "avg_aspect_ratio"):
            doc[key] = round(doc[key], 10)
        return doc


def preserved_constraints(neighbor_map: dict, constraints: list[Constraint]) -> tuple[int, float]:
    """A constraint is preserved iff its two cells share an edge."""
    if not constraints:
        return 0, 1.0
    count = sum(1 for c in constraints if tuple(sorted((c.a, c.b))) in neighbor_map)
    return count, count / len(constraints)


def area_and_aspect(leaf_diagrams: list[Diagram]) -> tuple[float, float]:
    """Mean relative area error vs. weight-proportional targets, and mean
    AABB width/height of the leaf cells. Empty cells count as error 1.0."""
    errors = []
    aspects = []
    for d in leaf_diagrams:
        a_avail = d.boundary.area
        for c in d.cells:
            target = c.target_area_fraction * a_avail
            if c.polygon is None:
                errors.append(1.0)
                continue
            errors.append(abs(c.area - target) / target)
            x0, y0, x1, y1 = c.polygon.aabb
            aspects.append((x1 - x0) / (y1 - y0))
    avg_error = float(np.mean(errors)) if errors else 0.0
    avg_aspect = float(np.mean(aspects)) if aspects else 0.0
    return avg_error, avg_aspect


def _max_hop(adj: dict[str, list[str]], centroids: dict) -> float:
    """Longest centroid distance over the graph's edges, or 1.0 if it is 0."""
    max_hop = 0.0
    for u, nbrs in adj.items():
        for v in nbrs:
            max_hop = max(max_hop, math.hypot(*(centroids[u] - centroids[v])))
    return max_hop if max_hop != 0.0 else 1.0


def astar_hops(adj: dict[str, list[str]], centroids: dict, start: str, goal: str,
               max_hop: float | None = None) -> float:
    """Unit-weight A* hop count; heuristic is Euclidean centroid distance
    scaled by the max single-hop centroid distance, hence admissible.

    `max_hop` is the longest centroid distance over the edges of `adj`
    (1.0 if that is 0); constraint_path_stats computes it once per graph.
    """
    if start == goal:
        return 0.0
    if max_hop is None:
        max_hop = _max_hop(adj, centroids)

    def h(n: str) -> float:
        return math.hypot(*(centroids[n] - centroids[goal])) / max_hop

    open_heap = [(h(start), 0, start)]
    g_score = {start: 0}
    tie = 0
    while open_heap:
        _, _, node = heapq.heappop(open_heap)
        if node == goal:
            return float(g_score[node])
        for nb in adj.get(node, []):
            g = g_score[node] + 1
            if g < g_score.get(nb, math.inf):
                g_score[nb] = g
                tie += 1
                heapq.heappush(open_heap, (g + h(nb), tie, nb))
    return math.inf


def constraint_path_stats(
    leaf_diagrams: list[Diagram],
    neighbor_map: dict,
    constraints: list[Constraint],
) -> tuple[float, float, list[dict]]:
    """Median and max shortest-hop distance over all constraints; unreachable
    pairs contribute infinity and are reported per constraint. Map pairs
    naming a cell outside leaf_diagrams are ignored."""
    centroids = {c.node_id: c.polygon.centroid if c.polygon is not None else c.site
                 for d in leaf_diagrams for c in d.cells}
    adj = adjacency((a, b) for a, b in neighbor_map if a in centroids and b in centroids)
    max_hop = _max_hop(adj, centroids)
    details = []
    lengths = []
    for c in constraints:
        if c.a not in centroids or c.b not in centroids:
            raise KeyError(f"constraint endpoint missing from diagrams: {c.a}-{c.b}")
        hops = astar_hops(adj, centroids, c.a, c.b, max_hop)
        lengths.append(hops)
        details.append({
            "a": c.a,
            "b": c.b,
            "similarity": round(c.similarity, 10),
            "realized": hops == 1.0,
            "path_length": hops if math.isfinite(hops) else None,
        })
    if not lengths:
        return 0.0, 0.0, details
    finite = [x for x in lengths if math.isfinite(x)]
    median = float(np.median(lengths)) if len(finite) == len(lengths) else math.inf
    maximum = float(max(finite)) if finite else math.inf
    return median, maximum, details


def evaluate(
    leaf_diagrams: list[Diagram],
    neighbor_map: dict,
    constraints: list[Constraint],
    level: int,
) -> MetricsReport:
    count, fraction = preserved_constraints(neighbor_map, constraints)
    avg_error, avg_aspect = area_and_aspect(leaf_diagrams)
    median, maximum, details = constraint_path_stats(leaf_diagrams, neighbor_map, constraints)
    unreachable = sum(1 for d in details if d["path_length"] is None)
    return MetricsReport(
        level=level,
        constraints_total=len(constraints),
        constraints_preserved=count,
        preserved_fraction=fraction,
        avg_area_error=avg_error,
        avg_aspect_ratio=avg_aspect,
        median_path_distance=median if math.isfinite(median) else -1.0,
        max_path_distance=maximum if math.isfinite(maximum) else -1.0,
        unreachable=unreachable,
        per_constraint=details,
    )
