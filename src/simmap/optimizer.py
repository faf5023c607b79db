"""Level-wise round-robin neighborhood-preserving optimization loop.

Each iteration moves every cell of a level on the current cross-diagram
neighbor map, recomputes the level, in the last stretch of the budget grows
cells toward their target areas, and then refreshes the map. A cell is a
row of its Diagram's arrays: moves write its site in place and read the
rings, areas and centroids of the iteration's start, so no Cell or
ConvexPolygon is made inside the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Diagram,
    adapt_weights,
    adjacency,
    cell_neighbors,
    recompute,  # noqa: F401  kept importable here: the benchmark's tracer rebinds it
    recompute_level,
)
from .similarity import Constraint
from .tree_model import Tree


GROWTH_START_FRACTION = 0.8    # growth runs over the last 20% of iterations
STEP_FRACTION = 0.5            # a move's share of its gap before growth
STEP_DECAY = 0.95              # per-iteration decay of that share during growth
K_MIN = 0.9                    # move_toward's band, in summed equivalent radii
BOUNDARY_MARGIN_FRACTION = 1e-3  # sites' margin inside a parent, of the level's scale


@dataclass
class OptimizerConfig:
    max_iter: int = 150
    max_neighbor_count: int = 6

    @property
    def growth_start(self) -> int:
        return int(math.ceil(GROWTH_START_FRACTION * self.max_iter))

    def step_at(self, iteration: int) -> float:
        """Base step fraction, decayed once growth starts to damp oscillation."""
        excess = iteration - self.growth_start + 1
        if excess <= 0:
            return STEP_FRACTION
        return STEP_FRACTION * STEP_DECAY ** excess


@dataclass
class LevelState:
    level: int
    diagrams: list[Diagram]
    constraints: list[Constraint]
    neighbor_map: dict = field(default_factory=dict)
    # per node, in constraint order: (similarity, other id, the other's
    # diagram and row, or None and -1 outside the level, sorted pair)
    partners: dict[str, list[tuple]] = field(default_factory=dict)
    partner_ids: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def create(cls, level: int, diagrams: list[Diagram], constraints: list[Constraint]) -> "LevelState":
        state = cls(level=level, diagrams=diagrams, constraints=list(constraints))
        rows = {node: (d, i) for d in diagrams for i, node in enumerate(d.node_ids)}
        for con in state.constraints:
            pair = tuple(sorted((con.a, con.b)))
            for node, other in ((con.a, con.b), (con.b, con.a)):
                entry = (con.similarity, other, *rows.get(other, (None, -1)), pair)
                state.partners.setdefault(node, []).append(entry)
                state.partner_ids.setdefault(node, set()).add(other)
        state.neighbor_map = cell_neighbors(diagrams)
        return state

    def saturated(self, max_neighbor_count: int) -> set[str]:
        """Targets no move heads for on the current map: each has at least
        max_neighbor_count neighbours, and every one is a constraint partner;
        a target without neighbours counts when max_neighbor_count is 0."""
        adj = adjacency(self.neighbor_map)
        return {node for node, ids in self.partner_ids.items()
                if len(nbrs := adj.get(node, ())) >= max_neighbor_count and ids.issuperset(nbrs)}


def build_level_queue(tree: Tree) -> list[tuple[int, list[tuple[str, list[str]]]]]:
    """Top-down breadth-first queue: per level, (parent, children) groups."""
    queue = []
    for level in range(1, tree.uniform_depth + 1):
        groups = [
            (n.id, list(n.children))
            for n in tree.iter_bfs()
            if n.depth == level - 1 and n.children
        ]
        queue.append((level, groups))
    return queue


def _centroid_move(diagram: Diagram, i: int, f: float) -> None:
    if diagram.lengths[i] == 0:
        return
    sx, sy = diagram.sites[i].tolist()
    cx, cy = diagram.centroids[i].tolist()
    diagram.sites[i] = [sx + f * (cx - sx), sy + f * (cy - sy)]


def _clamp_into(old: np.ndarray, new: np.ndarray, diagram: Diagram) -> np.ndarray:
    """Keep a move at least the margin m = BOUNDARY_MARGIN_FRACTION * scale
    inside the diagram's boundary, by signed distance from every edge line.

    A new point that passes boundary.contains(., -m) is kept; otherwise the
    move stops where its ray leaves that set, at a point contains accepts. A
    start that fails the test does not move, so no site moves in a parent
    narrower than 2m.
    """
    boundary, tol = diagram.boundary, -BOUNDARY_MARGIN_FRACTION * diagram.scale
    if boundary.contains(new, tol):
        return new
    if not boundary.contains(old, tol):
        return old
    d = new - old
    return old + boundary.ray_exit(old, d, tol) * d


def move_toward(diagram: Diagram, i: int, target: np.ndarray, target_area: float, f: float) -> None:
    """Advance site i a fraction of the gap toward the point target, floored
    at K_MIN times the summed equivalent radii of cell i and the target's
    cell, of area target_area; clamped by _clamp_into in the diagram."""
    sx, sy = diagram.sites[i].tolist()
    tx, ty = target.tolist()
    dx, dy = tx - sx, ty - sy
    d = math.hypot(dx, dy)
    if d == 0.0:
        return
    floor = K_MIN * (math.sqrt(float(diagram.areas[i]) / math.pi) + math.sqrt(target_area / math.pi))
    if d <= floor:
        return
    if (1.0 - f) * d < floor:
        new = [tx - dx / d * floor, ty - dy / d * floor]
    else:
        new = [sx + f * dx, sy + f * dy]
    diagram.sites[i] = _clamp_into(diagram.sites[i], np.array(new), diagram)


def move_orthogonal(diagram: Diagram, i: int, target: np.ndarray, edge_dir: np.ndarray, f: float) -> None:
    """Slide site i along the shared parent edge direction, leaving its
    perpendicular offset to that edge unchanged, toward the point target;
    clamped by _clamp_into in the diagram."""
    s = diagram.sites[i]
    comp = float((target - s) @ edge_dir) * edge_dir
    diagram.sites[i] = _clamp_into(s, s + f * comp, diagram)


def _aligned(ring: np.ndarray | None, target: np.ndarray | None, edge_dir: np.ndarray) -> bool:
    """The two rings' projections onto the shared edge overlap >= 50% of the
    smaller extent; True if either cell is empty."""
    if ring is None or target is None:
        return True
    pa = ring @ edge_dir
    pb = target @ edge_dir
    overlap = min(pa.max(), pb.max()) - max(pa.min(), pb.min())
    smaller = min(pa.max() - pa.min(), pb.max() - pb.min())
    if smaller <= 0.0:
        return True
    return overlap >= 0.5 * smaller


def neighborhood_step(diagram: Diagram, i: int, state: LevelState, f: float, saturated: set[str]) -> None:
    """One movement of row i of the diagram: the first actionable constraint
    wins, otherwise the site steps toward its cell's centroid. Partners are
    tried by similarity, then distance, both descending, then id; a
    saturated target is passed over."""
    partners = state.partners.get(diagram.node_ids[i])
    if partners:
        sx, sy = diagram.sites[i].tolist()

        def sort_key(partner):
            similarity, other_id, other, j, _ = partner
            dist = 0.0
            if other is not None:
                ox, oy = other.sites[j].tolist()
                dist = math.hypot(ox - sx, oy - sy)
            return (-similarity, -dist, other_id)

        for _, other_id, other, j, pair in sorted(partners, key=sort_key):
            if other is None or other_id in saturated:
                continue
            contact = state.neighbor_map.get(pair)
            if contact is None:
                move_toward(diagram, i, other.sites[j], float(other.areas[j]), f)
                return
            if diagram is not other:
                p0, p1, length = contact
                edge_dir = (p1 - p0) / length
                if not _aligned(diagram.ring(i), other.ring(j), edge_dir):
                    move_orthogonal(diagram, i, other.sites[j], edge_dir, f)
                    return
    _centroid_move(diagram, i, f)


def optimize_level(
    state: LevelState,
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
    trace_cb=None,
) -> LevelState:
    """Run the full iteration budget of the round-robin level optimization.

    Each iteration moves every cell on state.neighbor_map, which
    LevelState.create builds, past the targets saturated on that map,
    reading the rings, areas and centroids of the iteration's start, then makes one
    recompute_level call and refreshes the map after trace_cb;
    the trace sees the map the iteration moved on, and the state ends with
    the final map.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for it in range(cfg.max_iter):
        saturated = state.saturated(cfg.max_neighbor_count)
        f = cfg.step_at(it)
        for diagram in state.diagrams:
            for i in range(len(diagram.node_ids)):
                neighborhood_step(diagram, i, state, f, saturated)
        recompute_level(state.diagrams)
        if it >= cfg.growth_start:
            adapt_weights(state.diagrams, rng)
        if trace_cb is not None:
            trace_cb(state, it)
        state.neighbor_map = cell_neighbors(state.diagrams)
    return state


def pure_lloyd_growth(
    diagrams: list[Diagram],
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
    trace_cb=None,
) -> list[Diagram]:
    """Reference run without any constraint handling: centroid moves plus late
    growth, with the same stepping schedule as the full optimizer."""
    if rng is None:
        rng = np.random.default_rng(0)
    for it in range(cfg.max_iter):
        f = cfg.step_at(it)
        for diagram in diagrams:
            drawn = diagram.lengths > 0
            diagram.sites[drawn] += f * (diagram.centroids[drawn] - diagram.sites[drawn])
        recompute_level(diagrams)
        if it >= cfg.growth_start:
            adapt_weights(diagrams, rng)
        if trace_cb is not None:
            trace_cb(diagrams, it)
    return diagrams
