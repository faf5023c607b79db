"""Level-wise round-robin neighborhood-preserving optimization loop.

Each iteration moves every cell of a level on the current cross-diagram
neighbor map, recomputes the level, in the last stretch of the budget grows
cells toward their target areas, and then refreshes the map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Cell,
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
    # derived lookups
    cells_by_id: dict[str, Cell] = field(default_factory=dict)
    diagram_of: dict[str, Diagram] = field(default_factory=dict)
    # per node, in constraint order: (similarity, other id, other cell or None, sorted pair)
    partners: dict[str, list[tuple[float, str, Cell | None, tuple[str, str]]]] = field(default_factory=dict)
    partner_ids: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def create(cls, level: int, diagrams: list[Diagram], constraints: list[Constraint]) -> "LevelState":
        state = cls(level=level, diagrams=diagrams, constraints=list(constraints))
        for d in diagrams:
            for c in d.cells:
                state.cells_by_id[c.node_id] = c
                state.diagram_of[c.node_id] = d
        for con in state.constraints:
            pair = tuple(sorted((con.a, con.b)))
            for node, other in ((con.a, con.b), (con.b, con.a)):
                entry = (con.similarity, other, state.cells_by_id.get(other), pair)
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


def _centroid_move(cell: Cell, f: float) -> None:
    if cell.polygon is None:
        return
    sx, sy = cell.site.tolist()
    cx, cy = cell.polygon.centroid.tolist()
    cell.site = np.array([sx + f * (cx - sx), sy + f * (cy - sy)])


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


def move_toward(cell: Cell, target: Cell, f: float, diagram: Diagram) -> None:
    """Advance the site a fraction of the gap toward the target, band-floored,
    clamped by _clamp_into in the cell's diagram."""
    sx, sy = cell.site.tolist()
    tx, ty = target.site.tolist()
    dx, dy = tx - sx, ty - sy
    d = math.hypot(dx, dy)
    if d == 0.0:
        return
    floor = K_MIN * (cell.equiv_radius + target.equiv_radius)
    if d <= floor:
        return
    if (1.0 - f) * d < floor:
        new = [tx - dx / d * floor, ty - dy / d * floor]
    else:
        new = [sx + f * dx, sy + f * dy]
    cell.site = _clamp_into(cell.site, np.array(new), diagram)


def move_orthogonal(cell: Cell, target: Cell, edge_dir: np.ndarray, f: float, diagram: Diagram) -> None:
    """Slide along the shared parent edge direction, leaving the perpendicular
    offset to that edge unchanged, clamped by _clamp_into in the cell's
    diagram."""
    s = cell.site
    comp = float((target.site - s) @ edge_dir) * edge_dir
    new = s + f * comp
    cell.site = _clamp_into(s, new, diagram)


def _aligned(cell: Cell, target: Cell, edge_dir: np.ndarray) -> bool:
    """Projections onto the shared edge overlap >= 50% of the smaller extent."""
    if cell.polygon is None or target.polygon is None:
        return True
    pa = cell.polygon.vertices @ edge_dir
    pb = target.polygon.vertices @ edge_dir
    overlap = min(pa.max(), pb.max()) - max(pa.min(), pb.min())
    smaller = min(pa.max() - pa.min(), pb.max() - pb.min())
    if smaller <= 0.0:
        return True
    return overlap >= 0.5 * smaller


def neighborhood_step(cell: Cell, state: LevelState, f: float, saturated: set[str]) -> None:
    """One movement per cell: the first actionable constraint wins, otherwise
    the site steps toward its polygon centroid. Partners are tried by
    similarity, then distance, both descending, then id; a saturated target
    is passed over."""
    partners = state.partners.get(cell.node_id)
    if partners:
        sx, sy = cell.site.tolist()

        def sort_key(partner):
            similarity, other_id, other, _ = partner
            dist = 0.0
            if other is not None:
                ox, oy = other.site.tolist()
                dist = math.hypot(ox - sx, oy - sy)
            return (-similarity, -dist, other_id)

        diagram = state.diagram_of[cell.node_id]
        for _, other_id, target, pair in sorted(partners, key=sort_key):
            if target is None or other_id in saturated:
                continue
            contact = state.neighbor_map.get(pair)
            if contact is None:
                move_toward(cell, target, f, diagram)
                return
            if diagram is not state.diagram_of[other_id]:
                p0, p1, length = contact
                edge_dir = (p1 - p0) / length
                if not _aligned(cell, target, edge_dir):
                    move_orthogonal(cell, target, edge_dir, f, diagram)
                    return
    _centroid_move(cell, f)


def optimize_level(
    state: LevelState,
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
    trace_cb=None,
) -> LevelState:
    """Run the full iteration budget of the round-robin level optimization.

    Each iteration moves every cell on state.neighbor_map, which
    LevelState.create builds, past the targets saturated on that map,
    reading the polygons of the iteration's start, then makes one
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
            for cell in diagram.cells:
                neighborhood_step(cell, state, f, saturated)
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
            for cell in diagram.cells:
                _centroid_move(cell, f)
        recompute_level(diagrams)
        if it >= cfg.growth_start:
            adapt_weights(diagrams, rng)
        if trace_cb is not None:
            trace_cb(diagrams, it)
    return diagrams
