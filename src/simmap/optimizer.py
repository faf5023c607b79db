"""Level-wise round-robin neighborhood-preserving optimization loop.

Each iteration runs one constraint-driven movement step per cell on the
current cross-diagram neighbor map, in the last stretch of the budget grows
cells toward their target areas, and then refreshes the map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Cell,
    ConvexPolygon,
    Diagram,
    adapt_weights,
    cell_neighbors,
    recompute,
)
from .similarity import Constraint
from .tree_model import Tree


@dataclass
class OptimizerConfig:
    max_iter: int = 150
    growth_start_fraction: float = 0.8
    max_neighbor_count: int = 6
    step_fraction: float = 0.5
    step_decay: float = 0.95
    k_min: float = 0.9
    k_max: float = 1.3
    boundary_margin_fraction: float = 1e-3
    growth_rate: float = 0.7

    @property
    def growth_start(self) -> int:
        return int(math.ceil(self.growth_start_fraction * self.max_iter))

    def step_at(self, iteration: int) -> float:
        """Base step fraction, decayed once growth starts to damp oscillation."""
        excess = iteration - self.growth_start + 1
        if excess <= 0:
            return self.step_fraction
        return self.step_fraction * self.step_decay ** excess


@dataclass
class LevelState:
    level: int
    diagrams: list[Diagram]
    constraints: list[Constraint]
    neighbor_map: dict = field(default_factory=dict)
    iter: int = 0
    max_iter: int = 150
    # derived lookups
    cells_by_id: dict[str, Cell] = field(default_factory=dict)
    diagram_of: dict[str, Diagram] = field(default_factory=dict)
    constraints_by_node: dict[str, list[Constraint]] = field(default_factory=dict)
    constraint_pairs: set = field(default_factory=set)
    insets: dict[int, ConvexPolygon] = field(default_factory=dict)

    @classmethod
    def create(cls, level: int, diagrams: list[Diagram], constraints: list[Constraint],
               cfg: OptimizerConfig) -> "LevelState":
        state = cls(level=level, diagrams=diagrams, constraints=list(constraints),
                    max_iter=cfg.max_iter)
        scale = max(d.scale for d in diagrams)
        margin = cfg.boundary_margin_fraction * scale
        for idx, d in enumerate(diagrams):
            for c in d.cells:
                state.cells_by_id[c.node_id] = c
                state.diagram_of[c.node_id] = d
            inset = d.boundary.inset(margin)
            if inset is None:
                center = d.boundary.centroid
                inset = ConvexPolygon(center + 0.99 * (d.boundary.vertices - center))
            state.insets[id(d)] = inset
        for con in state.constraints:
            state.constraint_pairs.add(tuple(sorted((con.a, con.b))))
            state.constraints_by_node.setdefault(con.a, []).append(con)
            state.constraints_by_node.setdefault(con.b, []).append(con)
        state.neighbor_map = cell_neighbors(diagrams)
        return state

    def inset_for(self, diagram: Diagram) -> ConvexPolygon:
        return self.insets[id(diagram)]

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {}
        for a, b in self.neighbor_map:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return adj

    def realized_count(self) -> int:
        return sum(1 for p in self.constraint_pairs if p in self.neighbor_map)


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
    cell.site = cell.site + f * (cell.polygon.centroid - cell.site)


def _clamp_into(old: np.ndarray, new: np.ndarray, inset: ConvexPolygon) -> np.ndarray:
    """Stop a move at the margin-inset boundary along the movement ray."""
    if inset.contains(new):
        return new
    if not inset.contains(old):
        return old
    t_lo, t_hi = 0.0, 1.0
    d = new - old
    for _ in range(60):
        t = 0.5 * (t_lo + t_hi)
        if inset.contains(old + t * d):
            t_lo = t
        else:
            t_hi = t
    return old + t_lo * d


def move_toward(cell: Cell, target: Cell, cfg: OptimizerConfig, f: float, inset: ConvexPolygon) -> None:
    """Advance the site a fraction of the gap toward the target, band-floored."""
    s = cell.site
    t = target.site
    dvec = t - s
    d = math.hypot(dvec[0], dvec[1])
    if d == 0.0:
        return
    floor = cfg.k_min * (cell.equiv_radius + target.equiv_radius)
    if d <= floor:
        return
    new = s + f * dvec
    nd = (1.0 - f) * d
    if nd < floor:
        new = t - dvec / d * floor
    cell.site = _clamp_into(s, new, inset)


def move_orthogonal(cell: Cell, target: Cell, edge_dir: np.ndarray, f: float, inset: ConvexPolygon) -> None:
    """Slide along the shared parent edge direction, leaving the perpendicular
    offset to that edge unchanged."""
    s = cell.site
    comp = float((target.site - s) @ edge_dir) * edge_dir
    new = s + f * comp
    cell.site = _clamp_into(s, new, inset)


def _longest_segment(segments) -> tuple[np.ndarray, np.ndarray, float]:
    return max(segments, key=lambda seg: seg[2])


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


def neighborhood_step(cell: Cell, state: LevelState, cfg: OptimizerConfig, f: float,
                      adjacency: dict[str, set[str]]) -> None:
    """One movement per cell: the first actionable constraint wins, otherwise
    the site steps toward its polygon centroid."""
    cons = state.constraints_by_node.get(cell.node_id, [])
    if cons:
        def sort_key(con: Constraint):
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
                if tuple(sorted((other_id, n))) in state.constraint_pairs
            }
            if len(constrained) >= cfg.max_neighbor_count and constrained == t_neighbors:
                continue  # target saturated and fully constrained: skip
            pair = tuple(sorted((cell.node_id, other_id)))
            segments = state.neighbor_map.get(pair)
            inset = state.inset_for(state.diagram_of[cell.node_id])
            if segments is None:
                move_toward(cell, target, cfg, f, inset)
                return
            same_parent = state.diagram_of[cell.node_id] is state.diagram_of[other_id]
            if not same_parent:
                p0, p1, length = _longest_segment(segments)
                edge_dir = (p1 - p0) / length
                if not _aligned(cell, target, edge_dir):
                    move_orthogonal(cell, target, edge_dir, f, inset)
                    return
    _centroid_move(cell, f)


def optimize_level(
    state: LevelState,
    cfg: OptimizerConfig,
    rng: np.random.Generator | None = None,
    trace_cb=None,
) -> LevelState:
    """Run the full iteration budget of the round-robin level optimization.

    Each iteration moves cells on state.neighbor_map, which LevelState.create
    builds, and refreshes it after trace_cb; the trace therefore sees the map
    the iteration moved on, and the state ends with the final map.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for it in range(cfg.max_iter):
        adjacency = state.adjacency()
        f = cfg.step_at(it)
        for diagram in state.diagrams:
            for cell in diagram.cells:
                neighborhood_step(cell, state, cfg, f, adjacency)
            recompute(diagram)
        if it >= cfg.growth_start:
            for diagram in state.diagrams:
                adapt_weights(diagram, cfg.growth_rate, rng)
        state.iter = it + 1
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
            recompute(diagram)
        if it >= cfg.growth_start:
            for diagram in diagrams:
                adapt_weights(diagram, cfg.growth_rate, rng)
        if trace_cb is not None:
            trace_cb(diagrams, it)
    return diagrams
