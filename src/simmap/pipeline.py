"""End-to-end driver: dataset -> preprocessed tree -> constraints -> per-level
initialization and optimization -> metrics -> SVG."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from .geometry import (
    ConvexPolygon,
    Diagram,
    GeometryError,
    cell_neighbors,
    power_diagram,
    regular_polygon,
    square,
)
from .layout_init import (
    STRATEGIES,
    build_cvt,
    match_assignment,
    mds_project,
    proj_scale_init,
    random_assignment,
    swap_improve,
)
from .optimizer import LevelState, OptimizerConfig, build_level_queue, optimize_level
from .render import RenderOptions, render_svg
from .similarity import (
    Constraint,
    SimilarityMatrix,
    extract_level_constraints,
    pair_matrix_from_lifted,
    pairwise_matrix,
)
from .tree_model import Tree, parse_tree, propagate_attributes, uniform_depth


class PipelineError(RuntimeError):
    """Numeric failure during layout (degenerate diagrams, empty parents)."""


@dataclass
class RunConfig:
    input: dict | str | None = None          # document dict or path to one
    out_prefix: str | None = None
    boundary: str = "circle"                 # square | polygon:N | circle
    boundary_size: float = 1000.0
    init: str = "match_swap"
    sim: str = "cosine"
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    render: RenderOptions = field(default_factory=RenderOptions)
    emit_trace: bool = False
    emit_constraints: bool = False
    emit_geometry: bool = False


@dataclass
class RunResult:
    tree: Tree
    constraints: dict[int, list[Constraint]]
    diagrams_by_level: dict[int, list[Diagram]]
    neighbor_map: dict
    report: metrics_mod.MetricsReport
    metrics: dict
    svg: str
    trace_lines: list[str] = field(default_factory=list)
    init_preserved: dict[int, int] = field(default_factory=dict)


def make_boundary(spec: str, size: float) -> ConvexPolygon:
    if spec == "square":
        return square(size)
    if spec == "circle":
        return regular_polygon(64, radius=size / 2.0, center=(size / 2.0, size / 2.0))
    if spec.startswith("polygon:"):
        n = int(spec.split(":", 1)[1])
        if n < 3:
            raise ValueError("polygon boundary needs at least 3 sides")
        return regular_polygon(n, radius=size / 2.0, center=(size / 2.0, size / 2.0))
    raise ValueError(f"unknown boundary spec: {spec!r}")


def load_tree(source: dict | str) -> Tree:
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            source = json.load(fh)
    tree = parse_tree(source)
    tree = uniform_depth(tree)
    return propagate_attributes(tree)


def _group_matrix(tree: Tree, children: list[str], level: int, kind: str) -> SimilarityMatrix:
    nodes = [tree.nodes[c] for c in children]
    if tree.pair_mode:
        return pair_matrix_from_lifted(children, level, tree.level_pairs.get(level, {}))
    if all(n.sim_vector is not None for n in nodes):
        return pairwise_matrix(nodes, kind)
    return SimilarityMatrix(level=level, node_ids=list(children),
                            values=np.zeros((len(children), len(children))))


def _derived_seed(seed: int, level: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, level, index]).generate_state(1)[0])


def _distinct_sites(sites: np.ndarray, boundary: ConvexPolygon, rng: np.random.Generator) -> np.ndarray:
    """Jitter coincident sites apart; power_diagram rejects exact duplicates."""
    sites = np.array(sites, dtype=float)
    eps = 1e-9 * boundary.diagonal
    for _ in range(100):
        diff = sites[:, None, :] - sites[None, :, :]
        d = np.hypot(diff[:, :, 0], diff[:, :, 1])
        np.fill_diagonal(d, np.inf)
        bad = np.argwhere(d < eps)
        if len(bad) == 0:
            return sites
        i = int(bad[0][0])
        sites[i] = sites[i] + rng.normal(scale=1e-5 * boundary.diagonal, size=2)
        tol = -1e-9 * boundary.diagonal
        if not boundary.contains(sites[i], tol=tol):
            sites[i] = boundary.sample_point(rng)
    return sites


def init_diagram(
    tree: Tree,
    parent: str,
    children: list[str],
    boundary: ConvexPolygon,
    strategy: str,
    level_constraints: list[Constraint],
    kind: str,
    seed: int,
    level: int,
    scale: float,
) -> Diagram:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown init strategy: {strategy!r}")
    n = len(children)
    parent_weight = tree.nodes[parent].weight
    targets = [tree.nodes[c].weight / parent_weight for c in children]
    matrix = _group_matrix(tree, children, level, kind)
    rng = np.random.default_rng(seed)

    if strategy == "proj_scale":
        positions = mds_project(matrix)
        sites = proj_scale_init(positions, boundary)
        sites = _distinct_sites(sites, boundary, rng)
    else:
        cvt = build_cvt(boundary, n, seed=seed)
        if strategy == "random_cvt":
            assignment = random_assignment(children, cvt, seed=seed)
        else:
            positions = mds_project(matrix)
            assignment = match_assignment(positions, cvt)
            local = [
                c for c in level_constraints
                if c.a in set(children) and c.b in set(children)
            ]
            assignment = swap_improve(assignment, local, cvt)
        sites = np.array([cvt.cells[assignment.mapping[c]].site for c in children])
    return power_diagram(
        sites, boundary, node_ids=children, targets=targets,
        level=level, parent_node=parent, scale=scale,
    )


def build_treemap(
    tree: Tree,
    constraints: dict[int, list[Constraint]],
    root_boundary: ConvexPolygon,
    strategy: str,
    kind: str,
    seed: int,
    cfg: OptimizerConfig,
    trace_cb=None,
    init_preserved: dict[int, int] | None = None,
    optimize: bool = True,
):
    """Create and jointly optimize all diagrams, level by level, top down."""
    boundaries: dict[str, ConvexPolygon] = {tree.root: root_boundary}
    scale = root_boundary.diagonal
    diagrams_by_level: dict[int, list[Diagram]] = {}
    for level, groups in build_level_queue(tree):
        level_cons = constraints.get(level, [])
        diagrams = []
        for gi, (parent, children) in enumerate(groups):
            boundary = boundaries.get(parent)
            if boundary is None:
                raise PipelineError(f"parent {parent!r} has no cell to subdivide")
            diagrams.append(init_diagram(
                tree, parent, children, boundary, strategy, level_cons,
                kind, _derived_seed(seed, level, gi), level, scale,
            ))
        state = LevelState.create(level, diagrams, level_cons, cfg)
        if init_preserved is not None:
            count, _ = metrics_mod.preserved_constraints(state.neighbor_map, level_cons)
            init_preserved[level] = count
        if optimize:
            rng = np.random.default_rng([seed, level])
            optimize_level(state, cfg, rng, trace_cb)
        diagrams_by_level[level] = diagrams
        for d in diagrams:
            for c in d.cells:
                if tree.nodes[c.node_id].children:
                    if c.polygon is None:
                        raise PipelineError(
                            f"cell {c.node_id!r} collapsed but has children to place"
                        )
                    boundaries[c.node_id] = c.polygon
    return diagrams_by_level


def run(config: RunConfig) -> RunResult:
    """Execute the full pipeline and (optionally) write the output artifacts."""
    tree = load_tree(config.input)
    constraints = extract_level_constraints(tree, config.sim)
    boundary = make_boundary(config.boundary, config.boundary_size)

    trace_lines: list[str] = []

    def trace_cb(state, it):
        if not config.emit_trace:
            return
        record = {
            "level": state.level,
            "iter": it,
            "sites": {
                c.node_id: [round(float(c.site[0]), 10), round(float(c.site[1]), 10)]
                for d in state.diagrams for c in d.cells
            },
            "weights": {
                c.node_id: round(float(c.weight), 10)
                for d in state.diagrams for c in d.cells
            },
            "realized": state.realized_count(),
        }
        trace_lines.append(json.dumps(record, sort_keys=True))

    init_preserved: dict[int, int] = {}
    diagrams_by_level = build_treemap(
        tree, constraints, boundary, config.init, config.sim, config.seed,
        config.optimizer, trace_cb=trace_cb, init_preserved=init_preserved,
    )

    deepest = max(diagrams_by_level) if diagrams_by_level else 0
    if deepest == 0:
        # degenerate single-node tree: render the root boundary alone
        root_cell_diag = power_diagram(
            [boundary.centroid], boundary, node_ids=[tree.root], scale=boundary.diagonal,
        )
        diagrams_by_level = {1: [root_cell_diag]}
        deepest = 1
    neighbor_maps = {level: cell_neighbors(d) for level, d in diagrams_by_level.items()}
    leaf_diagrams = diagrams_by_level[deepest]
    neighbor_map = neighbor_maps[deepest]
    leaf_constraints = constraints.get(deepest, [])
    report = metrics_mod.evaluate(leaf_diagrams, neighbor_map, leaf_constraints, deepest)

    per_level = {}
    for level, nm in neighbor_maps.items():
        count, fraction = metrics_mod.preserved_constraints(nm, constraints.get(level, []))
        per_level[str(level)] = {
            "constraints": len(constraints.get(level, [])),
            "preserved": count,
            "preserved_fraction": round(fraction, 10),
            "preserved_at_init": init_preserved.get(level),
        }

    metrics_doc = {
        "config": {
            "init": config.init,
            "sim": config.sim,
            "seed": config.seed,
            "boundary": config.boundary,
            "max_iter": config.optimizer.max_iter,
            "max_neighbor_count": config.optimizer.max_neighbor_count,
        },
        "levels": per_level,
        "leaf": report.to_dict(),
    }

    render_opts = replace(config.render, seed=config.seed)
    svg = render_svg(diagrams_by_level, tree, leaf_constraints, neighbor_map, render_opts)

    result = RunResult(
        tree=tree,
        constraints=constraints,
        diagrams_by_level=diagrams_by_level,
        neighbor_map=neighbor_map,
        report=report,
        metrics=metrics_doc,
        svg=svg,
        trace_lines=trace_lines,
        init_preserved=init_preserved,
    )
    if config.out_prefix:
        _write_artifacts(config, result)
    return result


def _write_artifacts(config: RunConfig, result: RunResult) -> None:
    prefix = config.out_prefix
    with open(f"{prefix}.svg", "w", encoding="utf-8") as fh:
        fh.write(result.svg)
    with open(f"{prefix}.metrics.json", "w", encoding="utf-8") as fh:
        json.dump(result.metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if config.emit_trace:
        with open(f"{prefix}.trace.ndjson", "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.trace_lines) + "\n")
    if config.emit_constraints:
        doc = {
            str(level): [
                {"a": c.a, "b": c.b, "similarity": round(c.similarity, 10), "bin": c.bin}
                for c in cons
            ]
            for level, cons in result.constraints.items()
        }
        with open(f"{prefix}.constraints.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if config.emit_geometry:
        doc = {
            str(level): [
                {
                    "parent": d.parent_node,
                    "cells": [
                        {
                            "id": c.node_id,
                            "site": [round(float(c.site[0]), 10), round(float(c.site[1]), 10)],
                            "weight": round(float(c.weight), 10),
                            "polygon": (
                                [[round(float(x), 10), round(float(y), 10)]
                                 for x, y in c.polygon.vertices]
                                if c.polygon is not None else None
                            ),
                        }
                        for c in d.cells
                    ],
                }
                for d in diagrams
            ]
            for level, diagrams in result.diagrams_by_level.items()
        }
        with open(f"{prefix}.geometry.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")


def table_row(name: str, result: RunResult) -> str:
    """One Table-style summary line for a finished run."""
    tree = result.tree
    r = result.report
    leaves = sum(1 for n in tree.nodes.values() if n.is_leaf)
    return (
        f"{name} | levels={tree.uniform_depth + 1} | nodes={len(tree.nodes)} | "
        f"leaves={leaves} | constraints={r.constraints_total} | "
        f"area_err={r.avg_area_error:.3f} | max_dist={r.max_path_distance:.0f} | "
        f"aspect={r.avg_aspect_ratio:.2f} | "
        f"preserved={r.constraints_preserved} ({100.0 * r.preserved_fraction:.2f}%)"
    )


def compare(config: RunConfig, strategies: list[str], seeds: list[int]) -> list[dict]:
    """Run the pipeline per (strategy, seed) and summarize per strategy."""
    if not strategies:
        raise ValueError("need at least one strategy")
    if not seeds:
        raise ValueError("need at least one seed")
    rows = []
    for strategy in strategies:
        fractions, errors, aspects, dists, counts = [], [], [], [], []
        for seed in seeds:
            res = run(replace(config, init=strategy, seed=seed, out_prefix=None,
                              emit_trace=False))
            fractions.append(res.report.preserved_fraction)
            counts.append(res.report.constraints_preserved)
            errors.append(res.report.avg_area_error)
            aspects.append(res.report.avg_aspect_ratio)
            dists.append(res.report.max_path_distance)
        rows.append({
            "strategy": strategy,
            "seeds": len(seeds),
            "preserved_mean": float(np.mean(counts)),
            "preserved_fraction_mean": float(np.mean(fractions)),
            "preserved_fraction_std": float(np.std(fractions)),
            "area_error_mean": float(np.mean(errors)),
            "aspect_ratio_mean": float(np.mean(aspects)),
            "max_graph_dist_mean": float(np.mean(dists)),
        })
    return rows


def format_compare(rows: list[dict]) -> str:
    header = (
        f"{'strategy':<12} {'preserved':>10} {'fraction':>18} "
        f"{'area_err':>9} {'aspect':>7} {'max_dist':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['strategy']:<12} {r['preserved_mean']:>10.2f} "
            f"{100 * r['preserved_fraction_mean']:>8.2f}% ± {100 * r['preserved_fraction_std']:>5.2f}% "
            f"{r['area_error_mean']:>9.3f} {r['aspect_ratio_mean']:>7.2f} "
            f"{r['max_graph_dist_mean']:>9.1f}"
        )
    return "\n".join(lines)
