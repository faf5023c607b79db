"""End-to-end driver: dataset -> preprocessed tree -> constraints -> per-level
initialization and optimization -> metrics -> SVG."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics as metrics_mod
from .geometry import (
    ConvexPolygon,
    Diagram,
    cell_neighbors,
    close_pair,
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
from .similarity import Constraint, extract_level_constraints, group_matrix
from .tree_model import Tree, TreeValidationError, parse_tree, propagate_attributes, uniform_depth


MIN_BOUNDARY_SIZE = 1e-100
MAX_BOUNDARY_SIZE = 1e100


class PipelineError(RuntimeError):
    """Numeric failure during layout (degenerate diagrams, empty parents)."""


class OutputError(OSError):
    """An output file that cannot be written; the message names it."""


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
    report: metrics_mod.MetricsReport
    metrics: dict
    svg: str
    trace_lines: list[str] = field(default_factory=list)


def make_boundary(spec: str, size: float) -> ConvexPolygon:
    # polygon measures hold size**3 terms, which leave the normal doubles outside these bounds
    if not MIN_BOUNDARY_SIZE <= size <= MAX_BOUNDARY_SIZE:
        raise ValueError(f"boundary size must lie in [{MIN_BOUNDARY_SIZE:g}, "
                         f"{MAX_BOUNDARY_SIZE:g}], not {size!r}")
    if spec == "square":
        return square(size)
    if spec == "circle":
        return regular_polygon(64, radius=size / 2.0, center=(size / 2.0, size / 2.0))
    if spec.startswith("polygon:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"boundary spec {spec!r}: N in polygon:N must be an integer") from None
        if n < 3:
            raise ValueError("polygon boundary needs at least 3 sides")
        return regular_polygon(n, radius=size / 2.0, center=(size / 2.0, size / 2.0))
    raise ValueError(f"unknown boundary spec: {spec!r}")


def load_tree(source: dict | str) -> Tree:
    """The Tree of a document, or of the JSON file at the path `source`. A
    file that cannot be opened, read or decoded as UTF-8 JSON, and a document
    nested deeper than the interpreter's recursion limit lets json or
    parse_tree follow, are TreeValidationErrors."""
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                source = json.load(fh)
        tree = parse_tree(source)
    except OSError as exc:
        raise TreeValidationError(f"cannot read {source!r}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TreeValidationError(f"cannot read {source!r} as UTF-8 JSON: {exc}") from None
    except RecursionError:
        raise TreeValidationError("the document nests deeper than the interpreter allows") from None
    tree = uniform_depth(tree)
    return propagate_attributes(tree)


def _derived_seed(seed: int, level: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, level, index]).generate_state(1)[0])


def _distinct_sites(sites: np.ndarray, boundary: ConvexPolygon, rng: np.random.Generator) -> np.ndarray:
    """Jitter coincident sites apart; power_diagram rejects exact duplicates."""
    sites = np.array(sites, dtype=float)
    eps = 1e-9 * boundary.diagonal
    for _ in range(100):
        pair = close_pair(sites, eps)
        if pair is None:
            return sites
        i = pair[0]
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
    cvt: Diagram | None,
) -> Diagram:
    """The parent's child diagram: its sites are the MDS positions scaled
    into the boundary (proj_scale), or the sites of the parent's CVT, which
    build_cvt made from (boundary, len(children), seed), assigned to the
    children (match_swap, random_cvt)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown init strategy: {strategy!r}")
    parent_weight = tree.nodes[parent].weight
    targets = [tree.nodes[c].weight / parent_weight for c in children]

    if strategy != "random_cvt":
        positions = mds_project(group_matrix(tree, children, level, kind))
    if strategy == "proj_scale":
        sites = proj_scale_init(positions, boundary)
        sites = _distinct_sites(sites, boundary, np.random.default_rng(seed))
    else:
        if strategy == "random_cvt":
            assignment = random_assignment(children, cvt, seed=seed)
        else:
            assignment = match_assignment(positions, cvt)
            members = set(children)
            local = [c for c in level_constraints if c.a in members and c.b in members]
            assignment = swap_improve(assignment, local, cvt)
        sites = cvt.sites[[assignment.mapping[c] for c in children]]
    return power_diagram(
        sites, boundary, node_ids=children, targets=targets, parent_node=parent, scale=scale,
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
    neighbor_maps: dict[int, dict] | None = None,
):
    """Create and jointly optimize all diagrams, level by level, top down.

    A cell whose target area (its share of its parent's area) underflows
    to 0.0 raises PipelineError naming it. If given, init_preserved receives
    each level's preserved-constraint count before optimization, and
    neighbor_maps each level's final neighbor map.
    """
    boundaries: dict[str, ConvexPolygon] = {tree.root: root_boundary}
    scale = root_boundary.diagonal
    diagrams_by_level: dict[int, list[Diagram]] = {}
    for level, groups in build_level_queue(tree):
        level_cons = constraints.get(level, [])
        seeds = [_derived_seed(seed, level, gi) for gi in range(len(groups))]
        if strategy in ("match_swap", "random_cvt"):
            cvts = build_cvt([(boundaries[parent], len(children), s)
                              for (parent, children), s in zip(groups, seeds)])
        else:
            cvts = [None] * len(groups)
        diagrams = [
            init_diagram(tree, parent, children, boundaries[parent], strategy, level_cons,
                         kind, s, level, scale, cvt)
            for (parent, children), s, cvt in zip(groups, seeds, cvts)
        ]
        for d in diagrams:
            underflow = np.flatnonzero(d.targets * d.boundary.area == 0.0)
            if len(underflow):
                raise PipelineError(f"cell {d.node_ids[underflow[0]]!r}: target area underflows to 0.0")
        state = LevelState.create(level, diagrams, level_cons)
        if init_preserved is not None:
            count, _ = metrics_mod.preserved_constraints(state.neighbor_map, level_cons)
            init_preserved[level] = count
        if optimize:
            rng = np.random.default_rng([seed, level])
            optimize_level(state, cfg, rng, trace_cb)
        if neighbor_maps is not None:
            neighbor_maps[level] = state.neighbor_map
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
        record = {
            "level": state.level,
            "iter": it,
            "sites": {
                node: [round(x, 10), round(y, 10)]
                for d in state.diagrams for node, (x, y) in zip(d.node_ids, d.sites.tolist())
            },
            "weights": {
                node: round(w, 10)
                for d in state.diagrams for node, w in zip(d.node_ids, d.weights.tolist())
            },
            "realized": metrics_mod.preserved_constraints(
                state.neighbor_map, state.constraints)[0],
        }
        trace_lines.append(json.dumps(record, sort_keys=True))

    init_preserved: dict[int, int] = {}
    neighbor_maps: dict[int, dict] = {}
    diagrams_by_level = build_treemap(
        tree, constraints, boundary, config.init, config.sim, config.seed,
        config.optimizer, trace_cb=trace_cb if config.emit_trace else None,
        init_preserved=init_preserved, neighbor_maps=neighbor_maps,
    )

    deepest = max(diagrams_by_level) if diagrams_by_level else 0
    if deepest == 0:
        # degenerate single-node tree: render the root boundary alone
        root_cell_diag = power_diagram(
            [boundary.centroid], boundary, node_ids=[tree.root], scale=boundary.diagonal,
        )
        diagrams_by_level = {1: [root_cell_diag]}
        neighbor_maps = {1: cell_neighbors([root_cell_diag])}
        deepest = 1
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

    svg = render_svg(diagrams_by_level, tree, leaf_constraints, neighbor_map, config.render,
                     config.seed)

    result = RunResult(
        tree=tree,
        constraints=constraints,
        diagrams_by_level=diagrams_by_level,
        report=report,
        metrics=metrics_doc,
        svg=svg,
        trace_lines=trace_lines,
    )
    if config.out_prefix:
        _write_artifacts(config, result)
    return result


def json_text(doc) -> str:
    """The text of every JSON file simmap writes: sorted keys, 2-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text(path: str, text: str) -> None:
    """Write `text` to the file `path`; failing that, raise an OutputError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def output_suffixes(config: RunConfig | None) -> list[str]:
    """What each file written under --out adds to the prefix, in writing
    order: the files of a layout run of `config`, or with None of --gen."""
    if config is None:
        return [".json"]
    asked = {".trace.ndjson": config.emit_trace, ".constraints.json": config.emit_constraints,
             ".geometry.json": config.emit_geometry}
    return [".svg", ".metrics.json", *(suffix for suffix, on in asked.items() if on)]


def _write_artifacts(config: RunConfig, result: RunResult) -> None:
    texts = {
        ".svg": lambda: result.svg,
        ".metrics.json": lambda: json_text(result.metrics),
        ".trace.ndjson": lambda: "\n".join(result.trace_lines) + "\n",
        ".constraints.json": lambda: json_text({
            str(level): [
                {"a": c.a, "b": c.b, "similarity": round(c.similarity, 10), "bin": c.bin}
                for c in cons
            ]
            for level, cons in result.constraints.items()
        }),
        ".geometry.json": lambda: json_text({
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
        }),
    }
    for suffix in output_suffixes(config):
        write_text(f"{config.out_prefix}{suffix}", texts[suffix]())


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
        reports = [run(replace(config, init=strategy, seed=seed, out_prefix=None,
                               emit_trace=False)).report for seed in seeds]
        fractions = [r.preserved_fraction for r in reports]
        rows.append({
            "strategy": strategy,
            "seeds": len(seeds),
            "preserved_mean": float(np.mean([r.constraints_preserved for r in reports])),
            "preserved_fraction_mean": float(np.mean(fractions)),
            "preserved_fraction_std": float(np.std(fractions)),
            "area_error_mean": float(np.mean([r.avg_area_error for r in reports])),
            "aspect_ratio_mean": float(np.mean([r.avg_aspect_ratio for r in reports])),
            "max_graph_dist_mean": float(np.mean([r.max_path_distance for r in reports])),
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
