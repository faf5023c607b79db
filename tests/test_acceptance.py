"""Acceptance gate: eleven end-to-end behavioral criteria.

Every test prints exactly one `[criterion NN] PASS|FAIL` summary line (visible
with `pytest -s tests/test_acceptance.py`) and fails the build if the stated
threshold is not met.
"""
import itertools
import json
import math
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay

from simmap.datasets import gen_synthetic
from simmap.geometry import ConvexPolygon, cell_neighbors, power_diagram
from simmap.layout_init import (
    Assignment,
    ProjectedPositions,
    build_cvt,
    cvt_adjacency,
    fit_points_in_polygon,
    match_assignment,
    realized_count,
    swap_improve,
)
from simmap.metrics import astar_hops, evaluate
from simmap.optimizer import OptimizerConfig, pure_lloyd_growth, build_level_queue
from simmap.pipeline import (
    RunConfig,
    _derived_seed,
    build_treemap,
    init_diagram,
    load_tree,
    make_boundary,
    run,
)
from simmap.render import RenderOptions
from simmap.similarity import Constraint, extract_level_constraints

DATASET_DIR = Path(__file__).resolve().parents[1] / "datasets"
SYNTHETIC = ["m_n", "two_level", "dense"]
ALL_DATASETS = SYNTHETIC + ["borders"]
SEEDS = list(range(10))


def emit(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------- shared runs

@dataclass
class RunRecord:
    init_preserved: int
    final_preserved: int
    area_error: float
    worst_partition_rel: float
    containment_violations: int
    iterations_checked: int


def _instrumented_run(path: str, seed: int) -> RunRecord:
    tree = load_tree(path)
    constraints = extract_level_constraints(tree, "cosine")
    boundary = make_boundary("circle", 1000.0)
    scale = boundary.diagonal
    stats = {"partition": 0.0, "violations": 0, "iters": 0}

    def trace_cb(state, it):
        stats["iters"] += 1
        for d in state.diagrams:
            total = sum(c.area for c in d.cells if c.polygon is not None)
            rel = abs(total - d.boundary.area) / d.boundary.area
            stats["partition"] = max(stats["partition"], rel)
            tol = 1e-9 * scale
            for c in d.cells:
                if c.polygon is None:
                    continue
                for v in c.polygon.vertices:
                    if not d.boundary.contains(v, tol=tol):
                        stats["violations"] += 1

    init_preserved: dict[int, int] = {}
    diagrams_by_level = build_treemap(
        tree, constraints, boundary, "match_swap", "cosine", seed,
        OptimizerConfig(), trace_cb=trace_cb, init_preserved=init_preserved,
    )
    deepest = max(diagrams_by_level)
    leaf_diagrams = diagrams_by_level[deepest]
    nm = cell_neighbors(leaf_diagrams)
    report = evaluate(leaf_diagrams, nm, constraints.get(deepest, []), deepest)
    return RunRecord(
        init_preserved=sum(init_preserved.values()),
        final_preserved=report.constraints_preserved,
        area_error=report.avg_area_error,
        worst_partition_rel=stats["partition"],
        containment_violations=stats["violations"],
        iterations_checked=stats["iters"],
    )


@pytest.fixture(scope="session")
def instrumented_runs():
    out: dict[str, list[RunRecord]] = {}
    for name in ALL_DATASETS:
        path = str(DATASET_DIR / f"{name}.json")
        out[name] = [_instrumented_run(path, seed) for seed in SEEDS]
    return out


@pytest.fixture(scope="session")
def shipped_run_pairs(tmp_path_factory):
    """Two full CLI-equivalent runs per shipped dataset, identical config."""
    base = tmp_path_factory.mktemp("determinism")
    out = {}
    for name in ALL_DATASETS:
        artifacts = []
        for attempt in range(2):
            prefix = str(base / f"{name}-{attempt}")
            cfg = RunConfig(
                input=str(DATASET_DIR / f"{name}.json"),
                out_prefix=prefix,
                init="match_swap",
                sim="cosine",
                seed=0,
                render=RenderOptions(show_unrealized=True),
            )
            result = run(cfg)
            artifacts.append({
                "svg": Path(prefix + ".svg").read_bytes(),
                "metrics": Path(prefix + ".metrics.json").read_bytes(),
                "result": result,
            })
        out[name] = artifacts
    return out


# ------------------------------------------------- 1. geometry point oracle

def _random_convex_boundary(rng) -> ConvexPolygon:
    pts = rng.uniform(-5, 5, size=(12, 2))
    hull = pts[_convex_hull_indices(pts)]
    return ConvexPolygon(hull)


def _convex_hull_indices(pts):
    from scipy.spatial import ConvexHull
    return ConvexHull(pts).vertices


def _sample_inside(boundary: ConvexPolygon, count: int, rng) -> np.ndarray:
    x0, y0, x1, y1 = boundary.aabb
    v = boundary.vertices
    w = np.roll(v, -1, axis=0)
    e = w - v
    out = []
    need = count
    while need > 0:
        cand = np.column_stack([
            rng.uniform(x0, x1, size=2 * need),
            rng.uniform(y0, y1, size=2 * need),
        ])
        d = cand[:, None, :] - v[None, :, :]
        cross = e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0]
        inside = np.all(cross > 1e-12, axis=1)
        got = cand[inside][:need]
        out.append(got)
        need -= len(got)
    return np.vstack(out)


def _cells_containing(diagram, pts):
    """For each point, the index of the cell whose polygon contains it (-1 if none)."""
    owner = np.full(len(pts), -1, dtype=int)
    for i, c in enumerate(diagram.cells):
        if c.polygon is None:
            continue
        v = c.polygon.vertices
        w = np.roll(v, -1, axis=0)
        e = w - v
        d = pts[:, None, :] - v[None, :, :]
        cross = e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0]
        inside = np.all(cross >= 0.0, axis=1)
        owner[inside & (owner < 0)] = i
    return owner


def test_criterion_01_power_diagram_point_oracle():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        boundary = _random_convex_boundary(rng)
        n = int(rng.integers(2, 13))
        sites = np.array([boundary.sample_point(rng) for _ in range(n)])
        spread = boundary.diagonal
        weights = rng.uniform(0.0, (0.05 * spread) ** 2, size=n)
        diagram = power_diagram(sites, boundary, weights=weights, scale=spread)
        pts = _sample_inside(boundary, 10_000, rng)
        power = ((pts[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2) - weights[None, :]
        nearest = np.argmin(power, axis=1)
        owner = _cells_containing(diagram, pts)
        mismatch = np.mean((owner >= 0) & (owner != nearest)) + np.mean(owner < 0)
        worst = max(worst, float(mismatch))
    elapsed = time.time() - t0
    emit(1, "power-diagram point oracle",
         worst < 1e-3 and elapsed < 30.0,
         f"worst mismatch {worst:.2e}, {elapsed:.1f}s")


# ------------------------------------------------- 2. optimal matching oracle

def test_criterion_02_matching_equals_bruteforce():
    rng = np.random.default_rng(202)
    cvts = dict(zip(range(2, 8), build_cvt([(make_boundary("square", 10.0), n, n)
                                            for n in range(2, 8)])))
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        cvt = cvts[n]
        centroids = np.array([c.polygon.centroid for c in cvt.cells])
        raw = rng.uniform(-3, 3, size=(n, 2))
        pos = ProjectedPositions([f"n{i}" for i in range(n)], raw)
        a = match_assignment(pos, cvt)
        pts = fit_points_in_polygon(raw, cvt.boundary)
        got = sum(((pts[i] - centroids[a.mapping[f"n{i}"]]) ** 2).sum()
                  for i in range(n))
        best = min(
            sum(((pts[i] - centroids[perm[i]]) ** 2).sum() for i in range(n))
            for perm in itertools.permutations(range(n))
        )
        if not math.isclose(got, best, rel_tol=1e-9, abs_tol=1e-12):
            failures += 1
    emit(2, "assignment matches brute-force optimum", failures == 0,
         f"{failures}/100 instances off-optimal")


# ----------------------------------- 3. partition and containment invariants

def test_criterion_03_partition_and_containment(instrumented_runs):
    worst_rel = 0.0
    violations = 0
    iters = 0
    for name in ALL_DATASETS:
        for rec in instrumented_runs[name]:
            worst_rel = max(worst_rel, rec.worst_partition_rel)
            violations += rec.containment_violations
            iters += rec.iterations_checked
    emit(3, "area partition and vertex containment",
         worst_rel < 1e-6 and violations == 0,
         f"worst partition rel {worst_rel:.2e}, {violations} containment "
         f"violations over {iters} checked iterations")


# --------------------------------------------------- 4. initialization trend

CRITERION4_CONFIGS = [
    ("m_n", {"leaves": 20, "density": 0.6}, 1),
    ("two_level", {"leaves": 40, "parents": 2, "chord": 0.8, "density": 0.05}, 5),
]


def _init_fractions(kind, params, gen_seed):
    tree = load_tree(gen_synthetic(kind, params, gen_seed))
    constraints = extract_level_constraints(tree, "cosine")
    total = sum(len(v) for v in constraints.values())
    boundary = make_boundary("circle", 1000.0)
    fractions = {}
    for strategy in ("match_swap", "random_cvt", "proj_scale"):
        vals = []
        for seed in SEEDS:
            init_preserved: dict[int, int] = {}
            build_treemap(tree, constraints, boundary, strategy, "cosine",
                          seed, OptimizerConfig(), init_preserved=init_preserved,
                          optimize=False)
            vals.append(sum(init_preserved.values()) / total)
        fractions[strategy] = float(np.mean(vals))
    return fractions


def test_criterion_04_initialization_trend():
    t0 = time.time()
    per_dataset = [_init_fractions(*cfg) for cfg in CRITERION4_CONFIGS]
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    detail = []
    for (kind, _, _), fractions in zip(CRITERION4_CONFIGS, per_dataset):
        ratio_rc = fractions["match_swap"] / fractions["random_cvt"]
        ratio_ps = fractions["match_swap"] / fractions["proj_scale"]
        ok = ok and ratio_rc >= 1.5 and ratio_ps >= 1.2
        detail.append(f"{kind}: vs random-CVT {ratio_rc:.2f}x (need 1.5x), "
                      f"vs proj+scale {ratio_ps:.2f}x (need 1.2x)")
    emit(4, "match+swap init beats baselines", ok,
         "; ".join(detail) + f"; {elapsed:.0f}s")


# ----------------------------------------- 5. optimization non-degradation

def test_criterion_05_final_preserved_vs_init(instrumented_runs):
    detail = []
    ok = True
    for name in SYNTHETIC:
        records = instrumented_runs[name]
        final = np.mean([r.final_preserved for r in records])
        init = np.mean([r.init_preserved for r in records])
        ratio = final / max(init, 1e-12)
        detail.append(f"{name} {ratio:.2f}")
        ok = ok and ratio >= 0.85
    emit(5, "optimization keeps >=0.85x of init-preserved constraints", ok,
         ", ".join(detail))


# ------------------------------------------------------- 6. area convergence

def test_criterion_06_area_error(instrumented_runs):
    detail = []
    ok = True
    for name in SYNTHETIC:
        worst = max(r.area_error for r in instrumented_runs[name])
        detail.append(f"{name} {worst:.3f}")
        ok = ok and worst <= 0.05
    emit(6, "mean relative area error <= 0.05", ok, ", ".join(detail))


# ----------------------------------------------------- 7. swap monotonicity

def test_criterion_07_swap_monotonicity():
    rng = np.random.default_rng(707)
    cvt = build_cvt([(make_boundary("square", 1.0), 9, 7)])[0]
    ids = [f"n{i}" for i in range(9)]
    adjacency = cvt_adjacency(cvt)
    regressions = 0
    for _ in range(200):
        n_cons = int(rng.integers(3, 10))
        cons = []
        seen = set()
        while len(cons) < n_cons:
            i, j = rng.choice(9, size=2, replace=False)
            a, b = sorted((ids[int(i)], ids[int(j)]))
            if (a, b) in seen:
                continue
            seen.add((a, b))
            cons.append(Constraint(a=a, b=b,
                                   similarity=float(rng.uniform(0.05, 1.0)),
                                   bin=0, level=1))
        perm = rng.permutation(9)
        assignment = Assignment({ids[i]: int(perm[i]) for i in range(9)},
                                "match_swap")
        trace: list[int] = []
        out = swap_improve(assignment, cons, cvt, trace=trace)
        if trace != sorted(trace):
            regressions += 1
        if realized_count(out, cons, adjacency) != trace[-1]:
            regressions += 1
    emit(7, "swap search never decreases realized constraints",
         regressions == 0, f"{regressions} regressions in 200 assignments")


# --------------------------------------------------- 8. A* equals BFS oracle

def _bfs(adj, start, goal):
    from collections import deque
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


def test_criterion_08_astar_equals_bfs():
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        pts = rng.uniform(0, 100, size=(n, 2))
        tri = Delaunay(pts)
        ids = [f"v{i}" for i in range(n)]
        adj = {nid: set() for nid in ids}
        for simplex in tri.simplices:
            for a, b in itertools.combinations(simplex, 2):
                adj[ids[a]].add(ids[b])
                adj[ids[b]].add(ids[a])
        adj = {k: sorted(v) for k, v in adj.items()}
        centroids = {ids[i]: pts[i] for i in range(n)}
        for _ in range(5):
            i, j = rng.integers(0, n, size=2)
            a, b = ids[int(i)], ids[int(j)]
            if astar_hops(adj, centroids, a, b) != _bfs(adj, a, b):
                mismatches += 1
    emit(8, "A* hop counts equal BFS on planar graphs", mismatches == 0,
         f"{mismatches} mismatches over 100 graphs x 5 queries")


# -------------------------------------- 9. zero-constraint exact reduction

def _lloyd_growth_mirror(tree, boundary, seed):
    """Re-derive the whole treemap using the constraint-free reference path."""
    boundaries = {tree.root: boundary}
    scale = boundary.diagonal
    result = {}
    for level, groups in build_level_queue(tree):
        diagrams = []
        for gi, (parent, children) in enumerate(groups):
            child_seed = _derived_seed(seed, level, gi)
            cvt = build_cvt([(boundaries[parent], len(children), child_seed)])[0]
            diagrams.append(init_diagram(
                tree, parent, children, boundaries[parent], "match_swap", [],
                "cosine", child_seed, level, scale, cvt,
            ))
        pure_lloyd_growth(diagrams, OptimizerConfig(),
                          rng=np.random.default_rng([seed, level]))
        result[level] = diagrams
        for d in diagrams:
            for c in d.cells:
                if tree.nodes[c.node_id].children:
                    boundaries[c.node_id] = c.polygon
    return result


def test_criterion_09_zero_constraint_bit_identity():
    identical = True
    detail = []
    for name in ("m_n", "two_level"):
        tree = load_tree(str(DATASET_DIR / f"{name}.json"))
        boundary = make_boundary("circle", 1000.0)
        optimized = build_treemap(tree, {}, boundary, "match_swap", "cosine",
                                  0, OptimizerConfig())
        reference = _lloyd_growth_mirror(tree, boundary, 0)
        same = True
        for level, diagrams in optimized.items():
            for d, rd in zip(diagrams, reference[level]):
                for c, rc in zip(d.cells, rd.cells):
                    if not (np.array_equal(c.site, rc.site)
                            and c.weight == rc.weight):
                        same = False
        identical = identical and same
        detail.append(f"{name} {'identical' if same else 'DIVERGED'}")
    emit(9, "constraint-free run equals pure Lloyd+growth bit-for-bit",
         identical, ", ".join(detail))


# ------------------------------------------------------- 10. determinism

def test_criterion_10_byte_identical_outputs(shipped_run_pairs):
    ok = True
    detail = []
    for name in ALL_DATASETS:
        a, b = shipped_run_pairs[name]
        same = a["svg"] == b["svg"] and a["metrics"] == b["metrics"]
        ok = ok and same
        detail.append(f"{name} {'ok' if same else 'DIFFERS'}")
    emit(10, "repeat runs are byte-identical", ok, ", ".join(detail))


# ------------------------------------------------- 11. rendering structure

def test_criterion_11_svg_structure(shipped_run_pairs):
    ok = True
    detail = []
    for name in ALL_DATASETS:
        artifact = shipped_run_pairs[name][0]
        svg = artifact["svg"].decode("utf-8")
        result = artifact["result"]
        try:
            ET.fromstring(svg)
            wellformed = True
        except ET.ParseError:
            wellformed = False
        glyphs = svg.count('class="glyph-')
        dashed = svg.count('class="unrealized-')
        preserved = result.report.constraints_preserved
        unrealized = result.report.constraints_total - preserved
        good = (wellformed and glyphs == 2 * preserved and dashed == unrealized)
        ok = ok and good
        detail.append(
            f"{name} glyphs {glyphs}/{2 * preserved} dashed {dashed}/{unrealized}")
    emit(11, "SVG well-formed with correct glyph/dash counts", ok,
         ", ".join(detail))
