"""Initial cell-to-node assignment: MDS projection, CVT construction,
minimum-cost matching, constraint-driven swapping, plus the two baselines.

The matching is solved here in pure Python, so the package needs no scipy."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolygon, Diagram, cell_neighbors, lloyd_step, power_diagram
from .similarity import Constraint, SimilarityMatrix

STRATEGIES = ("match_swap", "random_cvt", "proj_scale")


@dataclass
class ProjectedPositions:
    node_ids: list[str]
    points: np.ndarray  # (n, 2)


@dataclass
class Assignment:
    mapping: dict[str, int]  # node id -> CVT cell index
    strategy: str


def mds_project(matrix: SimilarityMatrix) -> ProjectedPositions:
    """Classical MDS on dissimilarity 1 - s, keeping the top 2 eigenpairs."""
    n = len(matrix.node_ids)
    if n == 1:
        return ProjectedPositions(list(matrix.node_ids), np.zeros((1, 2)))
    delta = 1.0 - matrix.values
    np.fill_diagonal(delta, 0.0)
    d2 = delta ** 2
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j @ d2 @ j
    b = 0.5 * (b + b.T)
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1][:2]
    pts = np.zeros((n, 2))
    for col, idx in enumerate(order):
        lam = evals[idx]
        if lam <= 0.0:
            continue
        vec = evecs[:, idx]
        # deterministic sign: largest-magnitude entry positive
        k = int(np.argmax(np.abs(vec)))
        if vec[k] < 0.0:
            vec = -vec
        pts[:, col] = vec * np.sqrt(lam)
    return ProjectedPositions(list(matrix.node_ids), pts)


# Lloyd steps after which a CVT stops even if it has not converged.
CVT_MAX_STEPS = 500


def build_cvt(parents: list[tuple[ConvexPolygon, int, int]]) -> list[Diagram]:
    """One CVT per (boundary, cell count, seed) of a level's parents: random
    equal-weight sites relaxed with Lloyd until convergence.

    Each CVT draws its start sites from its own default_rng(seed). Every
    unconverged CVT takes each step in one lloyd_step call; a CVT leaves at
    the step whose largest site displacement is below 1e-4 of its scale, or
    after CVT_MAX_STEPS steps. So each CVT is the one a one-entry level gives.
    """
    cvts = []
    for boundary, n, seed in parents:
        rng = np.random.default_rng(seed)
        sites = np.empty((n, 2))
        count = 0
        while count < n:
            p = boundary.sample_point(rng)
            gap = p - sites[:count]
            if np.all(np.hypot(gap[:, 0], gap[:, 1]) > 1e-9 * boundary.diagonal):
                sites[count] = p
                count += 1
        cvts.append(power_diagram(sites, boundary, node_ids=[f"cvt{i}" for i in range(n)]))
    active = list(cvts)
    for _ in range(CVT_MAX_STEPS):
        if not active:
            break
        before = [cvt.sites for cvt in active]
        lloyd_step(active)
        active = [cvt for cvt, b in zip(active, before)
                  if not np.hypot(*(cvt.sites - b).T).max() < 1e-4 * cvt.scale]
    return cvts


FIT_MARGIN = 0.9


def fit_points_in_polygon(points: np.ndarray, boundary: ConvexPolygon) -> np.ndarray:
    """Uniformly scale + translate points so they fit inside the boundary.

    The cloud's bounding box is centered on the boundary centroid and scaled
    by FIT_MARGIN times the least ray exit, at -1e-9 diagonal, toward its four
    corners. Every point lies in the box the corners span, so inside too.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    center = boundary.centroid
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    spread = pts - 0.5 * (lo + hi)
    if not spread.any():
        return np.tile(center, (len(pts), 1))
    half = 0.5 * (hi - lo)
    corners = np.array([[sx, sy] for sx in (-1, 1) for sy in (-1, 1)]) * half
    tol = -1e-9 * boundary.diagonal
    scale = FIT_MARGIN * min(boundary.ray_exit(center, c, tol) for c in corners)
    return center + scale * spread


def match_assignment(positions: ProjectedPositions, cvt: Diagram) -> Assignment:
    """Exact minimum-cost bijection of nodes to CVT cells (squared distances)."""
    n = len(positions.node_ids)
    if n != len(cvt.node_ids):
        raise ValueError(f"position/cell count mismatch: {n} vs {len(cvt.node_ids)}")
    pts = fit_points_in_polygon(positions.points, cvt.boundary)
    centroids = np.where((cvt.lengths > 0)[:, None], cvt.centroids, cvt.sites)
    diff = pts[:, None, :] - centroids[None, :, :]
    cost = diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2
    mapping = dict(zip(positions.node_ids, _min_cost_assignment(cost.tolist())))
    return Assignment(mapping=mapping, strategy="match_swap")


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square matrix.

    Shortest augmenting paths (D. F. Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 52(4), 2016), step for step as
    scipy.optimize.linear_sum_assignment runs them: the same scan order, ties
    and float operations, so the same columns, ties included.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # a reversed scan list makes a constant matrix's answer the identity
        remaining = list(range(n - 1, -1, -1))
        spc = [float("inf")] * n
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            lowest, index = float("inf"), -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                shortest = spc[j]
                if r < shortest:
                    path[j] = i
                    spc[j] = shortest = r
                # the last of equal lowest costs with no row wins, else the first
                if shortest < lowest or (shortest == lowest and row4col[j] == -1):
                    lowest, index = shortest, it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def cvt_adjacency(cvt: Diagram) -> set[tuple[int, int]]:
    index = {node: i for i, node in enumerate(cvt.node_ids)}
    return {tuple(sorted((index[a], index[b]))) for a, b in cell_neighbors([cvt])}


def realized_count(assignment: Assignment, constraints: list[Constraint], adjacency: set[tuple[int, int]]) -> int:
    count = 0
    for c in constraints:
        if c.a in assignment.mapping and c.b in assignment.mapping:
            i, j = assignment.mapping[c.a], assignment.mapping[c.b]
            if (min(i, j), max(i, j)) in adjacency:
                count += 1
    return count


def swap_improve(
    assignment: Assignment,
    constraints: list[Constraint],
    cvt: Diagram,
    max_passes: int = 20,
    trace: list | None = None,
) -> Assignment:
    """Greedy pairwise swaps that strictly increase realized constraints.

    Passes repeat until a full pass makes no swap or `max_passes` elapse; the
    realized count never decreases. A trial swap of u and v rescores only the
    constraints that name u or v, each once, so its count equals
    realized_count's on the swapped mapping.
    """
    adjacency = cvt_adjacency(cvt)
    mapping = dict(assignment.mapping)
    node_ids = sorted(mapping)
    ends = [(c.a, c.b) for c in constraints if c.a in mapping and c.b in mapping]
    incident: dict[str, set[int]] = {u: set() for u in node_ids}
    for k, (a, b) in enumerate(ends):
        incident[a].add(k)
        incident[b].add(k)

    def realized(ks) -> int:
        count = 0
        for k in ks:
            i, j = mapping[ends[k][0]], mapping[ends[k][1]]
            count += (min(i, j), max(i, j)) in adjacency
        return count

    current = realized(range(len(ends)))
    if trace is not None:
        trace.append(current)
    for _ in range(max_passes):
        swapped = False
        for i in range(len(node_ids)):
            for j in range(i + 1, len(node_ids)):
                u, v = node_ids[i], node_ids[j]
                touched = incident[u] | incident[v]
                before = realized(touched)
                mapping[u], mapping[v] = mapping[v], mapping[u]
                candidate = current - before + realized(touched)
                if candidate > current:
                    current = candidate
                    swapped = True
                    if trace is not None:
                        trace.append(current)
                else:
                    mapping[u], mapping[v] = mapping[v], mapping[u]
        if not swapped:
            break
    return Assignment(mapping=mapping, strategy="match_swap")


def proj_scale_init(positions: ProjectedPositions, boundary: ConvexPolygon) -> np.ndarray:
    """Baseline: MDS positions scaled into the parent (fit_points_in_polygon),
    no matching."""
    return fit_points_in_polygon(positions.points, boundary)


def random_assignment(node_ids: list[str], cvt: Diagram, seed: int = 0) -> Assignment:
    if len(node_ids) != len(cvt.node_ids):
        raise ValueError(f"node/cell count mismatch: {len(node_ids)} vs {len(cvt.node_ids)}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(node_ids))
    return Assignment(
        mapping={nid: int(perm[i]) for i, nid in enumerate(node_ids)},
        strategy="random_cvt",
    )
