"""Additively weighted power-diagram kernel on convex boundaries.

Cells are computed by sequential half-plane clipping against radical-axis
bisectors, which are straight lines for additive weights: O(n^2) clips per
diagram of n cells. Diagrams of BATCH_MIN_CELLS cells or more run these clips
as one set of numpy operations per bisector over all cells at once; smaller
diagrams clip cell by cell. Either way every polygon is bit-identical to
clipping and snapping each cell on its own (see `recompute`). Neighbors are
found by testing only the edge pairs whose bounding boxes overlap, found by a
sort-and-sweep, not all E x E edge pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GeometryError(ValueError):
    """Degenerate polygon or invalid site configuration."""


def _signed_area(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    core = float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]))
    wrap = float(x[-1] * y[0] - x[0] * y[-1])
    return 0.5 * (core + wrap)


def _clip_array(v: np.ndarray, normal, offset: float):
    """Clip a CCW convex vertex ring by {x : normal . x <= offset}.

    Returns the clipped vertex array (possibly the input object) or None.
    Relies on convexity: the inside vertices form one contiguous arc.
    """
    d = v @ np.asarray(normal, dtype=float) - offset
    flags = (d <= 0.0).tolist()
    count = flags.count(True)
    n = len(v)
    if count == n:
        return v
    if count == 0:
        return None
    # first inside vertex whose predecessor is outside
    starts = [i for i in range(n) if flags[i] and not flags[i - 1]]
    if len(starts) != 1:
        return _clip_array_generic(v, d, np.asarray(flags))
    start = starts[0]
    out = np.empty((count + 2, 2))
    end = start + count
    if end <= n:
        out[1:count + 1] = v[start:end]
    else:
        head = n - start
        out[1:head + 1] = v[start:]
        out[head + 1:count + 1] = v[:end - n]
    i_in = (start - 1) % n                      # outside -> inside edge
    t_in = d[i_in] / (d[i_in] - d[start])
    out[0] = v[i_in] + t_in * (v[start] - v[i_in])
    i_out = (end - 1) % n                       # inside -> outside edge
    j_out = (i_out + 1) % n
    t_out = d[i_out] / (d[i_out] - d[j_out])
    out[count + 1] = v[i_out] + t_out * (v[j_out] - v[i_out])
    return out


def _clip_array_generic(v: np.ndarray, d: np.ndarray, inside: np.ndarray):
    """Sutherland-Hodgman fallback for numerically non-contiguous inside runs."""
    out = []
    n = len(v)
    for i in range(n):
        j = (i + 1) % n
        if inside[i]:
            out.append(v[i])
        if inside[i] != inside[j]:
            t = d[i] / (d[i] - d[j])
            out.append(v[i] + t * (v[j] - v[i]))
    if len(out) < 3:
        return None
    return np.asarray(out)


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Counter-clockwise convex polygon.

    Immutable: the vertex array is a read-only copy, so the cached measures
    below cannot go stale.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise GeometryError("polygon needs at least 3 two-dimensional vertices")
        if _signed_area(v) < 0.0:
            v = v[::-1].copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        diag = self.diagonal
        if self.area <= 1e-12 * diag * diag:
            raise GeometryError("polygon area is degenerate")

    @cached_property
    def area(self) -> float:
        return _signed_area(self.vertices)

    @cached_property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.concatenate((v[1:], v[:1]))
        cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        a = 0.5 * np.sum(cross)
        cx = np.sum((v[:, 0] + w[:, 0]) * cross) / (6.0 * a)
        cy = np.sum((v[:, 1] + w[:, 1]) * cross) / (6.0 * a)
        c = np.array([cx, cy])
        c.flags.writeable = False
        return c

    @cached_property
    def aabb(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return (
            float(v[:, 0].min()),
            float(v[:, 1].min()),
            float(v[:, 0].max()),
            float(v[:, 1].max()),
        )

    @cached_property
    def diagonal(self) -> float:
        x0, y0, x1, y1 = self.aabb
        return math.hypot(x1 - x0, y1 - y0)

    def contains(self, point: np.ndarray, tol: float = 0.0) -> bool:
        """True if point is inside, with `tol` slack in signed edge distance.

        Negative tol demands the point be strictly inside by |tol|.
        """
        v = self.vertices
        e = np.concatenate((v[1:], v[:1])) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        d = point - v
        cross = e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0]
        return bool(np.all(cross >= -tol * lengths))

    def clip_halfplane(self, normal: np.ndarray, offset: float):
        """Intersect with the half-plane {x : normal . x <= offset}.

        Returns a new ConvexPolygon, or None when the intersection is empty
        or degenerate.
        """
        clipped = _clip_array(self.vertices, normal, offset)
        if clipped is self.vertices:
            return self
        return _polygon_or_none(clipped, self.diagonal)

    def inset(self, margin: float):
        """Shrink by moving each edge inward by `margin`; None if it vanishes."""
        poly = self
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        for a, b in zip(v, w):
            e = b - a
            ln = math.hypot(e[0], e[1])
            if ln == 0.0:
                continue
            outward = np.array([e[1], -e[0]]) / ln
            poly = poly.clip_halfplane(outward, float(outward @ a) - margin)
            if poly is None:
                return None
        return poly

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform interior point via rejection sampling from the bounding box."""
        x0, y0, x1, y1 = self.aabb
        tol = -1e-9 * self.diagonal
        while True:
            p = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
            if self.contains(p, tol=tol):
                return p


def _dedupe_ring(pts: np.ndarray, ref_diag: float):
    """Drop consecutive near-duplicate vertices introduced by clipping."""
    eps = 1e-12 * max(ref_diag, 1e-300)
    nxt = np.concatenate((pts[1:], pts[:1]))
    gap = np.hypot(pts[:, 0] - nxt[:, 0], pts[:, 1] - nxt[:, 1])
    keep = gap > eps
    if keep.all():
        return pts
    pts = pts[keep]
    return pts if len(pts) >= 3 else None


def _polygon_or_none(points, ref_diag: float):
    if points is None or len(points) < 3:
        return None
    pts = _dedupe_ring(np.asarray(points, dtype=float), ref_diag)
    if pts is None:
        return None
    if abs(_signed_area(pts)) <= 1e-14 * ref_diag * ref_diag:
        return None
    return ConvexPolygon(pts)


def polygon_measures(polygon: ConvexPolygon):
    """(area, centroid, aabb) of a convex polygon."""
    return polygon.area, polygon.centroid, polygon.aabb


@dataclass(eq=False)
class Cell:
    node_id: str
    site: np.ndarray
    weight: float = 0.0
    target_area_fraction: float = 1.0
    polygon: ConvexPolygon | None = None

    @property
    def area(self) -> float:
        return self.polygon.area if self.polygon is not None else 0.0

    @property
    def equiv_radius(self) -> float:
        return math.sqrt(max(self.area, 0.0) / math.pi)


@dataclass(eq=False)
class Diagram:
    boundary: ConvexPolygon
    cells: list[Cell]
    level: int = 0
    parent_node: str | None = None
    scale: float = field(default=0.0)

    def __post_init__(self):
        if self.scale <= 0.0:
            self.scale = self.boundary.diagonal

    def cell_by_id(self, node_id: str) -> Cell:
        for c in self.cells:
            if c.node_id == node_id:
                return c
        raise KeyError(node_id)

    @property
    def sites(self) -> np.ndarray:
        return np.array([c.site for c in self.cells])


# Diagrams with at least this many cells clip all cells together; smaller ones
# clip cell by cell, which costs less numpy setup. Measured per recompute on
# Lloyd-relaxed diagrams in a 64-gon, a square and a hexagon (best of 15
# interleaved rounds, 2-CPU x86-64 VM): batching was 2-14% slower at 8 cells,
# 6-13% faster at 10 and 45-56% faster at 30.
BATCH_MIN_CELLS = 10


def _power_cell_array(i: int, sites: np.ndarray, weights: np.ndarray,
                      boundary: ConvexPolygon, sq: np.ndarray | None = None):
    if sq is None:
        # per-site p @ p; BLAS dot rounds differently from elementwise sums,
        # so cached and uncached paths must share the same kernel
        sq = np.array([p @ p for p in sites])
    return _clip_from(boundary.vertices, i, 0, sites, weights, sq)


def _clip_from(v: np.ndarray, i: int, first: int, sites: np.ndarray,
               weights: np.ndarray, sq: np.ndarray):
    """Clip cell i's ring v against its bisectors with sites first, first+1, ..."""
    pi = sites[i]
    wi = weights[i]
    for j in range(first, len(sites)):
        if j == i:
            continue
        normal = 2.0 * (sites[j] - pi)
        offset = float(sq[j] - sq[i]) - weights[j] + wi
        v = _clip_array(v, normal, offset)
        if v is None:
            return None
    return v


def _power_cells_batched(sites: np.ndarray, weights: np.ndarray,
                         boundary: ConvexPolygon, sq: np.ndarray) -> list:
    """Every cell's ring, bit-identical to _power_cell_array cell by cell.

    Bisector j clips all live cells at once. Rings sit in a zero-padded
    (cells, width, 2) stack, and each step reads only the columns up to the
    longest live ring; an emptied ring gets length 0. Vertex distances come
    from a stacked np.matmul, which runs the same BLAS kernel per ring as
    _clip_array's `v @ normal`; an elementwise x * n0 + y * n1 rounds
    differently. Normals, offsets, crossing parameters and crossing points
    use _clip_array's elementwise formulas. Cell j's own half-plane has a
    zero normal and offset, so it keeps ring j whole, as skipping it would.
    A ring whose inside run is not contiguous finishes on the per-cell loop
    from bisector j on.
    """
    n = len(sites)
    bv = boundary.vertices
    capacity = len(bv) + n          # a clip adds at most one vertex
    rings = np.zeros((n, capacity, 2))
    rings[:, :len(bv)] = bv
    lengths = np.full(n, len(bv))
    cols = np.arange(capacity)
    handed_off: dict[int, np.ndarray | None] = {}
    # [j, i]: the half-plane of cell i against site j, as _clip_from builds it
    normals = 2.0 * (sites[:, None, :] - sites[None, :, :])
    offsets = (sq[:, None] - sq[None, :]) - weights[:, None] + weights[None, :]
    for j in range(n):
        width = int(lengths.max())
        if width == 0:
            break
        v = rings[:, :width]
        d = np.matmul(v, normals[j][:, :, None])[:, :, 0] - offsets[j][:, None]
        inside = (d <= 0.0) & (cols[:width] < lengths[:, None])
        count = inside.sum(axis=1)
        lengths[count == 0] = 0
        cut = np.flatnonzero((count > 0) & (count < lengths))
        if len(cut) == 0:
            continue
        v, d, inside, m, count = v[cut], d[cut], inside[cut], lengths[cut], count[cut]
        r = np.arange(len(cut))
        # an inside vertex whose cyclic predecessor is outside starts a run
        prev = np.empty_like(inside)
        prev[:, 1:] = inside[:, :-1]
        prev[:, 0] = inside[r, m - 1]
        starts = inside & ~prev
        single = starts.sum(axis=1) == 1
        if not single.all():
            for row in np.flatnonzero(~single):
                i = int(cut[row])
                handed_off[i] = _clip_from(v[row, :m[row]], i, j, sites, weights, sq)
                lengths[i] = 0
            cut, v, d, m, count, starts = (
                a[single] for a in (cut, v, d, m, count, starts))
            if len(cut) == 0:
                continue
            r = np.arange(len(cut))
        start = starts.argmax(axis=1)
        # (i_in, start, i_out, j_out): the two edges that cross the bisector
        ends = start[:, None] + np.array([-1, 0, -1, 0])
        ends[:, 2:] += count[:, None]
        ends %= m[:, None]
        de = d[r[:, None], ends]
        ve = v[r[:, None], ends]
        t = de[:, 0::2] / (de[:, 0::2] - de[:, 1::2])
        crossing = ve[:, 0::2] + t[:, :, None] * (ve[:, 1::2] - ve[:, 0::2])
        new_m = count + 2
        new_width = max(width, int(new_m.max()))
        k = cols[:new_width]
        ring = v[r[:, None], (start[:, None] + k - 1) % m[:, None]]
        ring[r, 0] = crossing[:, 0]
        ring[r, count + 1] = crossing[:, 1]
        ring[k >= new_m[:, None]] = 0.0
        rings[cut, :new_width] = ring
        lengths[cut] = new_m
    out = [rings[i, :m] if m else None for i, m in enumerate(lengths)]
    for i, v in handed_off.items():
        out[i] = v
    return out


def _snap_to_boundary(vertices: np.ndarray, boundary: ConvexPolygon, tol: float) -> np.ndarray:
    """Project cell vertices lying within tol of a boundary edge onto it.

    Makes collinearity tests across sibling diagrams exact after snapping.
    Each vertex is snapped on its own, so snapping all rings of a diagram
    together gives the same bits as snapping them one by one. Only vertices
    within tol of some edge's supporting line reach the (vertices, edges)
    projection arrays; the slack covers rounding in both distances.
    """
    bv = boundary.vertices
    e = np.concatenate((bv[1:], bv[:1])) - bv
    ln2 = np.einsum("ij,ij->i", e, e)
    ln2 = np.where(ln2 == 0.0, 1.0, ln2)
    slack = 64.0 * np.finfo(float).eps * float(np.abs(bv).max())
    height = vertices @ np.stack((-e[:, 1], e[:, 0])) - (e[:, 0] * bv[:, 1] - e[:, 1] * bv[:, 0])
    near = np.flatnonzero((np.abs(height) <= (tol + slack) * np.sqrt(ln2)).any(axis=1))
    if len(near) == 0:
        return vertices
    p = vertices[near]
    rel = p[:, None, :] - bv[None, :, :]                   # (V, E, 2)
    t = np.clip(np.einsum("vej,ej->ve", rel, e) / ln2, 0.0, 1.0)
    proj = bv[None, :, :] + t[:, :, None] * e[None, :, :]
    dist = np.hypot(p[:, None, 0] - proj[:, :, 0],
                    p[:, None, 1] - proj[:, :, 1])
    best = np.argmin(dist, axis=1)
    rows = np.arange(len(p))
    close = dist[rows, best] <= tol
    if not close.any():
        return vertices
    out = vertices.copy()
    out[near[close]] = proj[rows[close], best[close]]
    return out


def recompute(diagram: Diagram) -> Diagram:
    """Refresh every cell polygon from current sites and weights (in place).

    Diagrams of BATCH_MIN_CELLS cells or more clip all cells together
    (_power_cells_batched); smaller ones clip cell by cell
    (_power_cell_array). The rings of all cells are then snapped to the
    boundary in one call. Contract: every polygon, and which cells are empty,
    is bit-identical to running _power_cell_array and _snap_to_boundary on
    each cell alone, so the choice of path never changes a layout.
    """
    sites = np.array([c.site for c in diagram.cells])
    weights = np.array([c.weight for c in diagram.cells])
    sq = np.array([p @ p for p in sites])
    if len(sites) < BATCH_MIN_CELLS:
        rings = [_power_cell_array(i, sites, weights, diagram.boundary, sq)
                 for i in range(len(sites))]
    else:
        rings = _power_cells_batched(sites, weights, diagram.boundary, sq)
    kept = [v for v in rings if v is not None]
    if kept:
        snapped = _snap_to_boundary(np.concatenate(kept), diagram.boundary,
                                    1e-9 * diagram.scale)
        parts = iter(np.split(snapped, np.cumsum([len(v) for v in kept[:-1]])))
        rings = [None if v is None else next(parts) for v in rings]
    for cell, v in zip(diagram.cells, rings):
        cell.polygon = _polygon_or_none(v, diagram.scale)
    return diagram


def power_diagram(
    sites,
    boundary: ConvexPolygon,
    weights=None,
    node_ids=None,
    targets=None,
    level: int = 0,
    parent_node: str | None = None,
    scale: float = 0.0,
) -> Diagram:
    """Build the additively weighted power diagram of `sites` clipped to `boundary`."""
    pts = np.asarray(sites, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 1:
        raise GeometryError("need at least one site")
    w = np.zeros(n) if weights is None else np.asarray(weights, dtype=float)
    ids = [f"cell{i}" for i in range(n)] if node_ids is None else list(node_ids)
    t = np.full(n, 1.0 / n) if targets is None else np.asarray(targets, dtype=float)
    ref = scale if scale > 0.0 else boundary.diagonal
    for i in range(n):
        if not boundary.contains(pts[i], tol=-1e-12 * ref):
            raise GeometryError(f"site {ids[i]} lies outside the boundary")
        for j in range(i + 1, n):
            if math.hypot(*(pts[i] - pts[j])) <= 1e-12 * ref:
                raise GeometryError(f"sites {ids[i]} and {ids[j]} coincide")
    cells = [
        Cell(node_id=ids[i], site=pts[i].copy(), weight=float(w[i]), target_area_fraction=float(t[i]))
        for i in range(n)
    ]
    diagram = Diagram(boundary=boundary, cells=cells, level=level, parent_node=parent_node, scale=ref)
    return recompute(diagram)


def cell_neighbors(level_diagrams: list[Diagram]) -> dict:
    """Neighbor map over all cells of one level, across parent diagrams.

    Two cells are neighbors iff they own edges i < j such that both endpoints
    of j lie within tol = 1e-6 * scale of i's supporting line and the part of
    j projected onto i is longer than tol. Returns
    {(id_a, id_b): [(p0, p1, length), ...]} with id_a < id_b, the segment
    p0 -> p1 lying on edge i; pairs appear in (i, j) order.

    Only edge pairs whose bounding boxes, each grown by tol, overlap are
    tested; they are found by a sort-and-sweep over x, then filtered on y.
    This loses no pair: |cross| is affine along j, so every point of j that
    projects inside i lies within tol of i, and an accepted pair has such a
    point. Cost is O(E log E + C) time and O(E + C) memory for E edges and
    C candidate pairs, instead of E x E.
    """
    scale = max(d.scale for d in level_diagrams)
    tol = 1e-6 * scale

    starts, ends, owners = [], [], []
    owner_index: dict[str, int] = {}
    for d in level_diagrams:
        for c in d.cells:
            if c.polygon is None:
                continue
            v = c.polygon.vertices
            starts.append(v)
            ends.append(np.roll(v, -1, axis=0))
            index = owner_index.setdefault(str(c.node_id), len(owner_index))
            owners.append(np.full(len(v), index))
    result: dict[tuple[str, str], list] = {}
    if not starts:
        return result
    A = np.vstack(starts)
    B = np.vstack(ends)
    owner = np.concatenate(owners)
    owner_ids = list(owner_index)
    U = B - A
    L = np.hypot(U[:, 0], U[:, 1])
    L = np.where(L == 0.0, 1e-300, L)
    Uh = U / L[:, None]

    # candidate pairs: grown bounding boxes overlap, owners differ
    box_lo = np.minimum(A, B) - tol
    box_hi = np.maximum(A, B) + tol
    order = np.argsort(box_lo[:, 0], kind="stable")
    x_lo = box_lo[order, 0]
    stop = np.searchsorted(x_lo, box_hi[order, 0], side="right")
    count = stop - np.arange(len(order)) - 1
    first = np.repeat(np.arange(len(order)), count)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    a = order[first]
    b = order[first + 1 + offset]
    keep = ((box_lo[a, 1] <= box_hi[b, 1]) & (box_lo[b, 1] <= box_hi[a, 1])
            & (owner[a] != owner[b]))
    a, b = a[keep], b[keep]
    i = np.minimum(a, b)
    j = np.maximum(a, b)
    rank = np.lexsort((j, i))
    i, j = i[rank], j[rank]

    # distances of segment j endpoints to the supporting line of segment i
    DA = A[j] - A[i]
    DB = B[j] - A[i]
    cross_a = np.abs(Uh[i, 0] * DA[:, 1] - Uh[i, 1] * DA[:, 0])
    cross_b = np.abs(Uh[i, 0] * DB[:, 1] - Uh[i, 1] * DB[:, 0])
    t0 = Uh[i, 0] * DA[:, 0] + Uh[i, 1] * DA[:, 1]
    t1 = Uh[i, 0] * DB[:, 0] + Uh[i, 1] * DB[:, 1]
    lo = np.maximum(0.0, np.minimum(t0, t1))
    hi = np.minimum(L[i], np.maximum(t0, t1))
    overlap = hi - lo
    hit = (cross_a <= tol) & (cross_b <= tol) & (overlap > tol)

    i, j, lo, hi, overlap = i[hit], j[hit], lo[hit], hi[hit], overlap[hit]
    P0 = A[i] + Uh[i] * lo[:, None]
    P1 = A[i] + Uh[i] * hi[:, None]
    for k in range(len(i)):
        key = tuple(sorted((owner_ids[owner[i[k]]], owner_ids[owner[j[k]]])))
        result.setdefault(key, []).append((P0[k], P1[k], float(overlap[k])))
    return result


def lloyd_step(diagram: Diagram, rng: np.random.Generator | None = None) -> Diagram:
    """Move every site to its cell centroid and recompute; reseed empty cells."""
    if rng is None:
        rng = np.random.default_rng(0)
    for cell in diagram.cells:
        if cell.polygon is not None:
            cell.site = cell.polygon.centroid
        else:
            cell.site = diagram.boundary.sample_point(rng)
    recompute(diagram)
    for _ in range(5):
        empties = [c for c in diagram.cells if c.polygon is None]
        if not empties:
            break
        for c in empties:
            c.site = diagram.boundary.sample_point(rng)
        recompute(diagram)
    return diagram


def _mean_pairwise_site_distance(diagram: Diagram) -> float:
    sites = diagram.sites
    n = len(sites)
    if n < 2:
        return diagram.scale
    diff = sites[:, None, :] - sites[None, :, :]
    d = np.hypot(diff[:, :, 0], diff[:, :, 1])
    return float(np.sum(d) / (n * (n - 1)))


def adapt_weights(diagram: Diagram, rate: float = 0.7, rng: np.random.Generator | None = None) -> Diagram:
    """One weight-adaptation step toward target areas (equivalent-radius error).

    w_i += rate * (t_i * A_boundary - A_i) / pi, then a uniform shift keeps the
    minimum weight at >= 0. Dominated (empty) cells get a one-off weight bump,
    then a reseed if still empty.
    """
    a_boundary = diagram.boundary.area
    for cell in diagram.cells:
        cell.weight += rate * (cell.target_area_fraction * a_boundary - cell.area) / math.pi
    min_w = min(c.weight for c in diagram.cells)
    if min_w < 0.0:
        for cell in diagram.cells:
            cell.weight -= min_w
    recompute(diagram)
    empties = [c for c in diagram.cells if c.polygon is None]
    if empties:
        bump = 0.1 * _mean_pairwise_site_distance(diagram) ** 2
        for c in empties:
            c.weight = max(0.0, c.weight) + bump
        recompute(diagram)
        still = [c for c in diagram.cells if c.polygon is None]
        if still:
            if rng is None:
                rng = np.random.default_rng(0)
            for c in still:
                c.site = diagram.boundary.sample_point(rng)
            recompute(diagram)
    return diagram


def regular_polygon(n: int, radius: float = 1.0, center=(0.0, 0.0)) -> ConvexPolygon:
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius + np.asarray(center, dtype=float)
    return ConvexPolygon(pts)


def square(side: float = 1.0, origin=(0.0, 0.0)) -> ConvexPolygon:
    x0, y0 = origin
    return ConvexPolygon(np.array([
        [x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side],
    ]))
