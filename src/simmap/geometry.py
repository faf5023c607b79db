"""Additively weighted power-diagram kernel on convex boundaries.

A level's cells are arrays, held by each Diagram; `Cell` and
`ConvexPolygon` records of them are made only for output, by `Diagram.cells`.
Cells are clipped by radical-axis half-planes (straight lines for additive
weights): in a diagram of BATCH_MIN_CELLS cells or more, against each cell's
regular-triangulation neighbours, the edges of the lower convex hull of the
sites lifted to (x, y, x^2 + y^2 - w) (Aurenhammer, "Power diagrams:
properties, algorithms and applications", SIAM J. Comput. 1987), else
against all other sites. `triangulation.level_neighbours` finds those
neighbours for all of a level's diagrams at once, with numpy alone.
`_clip_rings` is the one clipper: it clips a stack of rings, each started
from one of a few boundaries, in rounds, one half-plane per ring per round. `recompute_level` clips all cells of a level
in one call: round r clips each cell against its r-th candidate, a list
shorter than the longest is padded with the cell's own index, and a hidden
site's cell comes out empty; it is the clipper's one caller. A ring's result does not depend on
which rings share the call. `_finish_rings` cleans the stacked rings, and
one `_ring_measures` call, the only shoelace, takes every ring's area,
centroid and bounding box relative to the ring's first vertex. Neighbors
are found by testing only the edge pairs whose bounding boxes overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .triangulation import all_pairs, level_neighbours


class GeometryError(ValueError):
    """Degenerate polygon or invalid site configuration."""


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Counter-clockwise convex polygon.

    Immutable: the vertex array is a read-only copy, and the area, centroid,
    aabb and diagonal are measured once, by _ring_measures, when the polygon
    is built. `ray_exit` finds in closed form where a ray leaves.
    """

    vertices: np.ndarray
    area: float = field(init=False, repr=False)
    centroid: np.ndarray = field(init=False, repr=False)
    aabb: tuple[float, float, float, float] = field(init=False, repr=False)
    diagonal: float = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
            raise GeometryError("polygon needs at least 3 two-dimensional vertices")
        area, centroid, lo, hi, diagonal = _ring_measures(v, np.array([len(v)]))
        _require_finite(area, centroid)
        if area[0] < 0.0:
            v = v[::-1].copy()
            area, centroid, lo, hi, diagonal = _ring_measures(v, np.array([len(v)]))
        if area[0] <= 1e-12 * diagonal[0] * diagonal[0]:
            raise GeometryError("polygon area is degenerate")
        v.flags.writeable = False
        centroid.flags.writeable = False
        self.__dict__.update(vertices=v, area=float(area[0]), centroid=centroid[0],
                             aabb=(*lo[0].tolist(), *hi[0].tolist()), diagonal=float(diagonal[0]))

    @cached_property
    def _edge_frame(self):
        """Read-only (normals, offsets, slack, length) for contains and ray_exit.

        The (2, edges) stacked left normals and offsets, whose difference is a
        point's height over each edge times the edge's length; the rounding
        slack 64 eps max |vertex coordinate|; and each edge's length, 0 for a
        repeated vertex.
        """
        v = self.vertices
        e = np.concatenate((v[1:], v[:1])) - v
        normals = np.stack((-e[:, 1], e[:, 0]))
        offsets = e[:, 0] * v[:, 1] - e[:, 1] * v[:, 0]
        length = np.sqrt(np.einsum("ij,ij->i", e, e))
        for a in (normals, offsets, length):
            a.flags.writeable = False
        slack = 64.0 * np.finfo(float).eps * float(np.abs(v).max())
        return normals, offsets, slack, length

    def contains(self, point: np.ndarray, tol: float = 0.0):
        """True if point is inside, with `tol` slack in signed edge distance;
        for an (n, 2) array of points, a boolean array, one per point.

        Negative tol demands the point be strictly inside by |tol|.
        """
        normals, offsets, _, length = self._edge_frame
        inside = np.all(point @ normals - offsets >= -tol * length, axis=-1)
        return inside if inside.ndim else bool(inside)

    def ray_exit(self, origin: np.ndarray, direction: np.ndarray, tol: float = 0.0) -> float:
        """Largest t >= 0 for which origin + t * direction passes contains(., tol).

        The origin must pass too. t is the least, over the edges the ray leaves,
        of one division per edge; inf if it leaves none. Heights are lowered by
        the edge frame's rounding slack first: contains may reject the exact
        exit point but accepts the returned one, within the slack of the edge.
        """
        normals, offsets, slack, length = self._edge_frame
        rate = direction @ normals
        leaving = rate < 0.0
        if not leaving.any():
            return math.inf
        room = origin @ normals - offsets + (tol - slack) * length
        return max(0.0, float(np.min(room[leaving] / -rate[leaving])))

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform interior point via rejection sampling from the bounding box."""
        x0, y0, x1, y1 = self.aabb
        tol = -1e-9 * self.diagonal
        while True:
            p = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
            if self.contains(p, tol=tol):
                return p


def _cyclic_next(lengths: np.ndarray):
    """(starts, nxt): each ring's first index, each vertex's successor in its ring."""
    ends = lengths.cumsum()
    starts = ends - lengths
    live = lengths > 0
    nxt = np.arange(1, lengths.sum() + 1)
    nxt[ends[live] - 1] = starts[live]
    return starts, nxt


def _ring_measures(flat: np.ndarray, lengths: np.ndarray, cyclic=None):
    """(area, centroid, lo, hi, diagonal) of each ring stacked in `flat`, ring
    k of lengths[k] >= 3 vertices: its signed area, positive for a CCW ring,
    its centroid, the (rings, 2) min and max corners of its bounding box, and
    the box's diagonal. This is the one shoelace of the package.

    Area and first moments are summed relative to each ring's first vertex,
    and the centroid is that vertex plus the relative centroid, so they keep
    their precision far from the origin. The centroid is divided out only
    where |area| > 1e-12 diagonal^2, the degeneracy bound below which no
    polygon is kept; elsewhere it is the first vertex. Sums run per ring with
    np.add.reduceat, so a ring's measures are the same bits whatever rings
    share the call. Rings need 3 vertices because reduceat gives an empty
    segment the element at its index, not 0.

    Coordinates beyond about 1e100 overflow the moments; such measures come
    back inf or nan without a warning, for _require_finite to reject.
    `cyclic` is _cyclic_next(lengths), if the caller has it.
    """
    starts, nxt = _cyclic_next(lengths) if cyclic is None else cyclic
    first = flat.take(starts, axis=0)
    p = flat - np.repeat(first, lengths, axis=0)
    q = p.take(nxt, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
        terms = np.stack((cross, (p[:, 0] + q[:, 0]) * cross, (p[:, 1] + q[:, 1]) * cross), axis=1)
        sums = np.add.reduceat(terms, starts, axis=0)
        area = 0.5 * sums[:, 0]
        lo = np.minimum.reduceat(flat, starts, axis=0)
        hi = np.maximum.reduceat(flat, starts, axis=0)
        diagonal = np.hypot(hi[:, 0] - lo[:, 0], hi[:, 1] - lo[:, 1])
        solid = np.abs(area) > 1e-12 * diagonal * diagonal
        centroid = first.copy()
        centroid[solid] += sums[solid, 1:] / (6.0 * area[solid, None])
    return area, centroid, lo, hi, diagonal


def _require_finite(area: np.ndarray, centroid: np.ndarray) -> None:
    if not (np.isfinite(area).all() and np.isfinite(centroid).all()):
        raise GeometryError("polygon measures are not finite")


def _finish_rings(flat: np.ndarray, lengths: np.ndarray, ref_diag):
    """(flat, lengths, area, centroid) of the cells whose rings are stacked in
    `flat`, ring k of lengths[k]: the kept rings, each counter-clockwise,
    stacked in order, each ring's kept vertex count (0 for a dropped ring),
    and each ring's area and centroid (0 for a dropped ring); all read-only.

    ref_diag is one reference diagonal for all rings or one per ring. Each
    vertex within 1e-12 ref_diag of its cyclic successor is dropped; a ring
    left with fewer than 3 vertices, or with |signed area| <= 1e-14
    ref_diag^2, is dropped; a clockwise ring is reversed, as ConvexPolygon
    reverses it; a kept ring with area <= 1e-12 diagonal^2, or any ring with
    a measure that is not finite, raises GeometryError.

    A ring's result does not depend on which rings share the call: one
    _ring_measures call measures every ring, and a second the reversed
    ones, so each kept ring carries the measures ConvexPolygon takes of its
    vertices, bit for bit. `flat` itself is returned when no vertex is
    dropped or reversed, so the caller hands it over.
    """
    n = len(lengths)
    ref_diag = np.full(n, ref_diag)
    starts, nxt = _cyclic_next(lengths)
    succ = flat.take(nxt, axis=0)
    gap = np.hypot(flat[:, 0] - succ[:, 0], flat[:, 1] - succ[:, 1])
    keep = gap > np.repeat(1e-12 * np.maximum(ref_diag, 1e-300), lengths)
    # a one-vertex ring is its own successor, so only a two-vertex ring can
    # keep every vertex and still need dropping
    whole = bool(keep.all()) and not (lengths == 2).any()
    if not whole:
        owner = np.repeat(np.arange(n), lengths)
        lengths = np.bincount(owner[keep], minlength=n)
    rows = np.flatnonzero(lengths >= 3)
    if whole:
        cyclic = starts[rows], nxt
    else:
        flat = flat[keep & (lengths >= 3)[owner]]
        cyclic = None
    m = lengths[rows]
    area, centroid, _, _, diagonal = _ring_measures(flat, m, cyclic)
    _require_finite(area, centroid)
    ref = ref_diag[rows]
    sized = ~(np.abs(area) <= 1e-14 * ref * ref)
    cw = sized & (area < 0.0)
    if cw.any():
        ends = m.cumsum()[cw]
        count = m[cw]
        within = np.arange(count.sum()) - np.repeat(count.cumsum() - count, count)
        ring = np.repeat(ends - count, count) + within
        flat = flat.copy()
        flat[ring] = flat[np.repeat(ends - 1, count) - within]
        area[cw], centroid[cw], _, _, diagonal[cw] = _ring_measures(flat[ring], count)
        _require_finite(area, centroid)
    if np.any(sized & (area <= 1e-12 * diagonal * diagonal)):
        raise GeometryError("polygon area is degenerate")
    if not sized.all():
        flat = flat[np.repeat(sized, m)]
        rows, area, centroid, m = rows[sized], area[sized], centroid[sized], m[sized]
    out = np.zeros(n, dtype=np.intp), np.zeros(n), np.zeros((n, 2))
    for a, values in zip(out, (m, area, centroid)):
        a[rows] = values
        a.flags.writeable = False
    flat.flags.writeable = False
    return (flat, *out)


@dataclass(eq=False)
class Cell:
    """A cell's output record, which Diagram.cells copies from its row."""
    node_id: str
    site: np.ndarray
    weight: float = 0.0
    target_area_fraction: float = 1.0
    polygon: ConvexPolygon | None = None

    @property
    def area(self) -> float:
        return self.polygon.area if self.polygon is not None else 0.0


@dataclass(eq=False)
class Diagram:
    """One parent's child cells as arrays, row i for node_ids[i]: `sites`
    (n, 2), additive `weights` and `targets`, the shares of the boundary's
    area. recompute_level sets the rest, read-only: `rings`, the drawn
    cells' counter-clockwise rings stacked in row order, and each row's
    vertex count `lengths`, `areas` and `centroids`, 0 for an empty cell.
    Whole-array steps replace `sites` and `weights`; moves write rows.
    """
    boundary: ConvexPolygon
    node_ids: list[str]
    sites: np.ndarray
    weights: np.ndarray
    targets: np.ndarray
    scale: float
    parent_node: str | None = None
    rings: np.ndarray | None = field(default=None, init=False, repr=False)
    lengths: np.ndarray | None = field(default=None, init=False, repr=False)
    areas: np.ndarray | None = field(default=None, init=False, repr=False)
    centroids: np.ndarray | None = field(default=None, init=False, repr=False)
    # the candidate lists of the last recompute, which seed the next one's
    neighbour_lists: tuple | None = field(default=None, init=False, repr=False)

    def ring(self, i: int) -> np.ndarray | None:
        """Row i's ring, None if its cell is empty."""
        start = int(self.lengths[:i].sum())
        return self.rings[start:start + self.lengths[i]] if self.lengths[i] else None

    @cached_property
    def cells(self) -> list[Cell]:
        """The cells' output records, made on first use after each
        recompute_level: copies, which later steps do not change."""
        rings = [self.ring(i) for i in range(len(self.node_ids))]
        return [Cell(node_id, site, weight, target, None if ring is None else ConvexPolygon(ring))
                for node_id, site, weight, target, ring in zip(
                    self.node_ids, self.sites.copy(), self.weights.tolist(), self.targets.tolist(), rings)]


# Diagrams with at least this many cells get candidate lists of their power
# neighbours, which cut their rounds from n - 1 to the longest list; smaller
# ones take all-pairs lists, at most 8 rounds, and skip the lists' cost.
BATCH_MIN_CELLS = 10


# (i_in, i_out, start, j_out) of a one-run clip, relative to the run's start
# before i_out and j_out add the run's length
_CROSSING_ENDS = np.array([-1, -1, 0, 0])


def _clip_rings(rings: list, owner, normals: np.ndarray, offsets: np.ndarray):
    """Clip rows of rings in rounds, the package's one clipper, called by
    recompute_level; returns the rows' rings stacked, as (vertices,
    lengths), for _finish_rings.

    Row i starts as rings[owner[i]], or empty where owner[i] is -1, and round
    r clips it by {x : normals[r, i] . x <= offsets[r, i]}, for normals of
    shape (rounds, rows, 2) and offsets (rounds, rows). A zero normal and
    offset keep a ring whole; an emptied ring gets length 0. The arguments
    are not changed.

    The rows are taken at once into one stack, each start ring padded with
    zeros to the widest ring plus a spare column per round. Each round reads
    the columns up to the longest live ring; padding columns
    stay finite and are masked out, never cleared. Vertex heights d come from
    one stacked np.matmul per round, against the normals shaped once per call
    as (rounds, rows, 2, 1), with the offset subtracted in place; matmul runs
    the same BLAS kernel per ring as `v @ normal`, while an elementwise
    x * n0 + y * n1 rounds differently. A one-run ring's crossing end points
    and its rotated vertices are gathered with np.take from the flattened
    stack, at the ring's row base plus column, and the end points' heights
    from d the same way; the row bases are refreshed when a Sutherland-Hodgman
    pass widens the stack. A gather copies values without arithmetic, and
    each height and crossing is the same IEEE operation on the same operands
    as for the ring clipped alone, so the result has the same bits whichever
    rows share the call and however they are gathered. Edge
    a -> b crosses at v_a + t (v_b - v_a), t = d_a / (d_a - d_b). A ring whose
    inside vertices form one cyclic run becomes the entering crossing, the
    run and the leaving crossing. A ring convex only up to rounding can have
    more runs: it takes a Sutherland-Hodgman pass from vertex 0, each inside
    vertex followed by the crossing on its outgoing edge if that changes
    sides (Sutherland & Hodgman, "Reentrant polygon clipping", CACM 1974).
    A one-run clip adds at most one vertex, so the stack keeps a spare column
    for each round left; a Sutherland-Hodgman pass grows it when needed.
    """
    rounds, n = offsets.shape
    sizes = [len(v) for v in rings]
    # start ring k padded, and a last, empty row that owner -1 takes
    padded = np.zeros((len(rings) + 1, max(sizes) + rounds, 2))
    for k, v in enumerate(rings):
        padded[k, :len(v)] = v
    stack = padded.take(owner, axis=0)
    lengths = np.array(sizes + [0], dtype=np.intp).take(owner)
    normals = normals.reshape(rounds, n, 2, 1)
    offsets = offsets.reshape(rounds, n, 1)
    cols = np.arange(stack.shape[1])
    # ring i's vertex j is vertices[vbase[i] + j]
    vertices = stack.reshape(-1, 2)
    vbase = np.arange(n) * stack.shape[1]
    for r in range(rounds):
        width = int(lengths.max())
        if width == 0:
            break
        v = stack[:, :width]
        d = np.matmul(v, normals[r])[:, :, 0]
        d -= offsets[r]
        inside = d <= 0.0
        inside &= cols[:width] < lengths[:, None]
        count = np.add.reduce(inside, axis=1)
        lengths[count == 0] = 0
        cut = (count < lengths).nonzero()[0]
        if len(cut) == 0:
            continue
        ins, m, count = inside[cut], lengths[cut], count[cut]
        hbase = cut * width     # ring cut[k]'s vertex j has height d.flat[hbase[k] + j]
        # an inside vertex whose cyclic predecessor is outside starts a run
        prev = np.empty_like(ins)
        prev[:, 1:] = ins[:, :-1]
        prev[:, 0] = inside.take(hbase + m - 1)
        starts = ins > prev
        if np.count_nonzero(starts) > len(cut):
            runs = np.add.reduce(starts, axis=1)
            multi = runs > 1
            rows, mv, md, mi, mm = cut[multi], v[cut[multi]], d[cut[multi]], ins[multi], m[multi]
            lengths[rows] = count[multi] + 2 * runs[multi]  # each run gains two crossings
            # keep room for the later rounds' one-run clips
            need = int(lengths.max()) + rounds - r - 1
            if need > stack.shape[1]:
                stack = np.concatenate((stack, np.zeros((n, need - stack.shape[1], 2))), axis=1)
                cols = np.arange(stack.shape[1])
                vertices = stack.reshape(-1, 2)
                vbase = np.arange(n) * stack.shape[1]
            j = np.arange(len(rows))[:, None]
            nxt = (cols[:width] + 1) % mm[:, None]
            flip = (mi != mi[j, nxt]) & (cols[:width] < mm[:, None])
            t = md[flip] / (md[flip] - md[j, nxt][flip])
            slots = np.stack((mv, mv), axis=2)          # [row, vertex, (vertex, crossing)]
            slots[flip, 1] = mv[flip] + t[:, None] * (mv[j, nxt][flip] - mv[flip])
            keep = np.stack((mi, flip), axis=2).reshape(len(rows), -1)
            row, slot = np.nonzero(keep)
            at = np.cumsum(keep, axis=1)[row, slot] - 1
            stack[rows[row], at] = slots.reshape(len(rows), -1, 2)[row, slot]
            cut, m, count, starts, hbase = (a[~multi] for a in (cut, m, count, starts, hbase))
            if len(cut) == 0:
                continue
        # One-run rings keep this path, not the Sutherland-Hodgman pass: sent
        # through it, rotated to start at the entering crossing, they gave the
        # same bits, but init_sweep's ref_wall_s rose 28% on a 2-CPU VM
        # (1.63-1.70 s -> 2.07-2.23 s, 4 alternating pairs).
        # (i_in, i_out, start, j_out): edges i_in -> start and i_out -> j_out
        # cross the half-plane
        ends = starts.argmax(axis=1)[:, None] + _CROSSING_ENDS
        ends[:, 1::2] += count[:, None]
        ends %= m[:, None]
        de = d.take(ends + hbase[:, None])
        first = vbase[cut][:, None]
        ve = vertices.take(ends + first, axis=0)
        t = de[:, :2] / (de[:, :2] - de[:, 2:])
        crossing = ve[:, :2] + t[:, :, None] * (ve[:, 2:] - ve[:, :2])
        new_m = count + 2
        new_width = int(new_m.max())
        # the ring from i_in on: crossing, run, crossing, then padding
        order = ends[:, :1] + cols[:new_width]
        order %= m[:, None]
        order += first
        ring = vertices.take(order, axis=0)
        ring[:, 0] = crossing[:, 0]
        ring[np.arange(len(cut)), count + 1] = crossing[:, 1]
        stack[cut, :new_width] = ring
        lengths[cut] = new_m
    return stack[cols < lengths[:, None]], lengths


def recompute_level(diagrams: list[Diagram]) -> list[Diagram]:
    """Refresh the rings, lengths, areas and centroids of a level's diagrams,
    with one _clip_rings and one _finish_rings call for the whole level.

    A cell is clipped from its own diagram's boundary against its own
    diagram's sites: from BATCH_MIN_CELLS cells up, its list from one
    level_neighbours call for the whole level, seeded with each diagram's
    last lists, else all other sites. A list shorter than the longest is
    padded with the cell's own index, whose half-plane has a zero normal and
    offset, and round r clips every cell against its r-th candidate. A hidden site, one
    with no candidate in a diagram of two or more cells, comes out empty.
    If a ring raises GeometryError, no diagram is updated. Every ring, its
    measures, and which cells are empty are bit-identical to clipping the
    cell's ring alone against its candidate half-planes in ascending j and
    constructing its polygon, whatever diagrams share the call.
    """
    if not diagrams:
        return diagrams
    sites = np.concatenate([d.sites for d in diagrams])
    weights = np.concatenate([d.weights for d in diagrams])
    sizes = [len(d.node_ids) for d in diagrams]
    batched = [d for d in diagrams if len(d.node_ids) >= BATCH_MIN_CELLS]
    if batched:
        rows = np.repeat(np.array(sizes) >= BATCH_MIN_CELLS, sizes)
        neighbours = iter(level_neighbours(sites[rows], weights[rows], [len(d.node_ids) for d in batched],
                                            [d.neighbour_lists for d in batched]))
    lists, first = [], 0
    for k, (diagram, size) in enumerate(zip(diagrams, sizes)):
        if size >= BATCH_MIN_CELLS:
            diagram.neighbour_lists = candidates, degree = next(neighbours)
            owner = np.where(degree > 0, k, -1)
        else:
            candidates, degree = all_pairs(size)
            owner = np.full(size, k)
        lists.append((candidates + first, degree, owner))
        first += size
    candidates, degree, owner = (np.concatenate(parts) for parts in zip(*lists))
    n, rounds = len(sites), int(degree.max())
    # [r, i]: cell i's r-th candidate, or i itself past the end of its list
    cand = np.tile(np.arange(n), (rounds, 1))
    cand[np.arange(len(candidates)) - np.repeat(np.cumsum(degree) - degree, degree),
         np.repeat(np.arange(n), degree)] = candidates
    # cell i's side of its power bisector with site j = cand[r, i]:
    # 2 (p_j - p_i) . x <= (p_j - p_i) . (p_j + p_i) - w_j + w_i, whose offset,
    # unlike p_j . p_j - p_i . p_i, keeps its precision far from the origin
    other = sites[cand]
    gap, mid = other - sites, other + sites
    offsets = gap[..., 0] * mid[..., 0] + gap[..., 1] * mid[..., 1] - weights[cand] + weights
    flat, lengths = _clip_rings([d.boundary.vertices for d in diagrams], owner, 2.0 * gap, offsets)
    scales = np.repeat([d.scale for d in diagrams], sizes)
    flat, lengths, areas, centroids = _finish_rings(flat, lengths, scales)
    rows = [0, *np.cumsum(sizes).tolist()]
    ends = [0, *np.cumsum(lengths).tolist()]
    for d, r0, r1 in zip(diagrams, rows, rows[1:]):
        d.rings = flat[ends[r0]:ends[r1]]
        d.lengths, d.areas, d.centroids = lengths[r0:r1], areas[r0:r1], centroids[r0:r1]
        vars(d).pop("cells", None)
    return diagrams


def recompute(diagram: Diagram) -> Diagram:
    """recompute_level on one diagram."""
    recompute_level([diagram])
    return diagram


def _distances(points: np.ndarray) -> np.ndarray:
    """The matrix of distances between all pairs of points."""
    diff = points[:, None, :] - points[None, :, :]
    return np.hypot(diff[:, :, 0], diff[:, :, 1])


def close_pair(points: np.ndarray, tol: float) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row-major order, of points at most tol
    apart, or None."""
    close = np.triu(_distances(points) <= tol, k=1)
    hits = np.argwhere(close)
    return (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None


def power_diagram(
    sites,
    boundary: ConvexPolygon,
    weights=None,
    node_ids=None,
    targets=None,
    parent_node: str | None = None,
    scale: float = 0.0,
) -> Diagram:
    """Build the additively weighted power diagram of `sites` clipped to `boundary`."""
    pts = np.array(sites, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 1:
        raise GeometryError("need at least one site")
    w = np.zeros(n) if weights is None else np.array(weights, dtype=float)
    ids = [f"cell{i}" for i in range(n)] if node_ids is None else list(node_ids)
    t = np.full(n, 1.0 / n) if targets is None else np.array(targets, dtype=float)
    ref = scale if scale > 0.0 else boundary.diagonal
    outside = np.flatnonzero(~boundary.contains(pts, tol=-1e-12 * ref))
    if len(outside):
        raise GeometryError(f"site {ids[outside[0]]} lies outside the boundary")
    pair = close_pair(pts, 1e-12 * ref)
    if pair is not None:
        raise GeometryError(f"sites {ids[pair[0]]} and {ids[pair[1]]} coincide")
    diagram = Diagram(boundary=boundary, node_ids=ids, sites=pts, weights=w, targets=t,
                      scale=ref, parent_node=parent_node)
    return recompute(diagram)


def cell_neighbors(level_diagrams: list[Diagram]) -> dict:
    """Neighbor map over all cells of one level, across parent diagrams.

    Two cells are neighbors iff they own edges i < j such that both endpoints
    of j lie within tol = 1e-6 * scale of i's supporting line and the part of
    j projected onto i is longer than tol. Returns
    {(id_a, id_b): (p0, p1, length)} with id_a < id_b: one contact per pair,
    its longest shared segment p0 -> p1 lying on edge i (the first in (i, j)
    order among equal lengths); pairs appear in the (i, j) order of their
    first contact.

    Only edge pairs whose bounding boxes, each grown by tol, overlap are
    tested; they are found by a sort-and-sweep over x, then filtered on y.
    This loses no pair: |cross| is affine along j, so every point of j that
    projects inside i lies within tol of i, and an accepted pair has such a
    point. Cost is O(E log E + C) time and O(E + C) memory for E edges and
    C candidate pairs, instead of E x E.
    """
    scale = max(d.scale for d in level_diagrams)
    tol = 1e-6 * scale

    ids = [node for d in level_diagrams for node in d.node_ids]
    A = np.concatenate([d.rings for d in level_diagrams])
    lengths = np.concatenate([d.lengths for d in level_diagrams])
    result: dict[tuple[str, str], tuple] = {}
    if not len(A):
        return result
    B = A[_cyclic_next(lengths)[1]]
    owner = np.repeat(np.arange(len(ids)), lengths)
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
        key = tuple(sorted((ids[owner[i[k]]], ids[owner[j[k]]])))
        if key not in result or overlap[k] > result[key][2]:
            result[key] = (P0[k], P1[k], float(overlap[k]))
    return result


def adjacency(neighbor_map) -> dict[str, list[str]]:
    """Each cell's neighbours, sorted, from the id pairs of a neighbour map
    (or any iterable of such pairs); a cell without neighbours has no entry."""
    adj: dict[str, list[str]] = {}
    for a, b in neighbor_map:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def _require_cells(diagrams: list[Diagram], when: str) -> None:
    for d in diagrams:
        if not d.lengths.all():
            raise GeometryError(f"cell {d.node_ids[d.lengths.argmin()]} is empty {when} a Lloyd step")


def lloyd_step(diagrams: list[Diagram]) -> list[Diagram]:
    """One Lloyd step for each of a level's diagrams, with one recompute_level:
    every site moves to its cell centroid.

    With zero weights every cell holds its own site (Du, Faber & Gunzburger,
    SIAM Review 41(4), 1999), so no cell can be empty; a cell empty before or
    after the step raises GeometryError naming it. A diagram's bits equal
    those of a one-entry level.
    """
    _require_cells(diagrams, "before")
    for diagram in diagrams:
        diagram.sites = diagram.centroids.copy()
    recompute_level(diagrams)
    _require_cells(diagrams, "after")
    return diagrams


# Weight added per unit of area error over pi (Nocaj & Brandes, EuroVis 2012).
GROWTH_RATE = 0.7


def adapt_weights(diagrams: list[Diagram], rng: np.random.Generator | None = None) -> list[Diagram]:
    """One weight-adaptation step toward target areas (equivalent-radius
    error) for each of a level's diagrams, then one recompute_level.

    w_i += GROWTH_RATE * (t_i * A_boundary - A_i) / pi, then a uniform shift
    keeps each diagram's minimum weight at >= 0. Dominated (empty) cells get
    a one-off bump of 0.1 times the squared mean distance between the
    diagram's sites (a diagram with an empty cell has two or more), then a
    reseed if still empty, drawn in diagram order; only diagrams with empty
    cells are recomputed again. So the bits
    and rng draws equal those of one call per diagram, in order.
    """
    for diagram in diagrams:
        diagram.weights = diagram.weights + GROWTH_RATE * (
            diagram.targets * diagram.boundary.area - diagram.areas) / math.pi
        min_w = diagram.weights.min()
        if min_w < 0.0:
            diagram.weights = diagram.weights - min_w
    recompute_level(diagrams)
    dominated = [d for d in diagrams if not d.lengths.all()]
    for diagram in dominated:
        empty, n = diagram.lengths == 0, len(diagram.node_ids)
        bump = 0.1 * float(np.sum(_distances(diagram.sites)) / (n * (n - 1))) ** 2
        diagram.weights[empty] = np.maximum(0.0, diagram.weights[empty]) + bump
    still = [d for d in recompute_level(dominated) if not d.lengths.all()]
    for diagram in still:
        rng = np.random.default_rng(0) if rng is None else rng
        for i in np.flatnonzero(diagram.lengths == 0):
            diagram.sites[i] = diagram.boundary.sample_point(rng)
    recompute_level(still)
    return diagrams


def regular_polygon(n: int, radius: float = 1.0, center=(0.0, 0.0)) -> ConvexPolygon:
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius + np.asarray(center, dtype=float)
    return ConvexPolygon(pts)


def square(side: float = 1.0, origin=(0.0, 0.0)) -> ConvexPolygon:
    x0, y0 = origin
    return ConvexPolygon(np.array([
        [x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side],
    ]))
