"""Power-diagram kernel: clipping, measures, neighbors, Lloyd, weight growth."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmap import geometry, triangulation
from simmap.datasets import gen_synthetic
from simmap.geometry import (
    BATCH_MIN_CELLS,
    Cell,
    ConvexPolygon,
    GeometryError,
    _clip_rings,
    _finish_rings,
    adapt_weights,
    adjacency,
    cell_neighbors,
    lloyd_step,
    power_diagram,
    recompute,
    regular_polygon,
    square,
)
from simmap.optimizer import OptimizerConfig
from simmap.triangulation import level_neighbours
from simmap.pipeline import RunConfig, build_treemap, load_tree, make_boundary, run
from simmap.similarity import extract_level_constraints


def rect(x0, y0, x1, y1):
    return ConvexPolygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


def _stack(rings):
    """(vertices, lengths): rings stacked in order; a None ring has length 0."""
    lengths = np.array([0 if v is None else len(v) for v in rings], dtype=np.intp)
    kept = [v for v in rings if v is not None]
    return (np.concatenate(kept) if kept else np.empty((0, 2))), lengths


def _polygons(flat, lengths, area, centroid):
    """The rings _finish_rings kept, as polygons, None for a dropped ring.
    Each kept ring is the polygon's counter-clockwise vertices and carries
    its area and centroid bit for bit; a dropped ring has area and centroid 0."""
    polygons = []
    for end, m, a, c in zip(np.cumsum(lengths).tolist(), lengths.tolist(), area, centroid):
        if m == 0:
            assert a == 0.0 and not c.any()
            polygons.append(None)
            continue
        p = ConvexPolygon(flat[end - m:end])
        assert p.vertices.tobytes() == flat[end - m:end].tobytes()
        assert np.float64(p.area).tobytes() == a.tobytes() and p.centroid.tobytes() == c.tobytes()
        polygons.append(p)
    return polygons


def random_convex_boundary(rng, n_max=9):
    """Convex polygon as the hull ring of points on a randomized ellipse."""
    n = int(rng.integers(4, n_max))
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=n))
    if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 1e-2:
        angles = np.linspace(0, 2 * math.pi, n, endpoint=False)
    rx, ry = rng.uniform(0.5, 3.0, size=2)
    cx, cy = rng.uniform(-5, 5, size=2)
    pts = np.stack([cx + rx * np.cos(angles), cy + ry * np.sin(angles)], axis=1)
    return ConvexPolygon(pts)


# ----------------------------------------------------- scalar clip reference

def _clip_array(v, normal, offset):
    """Reference: clip a CCW ring by {x : normal . x <= offset}, one ring and
    one half-plane at a time.

    Returns v itself when every vertex is inside, None when none is, else
    the clipped ring. A convex ring's inside vertices form one cyclic run,
    kept between the crossing that enters it and the crossing that leaves
    it; a ring convex only up to rounding can have more runs, and goes to
    _clip_array_generic.
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


def _clip_array_generic(v, d, inside):
    """Reference: Sutherland-Hodgman from vertex 0, for inside vertices that
    form more than one run."""
    out = []
    n = len(v)
    for i in range(n):
        j = (i + 1) % n
        if inside[i]:
            out.append(v[i])
        if inside[i] != inside[j]:
            t = d[i] / (d[i] - d[j])
            out.append(v[i] + t * (v[j] - v[i]))
    return np.asarray(out)


def _clip_from(v, i, candidates, sites, weights):
    """Reference: clip cell i's ring v against its bisectors with the sites in
    `candidates`, in order, one at a time; i itself is skipped."""
    pi = sites[i]
    wi = weights[i]
    for j in candidates:
        if j == i:
            continue
        gap, mid = sites[j] - pi, sites[j] + pi
        normal = 2.0 * gap
        offset = float(gap[0] * mid[0] + gap[1] * mid[1]) - weights[j] + wi
        v = _clip_array(v, normal, offset)
        if v is None:
            return None
    return v


def _dented_ring(depth):
    """A unit square whose top edge dents inward by `depth` at x = 0.5: a ring
    made slightly reflex by rounding. A line y = c between the dent and the
    top leaves two runs of inside vertices."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0 - depth], [0.0, 1.0]])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(0, 8))
def test_clip_rings_equals_scalar_reference(seed, n, rounds):
    """Every ring of a stack of convex rings of 3 to 8 vertices and dented
    rings, clipped in rounds by _clip_rings, equals the ring clipped alone by
    the scalar reference, half-plane by half-plane, bit for bit. A dented
    ring's first half-plane cuts its two runs apart, and every ring may meet
    whole-ring (zero) half-planes and half-planes that empty it. About one
    ring in three starts a second row, and a last row, with owner -1, starts
    and ends empty."""
    rng = np.random.default_rng(seed)
    rings, planes = [], []
    for _ in range(n):
        dented = rng.random() < 0.3
        if dented:
            depth = 2.0 ** -int(rng.integers(5, 40))
            ring = _dented_ring(depth)
        elif rng.random() < 0.2:
            ring = ConvexPolygon(rng.uniform(-3.0, 3.0, size=(3, 2))).vertices
        else:
            ring = random_convex_boundary(rng).vertices
        rows = []
        for r in range(rounds):
            kind = rng.integers(5)
            if dented and r == 0:
                normal = np.array([0.0, 1.0])
                offset = 1.0 - rng.uniform(0.1, 0.9) * depth
            elif kind == 0:
                normal, offset = np.zeros(2), 0.0
            else:
                angle = rng.uniform(0.0, 2.0 * math.pi)
                normal = 10 ** rng.uniform(-1, 1) * np.array([math.cos(angle), math.sin(angle)])
                heights = ring @ normal
                span = heights.max() - heights.min()
                offset = rng.uniform(heights.min() - 0.1 * span, heights.max() + 0.1 * span)
            rows.append((normal, offset))
        rings.append(ring)
        planes.append(rows)
    owner = [*range(n), *(k for k in range(n) if rng.random() < 0.3), -1]
    planes += [[_random_half_plane(rng, rings[k]) for _ in range(rounds)] for k in owner[n:]]
    m = len(owner)
    normals = np.array([[planes[i][r][0] for i in range(m)] for r in range(rounds)]).reshape(rounds, m, 2)
    offsets = np.array([[planes[i][r][1] for i in range(m)] for r in range(rounds)]).reshape(rounds, m)
    flat, lengths = _clip_rings(rings, np.array(owner), normals, offsets)
    assert lengths.sum() == len(flat)
    got = np.split(flat, np.cumsum(lengths)[:-1])
    for i, k in enumerate(owner):
        v = rings[k] if k >= 0 else None
        for normal, offset in planes[i]:
            if v is None:
                break
            v = _clip_array(v, normal, offset)
        if v is None:
            assert lengths[i] == 0, i
        else:
            assert got[i].tobytes() == np.asarray(v, dtype=float).tobytes(), i


def _dented_edge(ring, k, depth):
    """(ring, normal, height): `ring` with the midpoint of its edge k -> k + 1
    inserted after vertex k and moved inward by `depth`, the edge's outward
    unit normal, and the edge's height along it. A line of that normal
    between the dent and the edge leaves two inside runs."""
    a, b = ring[k], ring[(k + 1) % len(ring)]
    edge = b - a
    normal = np.array([edge[1], -edge[0]]) / math.hypot(*edge)
    dent = 0.5 * (a + b) - depth * normal
    return np.insert(ring, k + 1, dent, axis=0), normal, float(a @ normal)


def _random_half_plane(rng, ring):
    """A zero half-plane (one in five) or a random line across `ring`'s
    heights, which may keep or empty it whole."""
    if rng.integers(5) == 0:
        return np.zeros(2), 0.0
    angle = rng.uniform(0.0, 2.0 * math.pi)
    normal = 10 ** rng.uniform(-1, 1) * np.array([math.cos(angle), math.sin(angle)])
    heights = ring @ normal
    span = heights.max() - heights.min()
    return normal, rng.uniform(heights.min() - 0.1 * span, heights.max() + 0.1 * span)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 16), st.booleans())
def test_clip_rings_equals_scalar_reference_on_mixed_widths(seed, n, rounds, dent_big):
    """A 64-gon shares the stack with 3- to 8-vertex rings and dented squares
    for up to 16 rounds, and equals the scalar reference bit for bit.

    With dent_big, the 64-gon gets a dent on one edge; rounds before r0
    each cut off one corner far from the dent, adding a vertex, and round
    r0 cuts the dented edge into two runs, adding two vertices where the
    stack keeps one spare column per round, so the stack widens in
    mid-call. The small rings meet random, zero and emptying half-planes
    in every round."""
    rng = np.random.default_rng(seed)
    radius = 10 ** rng.uniform(-1, 3)
    big = regular_polygon(64, radius=radius, center=rng.uniform(-50.0, 50.0, size=2)).vertices
    r0 = int(rng.integers(rounds))
    if dent_big:
        k = int(rng.integers(64))
        rows = []
        for r in range(r0):
            # corners 3 apart, clear of the dented edge k -> k + 1
            before, corner, after = (big[(k + 3 * r + j) % 64] for j in (3, 4, 5))
            unit = corner - big.mean(axis=0)
            unit = unit / math.hypot(*unit)
            top, below = float(corner @ unit), max(float(before @ unit), float(after @ unit))
            rows.append((unit, below + rng.uniform(0.1, 0.9) * (top - below)))
        big, normal, height = _dented_edge(big, k, 2.0 ** -int(rng.integers(8, 30)) * radius)
        dent = float(big[k + 1] @ normal)
        rows.append((normal, height - rng.uniform(0.1, 0.9) * (height - dent)))
        rows += [_random_half_plane(rng, big) for _ in range(rounds - r0 - 1)]
    else:
        rows = [_random_half_plane(rng, big) for _ in range(rounds)]
    rings, planes = [big], [rows]
    for _ in range(n):
        dented = rng.random() < 0.3
        if dented:
            depth = 2.0 ** -int(rng.integers(5, 40))
            ring = _dented_ring(depth)
            rows = [(np.array([0.0, 1.0]), 1.0 - rng.uniform(0.1, 0.9) * depth)]
        else:
            ring = random_convex_boundary(rng).vertices
            rows = []
        rows += [_random_half_plane(rng, ring) for _ in range(rounds - len(rows))]
        rings.append(ring)
        planes.append(rows)
    # a second row on the 64-gon and on a small ring, and an empty last row
    owner = [*range(len(rings)), 0, int(rng.integers(1, len(rings))), -1]
    planes += [[_random_half_plane(rng, rings[k]) for _ in range(rounds)] for k in owner[-3:]]
    width = max(len(v) for v in rings)
    normals = np.array([[rows[r][0] for rows in planes] for r in range(rounds)])
    offsets = np.array([[rows[r][1] for rows in planes] for r in range(rounds)])
    flat, lengths = _clip_rings(rings, np.array(owner), normals, offsets)
    assert lengths.sum() == len(flat)
    got = np.split(flat, np.cumsum(lengths)[:-1])
    for i, (k, rows) in enumerate(zip(owner, planes)):
        v = rings[k] if k >= 0 else None
        for normal, offset in rows:
            if v is None:
                break
            v = _clip_array(v, normal, offset)
        if v is None:
            assert lengths[i] == 0, i
        else:
            assert got[i].tobytes() == np.asarray(v, dtype=float).tobytes(), i
    if dent_big and r0 == rounds - 1:
        # r0 corner cuts and the two-run cut: longer than the stack's width
        assert lengths[0] == 65 + r0 + 2 > width + rounds


# -------------------------------------------------------------- ConvexPolygon

def test_polygon_enforces_ccw():
    cw = ConvexPolygon(np.array([[0, 0], [0, 1], [1, 1], [1, 0]]))  # clockwise input
    assert cw.area > 0


def test_polygon_rejects_degenerate():
    with pytest.raises(GeometryError):
        ConvexPolygon(np.array([[0, 0], [1, 0], [2, 0]]))
    with pytest.raises(GeometryError):
        ConvexPolygon(np.array([[0, 0], [1, 0]]))


@pytest.mark.parametrize("size", [1e150, 1e200])
def test_polygon_with_overflowing_measures_is_rejected(size):
    # the moments hold size**3 terms: inf or nan, raised on without a RuntimeWarning
    ring = np.array([[0.0, 0.0], [size, 0.0], [size, size], [0.0, size]])
    with pytest.raises(GeometryError, match="not finite"):
        ConvexPolygon(ring)
    with pytest.raises(GeometryError, match="not finite"):
        _finish_rings(ring, np.array([4]), math.hypot(size, size))


def test_polygon_is_immutable_with_cached_measures():
    ring = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 1.0], [2.0, 0.0]])  # clockwise
    poly = ConvexPolygon(ring)
    assert ring.flags.writeable  # the caller's array is copied, not frozen
    assert not poly.vertices.flags.writeable
    with pytest.raises(ValueError):
        poly.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        poly.centroid[0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        poly.vertices = ring
    assert poly.centroid is poly.centroid
    assert poly.aabb is poly.aabb
    assert poly.area == pytest.approx(2.0)
    assert poly.diagonal == pytest.approx(math.sqrt(5.0))


def test_contains_with_tolerance():
    sq = square(1.0)
    assert sq.contains(np.array([0.5, 0.5]))
    assert sq.contains(np.array([0.0, 0.5]))  # on the edge
    assert not sq.contains(np.array([-0.01, 0.5]))
    # negative tol demands strict interiority
    assert not sq.contains(np.array([0.0, 0.5]), tol=-1e-6)
    assert sq.contains(np.array([0.001, 0.5]), tol=-1e-6)
    # a repeated vertex makes a zero-length edge, which constrains nothing
    repeated = ConvexPolygon([[0, 0], [1, 0], [1, 0], [0, 1]])
    assert repeated.contains(np.array([0.25, 0.25]), tol=-1e-6)
    assert not repeated.contains(np.array([0.6, 0.6]), tol=-1e-6)
    assert not repeated.contains(np.array([1e-7, 0.5]), tol=-1e-6)


def _rotated_ngon(sides, radius, center, phase):
    angles = phase + np.linspace(0.0, 2.0 * math.pi, sides, endpoint=False)
    return ConvexPolygon(np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius
                         + np.asarray(center))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["square", *range(3, 65)]), st.booleans(),
       st.booleans(), st.booleans())
def test_ray_exit_point_is_inside_and_on_the_boundary(seed, sides, far, margin, fit_tol):
    """contains accepts the exit point, which lies within 1e-9 diagonal of the
    (tol-offset) boundary, also with a margin of 0.1 radius in tol. The exit
    is backed off by 64 eps max |vertex|, under 1e-9 diagonal for these
    sizes: at 1e6 the polygons span 100 or more."""
    rng = np.random.default_rng(seed)
    if far:
        radius = 10 ** rng.uniform(2, 4)
        center = 1e6 * np.array([math.cos(seed), math.sin(seed)])
    else:
        radius = 10 ** rng.uniform(-3, 3)
        center = rng.uniform(-2, 2, size=2) * radius
    if sides == "square":
        poly = square(2 * radius, origin=center - radius)
    else:
        poly = _rotated_ngon(sides, radius, center, rng.uniform(0, 2 * math.pi))
    diag = poly.diagonal
    tol = -1e-9 * diag if fit_tol else 0.0
    if margin:
        tol -= 0.1 * radius
    for _ in range(20):
        origin = poly.sample_point(rng)
        while not poly.contains(origin, tol):
            origin = poly.sample_point(rng)
        angle = rng.uniform(0, 2 * math.pi)
        direction = 10 ** rng.uniform(-3, 3) * radius * np.array([math.cos(angle), math.sin(angle)])
        t = poly.ray_exit(origin, direction, tol)
        assert 0.0 <= t < math.inf
        p = origin + t * direction
        assert poly.contains(p, tol)
        assert not poly.contains(p, tol - 1e-9 * diag)


def test_ray_exit_zero_direction_and_origin_on_the_edge():
    sq = square(2.0)
    assert sq.ray_exit(np.array([1.0, 1.0]), np.zeros(2)) == math.inf
    # on the right edge: leaving through it at once, or crossing to the left edge
    assert sq.ray_exit(np.array([2.0, 1.0]), np.array([1.0, 0.0])) == 0.0
    assert sq.ray_exit(np.array([2.0, 1.0]), np.array([-1.0, 0.0])) == pytest.approx(2.0)
    assert sq.ray_exit(np.array([1.0, 1.0]), np.array([0.5, 0.0])) == pytest.approx(2.0)
    assert sq.ray_exit(np.array([1.0, 1.0]), np.array([1.0, 1.0]), tol=-0.5) == pytest.approx(0.5)


def _clip_once(vertices, normal, offset):
    """One _clip_rings round on one ring, by {x : normal . x <= offset}."""
    return _clip_rings([vertices], [0], np.asarray(normal, dtype=float).reshape(1, 1, 2),
                       np.array([[offset]], dtype=float))


def test_clip_halfplane_whole_and_empty():
    sq = square(1.0)
    flat, lengths = _clip_once(sq.vertices, [1.0, 0.0], 2.0)  # keeps everything
    assert lengths.tolist() == [4] and np.array_equal(flat, sq.vertices)
    flat, lengths = _clip_once(sq.vertices, [1.0, 0.0], -1.0)  # removes everything
    assert _polygons(*_finish_rings(flat, lengths, sq.diagonal)) == [None]


def test_clip_halfplane_half():
    sq = square(1.0)
    half, = _polygons(*_finish_rings(*_clip_once(sq.vertices, [1.0, 0.0], 0.5), sq.diagonal))  # x <= 0.5
    assert half.area == pytest.approx(0.5)
    assert half.vertices[:, 0].max() == pytest.approx(0.5)


def test_clip_halfplane_keeps_both_runs_of_a_dented_ring():
    # the top vertex dents inward by 2^-30, so the line y = 1 - 2^-31 leaves
    # two inside runs; a one-round stack of the 5-vertex ring has room for 6
    ring = _dented_ring(2.0 ** -30)
    y = 1.0 - 2.0 ** -31
    normal = np.array([0.0, 1.0])
    # Sutherland-Hodgman keeps both runs and adds one point per crossing
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, y], [0.75, y], ring[3],
                         [0.25, y], [0.0, y]])
    assert np.array_equal(_clip_array(ring, normal, y), expected)
    flat, lengths = _clip_once(ring, normal, y)
    assert lengths.tolist() == [7] and np.array_equal(flat, expected)
    polygon, = _polygons(*_finish_rings(flat, lengths, ConvexPolygon(ring).diagonal))
    assert np.array_equal(polygon.vertices, expected)


# ------------------------------------------------------------------- measures

def test_measures_unit_square():
    sq = square(1.0)
    assert sq.area == pytest.approx(1.0)
    assert sq.centroid == pytest.approx([0.5, 0.5])
    assert sq.aabb == pytest.approx((0.0, 0.0, 1.0, 1.0))


def test_measures_triangle():
    tri = ConvexPolygon(np.array([[0, 0], [2, 0], [0, 2]]))
    assert tri.area == pytest.approx(2.0)
    assert tri.centroid == pytest.approx([2 / 3, 2 / 3])


@pytest.mark.parametrize("radius", [1.0, 10.0])
def test_measures_far_from_origin(radius):
    """A regular 7-gon 1e6 from the origin keeps its centroid and area, from
    ConvexPolygon and from _finish_rings: summed over absolute coordinates,
    the centroid was off by up to 62 radii at radius 1."""
    center = np.array([1e6, 1e6])
    poly = regular_polygon(7, radius=radius, center=center)
    exact = 3.5 * radius * radius * math.sin(2.0 * math.pi / 7)
    finished = _polygon_or_none(poly.vertices, poly.diagonal)
    for p in (poly, finished):
        assert np.abs(p.centroid - center).max() <= 1e-9 * radius
        assert abs(p.area - exact) <= 1e-9 * exact


def test_measures_montecarlo_oracle():
    rng = np.random.default_rng(11)
    poly = regular_polygon(7, radius=1.7, center=(0.4, -0.2))
    x0, y0, x1, y1 = poly.aabb
    n = 1_000_000
    pts = np.stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)], axis=1)
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    e = w - v
    inside = np.ones(n, dtype=bool)
    for k in range(len(v)):
        cross = e[k, 0] * (pts[:, 1] - v[k, 1]) - e[k, 1] * (pts[:, 0] - v[k, 0])
        inside &= cross >= 0.0
    estimate = inside.mean() * (x1 - x0) * (y1 - y0)
    assert poly.area == pytest.approx(estimate, rel=5e-3)


# --------------------------------------------------------------- power_diagram

def test_equal_weights_bisector_at_midline():
    boundary = rect(-1, -2, 3, 2)
    d = power_diagram([(0, 0), (2, 0)], boundary)
    a, b = d.cells
    assert a.area == pytest.approx(b.area)
    assert a.polygon.vertices[:, 0].max() == pytest.approx(1.0)


def test_weighted_bisector_radical_axis():
    # ||x-p1||^2 - 1 = ||x-p2||^2 solves to x = 1.25
    boundary = rect(-1, -2, 3, 2)
    d = power_diagram([(0, 0), (2, 0)], boundary, weights=[1.0, 0.0])
    a, b = d.cells
    assert a.polygon.vertices[:, 0].max() == pytest.approx(1.25)
    assert a.area == pytest.approx(2.25 * 4)
    assert b.area == pytest.approx(1.75 * 4)


def test_single_site_cell_is_boundary():
    boundary = regular_polygon(6, radius=2.0)
    d = power_diagram([(0.1, 0.2)], boundary)
    assert d.cells[0].area == pytest.approx(boundary.area)


def test_coincident_sites_rejected():
    with pytest.raises(GeometryError, match="coincide"):
        power_diagram([(0.5, 0.5), (0.5, 0.5)], square(1.0))


def _first_close_pair(points, tol):
    """Reference: the double loop power_diagram ran over site pairs."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if math.hypot(*(points[i] - points[j])) <= tol:
                return i, j
    return None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(0, 4))
def test_close_pair_equals_double_loop(seed, n, copies):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1, size=(n, 2))
    for _ in range(copies):
        i, j = rng.integers(0, n, size=2)
        points[j] = points[i] + rng.choice([0.0, 1e-13, 1e-3])
    for tol in (0.0, 1e-12, 1e-2):
        assert geometry.close_pair(points, tol) == _first_close_pair(points, tol)


def test_coincident_sites_name_the_first_pair():
    sites = [(0.1, 0.1), (0.5, 0.5), (0.3, 0.7), (0.3, 0.7), (0.5, 0.5)]
    with pytest.raises(GeometryError, match="sites cell1 and cell4 coincide"):
        power_diagram(sites, square(1.0))


def test_site_outside_rejected():
    with pytest.raises(GeometryError, match="outside"):
        power_diagram([(2.0, 0.5)], square(1.0))


def test_dominated_cell_is_empty():
    d = power_diagram([(0.4, 0.5), (0.6, 0.5)], square(1.0), weights=[10.0, 0.0])
    assert d.cells[1].polygon is None
    assert d.cells[0].area == pytest.approx(1.0)


def test_equal_weight_shift_invariance():
    # adding a constant to every weight must not change the diagram
    rng = np.random.default_rng(5)
    boundary = square(10.0)
    sites = rng.uniform(1, 9, size=(6, 2))
    d0 = power_diagram(sites, boundary, weights=np.zeros(6))
    d1 = power_diagram(sites, boundary, weights=np.full(6, 3.7))
    for c0, c1 in zip(d0.cells, d1.cells):
        assert np.allclose(c0.polygon.vertices, c1.polygon.vertices,
                           atol=1e-9 * d0.scale)


def _partition_ok(diagram, rel=1e-6):
    total = sum(c.area for c in diagram.cells)
    return abs(total - diagram.boundary.area) <= rel * diagram.boundary.area


def _containment_ok(diagram):
    tol = 1e-9 * diagram.scale
    for c in diagram.cells:
        if c.polygon is None:
            continue
        for v in c.polygon.vertices:
            if not diagram.boundary.contains(v, tol=tol):
                return False
    return True


def test_partition_and_containment_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        boundary = random_convex_boundary(rng)
        n = int(rng.integers(2, 10))
        sites = np.array([boundary.sample_point(rng) for _ in range(n)])
        weights = rng.uniform(0, 0.2 * boundary.area, size=n)
        d = power_diagram(sites, boundary, weights=weights)
        assert _partition_ok(d)
        assert _containment_ok(d)


def test_power_distance_assignment_small():
    # every sampled point lands in the cell of its power-minimal site
    rng = np.random.default_rng(3)
    boundary = square(4.0, origin=(-2, -2))
    sites = rng.uniform(-1.5, 1.5, size=(5, 2))
    weights = rng.uniform(0, 1.0, size=5)
    d = power_diagram(sites, boundary, weights=weights)
    mism = 0
    for _ in range(2000):
        p = boundary.sample_point(rng)
        power = ((p - sites) ** 2).sum(axis=1) - weights
        best = int(np.argmin(power))
        if d.cells[best].polygon is None or not d.cells[best].polygon.contains(
                p, tol=1e-9 * d.scale):
            mism += 1
    assert mism / 2000 < 1e-3


# -------------------------------------------------------------- cell_neighbors

def test_neighbors_shared_segment():
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0),
                      node_ids=["a", "b"])
    nm = cell_neighbors([d])
    assert set(nm) == {("a", "b")}
    p0, p1, length = nm[("a", "b")]
    assert length == pytest.approx(1.0)
    assert p0[0] == pytest.approx(0.5)
    assert p1[0] == pytest.approx(0.5)


def test_corner_contact_is_not_neighbor():
    # two separate diagrams meeting at a single corner point
    left = power_diagram([(0.5, 0.5)], square(1.0), node_ids=["a"])
    right = power_diagram([(1.5, 1.5)], square(1.0, origin=(1, 1)), node_ids=["b"])
    assert cell_neighbors([left, right]) == {}


def test_cross_parent_neighbors():
    left = power_diagram([(0.5, 0.5)], square(1.0), node_ids=["a"])
    right = power_diagram([(1.5, 0.5)], square(1.0, origin=(1, 0)), node_ids=["b"])
    nm = cell_neighbors([left, right])
    assert set(nm) == {("a", "b")}
    assert nm[("a", "b")][2] == pytest.approx(1.0)


def _bruteforce_neighbors(diagrams, tol_len):
    """O(E^2) oracle over all edge pairs, straight from the definition."""
    edges = []
    for d in diagrams:
        for c in d.cells:
            if c.polygon is None:
                continue
            v = c.polygon.vertices
            for k in range(len(v)):
                edges.append((c.node_id, v[k], v[(k + 1) % len(v)]))
    found = {}
    for ia in range(len(edges)):
        for ib in range(len(edges)):
            na, a0, a1 = edges[ia]
            nb, b0, b1 = edges[ib]
            if na == nb:
                continue
            u = a1 - a0
            ln = math.hypot(*u)
            if ln == 0:
                continue
            uh = u / ln
            da = b0 - a0
            db = b1 - a0
            line_tol = tol_len
            if abs(uh[0] * da[1] - uh[1] * da[0]) > line_tol:
                continue
            if abs(uh[0] * db[1] - uh[1] * db[0]) > line_tol:
                continue
            t0, t1 = float(uh @ da), float(uh @ db)
            lo = max(0.0, min(t0, t1))
            hi = min(ln, max(t0, t1))
            if hi - lo > tol_len:
                key = tuple(sorted((na, nb)))
                found[key] = max(found.get(key, 0.0), hi - lo)
    return found


def test_neighbors_match_bruteforce_oracle():
    rng = np.random.default_rng(9)
    hexagon = regular_polygon(6, radius=3.0)
    parents = power_diagram(
        [hexagon.sample_point(rng) for _ in range(3)], hexagon,
        node_ids=["p0", "p1", "p2"])
    diagrams = []
    for i, pc in enumerate(parents.cells):
        kids = [pc.polygon.sample_point(rng) for _ in range(3)]
        diagrams.append(power_diagram(
            kids, pc.polygon, node_ids=[f"c{i}{j}" for j in range(3)],
            scale=hexagon.diagonal))
    scale = max(d.scale for d in diagrams)
    fast = cell_neighbors(diagrams)
    slow = _bruteforce_neighbors(diagrams, 1e-6 * scale)
    assert set(fast) == set(slow)
    for key, (_, _, length) in fast.items():
        assert length == pytest.approx(slow[key], abs=1e-6 * scale)


def _dense_neighbors(level_diagrams):
    """Reference: the predicate of cell_neighbors evaluated on all E x E edge pairs."""
    scale = max(d.scale for d in level_diagrams)
    tol_len = 1e-6 * scale
    tol_line = 1e-6 * scale

    starts, ends, owners = [], [], []
    for d in level_diagrams:
        for c in d.cells:
            if c.polygon is None:
                continue
            v = c.polygon.vertices
            starts.append(v)
            ends.append(np.roll(v, -1, axis=0))
            owners.extend([c.node_id] * len(v))
    result = {}
    if not starts:
        return result
    A = np.vstack(starts)
    B = np.vstack(ends)
    owners = np.array(owners)
    E = len(A)
    U = B - A
    L = np.hypot(U[:, 0], U[:, 1])
    L = np.where(L == 0.0, 1e-300, L)
    Uh = U / L[:, None]

    DA = A[None, :, :] - A[:, None, :]      # (i, j, 2): A_j - A_i
    DB = B[None, :, :] - A[:, None, :]
    cross_a = np.abs(Uh[:, None, 0] * DA[:, :, 1] - Uh[:, None, 1] * DA[:, :, 0])
    cross_b = np.abs(Uh[:, None, 0] * DB[:, :, 1] - Uh[:, None, 1] * DB[:, :, 0])
    collinear = (cross_a <= tol_line) & (cross_b <= tol_line)

    t0 = Uh[:, None, 0] * DA[:, :, 0] + Uh[:, None, 1] * DA[:, :, 1]
    t1 = Uh[:, None, 0] * DB[:, :, 0] + Uh[:, None, 1] * DB[:, :, 1]
    lo = np.maximum(0.0, np.minimum(t0, t1))
    hi = np.minimum(L[:, None], np.maximum(t0, t1))
    overlap = hi - lo

    different = owners[:, None] != owners[None, :]
    upper = np.triu(np.ones((E, E), dtype=bool), k=1)
    mask = collinear & different & (overlap > tol_len) & upper

    for i, j in zip(*np.nonzero(mask)):
        key = tuple(sorted((str(owners[i]), str(owners[j]))))
        p0 = A[i] + Uh[i] * lo[i, j]
        p1 = A[i] + Uh[i] * hi[i, j]
        result.setdefault(key, []).append((p0, p1, float(overlap[i, j])))
    return result


def _assert_same_neighbors(level_diagrams):
    fast = cell_neighbors(level_diagrams)
    dense = _dense_neighbors(level_diagrams)
    assert list(fast) == list(dense)
    for key, segs in dense.items():
        p0, p1, ln = fast[key]
        q0, q1, lq = max(segs, key=lambda s: s[2])  # the first longest
        assert p0.tobytes() == q0.tobytes(), key
        assert p1.tobytes() == q1.tobytes(), key
        assert ln == lq, key
    return fast


def _random_level(rng, boundary, n_parents, max_kids, weight_frac):
    """One level of seeded child diagrams, each clipped to a parent cell.

    Weights are drawn up to (weight_frac * diagonal)^2, so large fractions
    leave dominated cells with a None polygon.
    """
    diag = boundary.diagonal
    sites = [boundary.sample_point(rng) for _ in range(n_parents)]
    weights = rng.uniform(0.0, (0.2 * diag) ** 2, size=n_parents)
    parents = power_diagram(sites, boundary, weights=weights,
                            node_ids=[f"p{k}" for k in range(n_parents)])
    level = []
    for pc in parents.cells:
        if pc.polygon is None:
            continue
        kids = int(rng.integers(1, max_kids + 1))
        level.append(power_diagram(
            [pc.polygon.sample_point(rng) for _ in range(kids)], pc.polygon,
            weights=rng.uniform(0.0, (weight_frac * diag) ** 2, size=kids),
            node_ids=[f"{pc.node_id}c{k}" for k in range(kids)], scale=diag))
    return level


@pytest.mark.parametrize("boundary", [
    regular_polygon(64, radius=500.0),
    regular_polygon(6, radius=3.0, center=(2.0, -1.0)),
    square(10.0, origin=(-3.0, 4.0)),
], ids=["circle", "hexagon", "square"])
def test_neighbors_equal_dense_reference(boundary):
    rng = np.random.default_rng(2)
    seen_empty = seen_single = False
    for n_parents, max_kids, weight_frac in [
        (1, 12, 0.0), (3, 1, 0.0), (5, 6, 0.05), (8, 8, 0.1), (12, 10, 0.3),
        (6, 9, 0.6),
    ]:
        for _ in range(3):
            level = _random_level(rng, boundary, n_parents, max_kids, weight_frac)
            seen_empty |= any(c.polygon is None for d in level for c in d.cells)
            seen_single |= any(len(d.cells) == 1 for d in level)
            _assert_same_neighbors(level)
    assert seen_empty and seen_single


def test_neighbors_equal_dense_reference_after_optimizing():
    doc = gen_synthetic("two_level", {"leaves": 40, "parents": 6}, seed=0)
    result = run(RunConfig(input=doc, init="proj_scale", optimizer=OptimizerConfig(max_iter=10)))
    for diagrams in result.diagrams_by_level.values():
        _assert_same_neighbors(diagrams)


def test_neighbors_tolerate_offset_collinear_edges():
    # Edges a/b and a/c are collinear but 0.5e-6 * scale apart, so their
    # axis-aligned, zero-width boxes meet only once grown by the tolerance.
    scale = math.sqrt(2.0)
    gap = 0.5e-6 * scale
    a = power_diagram([(0.5, 0.5)], square(1.0), node_ids=["a"])
    b = power_diagram([(0.5, 1.5 + gap)], square(1.0, origin=(0.0, 1.0 + gap)), node_ids=["b"])
    c = power_diagram([(1.5 + gap, 0.5)], square(1.0, origin=(1.0 + gap, 0.0)), node_ids=["c"])
    nm = _assert_same_neighbors([a, b, c])
    assert set(nm) == {("a", "b"), ("a", "c")}


@pytest.mark.parametrize("split, contact", [
    (0.6, ((1.0, 0.0), (1.0, 0.6))),   # the later, longer segment wins
    (0.5, ((1.0, 0.5), (1.0, 1.0))),   # equal lengths: the first is kept
], ids=["longer_later", "tie"])
def test_neighbors_keep_the_first_longest_of_two_contacts(split, contact):
    # b's left edge is split at (1, split), so a and b touch along two segments
    boundary = rect(0.0, 0.0, 2.0, 1.0)
    d = geometry.Diagram(boundary=boundary, node_ids=["a", "b"], sites=np.array([[0.5, 0.5], [1.5, 0.5]]),
                         weights=np.zeros(2), targets=np.full(2, 0.5), scale=boundary.diagonal)
    d.rings, d.lengths = _stack([rect(0.0, 0.0, 1.0, 1.0).vertices,
                                 np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, split]])])
    assert len(_dense_neighbors([d])[("a", "b")]) == 2
    p0, p1, length = _assert_same_neighbors([d])[("a", "b")]
    assert (tuple(p0), tuple(p1)) == contact
    assert length == max(split, 1.0 - split)


def _generated_leaf_level(kind, leaves, parents):
    """The leaf diagrams of a generated document after proj_scale init, and
    their neighbour map."""
    tree = load_tree(gen_synthetic(kind, {"leaves": leaves, "parents": parents}, seed=0))
    maps = {}
    levels = build_treemap(tree, extract_level_constraints(tree, "cosine"),
                           make_boundary("circle", 1000.0), "proj_scale", "cosine", 0,
                           OptimizerConfig(), optimize=False, neighbor_maps=maps)
    deepest = max(levels)
    return levels[deepest], maps[deepest]


@pytest.mark.parametrize("kind, leaves, parents, diagrams", [
    ("m_n", 30, 1, 1),
    ("two_level", 48, 12, 12),
], ids=["30_cells_one_parent", "12_parents"])
def test_adjacency_lists_each_cells_partners_in_the_map(kind, leaves, parents, diagrams):
    level, nm = _generated_leaf_level(kind, leaves, parents)
    assert len(level) == diagrams and sum(len(d.cells) for d in level) == leaves
    adj = adjacency(nm)
    partners = {}
    for a, b in nm:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    assert adj.keys() == partners.keys()
    for node, nbrs in adj.items():
        assert nbrs == sorted(partners[node])
        assert all(node in adj[other] for other in nbrs)
    if parents > 1:
        # the map's cross-parent pairs are in the lists too
        diagram_of = {c.node_id: d for d in level for c in d.cells}
        assert any(diagram_of[a] is not diagram_of[b] for a, b in nm)


def test_adjacency_has_no_entry_for_a_cell_without_neighbours():
    left = power_diagram([(0.5, 0.5)], square(1.0), node_ids=["a"])
    right = power_diagram([(1.5, 0.5)], square(1.0, origin=(1, 0)), node_ids=["b"])
    lone = power_diagram([(5.5, 0.5)], square(1.0, origin=(5, 0)), node_ids=["lone"])
    assert adjacency(cell_neighbors([left, right, lone])) == {"a": ["b"], "b": ["a"]}
    assert adjacency({}) == {}


# ------------------------------------------------------------------ lloyd_step

def test_lloyd_fixpoint():
    # a symmetric 2-cell split of a square is already centroidal
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0))
    before = d.sites.copy()
    lloyd_step([d])
    assert np.abs(d.sites - before).max() < 1e-12


def test_lloyd_two_sites_converges_to_halves():
    d = power_diagram([(0.3, 0.7), (0.45, 0.2)], square(1.0))
    for _ in range(200):
        before = d.sites.copy()
        lloyd_step([d])
        if np.hypot(*(d.sites - before).T).max() < 1e-4 * d.scale:
            break
    a, b = d.cells
    assert a.area == pytest.approx(0.5, rel=0.01)
    assert b.area == pytest.approx(0.5, rel=0.01)


def test_lloyd_single_site_jumps_to_centroid():
    d = power_diagram([(0.9, 0.9)], square(1.0))
    lloyd_step([d])
    assert d.cells[0].site == pytest.approx([0.5, 0.5])


def test_lloyd_step_raises_on_an_empty_cell(monkeypatch):
    d = power_diagram([(0.4, 0.5), (0.6, 0.5)], square(1.0), weights=[10.0, 0.0],
                      node_ids=["heavy", "dominated"])
    assert d.cells[1].polygon is None
    healthy = power_diagram([(0.3, 0.7), (0.45, 0.2)], square(1.0))
    before = [x.sites for x in (healthy, d)]
    monkeypatch.setattr(ConvexPolygon, "sample_point", None)   # no reseed
    with pytest.raises(GeometryError, match="dominated is empty before"):
        lloyd_step([healthy, d])
    # the empty cell is found before any site moves
    assert [x.sites.tobytes() for x in (healthy, d)] == [b.tobytes() for b in before]
    # the weighted cell's centroid moves far enough right to swallow the other
    d = power_diagram([(0.3, 0.5), (0.95, 0.5)], square(1.0), weights=[0.4, 0.0],
                      node_ids=["heavy", "squeezed"])
    with pytest.raises(GeometryError, match="squeezed is empty after"):
        lloyd_step([d])


def _lloyd_level():
    """Three zero-weight diagrams: two on all-pairs lists and one on hull
    candidate lists."""
    rng = np.random.default_rng(5)
    boundary = regular_polygon(12, radius=40.0, center=(50.0, 50.0))
    return [
        power_diagram([(40.0, 50.0), (60.0, 50.0)], square(100.0)),
        power_diagram([boundary.sample_point(rng) for _ in range(BATCH_MIN_CELLS + 2)], boundary),
        power_diagram([(10.0, 10.0), (30.0, 20.0), (20.0, 30.0)], square(40.0)),
    ]


def test_lloyd_step_on_a_level_equals_one_diagram_at_a_time():
    level, alone = _lloyd_level(), _lloyd_level()

    def cell_bytes(diagrams):
        return [(c.site.tobytes(), c.polygon.vertices.tobytes())
                for d in diagrams for c in d.cells]

    for _ in range(3):
        lloyd_step(level)
        for d in alone:
            lloyd_step([d])
        assert cell_bytes(level) == cell_bytes(alone)


def test_lloyd_reduces_second_moment():
    rng = np.random.default_rng(17)
    boundary = random_convex_boundary(rng)
    sites = np.array([boundary.sample_point(rng) for _ in range(6)])
    d = power_diagram(sites, boundary)

    def second_moment(diagram):
        total = 0.0
        for c in diagram.cells:
            if c.polygon is None:
                continue
            v = c.polygon.vertices
            # triangulate against vertex 0 and integrate ||x - site||^2 exactly
            for k in range(1, len(v) - 1):
                tri = np.array([v[0], v[k], v[k + 1]])
                u, w = tri[1] - tri[0], tri[2] - tri[0]
                a = abs(0.5 * (u[0] * w[1] - u[1] * w[0]))
                # quadratic exact rule: midpoints of edges
                mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
                val = np.sum((mids - c.site) ** 2) / 3.0
                total += a * val
        return total

    m0 = second_moment(d)
    lloyd_step([d])
    m1 = second_moment(d)
    assert m1 < m0


# ---------------------------------------------------------------- adapt_weights

def test_adapt_weights_fixpoint_at_targets():
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0), targets=[0.5, 0.5])
    w_before = [c.weight for c in d.cells]
    adapt_weights([d])
    assert [c.weight for c in d.cells] == pytest.approx(w_before, abs=1e-12)


def test_adapt_weights_converges_75_25():
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0), targets=[0.75, 0.25])
    for _ in range(100):
        adapt_weights([d])
    a, b = d.cells
    assert abs(a.area - 0.75) / 0.75 < 0.05
    assert abs(b.area - 0.25) / 0.25 < 0.05


def test_adapt_weights_revives_dominated_cell():
    d = power_diagram([(0.4, 0.5), (0.6, 0.5)], square(1.0),
                      weights=[10.0, 0.0], targets=[0.5, 0.5])
    assert d.cells[1].polygon is None
    for _ in range(50):
        adapt_weights([d])
        if d.cells[1].polygon is not None:
            break
    assert d.cells[1].polygon is not None


def test_adapt_weights_keeps_min_weight_nonnegative():
    rng = np.random.default_rng(23)
    boundary = square(2.0)
    sites = np.array([boundary.sample_point(rng) for _ in range(5)])
    d = power_diagram(sites, boundary, targets=[0.4, 0.3, 0.1, 0.1, 0.1])
    for _ in range(30):
        adapt_weights([d])
        assert min(c.weight for c in d.cells) >= -1e-12


# ----------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 2 * BATCH_MIN_CELLS), st.booleans())
def test_property_partition_containment(seed, n, far):
    """Cells tile the boundary, and every cell vertex lies within 1e-9 scale
    of it, on both recompute paths, near the origin and 1e6 away, where
    boundaries span from about 1 to 6 * 10^4."""
    rng = np.random.default_rng(seed)
    boundary = random_convex_boundary(rng)
    if far:
        boundary = ConvexPolygon(boundary.vertices * 10 ** rng.uniform(0, 4)
                                 + 1e6 * np.array([math.cos(seed), math.sin(seed)]))
    sites = np.array([boundary.sample_point(rng) for _ in range(n)])
    weights = rng.uniform(0, 0.1 * boundary.area, size=n)
    d = power_diagram(sites, boundary, weights=weights)
    assert _partition_ok(d)
    assert _containment_ok(d)


def test_power_diagram_far_from_origin():
    """17 sites in triangles of radius 0.5 centred at (1e6, 1e6): every diagram
    builds, every cell's centroid lies in the boundary, and the cells' areas
    sum to the boundary's within 1e-6 of it. Summed over absolute
    coordinates, seeds 13, 28 and 52 raised 'polygon area is degenerate' and
    seeds 5, 6 and 47 divided by zero; with bisector offsets
    p_j . p_j - p_i . p_i, the area sum was off by up to 0.30 of it."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=3))
        boundary = ConvexPolygon(1e6 + 0.5 * np.stack((np.cos(angles), np.sin(angles)), axis=1))
        sites = [boundary.sample_point(rng) for _ in range(17)]
        d = power_diagram(sites, boundary)
        assert _partition_ok(d, rel=1e-6), seed
        for c in d.cells:
            if c.polygon is not None:
                assert boundary.contains(c.polygon.centroid, tol=1e-9 * boundary.diagonal), seed


def test_recompute_in_place_identity():
    d = power_diagram([(0.3, 0.3), (0.7, 0.7)], square(1.0))
    v_before = [c.polygon.vertices.copy() for c in d.cells]
    recompute(d)
    for c, v in zip(d.cells, v_before):
        assert np.allclose(c.polygon.vertices, v)


# ---------------------------------------------------------- batched recompute

def _polygon_or_none(points, ref_diag):
    """Reference: one ring finished alone, with no other ring in the call."""
    return _polygons(*_finish_rings(*_stack([points]), ref_diag))[0]


def _measure_bytes(poly):
    """Vertices, area, centroid, aabb and diagonal of poly, as bytes."""
    scalars = np.array([poly.area, *poly.aabb, poly.diagonal])
    return poly.vertices.tobytes() + scalars.tobytes() + poly.centroid.tobytes()


def _lists(sites, weights, seed=None):
    """(candidates, degree) of one diagram, from a level call of its own."""
    return level_neighbours(sites, weights, [len(sites)], [seed])[0]


def _candidate_lists(sites, weights):
    """The candidate lists of one diagram, one array per site."""
    candidates, degree = _lists(sites, weights)
    return np.split(candidates, np.cumsum(degree)[:-1])


def _per_cell_polygons(diagram, all_pairs=False):
    """Reference: clip each cell alone against its candidate half-planes in
    ascending j, and construct each ring's polygon on its own.

    The candidates are all other sites below BATCH_MIN_CELLS cells (or with
    all_pairs), else the cell's regular-triangulation neighbours, and none
    for a hidden site, whose cell is empty.
    """
    sites = np.array([c.site for c in diagram.cells])
    weights = np.array([c.weight for c in diagram.cells])
    n = len(sites)
    if all_pairs or n < BATCH_MIN_CELLS:
        candidates = [range(n)] * n
    else:
        candidates = _candidate_lists(sites, weights)
    out = []
    for i in range(n):
        v = None
        if len(candidates[i]):
            v = _clip_from(diagram.boundary.vertices, i, candidates[i], sites, weights)
        out.append(_polygon_or_none(v, diagram.scale))
    return out


def _assert_same_polygons(diagram, reference):
    """Each cell's polygon equals its reference polygon bit for bit, and its
    row of the diagram's areas and centroids carries the reference's
    measures, or both are None; returns how many are None."""
    for cell, area, centroid, ref in zip(diagram.cells, diagram.areas, diagram.centroids, reference,
                                         strict=True):
        assert (cell.polygon is None) == (ref is None), cell.node_id
        if ref is not None:
            assert _measure_bytes(cell.polygon) == _measure_bytes(ref), cell.node_id
            assert area.tobytes() + centroid.tobytes() == (
                np.float64(ref.area).tobytes() + ref.centroid.tobytes()), cell.node_id
    return sum(ref is None for ref in reference)


def _assert_recompute_matches_per_cell(diagram):
    """recompute(diagram) equals the per-cell reference bit for bit.

    The reference polygons are fresh ConvexPolygons whose measures are
    computed on first use, so this also checks the measures recompute
    caches.
    """
    reference = _per_cell_polygons(diagram)
    recompute(diagram)
    return _assert_same_polygons(diagram, reference)


@pytest.fixture
def hull_calls(monkeypatch):
    """Per level call for candidate lists, the sizes of the diagrams it
    serves; every smaller diagram gets all-pairs lists in the same
    _clip_rings call."""
    calls = []

    def spy(sites, weights, sizes, seeds=None):
        calls.append(list(sizes))
        return level_neighbours(sites, weights, sizes, seeds)

    monkeypatch.setattr(geometry, "level_neighbours", spy)
    return calls


@pytest.mark.parametrize("boundary", [
    regular_polygon(64, radius=500.0, center=(500.0, 500.0)),
    regular_polygon(6, radius=3.0, center=(2.0, -1.0)),
    square(10.0, origin=(-3.0, 4.0)),
], ids=["circle", "hexagon", "square"])
def test_batched_recompute_equals_per_cell(boundary, hull_calls):
    rng = np.random.default_rng(17)
    diag = boundary.diagonal
    sizes = [2, 5, BATCH_MIN_CELLS - 1, BATCH_MIN_CELLS, BATCH_MIN_CELLS + 1, 30, 60]
    empty = 0
    for n in sizes:
        for weight_frac in (0.0, 0.05, 0.2, 0.6):
            sites = [boundary.sample_point(rng) for _ in range(n)]
            weights = rng.uniform(0.0, (weight_frac * diag) ** 2, size=n)
            d = power_diagram(sites, boundary, weights=weights)
            empty += _assert_recompute_matches_per_cell(d)
    assert empty > 0
    hull_sizes = [n for n in sizes if n >= BATCH_MIN_CELLS]
    assert all(len(call) == 1 for call in hull_calls)
    assert sorted({n for call in hull_calls for n in call}) == hull_sizes


def test_batched_recompute_equals_per_cell_under_lloyd_and_growth():
    # near-regular CVT cells and growing weights: many near-degenerate clips
    rng = np.random.default_rng(4)
    boundary = regular_polygon(64, radius=500.0, center=(500.0, 500.0))
    sites = [boundary.sample_point(rng) for _ in range(40)]
    targets = rng.uniform(0.2, 1.0, size=40)
    d = power_diagram(sites, boundary, targets=targets / targets.sum())
    for step in range(30):
        if step < 15:
            lloyd_step([d])
        else:
            adapt_weights([d], rng=rng)
        _assert_recompute_matches_per_cell(d)


DENT = 1e-3


def _dented_diagram():
    """A square whose top edge dents inward at one vertex; the radical axis of
    sites 1 and 2 runs between the dent and the top corners, so cell 1's
    inside run against bisector 2 is not contiguous."""
    boundary = ConvexPolygon(np.array([
        [0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [5.0, 10.0 - DENT], [0.0, 10.0],
    ]))
    n = BATCH_MIN_CELLS + 2
    sites = [(1.0, 1.0), (5.0, 5.0), (5.0, 9.0)]
    sites += [(1.0 + 8.0 * k / (n - 4), 0.5) for k in range(n - 3)]
    weights = np.zeros(n)
    weights[1] = 24.0 - 4.0 * DENT   # puts the radical axis at y = 10 - DENT / 2
    return power_diagram(sites, boundary, weights=weights)


def _assert_cell_1_keeps_both_runs(d):
    """Cell 1 of _dented_diagram is clipped by its bisector with site 2, which
    leaves two runs of its ring inside, and keeps both: the radical axis
    crosses its ring four times."""
    sites = d.sites
    weights = np.array([c.weight for c in d.cells])
    assert 2 in _candidate_lists(sites, weights)[1].tolist()
    ys = d.cells[1].polygon.vertices[:, 1]
    assert np.isclose(ys, 10.0 - DENT / 2, rtol=0.0, atol=1e-12).sum() == 4


def test_batched_recompute_keeps_both_runs_of_a_dented_cell(hull_calls):
    d = _dented_diagram()
    hull_calls.clear()
    _assert_recompute_matches_per_cell(d)
    assert hull_calls == [[len(d.cells)]]
    _assert_cell_1_keeps_both_runs(d)


def _hausdorff(p, q):
    """Hausdorff distance between two convex polygons as filled regions.

    The distance to a convex region is convex, so each direction's maximum
    is at a vertex.
    """
    def directed(a, b):
        bv = b.vertices
        e = np.concatenate((bv[1:], bv[:1])) - bv
        rel = a.vertices[:, None, :] - bv[None, :, :]               # (V, E, 2)
        t = np.clip(np.einsum("vej,ej->ve", rel, e) / np.einsum("ej,ej->e", e, e), 0.0, 1.0)
        gap = rel - t[:, :, None] * e[None, :, :]
        dist = np.hypot(gap[:, :, 0], gap[:, :, 1]).min(axis=1)
        inside = (e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0] >= 0.0).all(axis=1)
        return float(np.where(inside, 0.0, dist).max())

    return max(directed(p, q), directed(q, p))


def _assert_matches_all_pairs(diagram):
    """recompute(diagram) has the all-pairs clipper's empty cells, and each
    other polygon lies within 1e-9 scale of it (Hausdorff)."""
    reference = _per_cell_polygons(diagram, all_pairs=True)
    recompute(diagram)
    for cell, ref in zip(diagram.cells, reference):
        assert (cell.polygon is None) == (ref is None), cell.node_id
        if ref is not None:
            assert _hausdorff(cell.polygon, ref) <= 1e-9 * diagram.scale, cell.node_id
    return sum(ref is None for ref in reference)


@pytest.mark.parametrize("boundary", [
    regular_polygon(64, radius=500.0, center=(500.0, 500.0)),
    regular_polygon(6, radius=3.0, center=(2.0, -1.0)),
    square(10.0, origin=(-3.0, 4.0)),
    square(10.0, origin=(1e6, -1e6)),
], ids=["circle", "hexagon", "square", "far"])
def test_recompute_matches_all_pairs_clipper(boundary, hull_calls):
    rng = np.random.default_rng(23)
    diag = boundary.diagonal
    empty = 0
    for n in (BATCH_MIN_CELLS, 11, 20, 30, 60, 200):
        for weight_frac in ((0.0, 0.2) if n == 200 else (0.0, 0.05, 0.2, 0.6)):
            sites = [boundary.sample_point(rng) for _ in range(n)]
            weights = rng.uniform(0.0, (weight_frac * diag) ** 2, size=n)
            d = power_diagram(sites, boundary, weights=weights)
            empty += _assert_matches_all_pairs(d)
    assert empty > 0
    assert min(n for call in hull_calls for n in call) == BATCH_MIN_CELLS


def test_power_neighbours_falls_back_to_all_pairs_on_collinear_sites(hull_calls):
    # collinear sites lift to a plane, where Qhull finds no hull and the
    # bisector test finds no edge; the lists take the plane first
    boundary = square(10.0)
    n = BATCH_MIN_CELLS + 3
    sites = np.stack((np.linspace(0.5, 9.5, n), np.full(n, 5.0)), axis=1)
    weights = np.random.default_rng(5).uniform(0.0, 0.5, size=n)
    everyone = list(range(n))
    assert [c.tolist() for c in _candidate_lists(sites, weights)] == [
        everyone[:i] + everyone[i + 1:] for i in range(n)]
    d = power_diagram(sites, boundary, weights=weights)
    reference = _per_cell_polygons(d, all_pairs=True)
    recompute(d)
    assert hull_calls[-1] == [n]
    for cell, ref in zip(d.cells, reference):
        assert (cell.polygon is None) == (ref is None), cell.node_id
        if ref is not None:
            assert _measure_bytes(cell.polygon) == _measure_bytes(ref), cell.node_id


def test_recompute_on_cocircular_grid(hull_calls):
    # equal weights on a grid: every 2 x 2 block of sites is cocircular, so
    # the lifted points of a block are coplanar
    boundary = square(4.0)
    grid = np.array([(x + 0.5, y + 0.5) for y in range(4) for x in range(4)])
    d = power_diagram(grid, boundary)
    _assert_recompute_matches_per_cell(d)
    _assert_matches_all_pairs(d)
    for cell, site in zip(d.cells, grid):
        assert cell.area == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(cell.polygon.centroid, site, rtol=0.0, atol=1e-12)
    assert hull_calls and all(call == [len(grid)] for call in hull_calls)
    neighbours = _candidate_lists(grid, np.zeros(len(grid)))
    assert max(len(c) for c in neighbours) < len(grid) - 1     # no fallback
    for i, (x, y) in enumerate(grid):
        # the four edge neighbours are candidates; a diagonal one may be
        edge = [j for j, (u, w) in enumerate(grid) if abs(u - x) + abs(w - y) == 1.0]
        assert set(edge) <= set(neighbours[i].tolist())


def _hidden_site_inputs():
    """(boundary, sites, weights): site 0 sits among four heavy sites whose
    power cells cover it."""
    boundary = square(10.0)
    ring = [(5.0 + dx, 5.0 + dy) for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    rng = np.random.default_rng(9)
    outer = []
    while len(outer) < BATCH_MIN_CELLS:
        p = boundary.sample_point(rng)
        if math.hypot(p[0] - 5.0, p[1] - 5.0) > 3.0:
            outer.append(p)
    sites = np.array([(5.0, 5.0)] + ring + outer)
    weights = np.zeros(len(sites))
    weights[1:5] = 4.0
    return boundary, sites, weights


def test_hidden_site_has_no_candidates_and_an_empty_cell(hull_calls):
    boundary, sites, weights = _hidden_site_inputs()
    neighbours = _candidate_lists(sites, weights)
    assert len(neighbours[0]) == 0
    assert all(0 not in c.tolist() for c in neighbours)
    d = power_diagram(sites, boundary, weights=weights)
    assert d.cells[0].polygon is None
    _assert_recompute_matches_per_cell(d)
    _assert_matches_all_pairs(d)
    assert hull_calls and all(call == [len(sites)] for call in hull_calls)


def _power_neighbours_by_unique(sites, weights):
    """Reference: the candidate lists (candidates, degree) read off the sorted
    unique keys owner * n + other of both directions of every lower-facet
    edge, with the same lift and the same Qhull fallback."""
    from scipy.spatial import ConvexHull, QhullError
    n = len(sites)
    c = sites - sites.mean(axis=0)
    size = float(np.abs(c).max()) or 1.0
    c = c / size
    lift = np.einsum("ij,ij->i", c, c) - weights / (size * size)
    try:
        hull = ConvexHull(np.column_stack((c, lift)))
    except QhullError:
        return np.nonzero(~np.eye(n, dtype=bool))[1], np.full(n, n - 1)
    facets = hull.simplices[hull.equations[:, 2] < 0.0]
    edges = facets[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = np.unique(np.concatenate((edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0])))
    owner, other = np.divmod(keys, n)
    return other, np.bincount(owner, minlength=n)


def _power_neighbour_inputs():
    """(sites, weights): random weighted sites of 10 to 60 cells, 11 sites of
    which three lie on one horizontal line, 12 equal-weight sites on a
    circle, and seeded diagrams, half of them 1e6 from the origin, with
    weights up to (0.6 diagonal)^2, which hide sites: 200 of 10 to 13 cells
    and 80 of 14 to 200 cells."""
    rng = np.random.default_rng(23)
    boundary = square(10.0)
    for n in (10, 11, 17, 30, 45, 60):
        for weight_frac in (0.0, 0.05, 0.3):
            sites = np.array([boundary.sample_point(rng) for _ in range(n)])
            yield sites, rng.uniform(0.0, (weight_frac * boundary.diagonal) ** 2, size=n)
    yield _three_collinear_inputs()
    ring = regular_polygon(12, radius=3.0, center=(5.0, 5.0)).vertices
    yield ring, np.zeros(len(ring))
    far = square(10.0, origin=(1e6, -1e6))
    for k in range(280):
        box = far if k % 2 else boundary
        if k < 200:
            n = 10 + k % 4
            weight_frac = (0.0, 0.05, 0.2, 0.6)[k // 4 % 4]
        else:
            n = (14, 20, 25, 30, 45, 60, 100, 120, 150, 200)[(k - 200) // 8]
            weight_frac = (0.0, 0.05, 0.2, 0.6)[k // 2 % 4]
        sites = np.array([box.sample_point(rng) for _ in range(n)])
        yield sites, rng.uniform(0.0, (weight_frac * box.diagonal) ** 2, size=n)


def _three_collinear_inputs():
    """(sites, weights): 11 sites of equal weight, of which 0, 1 and 2 lie on
    the line y = 0.5 below all others. Centring and scaling keep their y
    equal, so for the pair (0, 2) site 1 has a_k = 0 exactly, and it is
    nearer than 0 and 2 to their whole bisector."""
    rng = np.random.default_rng(7)
    upper = [(rng.uniform(0.5, 9.5), rng.uniform(2.0, 9.5)) for _ in range(8)]
    return np.array([(2.0, 0.5), (5.0, 0.5), (8.0, 0.5)] + upper), np.zeros(11)


def test_power_neighbours_equal_unique_reference():
    hidden, sizes = 0, []
    for sites, weights in _power_neighbour_inputs():
        candidates, degree = _lists(sites, weights)
        expected_candidates, expected_degree = _power_neighbours_by_unique(sites, weights)
        assert np.array_equal(candidates, expected_candidates)
        assert np.array_equal(degree, expected_degree)
        hidden += int(np.sum(degree == 0))
        sizes.append(len(sites))
    assert hidden > 0
    sizes = np.array(sizes)
    # every pair tested; pairs followed from a seed, in diagrams of up to 99
    # cells and of 100 cells or more
    assert np.sum(sizes <= triangulation.ALL_PAIRS_MAX_CELLS) > 200
    assert np.sum((sizes > triangulation.ALL_PAIRS_MAX_CELLS) & (sizes < 100)) > 20
    assert np.sum(sizes >= 100) > 30


def test_level_lists_do_not_depend_on_seeds():
    # a seed only picks the pairs tested first: the diagram's own lists,
    # those of its sites moved and reweighted, those of its sites shuffled
    # and mirrored, a pairing of each site with one other, which keeps few
    # pairs or none, and all pairs, which no triangulation has and which the
    # seed rule ignores, give the same lists
    rng = np.random.default_rng(5)
    checked = 0
    for sites, weights in _power_neighbour_inputs():
        n = len(sites)
        if n <= triangulation.ALL_PAIRS_MAX_CELLS or (n < 60 and rng.uniform() < 0.5):
            continue
        expected = _lists(sites, weights)
        spread = float(np.ptp(sites, axis=0).max())
        moved = sites + rng.normal(scale=0.1 * spread / math.sqrt(n), size=sites.shape)
        scattered = rng.permutation(sites)[:, ::-1]
        # each site paired with one other, mostly not a neighbour
        partner = rng.permutation(n - n % 2).reshape(-1, 2)
        paired = np.zeros(n, dtype=np.intp)
        paired[partner[:, 0]], paired[partner[:, 1]] = partner[:, 1], partner[:, 0]
        has = np.arange(n) < n - n % 2
        pairing = (paired[np.sort(np.flatnonzero(has))], has.astype(np.intp))
        seeds = [expected, _lists(moved, rng.permutation(weights)), _lists(scattered, weights),
                 pairing, triangulation.all_pairs(n)]
        for seed in seeds:
            got = _lists(sites, weights, seed)
            assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        checked += 1
    assert checked >= 40


def _tilted_grid(rows, cols, weight):
    """(sites, weights): a rows x cols unit grid turned by 0.3 rad and moved
    to (1e3, -2e3), so that every 2 x 2 block is cocircular up to rounding;
    with `weight`, the sites of one colour of a checkerboard are that much
    heavier."""
    turn = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    grid = np.array([(x, y) for y in range(rows) for x in range(cols)], dtype=float)
    weights = np.array([weight * ((x + y) % 2) for y in range(rows) for x in range(cols)])
    return grid @ turn.T + (1e3, -2e3), weights


@pytest.mark.parametrize("rows, cols, weight", [(5, 6, 0.0), (8, 9, 0.0), (6, 6, 0.3), (9, 10, 0.0)])
def test_followed_lists_equal_every_pair_tested(rows, cols, weight, monkeypatch):
    # on a tilted grid, four sites tie at every vertex up to rounding: the
    # kept stretches must be followed through every site tied at their ends
    sites, weights = _tilted_grid(rows, cols, weight)
    jitter = np.random.default_rng(rows * cols).normal(scale=0.2, size=sites.shape)
    seeds = [None, _lists(sites + jitter, weights)]
    found = [_lists(sites, weights, seed) for seed in seeds]
    monkeypatch.setattr(triangulation, "ALL_PAIRS_MAX_CELLS", len(sites))
    every = _lists(sites, weights)
    for candidates, degree in found:
        assert np.array_equal(candidates, every[0]) and np.array_equal(degree, every[1])
    assert degree.min() >= 2


def _mixed_size_level():
    """(sites, weights, sizes, boxes): one level's stacked diagrams of 10, 13,
    20, 30, 60 and 120 cells, on boundaries far apart, with weights that hide
    sites."""
    rng = np.random.default_rng(41)
    parts, boxes = [], []
    for k, (n, weight_frac) in enumerate([(10, 0.2), (13, 0.0), (20, 0.6), (30, 0.05), (60, 0.3),
                                          (120, 0.2)]):
        boxes.append(square(10.0, origin=(1e3 * k, 1e6 * (k % 2))))
        sites = np.array([boxes[-1].sample_point(rng) for _ in range(n)])
        parts.append((sites, rng.uniform(0.0, (weight_frac * boxes[-1].diagonal) ** 2, size=n)))
    return (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]),
            [len(p[0]) for p in parts], boxes)


def test_level_call_equals_one_call_per_diagram():
    sites, weights, sizes, _ = _mixed_size_level()
    starts = np.cumsum(sizes) - sizes
    alone = [_lists(sites[a:a + n], weights[a:a + n]) for a, n in zip(starts, sizes)]
    first = level_neighbours(sites, weights, sizes)
    # seeded with the lists of a level whose sites have moved
    moved = sites + np.random.default_rng(3).normal(scale=0.2, size=sites.shape)
    again = level_neighbours(sites, weights, sizes, level_neighbours(moved, weights, sizes))
    for lists in (first, again):
        assert len(lists) == len(sizes)
        for (candidates, degree), (expected, expected_degree) in zip(lists, alone):
            assert np.array_equal(candidates, expected) and np.array_equal(degree, expected_degree)
    assert sum(int(np.sum(degree == 0)) for _, degree in alone) > 0


def test_recompute_level_of_mixed_sizes_calls_for_lists_once(hull_calls):
    sites, weights, sizes, boxes = _mixed_size_level()
    rng = np.random.default_rng(43)
    small = square(10.0, origin=(-1e3, 0.0))
    diagrams = [power_diagram([small.sample_point(rng) for _ in range(5)], small)]
    for a, n, box in zip(np.cumsum(sizes) - sizes, sizes, boxes):
        diagrams.append(power_diagram(sites[a:a + n], box, weights=weights[a:a + n]))
    references = [_per_cell_polygons(d) for d in diagrams]
    hull_calls.clear()
    geometry.recompute_level(diagrams)
    assert hull_calls == [sizes]
    for d, reference in zip(diagrams, references):
        _assert_same_polygons(d, reference)


def test_bisector_lists_leave_out_the_zero_length_diagonal_qhull_adds():
    # sites 1-4 of the hidden-site input are cocircular with equal weights,
    # so their lifts span one planar lower face. Qhull splits it by one
    # diagonal, whose bisector meets the other two cells in a single point;
    # the bisector test, which the input cut to 13 sites takes, drops it.
    _, sites, weights = _hidden_site_inputs()
    sites, weights = sites[:13], weights[:13]
    ours = _candidate_lists(sites, weights)
    candidates, degree = _power_neighbours_by_unique(sites, weights)
    qhull = np.split(candidates, np.cumsum(degree)[:-1])
    assert all(set(a.tolist()) <= set(b.tolist()) for a, b in zip(ours, qhull))
    extra = {(i, j) for i in range(len(sites)) for j in set(qhull[i].tolist()) - set(ours[i].tolist())}
    assert extra in ({(1, 3), (3, 1)}, {(2, 4), (4, 2)})
    assert len(ours[0]) == 0
    d = power_diagram(sites, square(10.0), weights=weights)
    assert _assert_recompute_matches_per_cell(d) == 1
    _assert_matches_all_pairs(d)


@pytest.mark.parametrize("name", ["hidden_site", "grid"])
def test_lists_leave_out_only_the_diagonals_of_planar_faces(name):
    # four cocircular sites of equal weight span one planar lower face: the
    # whole hidden-site input has one, the 4 x 4 grid one per unit square.
    # Qhull adds a diagonal to each; every list has all else.
    if name == "grid":
        boundary = square(4.0)
        sites = np.array([(x + 0.5, y + 0.5) for y in range(4) for x in range(4)], dtype=float)
        weights = np.zeros(len(sites))
        faces = 9
    else:
        boundary, sites, weights = _hidden_site_inputs()
        faces = 1
    ours = _candidate_lists(sites, weights)
    candidates, degree = _power_neighbours_by_unique(sites, weights)
    qhull = np.split(candidates, np.cumsum(degree)[:-1])
    assert all(set(a.tolist()) <= set(b.tolist()) for a, b in zip(ours, qhull))
    extra = {(i, j) for i in range(len(sites)) for j in set(qhull[i].tolist()) - set(ours[i].tolist())
             if i < j}
    assert len(extra) == faces
    d = power_diagram(sites, boundary, weights=weights)
    _assert_matches_all_pairs(d)
    # the all-pairs cells of a diagonal's sites share no edge
    reference = dataclasses.replace(d)
    reference.rings, reference.lengths = _stack([None if p is None else p.vertices
                                                 for p in _per_cell_polygons(d, all_pairs=True)])
    contacts = cell_neighbors([reference])
    for i, j in extra:
        assert tuple(sorted((d.cells[i].node_id, d.cells[j].node_id))) not in contacts


def test_pair_indices_are_cached_and_read_only():
    for n in range(2, triangulation.ALL_PAIRS_MAX_CELLS + 1):
        i, j = triangulation._pair_indices(n)
        assert np.array_equal(np.stack((i, j)), np.triu_indices(n, 1))
        assert not i.flags.writeable and not j.flags.writeable
        again = triangulation._pair_indices(n)
        assert again[0] is i and again[1] is j


def test_all_pairs_is_cached_and_read_only():
    for n in range(1, BATCH_MIN_CELLS):
        candidates, degree = triangulation.all_pairs(n)
        assert np.array_equal(candidates, np.nonzero(~np.eye(n, dtype=bool))[1])
        assert np.array_equal(degree, np.full(n, n - 1))
        assert not candidates.flags.writeable and not degree.flags.writeable
        again = triangulation.all_pairs(n)
        assert again[0] is candidates and again[1] is degree


def _mixed_level():
    """Diagrams of one level, on overlapping boundaries of 3 to 64 vertices:
    one-cell pass-throughs, all-pairs diagrams of 2-9 cells, hull diagrams
    of 10-60 cells, a hidden site and a ring with two inside runs (the
    dented diagram, at stack index 0)."""
    rng = np.random.default_rng(31)
    gon = regular_polygon(64, radius=5.0, center=(5.0, 5.0))
    hexagon = regular_polygon(6, radius=4.0, center=(4.0, 6.0))
    triangle = ConvexPolygon(np.array([[0.0, 0.0], [10.0, 1.0], [3.0, 9.0]]))
    diagrams = [_dented_diagram()]
    for n, boundary, weight_frac in [
        (1, triangle, 0.0), (2, hexagon, 0.2), (1, gon, 0.0), (5, gon, 0.6),
        (9, triangle, 0.05), (BATCH_MIN_CELLS, hexagon, 0.2), (3, triangle, 0.6),
        (30, gon, 0.05), (60, square(10.0), 0.2), (1, hexagon, 0.0),
    ]:
        sites = [boundary.sample_point(rng) for _ in range(n)]
        weights = rng.uniform(0.0, (weight_frac * boundary.diagonal) ** 2, size=n)
        diagrams.append(power_diagram(sites, boundary, weights=weights,
                                      node_ids=[f"d{len(diagrams)}c{i}" for i in range(n)]))
    boundary, sites, weights = _hidden_site_inputs()
    diagrams.append(power_diagram(sites, boundary, weights=weights))
    return diagrams


def test_recompute_level_equals_per_cell(monkeypatch, hull_calls):
    level = _mixed_level()
    references = [_per_cell_polygons(d) for d in level]
    for d in level:
        d.rings = d.lengths = d.areas = d.centroids = None
    hull_calls.clear()
    kernel_calls = []
    clip_rings = geometry._clip_rings

    def spy(rings, owner, *args):
        kernel_calls.append(len(owner))
        return clip_rings(rings, owner, *args)

    monkeypatch.setattr(geometry, "_clip_rings", spy)
    assert geometry.recompute_level(level) is level
    assert kernel_calls == [sum(len(d.cells) for d in level)]
    assert hull_calls == [[len(d.cells) for d in level if len(d.cells) >= BATCH_MIN_CELLS]]
    empty = sum(_assert_same_polygons(d, ref) for d, ref in zip(level, references))
    assert level[-1].cells[0].polygon is None and empty >= 1
    for d in level:
        if len(d.cells) == 1:
            assert _measure_bytes(d.cells[0].polygon) == _measure_bytes(d.boundary)
    _assert_cell_1_keeps_both_runs(level[0])


def test_recompute_level_error_leaves_every_cell_unchanged():
    healthy = power_diagram([(2.0, 3.0), (7.0, 6.0), (4.0, 8.0)], square(10.0))
    sliver = power_diagram([(0.5, 0.25), (0.5, 0.75)], square(1.0))
    # the radical axis at y = 1 - 1e-13 leaves cell 1 a sliver of area 1e-13:
    # not None against a reference diagonal of 1e-3, degenerate for its own
    sliver.scale = 1e-3
    sliver.weights[0] = 0.5 - 1e-13
    cells = [d.cells for d in (healthy, sliver)]

    def state():
        return [(d.rings, d.lengths, d.areas, d.centroids) for d in (healthy, sliver)]

    before = state()
    healthy.sites += 0.5
    with pytest.raises(GeometryError, match="degenerate"):
        geometry.recompute_level([healthy, sliver])
    assert all(a is b for now, then in zip(state(), before) for a, b in zip(now, then))
    assert [d.cells for d in (healthy, sliver)] == cells


def test_finish_rings_equals_per_ring_reference():
    """Each ring's polygon in a mixed stack is byte-equal to the ring's polygon
    finished alone, in either stack order, and carries the measures
    ConvexPolygon takes of its vertices; the arrays are read-only."""
    scale = 10.0
    near = 1e-14 * scale                      # below the 1e-12 * scale dedupe gap
    rings = [
        np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]]),
        np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 1.0 + near], [2.0, 2.0], [1.0, 2.0]]),
        None,
        np.array([[0.0, 0.0], [0.0, 3.0], [4.0, 3.0], [4.0, 0.0]]),        # clockwise
        np.array([[5.0, 5.0], [6.0, 5.0], [6.0, 5.0 + near]]),              # 2 after dedupe
        np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 1e-15]]),                   # |area| <= 1e-14 s^2
        np.array([[3.0, 3.0], [4.0, 3.0], [4.0, 4.0], [3.0, 4.0]]),
        np.array([[0.0, 0.0], [near, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]),
        np.array([[0.0, 0.0], [1.0, -1.0], [3.0, 0.5], [2.0, 2.5], [-0.5, 1.5]]),
        regular_polygon(64, radius=4.0, center=(1e6, -1e6)).vertices,
        np.array([[1.0, 1.0], [2.0, 1.0]]),                                 # 2 vertices
    ]
    expected = [_polygon_or_none(v, scale) for v in rings]
    assert [p is None for p in expected] == [False, False, True, False, True, True,
                                             False, False, False, False, True]
    for order in (list(range(len(rings))), list(range(len(rings)))[::-1]):
        finished = _finish_rings(*_stack([rings[k] for k in order]), scale)
        assert not any(a.flags.writeable for a in finished)
        for k, p in zip(order, _polygons(*finished)):
            ref = expected[k]
            assert (p is None) == (ref is None), k
            if ref is not None:
                assert _measure_bytes(p) == _measure_bytes(ref), k
    assert len(expected[1].vertices) == 4 and len(expected[7].vertices) == 4
    assert expected[3].vertices.tobytes() == rings[3][::-1].tobytes()
    for p in (expected[0], expected[3]):
        assert p.area == 12.0 and p.centroid.tolist() == [2.0, 1.5]
        assert p.aabb == (0.0, 0.0, 4.0, 3.0) and p.diagonal == 5.0
    assert expected[6].area == 1.0 and expected[6].centroid.tolist() == [3.5, 3.5]


def test_finish_rings_raises_on_sliver_above_none_threshold():
    # area 5e-14 is above 1e-14 * scale^2 (not None) but below 1e-12 * diag^2
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13]])
    with pytest.raises(GeometryError):
        _polygon_or_none(sliver, 1.0)
    fine = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryError):
        _finish_rings(*_stack([fine, sliver]), 1.0)
    with pytest.raises(GeometryError):
        _finish_rings(*_stack([sliver[::-1], fine]), 1.0)     # clockwise


def test_clip_halfplane_equals_per_ring_reference():
    rng = np.random.default_rng(12)
    clipped = 0
    for _ in range(200):
        poly = random_convex_boundary(rng)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        normal = np.array([math.cos(angle), math.sin(angle)])
        heights = poly.vertices @ normal
        offset = rng.uniform(heights.min() - 0.1, heights.max() + 0.1)
        flat, lengths = _clip_once(poly.vertices, normal, offset)
        ring = _clip_array(poly.vertices, normal, offset)
        ref = None if ring is None else _polygon_or_none(ring, poly.diagonal)
        if ring is poly.vertices:
            assert np.array_equal(flat, poly.vertices)    # the ring comes back unchanged
            continue
        got, = _polygons(*_finish_rings(flat, lengths, poly.diagonal))
        assert (got is None) == (ref is None)
        if ref is not None:
            assert _measure_bytes(got) == _measure_bytes(ref)
            clipped += 1
    assert clipped > 100


def test_boundary_edge_frame_is_cached_and_read_only():
    boundary = regular_polygon(6, radius=3.0, center=(2.0, -1.0))
    frame = boundary._edge_frame
    assert boundary._edge_frame is frame
    normals, offsets, slack, length = frame
    assert slack > 0.0
    v = boundary.vertices
    e = np.roll(v, -1, axis=0) - v
    assert np.allclose(length, np.hypot(e[:, 0], e[:, 1]), rtol=1e-15, atol=0.0)
    heights = v @ normals - offsets        # [vertex, edge]; edge k runs v_k -> v_k+1
    assert np.allclose(np.diag(heights), 0.0, atol=1e-12)
    assert np.allclose(np.diag(np.roll(heights, -1, axis=0)), 0.0, atol=1e-12)
    assert heights.min() >= -1e-12
    for a in (normals, offsets, length):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_cell_area():
    assert Cell(node_id="x", site=np.zeros(2), polygon=square(1.0)).area == 1.0
    assert Cell(node_id="y", site=np.zeros(2)).area == 0.0
