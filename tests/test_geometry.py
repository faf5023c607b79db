"""Power-diagram kernel: clipping, measures, neighbors, Lloyd, weight growth."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmap.datasets import gen_synthetic
from simmap.geometry import (
    Cell,
    ConvexPolygon,
    GeometryError,
    adapt_weights,
    cell_neighbors,
    lloyd_step,
    polygon_measures,
    power_diagram,
    recompute,
    regular_polygon,
    square,
)
from simmap.optimizer import OptimizerConfig
from simmap.pipeline import RunConfig, run


def rect(x0, y0, x1, y1):
    return ConvexPolygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


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


# -------------------------------------------------------------- ConvexPolygon

def test_polygon_enforces_ccw():
    cw = ConvexPolygon(np.array([[0, 0], [0, 1], [1, 1], [1, 0]]))  # clockwise input
    assert cw.area > 0


def test_polygon_rejects_degenerate():
    with pytest.raises(GeometryError):
        ConvexPolygon(np.array([[0, 0], [1, 0], [2, 0]]))
    with pytest.raises(GeometryError):
        ConvexPolygon(np.array([[0, 0], [1, 0]]))


def test_contains_with_tolerance():
    sq = square(1.0)
    assert sq.contains(np.array([0.5, 0.5]))
    assert sq.contains(np.array([0.0, 0.5]))  # on the edge
    assert not sq.contains(np.array([-0.01, 0.5]))
    # negative tol demands strict interiority
    assert not sq.contains(np.array([0.0, 0.5]), tol=-1e-6)
    assert sq.contains(np.array([0.001, 0.5]), tol=-1e-6)


def test_clip_halfplane_whole_and_empty():
    sq = square(1.0)
    assert sq.clip_halfplane(np.array([1.0, 0.0]), 2.0) is sq  # keeps everything
    assert sq.clip_halfplane(np.array([1.0, 0.0]), -1.0) is None  # removes everything


def test_clip_halfplane_half():
    sq = square(1.0)
    half = sq.clip_halfplane(np.array([1.0, 0.0]), 0.5)  # x <= 0.5
    assert half.area == pytest.approx(0.5)
    assert half.vertices[:, 0].max() == pytest.approx(0.5)


def test_inset_square():
    sq = square(1.0)
    inner = sq.inset(0.1)
    assert inner.area == pytest.approx(0.64)
    assert sq.inset(0.6) is None  # margin swallows the polygon


# ----------------------------------------------------------- polygon_measures

def test_measures_unit_square():
    area, centroid, aabb = polygon_measures(square(1.0))
    assert area == pytest.approx(1.0)
    assert centroid == pytest.approx([0.5, 0.5])
    assert aabb == pytest.approx((0.0, 0.0, 1.0, 1.0))


def test_measures_triangle():
    tri = ConvexPolygon(np.array([[0, 0], [2, 0], [0, 2]]))
    area, centroid, _ = polygon_measures(tri)
    assert area == pytest.approx(2.0)
    assert centroid == pytest.approx([2 / 3, 2 / 3])


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
    (p0, p1, length), = nm[("a", "b")]
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
    assert nm[("a", "b")][0][2] == pytest.approx(1.0)


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
    for key, segs in fast.items():
        assert max(s[2] for s in segs) == pytest.approx(slow[key], abs=1e-6 * scale)


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
        assert len(fast[key]) == len(segs), key
        for (p0, p1, ln), (q0, q1, lq) in zip(fast[key], segs):
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


# ------------------------------------------------------------------ lloyd_step

def test_lloyd_fixpoint():
    # a symmetric 2-cell split of a square is already centroidal
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0))
    before = d.sites.copy()
    lloyd_step(d)
    assert np.abs(d.sites - before).max() < 1e-12


def test_lloyd_two_sites_converges_to_halves():
    d = power_diagram([(0.3, 0.7), (0.45, 0.2)], square(1.0))
    for _ in range(200):
        before = d.sites.copy()
        lloyd_step(d)
        if np.hypot(*(d.sites - before).T).max() < 1e-4 * d.scale:
            break
    a, b = d.cells
    assert a.area == pytest.approx(0.5, rel=0.01)
    assert b.area == pytest.approx(0.5, rel=0.01)


def test_lloyd_single_site_jumps_to_centroid():
    d = power_diagram([(0.9, 0.9)], square(1.0))
    lloyd_step(d)
    assert d.cells[0].site == pytest.approx([0.5, 0.5])


def test_lloyd_reseeds_empty_cells():
    d = power_diagram([(0.4, 0.5), (0.6, 0.5)], square(1.0), weights=[10.0, 0.0])
    assert d.cells[1].polygon is None
    lloyd_step(d, np.random.default_rng(0))
    # the dominated site was reseeded; with equal recomputation it may still be
    # dominated by weight, so only require the loop to terminate cleanly
    assert d.cells[0].polygon is not None


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
    lloyd_step(d)
    m1 = second_moment(d)
    assert m1 < m0


# ---------------------------------------------------------------- adapt_weights

def test_adapt_weights_fixpoint_at_targets():
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0), targets=[0.5, 0.5])
    w_before = [c.weight for c in d.cells]
    adapt_weights(d)
    assert [c.weight for c in d.cells] == pytest.approx(w_before, abs=1e-12)


def test_adapt_weights_converges_75_25():
    d = power_diagram([(0.25, 0.5), (0.75, 0.5)], square(1.0), targets=[0.75, 0.25])
    for _ in range(100):
        adapt_weights(d, rate=0.7)
    a, b = d.cells
    assert abs(a.area - 0.75) / 0.75 < 0.05
    assert abs(b.area - 0.25) / 0.25 < 0.05


def test_adapt_weights_revives_dominated_cell():
    d = power_diagram([(0.4, 0.5), (0.6, 0.5)], square(1.0),
                      weights=[10.0, 0.0], targets=[0.5, 0.5])
    assert d.cells[1].polygon is None
    for _ in range(50):
        adapt_weights(d, rate=0.7)
        if d.cells[1].polygon is not None:
            break
    assert d.cells[1].polygon is not None


def test_adapt_weights_keeps_min_weight_nonnegative():
    rng = np.random.default_rng(23)
    boundary = square(2.0)
    sites = np.array([boundary.sample_point(rng) for _ in range(5)])
    d = power_diagram(sites, boundary, targets=[0.4, 0.3, 0.1, 0.1, 0.1])
    for _ in range(30):
        adapt_weights(d, rate=0.7)
        assert min(c.weight for c in d.cells) >= -1e-12


# ----------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_property_partition_containment(seed, n):
    rng = np.random.default_rng(seed)
    boundary = random_convex_boundary(rng)
    sites = np.array([boundary.sample_point(rng) for _ in range(n)])
    weights = rng.uniform(0, 0.1 * boundary.area, size=n)
    d = power_diagram(sites, boundary, weights=weights)
    assert _partition_ok(d)
    assert _containment_ok(d)


def test_recompute_in_place_identity():
    d = power_diagram([(0.3, 0.3), (0.7, 0.7)], square(1.0))
    v_before = [c.polygon.vertices.copy() for c in d.cells]
    recompute(d)
    for c, v in zip(d.cells, v_before):
        assert np.allclose(c.polygon.vertices, v)


def test_cell_equiv_radius():
    c = Cell(node_id="x", site=np.zeros(2), polygon=square(1.0))
    assert c.equiv_radius == pytest.approx(math.sqrt(1.0 / math.pi))
    empty = Cell(node_id="y", site=np.zeros(2))
    assert empty.area == 0.0
    assert empty.equiv_radius == 0.0
