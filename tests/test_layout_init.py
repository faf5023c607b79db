"""Initial assignment machinery: MDS, CVT, matching, swapping, baselines."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmap import geometry, layout_init
from simmap.geometry import BATCH_MIN_CELLS, ConvexPolygon, power_diagram, regular_polygon, square
from simmap.layout_init import (
    Assignment,
    ProjectedPositions,
    build_cvt,
    cvt_adjacency,
    fit_points_in_polygon,
    match_assignment,
    mds_project,
    proj_scale_init,
    random_assignment,
    realized_count,
    swap_improve,
)
from simmap.similarity import Constraint, SimilarityMatrix


def matrix_from(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = ids or [f"n{i}" for i in range(len(values))]
    return SimilarityMatrix(level=1, node_ids=ids, values=values)


def constraint(a, b, s=0.9):
    return Constraint(a=a, b=b, similarity=s, bin=0, level=1)


# ------------------------------------------------------------------ mds_project

def test_mds_two_nodes_distance():
    m = matrix_from([[0, 0.5], [0.5, 0]])
    pos = mds_project(m)
    d = math.hypot(*(pos.points[0] - pos.points[1]))
    assert d == pytest.approx(0.5)


def test_mds_single_node_origin():
    pos = mds_project(matrix_from([[0.0]]))
    assert pos.points == pytest.approx(np.zeros((1, 2)))


def test_mds_three_equidistant():
    v = np.full((3, 3), 0.4)
    np.fill_diagonal(v, 0.0)
    pos = mds_project(matrix_from(v))
    d01 = math.hypot(*(pos.points[0] - pos.points[1]))
    d02 = math.hypot(*(pos.points[0] - pos.points[2]))
    d12 = math.hypot(*(pos.points[1] - pos.points[2]))
    assert d01 == pytest.approx(d02, abs=1e-9)
    assert d01 == pytest.approx(d12, abs=1e-9)


def test_mds_recovers_planar_distances():
    # build a dissimilarity from known 2D points; recovery is exact up to a
    # rigid motion, so compare pairwise distances
    pts = np.array([[0.0, 0.0], [0.6, 0.0], [0.3, 0.5], [0.1, 0.4]])
    n = len(pts)
    delta = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    pos = mds_project(matrix_from(1.0 - delta))
    for i in range(n):
        for j in range(n):
            got = math.hypot(*(pos.points[i] - pos.points[j]))
            assert got == pytest.approx(delta[i, j], abs=1e-6)


def test_mds_deterministic():
    rng = np.random.default_rng(2)
    v = rng.uniform(0, 1, size=(5, 5))
    v = 0.5 * (v + v.T)
    np.fill_diagonal(v, 0.0)
    p1 = mds_project(matrix_from(v)).points
    p2 = mds_project(matrix_from(v.copy())).points
    assert np.array_equal(p1, p2)


# -------------------------------------------------------------------- build_cvt

def test_cvt_single_cell():
    boundary = regular_polygon(8, radius=2.0)
    cvt = build_cvt([(boundary, 1, 0)])[0]
    assert len(cvt.cells) == 1
    assert cvt.cells[0].area == pytest.approx(boundary.area)
    assert cvt.cells[0].site == pytest.approx(boundary.centroid, abs=1e-6)


def test_cvt_four_in_square_near_quadrants():
    cvt = build_cvt([(square(1.0), 4, 3)])[0]
    for c in cvt.cells:
        assert c.area == pytest.approx(0.25, abs=0.02)


def test_cvt_deterministic():
    boundary = square(1.0)
    a = build_cvt([(boundary, 5, 11)])[0].sites
    b = build_cvt([(boundary, 5, 11)])[0].sites
    assert np.array_equal(a, b)


def test_cvt_sites_inside():
    boundary = regular_polygon(5, radius=3.0)
    cvt = build_cvt([(boundary, 7, 4)])[0]
    for c in cvt.cells:
        assert boundary.contains(c.site, tol=-1e-12 * boundary.diagonal)


def _spy_lloyd_steps(monkeypatch):
    """Every lloyd_step call build_cvt makes, as {id(diagram): its largest
    site displacement}."""
    calls = []
    real = layout_init.lloyd_step

    def spy(diagrams):
        before = [d.sites for d in diagrams]
        real(diagrams)
        calls.append({id(d): np.hypot(*(d.sites - b).T).max()
                      for d, b in zip(diagrams, before)})
        return diagrams

    monkeypatch.setattr(layout_init, "lloyd_step", spy)
    return calls


def _cvt_bytes(cvt):
    return [(c.site.tobytes(), c.polygon.vertices.tobytes(), c.polygon.area,
             c.polygon.centroid.tobytes(), c.polygon.aabb, c.polygon.diagonal)
            for c in cvt.cells]


# a mixed level: both sides of BATCH_MIN_CELLS, and seeds whose CVTs take
# 2, 7, 32, 65, 102 and 133 Lloyd steps alone
FAR_TRIANGLE = ConvexPolygon(np.array([[1e6, 1e6], [1e6 + 3.0, 1e6 + 0.5], [1e6 + 1.0, 1e6 + 2.5]]))
MIXED_LEVEL = [
    (square(1.0), 1, 0),
    (regular_polygon(64, radius=500.0, center=(500.0, 500.0)), 2, 0),
    (FAR_TRIANGLE, BATCH_MIN_CELLS - 1, 3),
    (square(1.0), BATCH_MIN_CELLS, 0),
    (regular_polygon(64, radius=500.0, center=(500.0, 500.0)), 20, 2),
    (FAR_TRIANGLE, 40, 0),
]


def test_cvt_level_equals_one_call_per_parent(monkeypatch):
    calls = _spy_lloyd_steps(monkeypatch)
    alone, steps = [], []
    for parent in MIXED_LEVEL:
        calls.clear()
        alone.append(build_cvt([parent])[0])
        steps.append(len(calls))
    assert len(set(steps)) == len(MIXED_LEVEL)
    calls.clear()
    level = build_cvt(MIXED_LEVEL)
    assert [len(call) for call in calls] == [sum(s > t for s in steps) for t in range(max(steps))]
    for cvt, ref in zip(level, alone):
        assert _cvt_bytes(cvt) == _cvt_bytes(ref)
        # it steps until its largest displacement is below 1e-4 scale, and no further
        disp = [call[id(cvt)] for call in calls if id(cvt) in call]
        assert min(disp[:-1], default=np.inf) >= 1e-4 * cvt.scale > disp[-1]


def test_cvt_level_recomputes_once_per_lloyd_step(monkeypatch):
    calls = _spy_lloyd_steps(monkeypatch)
    steps = []
    for parent in MIXED_LEVEL:
        calls.clear()
        build_cvt([parent])
        steps.append(len(calls))
    clips = []
    real = geometry._clip_rings

    def spy(rings, *args):
        clips.append(len(rings))
        return real(rings, *args)

    monkeypatch.setattr(geometry, "_clip_rings", spy)
    calls.clear()
    build_cvt(MIXED_LEVEL)
    assert len(calls) == max(steps)
    # one per start diagram, then one per step for the CVTs still relaxing
    assert clips == [1] * len(MIXED_LEVEL) + [len(call) for call in calls]


def test_cvt_level_of_every_size_and_boundary_has_no_empty_cell():
    # both sides of BATCH_MIN_CELLS in each boundary; lloyd_step raises
    # GeometryError on an empty cell instead of reseeding it
    boundaries = [regular_polygon(64, radius=500.0, center=(500.0, 500.0)), square(1.0),
                  FAR_TRIANGLE]
    sizes = (2, 9, 10, 40, 120)
    level = build_cvt([(b, n, 10 * k + j) for k, b in enumerate(boundaries)
                       for j, n in enumerate(sizes)])
    assert [len(cvt.cells) for cvt in level] == list(sizes) * len(boundaries)
    for cvt in level:
        assert all(c.polygon is not None for c in cvt.cells)


# ---------------------------------------------------------- fit_points_in_polygon

def test_fit_preserves_shape():
    boundary = square(10.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    out = fit_points_in_polygon(pts, boundary)
    # a similarity transform keeps distance ratios
    d01 = math.hypot(*(out[0] - out[1]))
    d02 = math.hypot(*(out[0] - out[2]))
    assert d02 / d01 == pytest.approx(2.0, rel=1e-6)
    for p in out:
        assert boundary.contains(p)


def test_fit_line_scaled_to_inscribed_width():
    boundary = square(10.0)
    pts = np.array([[0.0, 0.0], [4.0, 0.0]])
    out = fit_points_in_polygon(pts, boundary)
    width = abs(out[1][0] - out[0][0])
    assert width == pytest.approx(9.0, rel=1e-3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40), st.sampled_from([3, 4, 5, 8, 64]),
       st.sampled_from(["spread", "line", "outlier", "duplicates"]))
def test_fit_points_inside_at_fit_tolerance(seed, n, sides, cloud):
    """Every fitted point passes contains at the fit's -1e-9 diagonal, also on
    polygons 1e6 from the origin, whose centroid the fit starts from. Those
    have radius 1 or more: below that the tolerance nears the 1.2e-10 spacing
    of doubles there."""
    rng = np.random.default_rng(seed)
    if rng.integers(2):
        scale = 10 ** rng.uniform(0, 4)
        center = 1e6 + rng.uniform(-1, 1, size=2) * scale
    else:
        scale = 10 ** rng.uniform(-3, 3)
        center = rng.uniform(-1, 1, size=2) * scale
    boundary = regular_polygon(sides, radius=scale, center=center)
    pts = rng.normal(size=(n, 2)) * 10 ** rng.uniform(-6, 6, size=2)
    if cloud == "line":
        pts[:, int(rng.integers(2))] = rng.normal()
    elif cloud == "outlier":
        pts[0] *= 1e3
    elif cloud == "duplicates":
        pts[rng.integers(n, size=n // 2)] = pts[0]
    out = fit_points_in_polygon(pts, boundary)
    tol = -1e-9 * boundary.diagonal
    for p in out:
        assert boundary.contains(p, tol=tol)


def test_fit_coincident_points_collapse_to_centroid():
    boundary = square(2.0)
    pts = np.zeros((3, 2))
    out = fit_points_in_polygon(pts, boundary)
    for p in out:
        assert p == pytest.approx(boundary.centroid)


def test_fit_outlier_compresses_the_rest():
    boundary = square(10.0)
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tight = fit_points_in_polygon(base, boundary)
    with_outlier = fit_points_in_polygon(
        np.vstack([base, [[30.0, 0.0]]]), boundary)
    d_tight = math.hypot(*(tight[0] - tight[1]))
    d_out = math.hypot(*(with_outlier[0] - with_outlier[1]))
    assert d_out < d_tight / 3  # the cluster shrinks by roughly the outlier ratio


# ------------------------------------------------------------- match_assignment

def test_match_single_node():
    cvt = build_cvt([(square(1.0), 1, 0)])[0]
    pos = ProjectedPositions(["a"], np.zeros((1, 2)))
    a = match_assignment(pos, cvt)
    assert a.mapping == {"a": 0}


def test_match_size_mismatch():
    cvt = build_cvt([(square(1.0), 2, 0)])[0]
    pos = ProjectedPositions(["a"], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        match_assignment(pos, cvt)


def test_match_identity_when_positions_sit_on_centroids():
    cvt = build_cvt([(square(1.0), 4, 3)])[0]
    centroids = np.array([c.polygon.centroid for c in cvt.cells])
    pos = ProjectedPositions([f"n{i}" for i in range(4)], centroids)
    a = match_assignment(pos, cvt)
    assert a.mapping == {f"n{i}": i for i in range(4)}


def _bruteforce_total_cost(pts, centroids):
    n = len(pts)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(((pts[i] - centroids[perm[i]]) ** 2).sum() for i in range(n))
        best = min(best, cost)
    return best


def test_match_equals_bruteforce_minimum():
    rng = np.random.default_rng(6)
    cvt = build_cvt([(square(1.0), 6, 1)])[0]
    centroids = np.array([c.polygon.centroid for c in cvt.cells])
    for trial in range(5):
        raw = rng.uniform(-1, 1, size=(6, 2))
        pos = ProjectedPositions([f"n{i}" for i in range(6)], raw)
        a = match_assignment(pos, cvt)
        pts = fit_points_in_polygon(raw, cvt.boundary)
        got = sum(
            ((pts[i] - centroids[a.mapping[f"n{i}"]]) ** 2).sum() for i in range(6)
        )
        assert got == pytest.approx(_bruteforce_total_cost(pts, centroids))


def _squared_distances_to_coincident_points(rng, n):
    """Points drawn from a third as many spots, as identical similarity
    vectors project, against centroids half of which coincide."""
    spots = rng.uniform(-1.0, 1.0, size=(max(1, n // 3), 2))
    pts = spots[rng.integers(0, len(spots), n)]
    centroids = rng.uniform(-1.0, 1.0, size=(n, 2))
    centroids[: n // 2] = centroids[0]
    diff = pts[:, None, :] - centroids[None, :, :]
    return diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2


COST_MATRICES = {
    "uniform": lambda rng, n: rng.random((n, n)),
    "integers_0_2": lambda rng, n: rng.integers(0, 3, size=(n, n)).astype(float),
    "repeated_rows": lambda rng, n: np.tile(rng.random(n), (n, 1)),
    "constant": lambda rng, n: np.full((n, n), rng.random()),
    "coincident_points": _squared_distances_to_coincident_points,
}


@pytest.mark.parametrize("kind", sorted(COST_MATRICES))
def test_min_cost_assignment_equals_scipy_ties_included(kind):
    from scipy.optimize import linear_sum_assignment  # the reference only
    rng = np.random.default_rng(sorted(COST_MATRICES).index(kind))
    for n in range(1, 26):
        for _ in range(4):
            cost = COST_MATRICES[kind](rng, n)
            rows, cols = linear_sum_assignment(cost)
            assert rows.tolist() == list(range(n))
            assert layout_init._min_cost_assignment(cost.tolist()) == cols.tolist(), (kind, n)
    if kind == "constant":
        assert cols.tolist() == list(range(25))


# ----------------------------------------------------------------- swap_improve

def grid_cvt():
    """Deterministic 2x2 grid diagram: cells 0..3 = SW, SE, NW, NE."""
    sites = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
    return power_diagram(sites, square(1.0), node_ids=[f"cvt{i}" for i in range(4)])


def test_swap_no_constraints_is_identity():
    cvt = grid_cvt()
    a = Assignment({"w": 0, "x": 1, "y": 2, "z": 3}, "match_swap")
    out = swap_improve(a, [], cvt)
    assert out.mapping == a.mapping


def test_swap_realizes_diagonal_constraint():
    cvt = grid_cvt()
    adjacency = cvt_adjacency(cvt)
    assert (0, 3) not in adjacency  # diagonal cells only touch at a corner
    # constrained pair starts on the diagonal: a swap can realize it
    a = Assignment({"u": 0, "v": 3, "x": 1, "y": 2}, "match_swap")
    cons = [constraint("u", "v")]
    assert realized_count(a, cons, adjacency) == 0
    out = swap_improve(a, cons, cvt)
    assert realized_count(out, cons, adjacency) == 1


def test_swap_monotone_trace():
    rng = np.random.default_rng(8)
    cvt = build_cvt([(square(1.0), 8, 2)])[0]
    ids = [f"n{i}" for i in range(8)]
    cons = []
    for _ in range(8):
        i, j = rng.choice(8, size=2, replace=False)
        a, b = sorted((ids[int(i)], ids[int(j)]))
        cons.append(constraint(a, b, float(rng.uniform(0.5, 1.0))))
    for trial in range(10):
        perm = rng.permutation(8)
        a = Assignment({ids[i]: int(perm[i]) for i in range(8)}, "match_swap")
        trace = []
        out = swap_improve(a, cons, cvt, trace=trace)
        assert trace == sorted(trace)  # never decreases
        adjacency = cvt_adjacency(cvt)
        assert realized_count(out, cons, adjacency) == trace[-1]
        assert trace[-1] >= trace[0]


def _reference_swap_improve(assignment, constraints, cvt, max_passes=20, trace=None):
    """The scalar reference of swap_improve: every trial swap recounts all
    constraints with realized_count."""
    adjacency = cvt_adjacency(cvt)
    mapping = dict(assignment.mapping)
    node_ids = sorted(mapping)
    current = realized_count(Assignment(mapping, "match_swap"), constraints, adjacency)
    if trace is not None:
        trace.append(current)
    for _ in range(max_passes):
        swapped = False
        for i in range(len(node_ids)):
            for j in range(i + 1, len(node_ids)):
                u, v = node_ids[i], node_ids[j]
                mapping[u], mapping[v] = mapping[v], mapping[u]
                candidate = realized_count(Assignment(mapping, "match_swap"), constraints, adjacency)
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


SWAP_CVTS = build_cvt([(square(1.0), n, n) for n in range(2, 13)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, len(SWAP_CVTS) - 1), st.integers(1, 20))
def test_swap_improve_equals_full_recount_reference(seed, which, max_passes):
    rng = np.random.default_rng(seed)
    cvt = SWAP_CVTS[which]
    n = len(cvt.cells)
    ids = [f"n{i}" for i in range(n)]
    # two names outside the mapping, so some constraints never count
    names = ids + ["out0", "out1"]
    cons = [constraint(names[int(a)], names[int(b)])
            for a, b in rng.integers(0, len(names), size=(int(rng.integers(1, 3 * n)), 2))]
    cons.append(cons[int(rng.integers(len(cons)))])     # a constraint listed twice
    assignment = Assignment({ids[i]: int(c) for i, c in enumerate(rng.permutation(n))},
                            "match_swap")
    trace, ref_trace = [], []
    out = swap_improve(assignment, cons, cvt, max_passes=max_passes, trace=trace)
    ref = _reference_swap_improve(assignment, cons, cvt, max_passes=max_passes, trace=ref_trace)
    assert out.mapping == ref.mapping
    assert trace == ref_trace


def test_swap_improve_counts_duplicates_outsiders_and_the_swapped_pair_like_the_reference():
    cvt = grid_cvt()    # cells 0..3 = SW, SE, NW, NE; SW and NE touch only at a corner
    a = Assignment({"u": 0, "v": 3, "x": 1, "y": 2}, "match_swap")
    cons = [constraint("u", "v"), constraint("u", "v"), constraint("u", "gone"),
            constraint("x", "y"), constraint("u", "u")]
    trace, ref_trace = [], []
    out = swap_improve(a, cons, cvt, trace=trace)
    ref = _reference_swap_improve(a, cons, cvt, trace=ref_trace)
    assert out.mapping == ref.mapping
    # swapping u with x realizes both copies of (u, v), and (x, y) with them
    assert trace == ref_trace == [0, 3]
    assert realized_count(out, cons, cvt_adjacency(cvt)) == 3


# -------------------------------------------------------------- proj_scale_init

def test_proj_scale_sites_inside():
    boundary = regular_polygon(6, radius=2.0)
    rng = np.random.default_rng(12)
    pos = ProjectedPositions([f"n{i}" for i in range(6)],
                             rng.uniform(-3, 3, size=(6, 2)))
    sites = proj_scale_init(pos, boundary)
    for p in sites:
        assert boundary.contains(p)


# ------------------------------------------------------------ random_assignment

def test_random_assignment_deterministic():
    cvt = build_cvt([(square(1.0), 5, 1)])[0]
    ids = [f"n{i}" for i in range(5)]
    a = random_assignment(ids, cvt, seed=42).mapping
    b = random_assignment(ids, cvt, seed=42).mapping
    assert a == b
    assert sorted(a.values()) == list(range(5))


def test_random_assignment_size_mismatch():
    cvt = build_cvt([(square(1.0), 2, 0)])[0]
    with pytest.raises(ValueError, match="mismatch"):
        random_assignment(["a"], cvt)


def test_random_assignment_roughly_uniform():
    cvt = build_cvt([(square(1.0), 10, 0)])[0]
    ids = [f"n{i}" for i in range(10)]
    hits = np.zeros((10, 10))
    for seed in range(1000):
        m = random_assignment(ids, cvt, seed=seed).mapping
        for i, nid in enumerate(ids):
            hits[i, m[nid]] += 1
    freq = hits / 1000.0
    assert np.all(np.abs(freq - 0.1) <= 0.03)
