"""Similarity functions, binning, and constraint extraction."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simmap.similarity import (
    N_BINS,
    Constraint,
    SimilarityError,
    SimilarityMatrix,
    bin_and_filter,
    bin_index,
    compute_similarity,
    extract_level_constraints,
    group_matrix,
    pair_matrix_from_lifted,
    pairwise_matrix,
)
from simmap.tree_model import parse_tree, propagate_attributes, uniform_depth


def make_matrix(values, level=1, ids=None):
    values = np.asarray(values, dtype=float)
    n = len(values)
    ids = ids or [f"n{i}" for i in range(n)]
    return SimilarityMatrix(level=level, node_ids=ids, values=values)


# --------------------------------------------------------- compute_similarity

def test_cosine_orthogonal():
    assert compute_similarity([1, 0], [0, 1], "cosine") == 0.0


def test_cosine_identical():
    assert compute_similarity([2, 1], [2, 1], "cosine") == pytest.approx(1.0)


def test_cosine_zero_norm():
    assert compute_similarity([0, 0], [1, 0], "cosine") == 0.0


def test_jaccard_example():
    assert compute_similarity([1, 1, 0], [1, 0, 1], "jaccard") == pytest.approx(1 / 3)


def test_jaccard_both_empty():
    assert compute_similarity([0, 0], [0, 0], "jaccard") == 0.0


def test_binary_equality():
    assert compute_similarity([1, 0, 1], [1, 0, 1], "binary-equality") == 1.0
    assert compute_similarity([1, 0, 1], [1, 1, 1], "binary-equality") == 0.0


def test_dimension_mismatch():
    with pytest.raises(SimilarityError, match="dimension"):
        compute_similarity([1, 0], [1, 0, 0], "cosine")


def test_non_binary_rejected_for_set_kinds():
    for kind in ("jaccard", "binary-equality"):
        with pytest.raises(SimilarityError, match="binary"):
            compute_similarity([0.5, 1], [1, 0], kind)


def test_unknown_kind():
    with pytest.raises(SimilarityError, match="unknown"):
        compute_similarity([1], [1], "hamming")


@settings(max_examples=50, deadline=None)
@given(arrays(float, 5, elements=st.floats(0, 1)), arrays(float, 5, elements=st.floats(0, 1)))
def test_cosine_range_and_symmetry(u, v):
    s = compute_similarity(u, v, "cosine")
    assert 0.0 <= s <= 1.0 + 1e-12
    assert s == compute_similarity(v, u, "cosine")


# ------------------------------------------------------------ pairwise_matrix

def _nodes_with_vectors(vectors, depth=1):
    doc = {"name": "r", "children": [
        {"name": f"n{i}", "similarity": list(v)} for i, v in enumerate(vectors)
    ]}
    tree = propagate_attributes(uniform_depth(parse_tree(doc)))
    return tree.nodes_at_depth(depth)


def test_pairwise_single_node():
    m = pairwise_matrix(_nodes_with_vectors([[1, 0]]))
    assert m.values.shape == (1, 1)
    assert m.values[0, 0] == 0.0


def test_pairwise_identical_vectors():
    m = pairwise_matrix(_nodes_with_vectors([[1, 1], [1, 1], [1, 1]]))
    off = m.values[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 1.0)


def test_pairwise_matches_bruteforce_jaccard():
    rng = np.random.default_rng(7)
    vectors = rng.integers(0, 2, size=(4, 6)).astype(float)
    nodes = _nodes_with_vectors(vectors)
    m = pairwise_matrix(nodes, "jaccard")
    for i in range(4):
        for j in range(4):
            if i == j:
                assert m.values[i, j] == 0.0
                continue
            inter = np.logical_and(vectors[i], vectors[j]).sum()
            union = np.logical_or(vectors[i], vectors[j]).sum()
            expected = inter / union if union else 0.0
            assert m.values[i, j] == pytest.approx(expected)
    assert np.allclose(m.values, m.values.T)


def test_pairwise_mixed_depths_rejected():
    doc = {"name": "r", "children": [
        {"name": "g", "children": [{"name": "a", "similarity": [1]}]},
        {"name": "b", "similarity": [1]},
    ]}
    tree = parse_tree(doc)  # before uniform_depth, a and b have different depths
    with pytest.raises(SimilarityError, match="depth"):
        pairwise_matrix([tree.nodes["a"], tree.nodes["b"]])


# -------------------------------------------------------------- bin_and_filter

@pytest.mark.parametrize("s, expected", [
    (1.0, 0), (0.9, 0), (0.8, 0),
    (0.79999, 1), (0.6, 1),
    (0.59999, 2), (0.4, 2),
    (0.39999, 3), (0.2, 3),
    (0.19999, 4), (0.001, 4),
])
def test_bin_index(s, expected):
    assert bin_index(s) == expected


@pytest.mark.parametrize("edge, bin_", [(0.8, 0), (0.6, 1), (0.4, 2), (0.2, 3)])
def test_bin_index_at_and_around_edges(edge, bin_):
    assert bin_index(edge) == bin_
    assert bin_index(np.nextafter(edge, np.inf)) == bin_
    assert bin_index(np.nextafter(edge, -np.inf)) == bin_ + 1


@pytest.mark.parametrize("s, expected", [(np.nan, 4), (np.inf, 0), (-np.inf, 4)])
def test_bin_index_of_nan_and_infinities(s, expected):
    assert bin_index(s) == expected


def _reference_bin_and_filter(matrix):
    """bin_and_filter as a per-node double loop, the oracle of the array pass."""
    ids = matrix.node_ids
    n = len(ids)
    selected = {}
    for i in range(n):
        bins = [[] for _ in range(N_BINS)]
        for j in range(n):
            if j == i:
                continue
            s = matrix.values[i, j]
            if s > 0.0:
                bins[bin_index(s)].append(j)
        for b in bins:
            if not b:
                break
            for j in b:
                key = tuple(sorted((ids[i], ids[j])))
                selected[key] = matrix.values[i, j]
    out = [
        Constraint(a=a, b=b, similarity=float(s), bin=bin_index(float(s)), level=matrix.level)
        for (a, b), s in selected.items()
    ]
    out.sort(key=lambda c: (c.level, c.a, c.b))
    return out


def _random_similarities(rng, n):
    """A symmetric matrix with a zero diagonal whose entries mix uniform
    values, exact bin edges, zeros and NaN, and whose rows are sometimes all
    zero."""
    kind = rng.choice(4, size=(n, n), p=[0.5, 0.25, 0.15, 0.1])
    values = np.select([kind == 0, kind == 1, kind == 2],
                       [rng.uniform(0.0, 1.0, (n, n)), rng.choice((0.2, 0.4, 0.6, 0.8), (n, n)), 0.0],
                       np.nan)
    values = np.triu(values, k=1)
    values = values + values.T
    zero = rng.random(n) < 0.15
    values[zero] = 0.0
    values[:, zero] = 0.0
    return values


@pytest.mark.parametrize("seed", range(10))
def test_bin_and_filter_equals_reference_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 41))
        ids = [f"v{k}" for k in rng.permutation(n)]   # "v10" sorts before "v2"
        matrix = make_matrix(_random_similarities(rng, n), level=int(rng.integers(1, 4)), ids=ids)
        got = bin_and_filter(matrix)
        want = _reference_bin_and_filter(matrix)
        assert [(c.a, c.b, c.similarity, c.bin, c.level) for c in got] == \
            [(c.a, c.b, c.similarity, c.bin, c.level) for c in want]
        assert all(type(c.similarity) is float and type(c.bin) is int for c in got)


def test_bins_stop_at_first_empty():
    # node0 sees {0.95, 0.9, 0.65, 0.3}: bins {0.95,0.9} | {0.65} | empty -> stop.
    # The 0.3 partner keeps nothing itself (its own strongest bin is empty).
    n = 5
    v = np.zeros((n, n))
    v[0, 1] = v[1, 0] = 0.95
    v[0, 2] = v[2, 0] = 0.9
    v[0, 3] = v[3, 0] = 0.65
    v[0, 4] = v[4, 0] = 0.3
    cons = bin_and_filter(make_matrix(v))
    pairs = {(c.a, c.b) for c in cons}
    assert pairs == {("n0", "n1"), ("n0", "n2"), ("n0", "n3")}
    bins = {(c.a, c.b): c.bin for c in cons}
    assert bins[("n0", "n1")] == 0
    assert bins[("n0", "n3")] == 1


def test_all_zero_similarities_no_constraints():
    assert bin_and_filter(make_matrix(np.zeros((4, 4)))) == []


def test_single_similarity_one():
    v = np.zeros((2, 2))
    v[0, 1] = v[1, 0] = 1.0
    cons = bin_and_filter(make_matrix(v))
    assert len(cons) == 1
    assert cons[0].bin == 0
    assert (cons[0].a, cons[0].b) == ("n0", "n1")


def test_node_with_empty_strongest_bin_selects_nothing():
    # scanning starts at the strongest bin; if that one is empty, the scan
    # stops immediately and the node keeps no partner at all
    v = np.zeros((2, 2))
    v[0, 1] = v[1, 0] = 0.3
    assert bin_and_filter(make_matrix(v)) == []


def test_union_dedup_keeps_asymmetric_choices():
    # n0 keeps n2 (its first three bins are occupied), but n2 itself stops
    # before the bin holding n0; the union keeps the pair anyway
    v = np.zeros((5, 5))
    v[0, 3] = v[3, 0] = 0.95   # n0 bin 0
    v[0, 4] = v[4, 0] = 0.70   # n0 bin 1
    v[0, 2] = v[2, 0] = 0.45   # n0 bin 2
    v[1, 2] = v[2, 1] = 0.90   # n2 bin 0; n2's bin 1 is empty -> n2 drops n0
    cons = bin_and_filter(make_matrix(v))
    pairs = {(c.a, c.b) for c in cons}
    assert pairs == {("n0", "n2"), ("n0", "n3"), ("n0", "n4"), ("n1", "n2")}


def test_constraints_sorted_canonically():
    rng = np.random.default_rng(3)
    v = rng.uniform(0.5, 1.0, size=(6, 6))
    v = 0.5 * (v + v.T)
    np.fill_diagonal(v, 0.0)
    cons = bin_and_filter(make_matrix(v))
    keys = [(c.level, c.a, c.b) for c in cons]
    assert keys == sorted(keys)
    assert all(c.a < c.b for c in cons)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(2, 7))
    vals = draw(arrays(float, (n, n), elements=st.floats(0, 1, allow_nan=False)))
    v = 0.5 * (vals + vals.T)
    np.fill_diagonal(v, 0.0)
    return v


@settings(max_examples=50, deadline=None)
@given(symmetric_matrices())
def test_constraint_subset_and_determinism(v):
    m1 = bin_and_filter(make_matrix(v))
    m2 = bin_and_filter(make_matrix(v.copy()))
    assert m1 == m2  # determinism
    for c in m1:
        i = int(c.a[1:])
        j = int(c.b[1:])
        assert v[i, j] > 0.0  # subset of positive entries
        assert c.similarity == pytest.approx(v[i, j])


@settings(max_examples=30, deadline=None)
@given(symmetric_matrices(), st.randoms(use_true_random=False))
def test_constraint_symmetry_under_relabeling(v, rnd):
    n = len(v)
    cons = bin_and_filter(make_matrix(v))
    perm = list(range(n))
    rnd.shuffle(perm)
    # apply the same permutation to rows/cols and to the id list
    pv = v[np.ix_(perm, perm)]
    ids = [f"n{perm[i]}" for i in range(n)]
    cons_p = bin_and_filter(make_matrix(pv, ids=ids))
    as_set = {(c.a, c.b, round(c.similarity, 12)) for c in cons}
    as_set_p = {(c.a, c.b, round(c.similarity, 12)) for c in cons_p}
    assert as_set == as_set_p


# --------------------------------------------------- extract_level_constraints

def test_extract_all_zero_vectors_empty():
    doc = {"name": "r", "children": [
        {"name": "g1", "children": [
            {"name": "a", "similarity": [1, 0]}, {"name": "b", "similarity": [0, 1]},
        ]},
        {"name": "g2", "children": [
            {"name": "c", "similarity": [1, 0]}, {"name": "d", "similarity": [0, 1]},
        ]},
    ]}
    tree = propagate_attributes(uniform_depth(parse_tree(doc)))
    cons = extract_level_constraints(tree, "cosine")
    # orthogonal leaves a/b and c/d, but cross-parent a/c and b/d are parallel
    leaf_pairs = {(c.a, c.b) for c in cons[2]}
    assert ("a", "c") in leaf_pairs and ("b", "d") in leaf_pairs
    assert ("a", "b") not in leaf_pairs


def test_extract_pair_mode_levels():
    doc = {"name": "r", "children": [
        {"name": "g1", "children": [{"name": "a"}, {"name": "b"}]},
        {"name": "g2", "children": [{"name": "c"}]},
    ], "pairs": [["a", "c", 1.0], ["a", "b", 0.9]]}
    tree = propagate_attributes(uniform_depth(parse_tree(doc)))
    cons = extract_level_constraints(tree)
    assert {(c.a, c.b) for c in cons[1]} == {("g1", "g2")}
    assert {(c.a, c.b) for c in cons[2]} == {("a", "b"), ("a", "c")}
    assert all(c.level == 2 for c in cons[2])


def test_group_matrix_without_vectors_or_pairs_is_zero():
    doc = {"name": "r", "children": [{"name": "a"}, {"name": "b"}, {"name": "c"}]}
    tree = propagate_attributes(uniform_depth(parse_tree(doc)))
    m = group_matrix(tree, ["a", "b", "c"], 1, "cosine")
    assert (m.level, m.node_ids) == (1, ["a", "b", "c"])
    assert m.values.shape == (3, 3) and not m.values.any()
    assert extract_level_constraints(tree) == {1: []}


def test_pair_matrix_from_lifted_symmetric():
    m = pair_matrix_from_lifted(["x", "y", "z"], 1, {("x", "z"): 0.7})
    assert m.values[0, 2] == m.values[2, 0] == 0.7
    assert m.values.sum() == pytest.approx(1.4)


def test_constraint_is_hashable_and_frozen():
    c = Constraint(a="a", b="b", similarity=0.9, bin=0, level=1)
    with pytest.raises(AttributeError):
        c.similarity = 0.5
    assert len({c, c}) == 1


def test_five_bins_constant():
    assert N_BINS == 5
