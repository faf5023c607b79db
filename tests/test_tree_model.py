"""Hierarchy parsing, virtual-node expansion, and attribute propagation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmap.tree_model import (
    TreeValidationError,
    parse_tree,
    propagate_attributes,
    uniform_depth,
)


def prepared(doc):
    return propagate_attributes(uniform_depth(parse_tree(doc)))


# ---------------------------------------------------------------- parse_tree

def test_parse_single_root():
    tree = parse_tree({"name": "only"})
    assert tree.uniform_depth == 0
    assert len(tree.nodes) == 1
    assert tree.nodes[tree.root].is_leaf


def test_parse_root_with_two_leaves():
    tree = parse_tree({"name": "r", "children": [
        {"name": "a", "weight": 1}, {"name": "b", "weight": 3},
    ]})
    assert tree.uniform_depth == 1
    assert len(tree.nodes) == 3
    assert tree.nodes["a"].weight == 1.0
    assert tree.nodes["b"].weight == 3.0


def test_parse_id_defaults_to_name():
    tree = parse_tree({"name": "r", "children": [{"name": "kid"}]})
    assert "kid" in tree.nodes


def test_parse_leaf_weight_defaults_to_one():
    tree = parse_tree({"name": "r", "children": [{"name": "a"}]})
    assert tree.nodes["a"].weight == 1.0


def test_parse_vector_dimension_mismatch():
    doc = {"name": "r", "children": [
        {"name": "a", "similarity": [1, 0, 0]},
        {"name": "b", "similarity": [1, 0, 0, 1]},
    ]}
    with pytest.raises(TreeValidationError, match="dimension"):
        parse_tree(doc)


def test_parse_duplicate_id():
    doc = {"name": "r", "children": [{"name": "x"}, {"name": "x"}]}
    with pytest.raises(TreeValidationError, match="duplicate"):
        parse_tree(doc)


def test_parse_similarity_on_internal_node():
    doc = {"name": "r", "children": [
        {"name": "g", "similarity": [1, 0], "children": [{"name": "a"}]},
    ]}
    with pytest.raises(TreeValidationError, match="leaves only"):
        parse_tree(doc)


def test_parse_similarity_out_of_range():
    doc = {"name": "r", "children": [{"name": "a", "similarity": [1.5]}]}
    with pytest.raises(TreeValidationError, match=r"\[0,1\]"):
        parse_tree(doc)


def test_parse_partial_vector_coverage_rejected():
    doc = {"name": "r", "children": [
        {"name": "a", "similarity": [1, 0]}, {"name": "b"},
    ]}
    with pytest.raises(TreeValidationError, match="every leaf"):
        parse_tree(doc)


def test_parse_mixed_modes_rejected():
    doc = {"name": "r", "children": [
        {"name": "a", "similarity": [1, 0]},
        {"name": "b", "similarity": [0, 1]},
    ], "pairs": [["a", "b", 0.5]]}
    with pytest.raises(TreeValidationError, match="mixes"):
        parse_tree(doc)


@pytest.mark.parametrize("pairs, msg", [
    ([["a", "a", 0.5]], "itself"),
    ([["a", "zzz", 0.5]], "non-leaf"),
    ([["a", "b", 1.5]], r"\[0,1\]"),
    ([["a", "b", 0.5], ["b", "a", 0.6]], "twice"),
    ([["a", "b"]], "malformed"),
])
def test_parse_bad_pairs(pairs, msg):
    doc = {"name": "r", "children": [{"name": "a"}, {"name": "b"}], "pairs": pairs}
    with pytest.raises(TreeValidationError, match=msg):
        parse_tree(doc)


def test_parse_pairs_canonicalized():
    doc = {"name": "r", "children": [{"name": "a"}, {"name": "b"}],
           "pairs": [["b", "a", 0.5]]}
    tree = parse_tree(doc)
    assert tree.explicit_pairs == [("a", "b", 0.5)]
    assert tree.pair_mode


# ------------------------------------------------------------- uniform_depth

def test_uniform_depth_fixpoint():
    doc = {"name": "r", "children": [
        {"name": "g", "children": [{"name": "a"}, {"name": "b"}]},
        {"name": "h", "children": [{"name": "c"}]},
    ]}
    tree = uniform_depth(parse_tree(doc))
    assert tree.uniform_depth == 2
    assert not any(n.is_virtual for n in tree.nodes.values())
    assert len(tree.nodes) == 6


def test_uniform_depth_single_virtual():
    # one leaf one level shallower than the deepest leaves
    doc = {"name": "r", "children": [
        {"name": "vehicles", "children": [
            {"name": "wheeled", "children": [{"name": "truck"}]},
        ]},
        {"name": "automobile"},
    ]}
    tree = uniform_depth(parse_tree(doc))
    virtuals = [n for n in tree.nodes.values() if n.is_virtual]
    assert tree.nodes["automobile"].depth == 3  # moved from depth 1 to the max
    assert len(virtuals) == 2
    # deepest copy keeps the original id as a leaf
    assert tree.nodes["automobile"].is_leaf


def test_uniform_depth_chain_of_three():
    doc = {"name": "r", "children": [
        {"name": "deep1", "children": [{"name": "deep2", "children": [
            {"name": "deep3", "children": [{"name": "leaf"}]},
        ]}]},
        {"name": "shallow"},
    ]}
    tree = uniform_depth(parse_tree(doc))
    # oracle: recompute every leaf's depth by walking to the root
    for leaf in tree.leaves():
        depth, node = 0, leaf
        while node.parent is not None:
            node = tree.nodes[node.parent]
            depth += 1
        assert depth == tree.uniform_depth == 4
    chain = [n for n in tree.nodes.values() if n.is_virtual]
    assert len(chain) == 3
    assert {n.id for n in chain} == {"shallow__v1", "shallow__v2", "shallow__v3"}
    assert all(len(tree.nodes[v.id].children) == 1 for v in chain)


def test_uniform_depth_preserves_leaf_ids_for_pairs():
    doc = {"name": "r", "children": [
        {"name": "g", "children": [{"name": "a"}]},
        {"name": "b"},
    ], "pairs": [["a", "b", 1.0]]}
    tree = uniform_depth(parse_tree(doc))
    assert tree.nodes["b"].is_leaf
    assert tree.nodes["b"].depth == 2


# ------------------------------------------------------ propagate_attributes

def test_propagate_weight_sum():
    doc = {"name": "r", "children": [
        {"name": "p", "children": [
            {"name": "a", "weight": 2},
            {"name": "b", "weight": 3},
            {"name": "c", "weight": 5},
        ]},
    ]}
    tree = prepared(doc)
    assert tree.nodes["p"].weight == 10.0
    assert tree.nodes["r"].weight == 10.0


def test_propagate_vector_mean():
    doc = {"name": "r", "children": [
        {"name": "a", "similarity": [1, 0]},
        {"name": "b", "similarity": [0, 1]},
    ]}
    tree = prepared(doc)
    assert np.allclose(tree.nodes["r"].sim_vector, [0.5, 0.5])


def test_propagate_pair_lift_max():
    # a strong cross-parent leaf link must lift to its parents unchanged
    doc = {"name": "world", "children": [
        {"name": "asia", "children": [{"name": "china"}, {"name": "japan"}]},
        {"name": "europe", "children": [{"name": "russia"}, {"name": "france"}]},
    ], "pairs": [["china", "russia", 1.0], ["japan", "france", 0.3]]}
    tree = prepared(doc)
    lifted = tree.level_pairs[1]
    assert lifted[("asia", "europe")] == 1.0  # max wins over the 0.3 link
    # leaf level keeps both pairs
    assert tree.level_pairs[2][("china", "russia")] == 1.0
    assert tree.level_pairs[2][("france", "japan")] == 0.3


def test_propagate_zero_weight_leaf_rejected():
    doc = {"name": "r", "children": [{"name": "a", "weight": 0}]}
    with pytest.raises(TreeValidationError, match="non-positive"):
        propagate_attributes(uniform_depth(parse_tree(doc)))


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_propagate_non_finite_weight_leaf_rejected(weight):
    doc = {"name": "r", "children": [{"name": "a", "weight": 1}, {"name": "b", "weight": weight}]}
    with pytest.raises(TreeValidationError, match="non-finite"):
        propagate_attributes(uniform_depth(parse_tree(doc)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_parse_non_finite_similarity_rejected(value):
    doc = {"name": "r", "children": [
        {"name": "a", "similarity": [1.0, 0.0]}, {"name": "b", "similarity": [value, 0.5]},
    ]}
    with pytest.raises(TreeValidationError, match=r"\[0,1\]"):
        parse_tree(doc)


# ------------------------------------------------------------- property tests

@st.composite
def tree_documents(draw, max_depth=3):
    counter = draw(st.integers(min_value=0, max_value=10**6))

    def node(depth):
        nonlocal counter
        counter += 1
        nid = f"n{counter}"
        if depth >= max_depth or draw(st.booleans()):
            w = draw(st.floats(min_value=0.1, max_value=50, allow_nan=False))
            return {"name": nid, "weight": w}
        kids = [node(depth + 1) for _ in range(draw(st.integers(1, 3)))]
        return {"name": nid, "children": kids}

    kids = [node(1) for _ in range(draw(st.integers(1, 3)))]
    return {"name": "root", "children": kids}


@settings(max_examples=40, deadline=None)
@given(tree_documents())
def test_weight_conservation(doc):
    tree = prepared(doc)
    for node in tree.nodes.values():
        if node.children:
            total = sum(tree.nodes[c].weight for c in node.children)
            assert node.weight == pytest.approx(total, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(tree_documents())
def test_propagate_idempotent(doc):
    tree = prepared(doc)
    before = {nid: n.weight for nid, n in tree.nodes.items()}
    propagate_attributes(tree)
    after = {nid: n.weight for nid, n in tree.nodes.items()}
    assert before == after


@settings(max_examples=25, deadline=None)
@given(tree_documents())
def test_uniform_depth_preserves_leaves(doc):
    original = parse_tree(doc)
    leaf_weights = {n.id: n.weight for n in original.leaves()}
    tree = uniform_depth(parse_tree(doc))
    assert {n.id: n.weight for n in tree.leaves()} == leaf_weights
    depths = {n.depth for n in tree.leaves()}
    assert len(depths) == 1


@settings(max_examples=25, deadline=None)
@given(tree_documents())
def test_virtual_chain_transparency(doc):
    tree = prepared(doc)
    for node in tree.nodes.values():
        if node.is_virtual:
            assert len(node.children) == 1
            assert node.weight == pytest.approx(
                tree.nodes[node.children[0]].weight, rel=1e-12)
