"""Pairwise node similarities, binning, and constraint extraction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree_model import Tree, TreeNode

# lower edges of bins 0..3; bin 4 holds the rest of (0, 0.2)
BIN_EDGES = (0.8, 0.6, 0.4, 0.2)
N_BINS = len(BIN_EDGES) + 1

SIMILARITY_KINDS = ("cosine", "jaccard", "binary-equality")


class SimilarityError(ValueError):
    """Invalid similarity inputs."""


@dataclass
class SimilarityMatrix:
    level: int
    node_ids: list[str]
    values: np.ndarray  # symmetric, zero diagonal, entries in [0,1]


@dataclass(frozen=True)
class Constraint:
    a: str
    b: str
    similarity: float
    bin: int
    level: int


def compute_similarity(u, v, kind: str = "cosine") -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size < 1:
        raise SimilarityError("vectors must share a dimension d >= 1")
    if kind == "cosine":
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return max(0.0, float(u @ v) / (nu * nv))
    if kind in ("jaccard", "binary-equality"):
        if not (np.isin(u, (0.0, 1.0)).all() and np.isin(v, (0.0, 1.0)).all()):
            raise SimilarityError(f"{kind} requires binary vectors")
        if kind == "jaccard":
            union = np.logical_or(u, v).sum()
            if union == 0:
                return 0.0
            return float(np.logical_and(u, v).sum() / union)
        return 1.0 if np.array_equal(u, v) else 0.0
    raise SimilarityError(f"unknown similarity kind: {kind!r}")


def pairwise_matrix(nodes: list[TreeNode], kind: str = "cosine") -> SimilarityMatrix:
    """Symmetric similarity matrix over same-depth nodes in the given order."""
    if not nodes:
        raise SimilarityError("need at least one node")
    depths = {n.depth for n in nodes}
    if len(depths) != 1:
        raise SimilarityError("nodes must share a depth")
    n = len(nodes)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s = compute_similarity(nodes[i].sim_vector, nodes[j].sim_vector, kind)
            values[i, j] = values[j, i] = s
    return SimilarityMatrix(level=depths.pop(), node_ids=[n_.id for n_ in nodes], values=values)


def pair_matrix_from_lifted(node_ids: list[str], level: int, lifted: dict[tuple[str, str], float]) -> SimilarityMatrix:
    """Matrix for explicit-pair mode, from level-lifted pair similarities."""
    n = len(node_ids)
    index = {nid: i for i, nid in enumerate(node_ids)}
    values = np.zeros((n, n))
    for (a, b), s in lifted.items():
        if a in index and b in index:
            values[index[a], index[b]] = values[index[b], index[a]] = s
    return SimilarityMatrix(level=level, node_ids=list(node_ids), values=values)


def bin_index(similarity: float) -> int:
    """Equal-width bins over (0,1]: 0=[0.8,1.0], 1=[0.6,0.8), ... 4=(0,0.2)."""
    return next((b for b, edge in enumerate(BIN_EDGES) if similarity >= edge), N_BINS - 1)


def bin_and_filter(matrix: SimilarityMatrix) -> list[Constraint]:
    """Per node, keep partners from the strongest bins up to the first empty one.

    The union over nodes is deduplicated into undirected constraints: a pair
    survives if either endpoint selected it. Zero similarity is never binned.
    """
    ids = matrix.node_ids
    values = matrix.values
    # bins[i, j] is bin_index(values[i, j]); row i keeps its bins below its first empty one
    bins = np.sum(values[:, :, None] < np.array(BIN_EDGES), axis=2)
    binned = (values > 0.0) & ~np.eye(len(ids), dtype=bool)
    filled = (binned[:, :, None] & (bins[:, :, None] == np.arange(N_BINS))).any(axis=1)
    first_empty = filled.cumprod(axis=1).sum(axis=1)
    chosen = binned & (bins < first_empty[:, None])
    out = []
    for i, j in zip(*np.nonzero(np.triu(chosen | chosen.T))):
        a, b = sorted((ids[i], ids[j]))
        out.append(Constraint(a=a, b=b, similarity=float(values[i, j]), bin=int(bins[i, j]),
                              level=matrix.level))
    out.sort(key=lambda c: (c.a, c.b))
    return out


def group_matrix(tree: Tree, node_ids: list[str], level: int, kind: str) -> SimilarityMatrix:
    """Similarity matrix over same-depth nodes: from the level-lifted pairs in
    pair mode, else from the nodes' vectors, else (a node has no vector) all
    zeros, which bin_and_filter turns into no constraints."""
    if tree.pair_mode:
        return pair_matrix_from_lifted(node_ids, level, tree.level_pairs.get(level, {}))
    nodes = [tree.nodes[i] for i in node_ids]
    if all(n.sim_vector is not None for n in nodes):
        return pairwise_matrix(nodes, kind)
    return SimilarityMatrix(level=level, node_ids=list(node_ids),
                            values=np.zeros((len(node_ids), len(node_ids))))


def extract_level_constraints(tree: Tree, kind: str = "cosine") -> dict[int, list[Constraint]]:
    """Constraints per depth 1..D; sibling-ness is ignored, so pairs may cross parents."""
    return {
        depth: bin_and_filter(group_matrix(
            tree, [n.id for n in tree.nodes_at_depth(depth)], depth, kind))
        for depth in range(1, tree.uniform_depth + 1)
    }
