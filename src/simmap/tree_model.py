"""Hierarchy parsing, validation, virtual-node expansion, attribute propagation."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np


class TreeValidationError(ValueError):
    """Invalid input hierarchy."""


_HEX_COLOR = re.compile(r"#[0-9A-Fa-f]{6}")


@dataclass
class TreeNode:
    id: str
    name: str
    children: list[str] = field(default_factory=list)
    parent: str | None = None
    weight: float = 0.0
    sim_vector: np.ndarray | None = None
    is_virtual: bool = False
    depth: int = 0
    color: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class Tree:
    nodes: dict[str, TreeNode]
    root: str
    uniform_depth: int = 0
    explicit_pairs: list[tuple[str, str, float]] = field(default_factory=list)
    # per-level lifted pair similarities, filled by propagate_attributes in pair mode
    level_pairs: dict[int, dict[tuple[str, str], float]] = field(default_factory=dict)

    @property
    def pair_mode(self) -> bool:
        return bool(self.explicit_pairs)

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.iter_bfs() if n.is_leaf]

    def nodes_at_depth(self, depth: int) -> list[TreeNode]:
        return [n for n in self.iter_bfs() if n.depth == depth]

    def iter_bfs(self):
        queue = [self.root]
        while queue:
            nid = queue.pop(0)
            node = self.nodes[nid]
            yield node
            queue.extend(node.children)

    def ancestor_at_depth(self, node_id: str, depth: int) -> str:
        node = self.nodes[node_id]
        while node.depth > depth:
            node = self.nodes[node.parent]
        if node.depth != depth:
            raise KeyError(f"{node_id} has no ancestor at depth {depth}")
        return node.id


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise TreeValidationError(f"{where}: {value!r} is not a number") from None


def parse_tree(document: dict) -> Tree:
    """Parse the nested-dict input format into a validated Tree.

    Leaf weights default to 1.0. The similarity source is either a vector on
    every leaf or a top-level "pairs" list, never both.
    """
    if not isinstance(document, dict) or "name" not in document:
        raise TreeValidationError("document root must be an object with a 'name'")
    nodes: dict[str, TreeNode] = {}

    def visit(obj: dict, parent: str | None, depth: int) -> str:
        name = str(obj["name"])
        nid = str(obj.get("id", name))
        if nid in nodes:
            raise TreeValidationError(f"duplicate node id: {nid!r}")
        children_docs = obj.get("children") or []
        if not isinstance(children_docs, (list, tuple)):
            raise TreeValidationError(f"node {nid!r}: children must be a list")
        sim = obj.get("similarity")
        if sim is not None:
            if children_docs:
                raise TreeValidationError(f"node {nid!r}: similarity vector allowed on leaves only")
            try:
                sim = np.asarray(sim, dtype=float)
            except (TypeError, ValueError):
                raise TreeValidationError(f"node {nid!r}: similarity must be a flat vector") from None
            if sim.ndim != 1 or sim.size < 1:
                raise TreeValidationError(f"node {nid!r}: similarity must be a flat vector")
            if not np.all((sim >= 0.0) & (sim <= 1.0)):     # NaN fails both
                raise TreeValidationError(f"node {nid!r}: similarity values must lie in [0,1]")
        color = obj.get("color")
        if color is not None and not (isinstance(color, str) and _HEX_COLOR.fullmatch(color)):
            raise TreeValidationError(f"node {nid!r}: color must be a #rrggbb string, not {color!r}")
        weight = obj.get("weight")
        if weight is None:
            weight = 1.0 if not children_docs else 0.0
        nodes[nid] = TreeNode(
            id=nid,
            name=name,
            parent=parent,
            weight=_number(weight, f"node {nid!r}: weight"),
            sim_vector=sim,
            depth=depth,
            color=color,
        )
        for k, child in enumerate(children_docs):
            if not isinstance(child, dict) or "name" not in child:
                raise TreeValidationError(f"node {nid!r}: child {k} must be an object with a 'name'")
            cid = visit(child, nid, depth + 1)
            nodes[nid].children.append(cid)
        return nid

    root = visit(document, None, 0)

    leaves = [n for n in nodes.values() if n.is_leaf]
    dims = {n.sim_vector.size for n in leaves if n.sim_vector is not None}
    if len(dims) > 1:
        raise TreeValidationError(f"leaf similarity vectors disagree in dimension: {sorted(dims)}")
    with_vec = sum(1 for n in leaves if n.sim_vector is not None)
    if 0 < with_vec < len(leaves):
        raise TreeValidationError("either every leaf carries a similarity vector or none does")

    pairs_raw = document.get("pairs") or []
    if pairs_raw and with_vec:
        raise TreeValidationError("dataset mixes similarity vectors and explicit pairs")
    leaf_ids = {n.id for n in leaves}
    pairs: list[tuple[str, str, float]] = []
    seen = set()
    if not isinstance(pairs_raw, (list, tuple)):
        raise TreeValidationError("pairs must be a list")
    for entry in pairs_raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise TreeValidationError(f"malformed pair entry: {entry!r}")
        a, b, s = str(entry[0]), str(entry[1]), _number(entry[2], f"pair entry {entry!r}")
        if a == b:
            raise TreeValidationError(f"pair links node {a!r} to itself")
        if a not in leaf_ids or b not in leaf_ids:
            raise TreeValidationError(f"pair references non-leaf id: {entry!r}")
        if not 0.0 <= s <= 1.0:
            raise TreeValidationError(f"pair similarity outside [0,1]: {entry!r}")
        key = tuple(sorted((a, b)))
        if key in seen:
            raise TreeValidationError(f"pair listed twice: {key}")
        seen.add(key)
        pairs.append((key[0], key[1], s))

    depth = max((n.depth for n in leaves), default=0)
    return Tree(
        nodes=nodes,
        root=root,
        uniform_depth=depth,
        explicit_pairs=pairs,
    )


def uniform_depth(tree: Tree) -> Tree:
    """Insert single-child virtual chains so every leaf sits at the max depth.

    Original leaf ids are preserved on the deepest copy, so constraints keep
    referencing them. Virtual ids follow `<original_id>__v<k>`.
    """
    target = max((n.depth for n in tree.nodes.values() if n.is_leaf), default=0)
    shallow = [n.id for n in tree.nodes.values() if n.is_leaf and n.depth < target]
    for leaf_id in shallow:
        leaf = tree.nodes[leaf_id]
        missing = target - leaf.depth
        parent_id = leaf.parent
        prev = parent_id
        for k in range(1, missing + 1):
            vid = f"{leaf_id}__v{k}"
            if vid in tree.nodes:
                raise TreeValidationError(f"virtual id collides with existing node: {vid!r}")
            tree.nodes[vid] = TreeNode(
                id=vid,
                name=f"{leaf.name} (virtual)",
                parent=prev,
                is_virtual=True,
                depth=leaf.depth + k - 1,
            )
            if prev == parent_id:
                siblings = tree.nodes[parent_id].children
                siblings[siblings.index(leaf_id)] = vid
            else:
                tree.nodes[prev].children.append(vid)
            prev = vid
        tree.nodes[prev].children.append(leaf_id)
        leaf.parent = prev
        leaf.depth = target
    tree.uniform_depth = target
    return tree


def propagate_attributes(tree: Tree) -> Tree:
    """Bottom-up aggregation: weight = sum of children, vector = mean of children.

    A parent whose children's weights sum past the float range, or a child
    whose share of its parent's weight rounds to 0, is a TreeValidationError
    naming that node.

    In explicit-pair mode, leaf pair similarities are lifted level-by-level
    using the max over descendant pairs, so one strong cross-parent link
    survives aggregation.
    """
    for leaf in tree.leaves():
        if not 0.0 < leaf.weight < math.inf:                 # NaN fails both
            raise TreeValidationError(f"leaf {leaf.id!r} has a non-positive or non-finite weight")
    order = sorted(tree.nodes.values(), key=lambda n: -n.depth)
    for node in order:
        if node.is_leaf:
            continue
        kids = [tree.nodes[c] for c in node.children]
        node.weight = sum(k.weight for k in kids)
        if node.weight == math.inf:
            raise TreeValidationError(f"node {node.id!r}: children's weights sum past the float range")
        for k in kids:
            if k.weight / node.weight == 0.0:
                raise TreeValidationError(
                    f"node {k.id!r}: weight {k.weight!r} is a share of 0 of its parent {node.id!r}")
        if all(k.sim_vector is not None for k in kids):
            node.sim_vector = np.mean([k.sim_vector for k in kids], axis=0)
    if tree.pair_mode:
        tree.level_pairs = _lift_pairs(tree)
    return tree


def _lift_pairs(tree: Tree) -> dict[int, dict[tuple[str, str], float]]:
    levels: dict[int, dict[tuple[str, str], float]] = {}
    for depth in range(1, tree.uniform_depth + 1):
        lifted: dict[tuple[str, str], float] = {}
        for a, b, s in tree.explicit_pairs:
            pa = tree.ancestor_at_depth(a, depth)
            pb = tree.ancestor_at_depth(b, depth)
            if pa == pb:
                continue
            key = tuple(sorted((pa, pb)))
            lifted[key] = max(lifted.get(key, 0.0), s)
        levels[depth] = lifted
    return levels
