"""Synthetic dataset generators in the input document format."""
from __future__ import annotations

import numpy as np

KINDS = ("m_n", "two_level", "dense")


class DatasetError(ValueError):
    """Invalid generator parameters."""


def _check(params: dict) -> dict:
    p = dict(params or {})
    leaves = int(p.get("leaves", 10))
    if not 2 <= leaves <= 200:
        raise DatasetError(f"leaf count must be in [2, 200], got {leaves}")
    density = float(p.get("density", 0.1))
    if not 0.0 <= density <= 1.0:
        raise DatasetError(f"density must be in [0, 1], got {density}")
    p["leaves"] = leaves
    p["density"] = density
    parents = int(p.get("parents", 1))
    if not 1 <= parents <= leaves:
        raise DatasetError(f"parent count must be in [1, {leaves}], got {parents}")
    return p


def _leaf(i: int, rng: np.random.Generator, sim=None) -> dict:
    doc = {"name": f"leaf{i}", "id": f"L{i}", "weight": float(rng.integers(1, 4))}
    if sim is not None:
        doc["similarity"] = [round(float(x), 6) for x in sim]
    return doc


def _groups(leaves: list[dict], m: int) -> list[dict]:
    """The leaves split in order into m groups whose sizes differ by at most 1."""
    return [
        {"name": f"group{g}", "id": f"G{g}", "children": [leaves[i] for i in idx]}
        for g, idx in enumerate(np.array_split(np.arange(len(leaves)), m))
    ]


def _add_ring(leaf_ids: list[str], rng: np.random.Generator, seen: set, pairs: list) -> None:
    n = len(leaf_ids)
    if n < 2:
        return
    for i in range(n):
        key = tuple(sorted((leaf_ids[i], leaf_ids[(i + 1) % n])))
        if key in seen:
            continue
        seen.add(key)
        pairs.append([key[0], key[1], round(float(rng.uniform(0.8, 1.0)), 6)])


def _add_random_links(leaf_ids: list[str], count: int, rng: np.random.Generator,
                      seen: set, pairs: list) -> None:
    n = len(leaf_ids)
    attempts = 0
    while count > 0 and attempts < 2000 and n > 1:
        attempts += 1
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        key = tuple(sorted((leaf_ids[int(i)], leaf_ids[int(j)])))
        if key in seen:
            continue
        seen.add(key)
        pairs.append([key[0], key[1], round(float(rng.uniform(0.8, 1.0)), 6)])
        count -= 1


def _ring_plus_chords(leaf_ids: list[str], density: float, rng: np.random.Generator):
    """Ring over the leaves plus extra random chords; similarities in [0.8, 1]."""
    n = len(leaf_ids)
    pairs: list = []
    seen: set = set()
    _add_ring(leaf_ids, rng, seen, pairs)
    _add_random_links(leaf_ids, max(1, int(round(density * n))), rng, seen, pairs)
    pairs.sort(key=lambda e: (e[0], e[1]))
    return pairs


def gen_synthetic(kind: str, params: dict | None = None, seed: int = 0) -> dict:
    """Generate a dataset document. Same (kind, params, seed) -> identical output."""
    if kind not in KINDS:
        raise DatasetError(f"unknown synthetic kind: {kind!r}")
    p = _check(params or {})
    rng = np.random.default_rng(seed)
    if kind == "m_n":
        return _gen_m_n(p, rng)
    if kind == "two_level":
        return _gen_two_level(p, rng)
    return _gen_dense(p, rng)


def _gen_m_n(p: dict, rng: np.random.Generator) -> dict:
    n = p["leaves"]
    m = int(p.get("parents", 1))
    leaves = [_leaf(i, rng) for i in range(n)]
    leaf_ids = [doc["id"] for doc in leaves]
    return {
        "name": "synthetic m-n",
        "id": "root",
        "children": leaves if m <= 1 else _groups(leaves, m),
        "pairs": _ring_plus_chords(leaf_ids, p["density"], rng),
    }


def _gen_two_level(p: dict, rng: np.random.Generator) -> dict:
    n = p["leaves"]
    m = int(p.get("parents", min(5, n)))
    density = p["density"]
    children = _groups([_leaf(i, rng) for i in range(n)], m)
    # ring plus chords inside each group, plus cross-parent links per density
    chord = float(p.get("chord", 0.6))
    pairs: list = []
    seen: set = set()
    for group in children:
        ids = [leaf["id"] for leaf in group["children"]]
        _add_ring(ids, rng, seen, pairs)
        _add_random_links(ids, max(1, int(round(chord * len(ids)))), rng, seen, pairs)
    all_ids = [f"L{i}" for i in range(n)]
    cross = max(1, int(round(density * n)))
    _add_random_links(all_ids, cross, rng, seen, pairs)
    pairs.sort(key=lambda e: (e[0], e[1]))
    return {
        "name": "synthetic two-level",
        "id": "root",
        "children": children,
        "pairs": pairs,
    }


def _gen_dense(p: dict, rng: np.random.Generator) -> dict:
    n = p["leaves"]
    m = int(p.get("parents", min(3, n)))
    dim = int(p.get("dim", 12))
    # sparse supports spread the cosine similarities across all five bins
    # instead of piling everything into the strongest ones
    nnz = max(2, dim // 4)
    vectors = np.zeros((n, dim))
    for i in range(n):
        support = rng.choice(dim, size=nnz, replace=False)
        vectors[i, support] = rng.uniform(0.2, 1.0, size=nnz)
    leaves = [_leaf(i, rng, sim=vectors[i]) for i in range(n)]
    return {"name": "synthetic dense", "id": "root", "children": _groups(leaves, m)}
