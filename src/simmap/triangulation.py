"""Regular-triangulation neighbours of weighted sites, the candidate lists
that geometry.recompute_level clips each cell against.

Sites i and j of a power diagram are neighbours iff a stretch of their
power bisector keeps them ahead of every other site, the edges of the lower
convex hull of the sites lifted to (x, y, x^2 + y^2 - w) (Aurenhammer,
"Power diagrams: properties, algorithms and applications", SIAM J. Comput.
1987). `level_neighbours` tests those stretches for all diagrams of a level
in one call, with numpy alone.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Cost-only settings of level_neighbours: up to ALL_PAIRS_MAX_CELLS cells
# every pair is tested; above, SEED_NEIGHBOURS nearest sites seed a site
# without previous neighbours.
ALL_PAIRS_MAX_CELLS = 24
SEED_NEIGHBOURS = 8
# Tolerance, see _stretches.
_END_TIE = 1e-9
# a pair's (d_y, d_x) to 2u = (-2 d_y, 2 d_x)
_TURN = np.array([[-2.0], [2.0]])


def level_neighbours(sites: np.ndarray, weights: np.ndarray, sizes, seeds=None) -> list:
    """Each diagram's candidate lists, as (candidates, degree): the lists of
    its sites, each ascending, concatenated in site order, and their lengths.

    The level's diagrams, of sizes[k] cells each, are stacked in `sites` and
    `weights`. seeds[k] is diagram k's previous lists or None; it changes the
    cost only, not the lists.

    A site's candidates are its regular-triangulation neighbours (Aurenhammer,
    SIAM J. Comput. 1987): the sites j whose power bisector with it keeps a
    stretch where both are ahead of every other site, as _stretches tests,
    on each diagram's sites centred and scaled and on their centred lifts
    l = |c|^2 - w / scale^2.

    A diagram of up to ALL_PAIRS_MAX_CELLS cells tests all its pairs. A larger
    one tests its previous lists, else each site's SEED_NEIGHBOURS nearest
    sites, and then, for each kept stretch, the pairs of its two sites with
    the sites ending it, ties within rounding included, until no pair is new:
    those are the third corners of triangles on its edge, and the triangles
    of a regular triangulation are connected through their edges, so this
    reaches every edge from any kept pair. If none is kept, all pairs are
    tested. A hidden site is never reached and keeps an empty list. Every
    pair is tested against every site of its diagram, so each list equals
    that of testing every pair.

    A lift whose smallest singular value is at most 1e-12 of its largest is
    coplanar (collinear sites, cocircular ones of equal weight), and every
    list holds all other sites. A planar lower face of four or more lifted
    sites (four cocircular sites of equal weight, none inside) has diagonals
    whose bisectors meet the other cells in one point; they are left out,
    where a convex-hull triangulation adds one, whose clip cuts nothing.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = _Lifted(sites, weights, sizes)
        flat = _coplanar(geo)
        whole = (sizes <= ALL_PAIRS_MAX_CELLS) & ~flat
        grow = ~whole & ~flat
        i, j = _all_pairs_of(geo, whole)
        if grow.any():
            geo.track(whole)
            seed_i, seed_j = _seed_pairs(geo, seeds or [None] * len(sizes), grow)
            i, j = (np.concatenate((i, seed_i)), np.concatenate((j, seed_j))) if len(i) else (seed_i, seed_j)
        kept_i, kept_j = _close(geo, i, j)
        alone = grow & (np.bincount(geo.owner[kept_i], minlength=len(sizes)) == 0)
        if alone.any():
            # no seed pair was kept: test every pair, against every site
            geo.track(alone)
            more_i, more_j = _close(geo, *_all_pairs_of(geo, alone))
            kept_i, kept_j = np.concatenate((kept_i, more_i)), np.concatenate((kept_j, more_j))
    ends = np.concatenate((kept_i, kept_j))
    others = np.concatenate((kept_j, kept_i))
    others = others[np.argsort(ends * len(sites) + others)]
    degree = np.bincount(ends, minlength=len(sites))
    if len(sizes) == 1:
        return [all_pairs(len(sites)) if flat[0] else (others, degree)]
    others -= geo.starts[geo.owner[others]]
    bounds = np.cumsum(np.add.reduceat(degree, geo.starts))[:-1]
    return [all_pairs(int(n)) if is_flat else lists for n, is_flat, lists in zip(
        sizes, flat, zip(np.split(others, bounds), np.split(degree, geo.starts[1:])))]


class _Lifted:
    """A level's sites, centred and scaled per diagram, and their lifts, as
    the (3, sites) rows x, y, l; each diagram's first site and size, and each
    site's diagram. Once `track` is called, `seen` records the pairs tested."""

    def __init__(self, sites: np.ndarray, weights: np.ndarray, sizes: np.ndarray):
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        self.seen = None
        if len(sizes) == 1:
            # the bits of sites.mean(axis=0) and lift.mean()
            c = sites - np.add.reduce(sites, axis=0) / len(sites)
            scale = float(np.abs(c).max()) or 1.0
            c = c / scale
            lift = np.einsum("ij,ij->i", c, c) - weights / (scale * scale)
            lift -= np.add.reduce(lift) / len(sites)
        else:
            c = sites - _diagram_means(sites, self.starts, sizes)[self.owner]
            scale = np.maximum.reduceat(np.abs(c).max(axis=1), self.starts)
            scale[scale == 0.0] = 1.0
            c /= scale[self.owner, None]
            lift = np.einsum("ij,ij->i", c, c) - weights / (scale * scale)[self.owner]
            lift -= _diagram_means(lift, self.starts, sizes)[self.owner]
        self.xyl = np.concatenate((c.T, lift[None]))

    def track(self, done: np.ndarray) -> None:
        """Start recording tested pairs, if not yet, and mark every pair of the
        diagrams in `done` as tested."""
        area = self.sizes * self.sizes
        if self.seen is None:
            self.seen = np.zeros(int(area.sum()), dtype=bool)
            # pair (a, b) of one diagram is seen[base[a] + b]
            if len(area) == 1:
                self.base = np.arange(0, int(area[0]), int(self.sizes[0]))
            else:
                first = np.cumsum(area) - area - self.starts * (self.sizes + 1)
                self.base = first[self.owner] + np.arange(len(self.owner)) * self.sizes[self.owner]
        if done.any():
            self.seen[np.repeat(done, area)] = True

    def fresh(self, a: np.ndarray, b: np.ndarray):
        """The distinct pairs (min, max) of a[k], b[k] not seen yet, now seen."""
        a, b = np.minimum(a, b), np.maximum(a, b)
        key = self.base[a] + b
        new = ~self.seen[key]
        if not new.any():
            return a[:0], b[:0]
        key, first = np.unique(key[new], return_index=True)
        self.seen[key] = True
        return a[new][first], b[new][first]

    def rows(self, sites: np.ndarray):
        """(rows, own): column p of rows lists the sites of sites[p]'s
        diagram, padded with sites[p], or is one broadcast column if all share
        one diagram; own[p] is the row of sites[p]."""
        if len(self.sizes) == 1:
            return np.arange(len(self.owner))[:, None], sites
        diagram = self.owner[sites]
        first, size = self.starts[diagram], self.sizes[diagram]
        r = np.arange(int(size.max()))[:, None]
        if (diagram == diagram[0]).all():
            return first[0] + r, sites - first[0]
        rows = first + r
        if size.min() < len(r):
            rows = np.where(r < size, rows, sites)
        return rows, sites - first


def _diagram_means(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each diagram's mean of `values` over its sites, with the bits of
    values[its sites].mean(axis=0): the diagrams of one size are taken as one
    block, whose mean along axis 1 sums each diagram as that does."""
    means = np.empty((len(sizes),) + values.shape[1:])
    for n in np.unique(sizes):
        ks = np.flatnonzero(sizes == n)
        block = values if len(ks) == len(sizes) else values[(starts[ks][:, None] + np.arange(n)).ravel()]
        means[ks] = block.reshape((len(ks), n) + values.shape[1:]).mean(axis=1)
    return means


@lru_cache(maxsize=2 * ALL_PAIRS_MAX_CELLS)
def _pair_indices(n: int):
    """(i, j): the pairs i < j of n sites, row-major; read-only, and the same
    arrays for every call with the same n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _all_pairs_of(geo: _Lifted, which: np.ndarray):
    """(i, j): every pair of the diagrams in `which`, by level index."""
    if not which.any():
        return geo.owner[:0], geo.owner[:0]
    parts = [(a + geo.starts[k], b + geo.starts[k])
             for k in np.flatnonzero(which) for a, b in [_pair_indices(int(geo.sizes[k]))]]
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(side) for side in zip(*parts))


def _coplanar(geo: _Lifted) -> np.ndarray:
    """Which diagrams' centred lifted sites are coplanar: their smallest
    singular value is at most 1e-12 of their largest. Only diagrams whose
    Gram matrix has det <= 1e-10 trace^3 take an SVD: since det <= l_min
    trace^2 for its eigenvalues l, the others are far from flat, however the
    Gram matrix rounds."""
    xyl = geo.xyl
    if len(geo.sizes) == 1:
        (xx, xy, xl), (_, yy, yl), (_, _, ll) = (xyl @ xyl.T).tolist()
        det = xx * (yy * ll - yl * yl) - xy * (xy * ll - yl * xl) + xl * (xy * yl - yy * xl)
        thin = [0] if det <= 1e-10 * (xx + yy + ll) ** 3 else []
    else:
        gram = np.add.reduceat(xyl[[0, 0, 0, 1, 1, 1, 2, 2, 2]] * xyl[[0, 1, 2] * 3],
                               geo.starts, axis=1).T.reshape(-1, 3, 3)
        thin = np.flatnonzero(np.linalg.det(gram) <= 1e-10 * np.trace(gram, axis1=1, axis2=2) ** 3)
    flat = np.zeros(len(geo.sizes), dtype=bool)
    for k in thin:
        spread = np.linalg.svd(xyl[:, geo.starts[k]:geo.starts[k] + geo.sizes[k]], compute_uv=False)
        flat[k] = spread[-1] <= 1e-12 * spread[0]
    return flat


def _seed_pairs(geo: _Lifted, seeds: list, grow: np.ndarray):
    """(i, j): the first pairs, i < j, of the diagrams in `grow`, now seen.
    A diagram's seed is its previous lists, if given and no longer than a
    triangulation's, whose edges number less than 3 per site; a site with no
    previous neighbour, as every site without such lists, is paired with its
    SEED_NEIGHBOURS nearest sites."""
    kept_i, kept_j, ends, others = [], [], [], []
    for k in np.flatnonzero(grow):
        first, size = geo.starts[k], geo.sizes[k]
        lonely = np.arange(size)
        if seeds[k] is not None and len(seeds[k][1]) == size and len(seeds[k][0]) < 6 * size:
            # a previous list holds each pair in both directions
            candidates, degree = seeds[k]
            owner = np.repeat(lonely, degree)
            up = candidates > owner
            kept_i.append(owner[up] + first)
            kept_j.append(candidates[up] + first)
            lonely = lonely[degree == 0]
        if len(lonely):
            span = slice(first, first + size)
            dx = geo.xyl[0, span] - geo.xyl[0, lonely + first, None]
            dy = geo.xyl[1, span] - geo.xyl[1, lonely + first, None]
            d2 = dx * dx + dy * dy
            d2[np.arange(len(lonely)), lonely] = np.inf
            near = np.argpartition(d2, SEED_NEIGHBOURS - 1, axis=1)[:, :SEED_NEIGHBOURS]
            ends.append(np.repeat(lonely + first, SEED_NEIGHBOURS))
            others.append(near.ravel() + first)
    i, j = (np.concatenate(part or [geo.owner[:0]]) for part in (kept_i, kept_j))
    geo.seen[geo.base[i] + j] = True
    if ends:
        near_i, near_j = geo.fresh(np.concatenate(ends), np.concatenate(others))
        i, j = np.concatenate((i, near_i)), np.concatenate((j, near_j))
    return i, j


def _close(geo: _Lifted, i: np.ndarray, j: np.ndarray):
    """Test the pairs i < j and return the kept ones. Once pairs are being
    tracked, also test the pairs of each kept stretch's end sites with its two
    sites, and so on, until no pair is new."""
    follow = geo.seen is not None
    kept_i, kept_j = [], []
    while len(i):
        rows, own = geo.rows(i)
        keep, p, m = _stretches(geo, i, j, rows, own, j - i + own, follow)
        kept_i.append(i[keep])
        kept_j.append(j[keep])
        if not follow:
            break
        i, j = geo.fresh(np.concatenate((i[p], j[p])), np.concatenate((m, m)))
    if len(kept_i) == 1:
        return kept_i[0], kept_j[0]
    return np.concatenate(kept_i or [i]), np.concatenate(kept_j or [j])


def _stretches(geo: _Lifted, i: np.ndarray, j: np.ndarray, rows: np.ndarray, irow, jrow, follow: bool):
    """Test each pair p of sites i[p] < j[p] against the sites rows[:, p] of
    its diagram: (keep, p, m).

    With d = c_j - c_i, the pair's power bisector 2 d . x = l_j - l_i is
    x0 + t u, for u = (-d_y, d_x) and x0 = d (l_j - l_i) / (2 |d|^2), and
    site k keeps i ahead iff a_k t <= b_k, for a_k = 2 (c_k - c_i) . u and
    b_k = l_k - l_i - 2 (c_k - c_i) . x0, which is the power of x for site k
    less that for site i. Each is a row term x_k 2u_x + y_k 2u_y, or
    x_k (-2 x0_x) + y_k (-2 x0_y) + l_k, less the same term of row irow,
    which holds i, all taken elementwise; so a pair's bounds do not depend on
    which pairs share the call, and any row holding i bounds nothing, as
    padding does. Row jrow[p] holds j, whose terms are 0 only up to rounding,
    and is skipped. The stretch [lo, hi] runs from the largest b_k / a_k over
    a_k < 0 to the smallest over a_k > 0, and the pair is kept iff
    hi - lo > 1e-12 and no a_k = 0 has b_k < 0.

    With `follow`, (p, m) lists each site m of rows[:, p] whose bound lies
    within _END_TIE (1 + |t|) of a kept stretch's finite end t; else they are
    None. Divisions by zero and infinities are expected; the caller silences
    their warnings.
    """
    xyl = geo.xyl
    d = xyl.take(j, axis=1) - xyl.take(i, axis=1)
    s = d[2] / -(d[0] * d[0] + d[1] * d[1])
    # [a or b, x or y, pair]: 2u and -2 x0
    coef = np.empty((2, 2, len(i)))
    np.multiply(d[1::-1], _TURN, out=coef[0])
    np.multiply(d[:2], s, out=coef[1])
    r = xyl.take(rows, axis=1)
    ab = r[0] * coef[:, 0, None]
    ab += r[1] * coef[:, 1, None]
    ab[1] += r[2]
    cols = np.arange(len(i))
    # -a and -b: then copysign(inf, -a) marks the bounds from above
    ab = ab[:, irow, cols][:, None] - ab
    ab[:, jrow, cols] = 0.0
    bound = ab[1] / ab[0]
    # a_k > 0 bounds t from above and a_k < 0 from below; a_k = 0 gives an
    # infinite bound, -inf above or +inf below where b_k < 0, which drops the
    # pair, and 0 / 0 gives nan, which the fmin and fmax reductions skip
    side = np.copysign(np.inf, ab[0])
    upper = np.maximum(bound, side)
    lower = np.minimum(bound, side, out=side)
    hi = np.fmin.reduce(upper, axis=0, initial=np.inf)
    lo = np.fmax.reduce(lower, axis=0, initial=-np.inf)
    keep = hi - lo > 1e-12
    if not follow:
        return keep, None, None
    ends = np.array((hi, -lo))
    reach = np.where(keep & (ends < np.inf), ends + _END_TIE * (1.0 + np.abs(ends)), np.nan)
    k, p = ((upper <= reach[0]) | (lower >= -reach[1])).nonzero()
    m = rows[k, p] if rows.shape[1] > 1 else rows[k, 0]
    return keep, p, m


# every clip of a diagram too small for lists asks for its size's lists; the
# bound keeps coplanar diagrams of many sizes from piling up
@lru_cache(maxsize=32)
def all_pairs(n: int):
    """(candidates, degree) in which every site's list holds all other sites;
    read-only, and the same arrays for every call with the same n."""
    candidates, degree = np.nonzero(~np.eye(n, dtype=bool))[1], np.full(n, n - 1)
    candidates.flags.writeable = False
    degree.flags.writeable = False
    return candidates, degree
