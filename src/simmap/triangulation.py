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

# Cost-only size thresholds of level_neighbours: up to ALL_PAIRS_MAX_CELLS
# cells every pair is tested; from LOCAL_MIN_CELLS up, first pairs are tested
# against their sites' seed neighbours and certified. SEED_NEIGHBOURS nearest
# sites seed a site without previous neighbours.
ALL_PAIRS_MAX_CELLS = 24
LOCAL_MIN_CELLS = 100
SEED_NEIGHBOURS = 8
# Tolerances, see _stretches and _doubts.
_END_TIE = 1e-9
_VERTEX_TIE = 1e-8
_SIDE_TIE = 1e-9
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
    tested. A hidden site is never reached and keeps an empty list. From
    LOCAL_MIN_CELLS cells up, the first pairs are tested against their sites'
    seed neighbours only; a site outside those rows bounds no end that _doubts
    certifies, so only the stretches it doubts are tested again against every
    site. Each list equals that of testing every pair against every site.

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
        table = None
        if grow.any():
            geo.track(whole)
            local = grow & (sizes >= LOCAL_MIN_CELLS)
            seed_i, seed_j, table = _seed_pairs(geo, seeds or [None] * len(sizes), grow, local.any())
            i, j = (np.concatenate((i, seed_i)), np.concatenate((j, seed_j))) if len(i) else (seed_i, seed_j)
        kept_i, kept_j = _close(geo, i, j, table, table is not None and local)
        alone = grow & (np.bincount(geo.owner[kept_i], minlength=len(sizes)) == 0)
        if alone.any():
            # no seed pair was kept: test every pair, against every site
            geo.track(alone)
            more_i, more_j = _close(geo, *_all_pairs_of(geo, alone), None, None)
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


def _seed_pairs(geo: _Lifted, seeds: list, grow: np.ndarray, tabled: bool):
    """(i, j, table): the first pairs, i < j, of the diagrams in `grow`, now
    seen, and, if `tabled`, each site's seed neighbours as _neighbour_table
    gives them, else None. A diagram's seed is its previous lists, if given
    and no longer than a triangulation's, whose edges number less than 3
    per site; a site with no previous neighbour, as every site without such
    lists, is paired with its SEED_NEIGHBOURS nearest sites."""
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
    return i, j, _neighbour_table(len(geo.owner), i, j) if tabled else None


def _neighbour_table(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(width, n): column s lists the sites paired with site s in the pairs
    (i, j), padded with s."""
    ends = np.concatenate((i, j))
    others = np.concatenate((j, i))
    order = np.argsort(ends, kind="stable")
    ends, others = ends[order], others[order]
    degree = np.bincount(ends, minlength=n)
    table = np.tile(np.arange(n), (int(degree.max()), 1))
    table[np.arange(len(ends)) - np.repeat(np.cumsum(degree) - degree, degree), ends] = others
    return table


def _close(geo: _Lifted, i: np.ndarray, j: np.ndarray, table, local):
    """Test the pairs i < j and return the kept ones. Once pairs are being
    tracked, also test the pairs of each kept stretch's end sites with its two
    sites, and so on, until no pair is new.

    A first pair of a diagram in `local` is tested against its sites'
    columns of `table`, and _doubts checks its kept stretch; a doubtful one
    is tested again against every site of its diagram, as every other pair
    is from the start."""
    follow = geo.seen is not None
    kept_i, kept_j = [], []
    if table is not None:
        on_table = local[geo.owner[i]]
        li, lj = i[on_table], j[on_table]
        i, j = i[~on_table], j[~on_table]
        rows = np.concatenate((li[None], table[:, li], table[:, lj]))
        keep, lo, hi, p, m, top = _stretches(geo, li, lj, np.where(rows == lj, li, rows), 0, None, True)
        doubt = _doubts(geo, li, lj, keep, lo, hi, p, m, np.where(top, hi[p], lo[p]))
        sure = keep & ~doubt
        kept_i.append(li[sure])
        kept_j.append(lj[sure])
        at = sure[p]
        a, b = geo.fresh(np.concatenate((li[p[at]], lj[p[at]])), np.concatenate((m[at], m[at])))
        i, j = np.concatenate((i, li[doubt], a)), np.concatenate((j, lj[doubt], b))
    while len(i):
        rows, own = geo.rows(i)
        keep, _, _, p, m, _ = _stretches(geo, i, j, rows, own, j - i + own, follow)
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
    its diagram: (keep, lo, hi, p, m, top).

    With d = c_j - c_i, the pair's power bisector 2 d . x = l_j - l_i is
    x0 + t u, for u = (-d_y, d_x) and x0 = d (l_j - l_i) / (2 |d|^2), and
    site k keeps i ahead iff a_k t <= b_k, for a_k = 2 (c_k - c_i) . u and
    b_k = l_k - l_i - 2 (c_k - c_i) . x0, which is the power of x for site k
    less that for site i. Each is a row term x_k 2u_x + y_k 2u_y, or
    x_k (-2 x0_x) + y_k (-2 x0_y) + l_k, less the same term of row irow,
    which holds i, all taken elementwise; so a pair's bounds do not depend on
    which pairs share the call, and any row holding i bounds nothing, as
    padding does. Row jrow[p] holds j, whose terms are 0 only up to rounding,
    and is skipped; with jrow None, no row holds j. The stretch [lo, hi] runs
    from the largest b_k / a_k over a_k < 0 to the smallest over a_k > 0, and
    the pair is kept iff hi - lo > 1e-12 and no a_k = 0 has b_k < 0.

    With `follow`, (p, m, top) lists each site m of rows[:, p] whose bound
    lies within _END_TIE (1 + |t|) of a kept stretch's finite end t, which is
    hi where `top` holds and else lo; else they are None. Divisions by zero
    and infinities are expected; the caller silences their warnings.
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
    if jrow is not None:
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
        return keep, lo, hi, None, None, None
    ends = np.array((hi, -lo))
    reach = np.where(keep & (ends < np.inf), ends + _END_TIE * (1.0 + np.abs(ends)), np.nan)
    top = upper <= reach[0]
    k, p = (top | (lower >= -reach[1])).nonzero()
    m = rows[k, p] if rows.shape[1] > 1 else rows[k, 0]
    return keep, lo, hi, p, m, top[k, p]


def _doubts(geo: _Lifted, i, j, keep, lo, hi, p, m, t) -> np.ndarray:
    """Which pairs (i, j), tested against some sites of their diagram, have
    a kept stretch with a doubtful end; (p, m, t) are the stretches' end
    incidences, as _stretches gives them.

    A closed end is the vertex x at t on the pair's bisector, where site m
    ties with its two sites. It is doubtful if a fourth site of the diagram
    comes within _VERTEX_TIE (1 + |x|^2) of their power there, or one of the
    three does not; each vertex (i, j, m) is checked once. An open end is
    doubtful unless every other site of the diagram lies on the far side of
    the pair's line from it, by more than _SIDE_TIE (|2u_x| + |2u_y|) in a_k;
    a stretch open at both ends is doubtful. The checks only decide which
    pairs are tested again, so their matrix product may round as BLAS
    likes."""
    n = len(geo.owner)
    corners = np.sort(np.stack((i[p], j[p], m)), axis=0)
    _, first, back = np.unique((corners[0] * n + corners[1]) * n + corners[2],
                               return_index=True, return_inverse=True)
    q = p[first]
    shut = np.flatnonzero(keep & ((hi == np.inf) != (lo == -np.inf)))
    # one column per check, each vertex and then each open end
    own = np.concatenate((i[q], i[shut]))
    d = geo.xyl.take(j[q], axis=1) - geo.xyl.take(i[q], axis=1)
    s = d[2] / -(d[0] * d[0] + d[1] * d[1])
    t = t[first]
    # at a vertex x, e = -2 x, so that site k's power there, less |x|^2, is
    # l_k + c_k . e; an open end's column gives -a_k for a hi end, a_k for a lo
    e = np.stack((d[0] * s + 2.0 * t * d[1], d[1] * s - 2.0 * t * d[0], np.ones_like(t)))
    slack = _VERTEX_TIE * (1.0 + 0.25 * (e[0] * e[0] + e[1] * e[1]))
    d = geo.xyl.take(j[shut], axis=1) - geo.xyl.take(i[shut], axis=1)
    side = np.where(hi[shut] == np.inf, 2.0, -2.0)
    e = np.concatenate((e, np.stack((side * d[1], -side * d[0], np.zeros(len(shut))))), axis=1)
    slack = np.concatenate((slack, _SIDE_TIE * 2.0 * (np.abs(d[0]) + np.abs(d[1]))))
    count = _count_within(geo, own, e, slack)
    doubt = keep & (hi == np.inf) & (lo == -np.inf)
    doubt[p[count[back] != 3]] = True
    doubt[shut[count[len(q):] != 2]] = True
    return doubt


def _count_within(geo: _Lifted, own: np.ndarray, e: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """For each column v of e, how many sites k of own[v]'s diagram have
    (x_k, y_k, l_k) . e[:, v] at most slack[v] above the same for own[v], by
    one matrix product per diagram."""
    diagram = geo.owner[own]
    count = np.zeros(len(own), dtype=np.intp)
    for d in np.unique(diagram):
        v = np.flatnonzero(diagram == d)
        span = slice(geo.starts[d], geo.starts[d] + geo.sizes[d])
        value = geo.xyl[:, span].T @ e[:, v]
        count[v] = np.count_nonzero(value <= value[own[v] - span.start, np.arange(len(v))] + slack[v], axis=0)
    return count


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
