"""Inverse Cholesky factor of a positive definite matrix ``H`` that is
chordal along a clique tree, such as the bundled solver's normal matrix
(:func:`smk.relax.normal_matrix`).

:func:`plan` takes a cover and a :class:`Pattern`: H's lower triangle and
the cliques that read each unknown. Two unknowns meet only where one clique
reads both, so with the running intersection property H is chordal along the
clique tree (Vandenberghe & Andersen, "Chordal graphs and semidefinite
optimization", 2015). The unknowns are eliminated in a nested dissection of
that tree (George 1973): cliques by centroid decomposition, deepest first;
each unknown at the topmost clique that reads it; within a clique, the
unknowns other cliques read last. A cover with no clique tree is one front.

``H = L Lᵀ`` is factored by a multifrontal Cholesky (Liu, SIAM Rev. 1992)
with one dense front per clique, the fronts at one height of the front tree
batched and padded to one size. ``W = L⁻¹`` is formed from the root down,
kept as terms over ``W[k, j]`` for ``k`` equal to ``j`` or its ancestor in
the elimination tree, exact zeros dropped: ``H⁻¹ b = Wᵀ (W b)`` takes two
``np.bincount`` calls. :func:`plan` does the index work by array passes, one
per height of the front tree, and :func:`inverse_factor` the dense work: on
the tests' width-3 ball chain of 400 cliques, 35-49 ms and 27-39 ms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import CliqueCover
from .rip import NoOrderExists, RipFailsAt, check_rip, find_rip_order


class Pattern(NamedTuple):
    """A symmetric matrix's lower triangle ``row >= column`` over ``size``
    unknowns, the diagonal included, and each pair of a 0-based unknown
    ``read`` and a 1-based clique ``reader`` that reads it, once."""

    size: int
    row: np.ndarray
    column: np.ndarray
    read: np.ndarray
    reader: np.ndarray


class InverseFactor(NamedTuple):
    """``W = L⁻¹`` for ``H = L Lᵀ`` as terms over the unknowns in canonical
    order: ``W[row[t], column[t]] = value[t]``."""

    row: np.ndarray
    column: np.ndarray
    value: np.ndarray
    size: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``H⁻¹ b = Wᵀ (W b)``."""
        z = np.bincount(self.row, self.value * b[self.column], minlength=self.size)
        return np.bincount(self.column, self.value * z[self.row], minlength=self.size)


class _Level(NamedTuple):
    """Fronts of one height of the front tree, factored together, padded to
    ``own`` eliminated unknowns, ``update`` later unknowns they update, and
    ``ancestors`` further rows of W: their unknowns' elimination-tree ancestors."""

    count: int
    own: int
    update: int
    ancestors: int
    target: np.ndarray  # flat positions in the (count, own + update, own + update) fronts
    source: np.ndarray  # what goes there: positions in [matrix entries, 1.0, update matrices]
    update_at: int  # where the level's update matrices start in that buffer
    gather: np.ndarray  # (count, ancestors, update) positions in the W store
    w_at: int  # where the level's (count, own + ancestors, own) blocks of W start in the W store


class FactorPlan(NamedTuple):
    """The value-independent part of the factorization of one pattern."""

    size: int  # unknowns
    levels: tuple[_Level, ...]
    update_size: int
    w_size: int
    w_take: np.ndarray  # W's structural entries: positions in the W store,
    w_row: np.ndarray  # and their rows and columns among the unknowns
    w_column: np.ndarray

    @property
    def fronts(self) -> int:
        """One per clique that is some unknown's topmost reader, one for unread unknowns."""
        return sum(level.count for level in self.levels)


def inverse_factor(plan: FactorPlan, values: np.ndarray) -> InverseFactor:
    """The inverse factor of the matrix whose lower triangle holds ``values``
    in the order of the pattern ``plan`` was made from. A matrix that is not
    numerically positive definite raises ``numpy.linalg.LinAlgError``."""
    buf = np.concatenate([values, [1.0], np.empty(plan.update_size)])  # 1.0: a padded front's diagonal
    factored = []
    for lv in plan.levels:
        n = lv.own + lv.update
        front = np.bincount(lv.target, buf[lv.source], minlength=lv.count * n * n).reshape(lv.count, n, n)
        inverse = np.linalg.inv(np.linalg.cholesky(front[:, : lv.own, : lv.own]))
        below = front[:, lv.own :, : lv.own] @ inverse.transpose(0, 2, 1)  # L's rows below the front
        schur = front[:, lv.own :, lv.own :] - below @ below.transpose(0, 2, 1)
        buf[lv.update_at : lv.update_at + schur.size] = schur.ravel()
        factored.append((inverse, below @ inverse))
    store = np.zeros(plan.w_size + 1)  # the last entry stays 0: gathers of structural zeros read it
    for lv, (inverse, spread) in zip(reversed(plan.levels), reversed(factored)):
        # W's rows above the front: W[R, own] = -W[R, update] L21 L11⁻¹
        block = np.concatenate([inverse, -(store[lv.gather] @ spread)], axis=1)
        store[lv.w_at : lv.w_at + block.size] = block.ravel()
    value = store[plan.w_take]
    keep = value != 0.0
    return InverseFactor(plan.w_row[keep], plan.w_column[keep], value[keep], plan.size)


def plan(cover: CliqueCover, pattern: Pattern) -> FactorPlan:
    """The :class:`FactorPlan` of ``pattern`` on ``cover``. Positions below are
    in elimination order, a front's consecutive and before its parent's."""
    size = pattern.size
    order, ends = _elimination_order(cover, pattern)
    position = np.argsort(order)
    i, j = position[pattern.row], position[pattern.column]
    hi, hj = np.maximum(i, j), np.minimum(i, j)
    starts = ends - np.diff(ends, prepend=0)
    nfront, span = len(ends), size + 1  # a (front, position) pair is the key front * span + position
    front_of = np.repeat(np.arange(nfront), ends - starts)

    # the update sets and the front tree: a front's update set holds the rows
    # past it that the pattern joins to its columns, and the rows of its
    # children's update sets past it; its parent is its first update row's
    # front (a sentinel parent[-1] = -1 marks the roots). Grown to a fixed point.
    fi, fj = front_of[hi], front_of[hj]
    upd_key = _unique((fj * span + hi)[fi > fj])
    while True:
        f, r = np.divmod(upd_key, span)
        head = np.flatnonzero(np.diff(f, prepend=-1))  # each front's first update row
        parent = np.full(nfront + 1, -1, dtype=np.int64)
        parent[f[head]] = front_of[r[head]]
        grown = _unique(np.concatenate([upd_key, (parent[f] * span + r)[r >= ends[parent[f]]]]))
        if grown.size == upd_key.size:
            break
        upd_key = grown
    height = [0] * (nfront + 1)  # each front's height in the front tree; the last collects the roots
    for f, p in enumerate(parent[:-1].tolist()):
        height[p] = max(height[p], height[f] + 1)
    height = np.array(height[:-1], dtype=np.int64)
    nlevel = int(height.max(initial=-1)) + 1
    slot = np.empty(nfront, dtype=np.int64)  # each front's place in its level, set level by level
    upd_row = np.append(upd_key % span, -1)  # -1 for a padded place
    upd_first = np.searchsorted(upd_key, np.arange(nfront + 1) * span)
    nupd = np.diff(upd_first)
    count, own, upd, anc = np.bincount(height, minlength=nlevel), *np.zeros((3, nlevel), dtype=np.int64)
    np.maximum.at(own, height, ends - starts)  # each level's widest front
    np.maximum.at(upd, height, nupd)
    own_f = own[height]
    update_at = np.cumsum(np.concatenate([[len(hi) + 1], count * upd * upd]))

    def local(f, x):  # the row of position x, in f or in f's update set, in front f's matrix
        at = own_f[f] + np.searchsorted(upd_key, f * span + x) - upd_first[f]
        return np.where(x < ends[f], x - starts[f], at)

    lifted = local(parent[_ranges(nupd)[0]], upd_row[:-1])  # each update row's row in the parent front

    # per level, the scatter of the pattern's entries and of the children's
    # update matrices into the fronts, and the elimination tree of the fronts'
    # columns from a symbolic factorization of the same scatter: each column's
    # parent is its first row below, and its rows past the parent join the
    # parent's column; what reaches the update columns goes to the parent front
    entries = [np.flatnonzero(height[fj] == lv) for lv in range(nlevel)]  # by their column's front
    children = [np.flatnonzero((parent[:-1] >= 0) & (height[parent[:-1]] == lv)) for lv in range(nlevel)]
    etree = np.full(size, -1, dtype=np.int64)
    filled = np.zeros(int(update_at[-1]), dtype=bool)
    filled[: len(hi) + 1] = True
    scatters = []
    for lv in range(nlevel):
        own_, n = int(own[lv]), int(own[lv] + upd[lv])
        fronts = np.flatnonzero(height == lv)
        slot[fronts] = np.arange(len(fronts))
        t = entries[lv]
        base, a, b = slot[fj[t]] * n * n, local(fj[t], hi[t]), hj[t] - starts[fj[t]]
        g, pq = _ranges(nupd[children[lv]] ** 2)  # every pair (p, q) of a child's update set
        c = children[lv][g]
        p, q = np.divmod(pq, nupd[c])
        cu = upd[height[c]]
        width = ends[fronts] - starts[fronts]
        g, pad = _ranges(own_ - width)  # a padded front is the identity past its columns
        pad += width[g]
        target = np.concatenate([
            base + a * n + b, (base + b * n + a)[a != b],
            slot[parent[c]] * n * n + lifted[upd_first[c] + p] * n + lifted[upd_first[c] + q],
            slot[fronts[g]] * n * n + pad * (n + 1),
        ])
        source = np.concatenate([
            t, t[a != b], update_at[height[c]] + (slot[c] * cu + p) * cu + q, np.full(pad.size, len(hi)),
        ])
        scatters.append((target, source))
        front = np.zeros((len(fronts), n, n), dtype=bool)  # as [front, column, row]: the scatter is symmetric
        front.reshape(-1)[target[filled[source]]] = True
        every, up = np.arange(len(fronts)), np.zeros((len(fronts), own_), dtype=np.int64)
        for k in range(min(own_, n - 1)):  # below a column's first row its rows are False
            below = front[:, k, k + 1 :]
            up[:, k] = first = k + 1 + below.argmax(axis=1)
            front[every, first, k + 1 :] |= below
        filled[update_at[lv] : update_at[lv + 1]] = front[:, own_:, own_:].ravel()
        g, k = _ranges(width)
        u, f = up[g, k], fronts[g]
        u[~front[g, k, np.minimum(u, n - 1)] | (u <= k)] = -1  # no row below
        above = upd_row[np.where(u >= own_, upd_first[f] + u - own_, -1)]
        etree[starts[f] + k] = np.where(u < 0, -1, np.where(u < own_, starts[f] + u, above))

    # W's structure: each position j with its ancestors k in the elimination
    # tree. The rows of a front's block of W are its own positions, then the
    # ancestors of its columns past it, and W[k, x] is at w_base + row * own + x
    ks, js = [np.arange(size)], [np.arange(size)]
    while ks[-1].size:
        k = etree[ks[-1]]
        ks, js = ks + [k[k >= 0]], js + [js[-1][k >= 0]]
    k, j = np.concatenate(ks), np.concatenate(js)
    g, past = front_of[j], k >= ends[front_of[j]]
    above_key, rank = np.unique(g[past] * span + k[past], return_inverse=True)
    above_key = np.append(above_key, nfront * span)  # then a sentinel past every key
    above_first = np.searchsorted(above_key, np.arange(nfront + 1) * span)
    nabove = np.diff(above_first)
    np.maximum.at(anc, height, nabove)
    w_at = np.cumsum(np.concatenate([[0], count * (own + anc) * own]))
    w_base = w_at[height] + slot * (own_f + anc[height]) * own_f - starts
    row = k - starts[g]
    row[past] = own_f[g[past]] + rank - above_first[g[past]]
    by_row = np.argsort(order[k] * span + order[j])  # W's terms row by row, as a CSR matrix holds them
    take, rows, cols = (w_base[g] + row * own_f[g] + j)[by_row], order[k][by_row], order[j][by_row]

    # the gathers W[R, update] of each front; a structural zero reads the sentinel
    f, ac = _ranges(nabove * nupd)
    a, c = np.divmod(ac, nupd[f])
    k, x = above_key[above_first[f] + a] % span, upd_row[upd_first[f] + c]
    g = front_of[x]
    at = np.searchsorted(above_key, g * span + k)
    row = np.where(above_key[at] == g * span + k, own_f[g] + at - above_first[g], -1)
    row = np.where((starts[g] <= k) & (k < ends[g]), k - starts[g], row)
    pos = np.where(row >= 0, w_base[g] + row * own_f[g] + x, w_at[-1])
    levels = []
    for lv, (target, source) in enumerate(scatters):
        gather = np.full((count[lv], anc[lv], upd[lv]), w_at[-1], dtype=np.int64)
        mine = height[f] == lv
        gather[slot[f[mine]], a[mine], c[mine]] = pos[mine]
        levels.append(_Level(*map(int, (count[lv], own[lv], upd[lv], anc[lv])), target, source,
                             int(update_at[lv]), gather, int(w_at[lv])))
    return FactorPlan(size, tuple(levels), int(update_at[-1] - update_at[0]), int(w_at[-1]), take, rows, cols)


def _ranges(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive groups of ``lengths``: each member's group and place in it."""
    group = np.repeat(np.arange(len(lengths)), lengths)
    return group, np.arange(group.size) - (np.cumsum(lengths) - lengths)[group]


def _unique(keys: np.ndarray) -> np.ndarray:
    """Nonnegative ``keys`` sorted, once each, by one sort: ``np.unique`` with no
    index output takes a slower hash table and loads ``numpy.ma``."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _elimination_order(cover: CliqueCover, pattern: Pattern):
    """The unknowns in elimination order and the end of each front in that
    order. An unknown's front is the topmost clique that reads it; unknowns
    no clique reads form a first front."""
    size = pattern.size
    moments = np.arange(size)
    depth = _dissection_depths(cover)
    if depth is None:
        return moments, np.array([size] if size else [], dtype=np.int64)
    rank = np.full(cover.m + 1, -1, dtype=np.int64)  # by 1-based clique: deepest first, then by position
    rank[np.lexsort((np.arange(cover.m), -np.array(depth))) + 1] = np.arange(cover.m)
    front = np.full(size, -1, dtype=np.int64)
    np.maximum.at(front, pattern.read, rank[pattern.reader])
    shared = np.bincount(pattern.read, minlength=size) > 1
    order = np.lexsort((moments, shared, front))
    return order, np.flatnonzero(np.diff(front[order], append=cover.m) != 0) + 1


def _dissection_depths(cover: CliqueCover) -> list[int] | None:
    """Each clique's depth (0 at the top of each connected part) in a centroid
    decomposition of a clique tree of ``cover``, or None if it has none: in an
    order with the property, a clique hangs from its first witness if they meet."""
    try:
        order, witness = tuple(range(1, cover.m + 1)), check_rip(cover).witness
    except RipFailsAt:
        try:
            order = find_rip_order(cover)
        except NoOrderExists:
            return None
        witness = check_rip(cover.reorder(order)).witness
    adjacent = [[] for _ in range(cover.m)]
    for i, js in witness.items():
        a, b = order[i - 1] - 1, order[min(js) - 1] - 1
        if set(cover.cliques[a]) & set(cover.cliques[b]):
            adjacent[a].append(b)
            adjacent[b].append(a)
    depth = [-1] * cover.m
    stack = [(k, 0) for k in reversed(range(cover.m))]
    while stack:
        start, d = stack.pop()
        if depth[start] >= 0:
            continue
        part, parent = [start], {start: None}
        for v in part:  # breadth first through the cliques not yet placed
            for w in adjacent[v]:
                if depth[w] < 0 and w not in parent:
                    parent[w] = v
                    part.append(w)
        weight = dict.fromkeys(part, 1)
        for v in reversed(part[1:]):
            weight[parent[v]] += weight[v]
        centroid = start
        while heavy := [  # step into a subtree holding more than half the part, while there is one
            w for w in adjacent[centroid] if parent.get(w) == centroid and 2 * weight[w] > len(part)
        ]:
            centroid = heavy[0]
        depth[centroid] = d
        stack.extend((w, d + 1) for w in adjacent[centroid] if depth[w] < 0)
    return depth
