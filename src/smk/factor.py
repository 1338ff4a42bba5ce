"""Inverse Cholesky factor of the bundled solver's normal matrix.

The least-squares step of the bundled solver solves ``H y = b`` for the free
moments, with ``H = AᵀA + 1e-12 I`` and ``A`` the block operator without its
constant column. Two moments meet in ``H`` only where one block entry reads
both, and a block reads only moments on its clique, so with the running
intersection property ``H`` is chordal along the clique tree (Vandenberghe &
Andersen, "Chordal graphs and semidefinite optimization", 2015). The moments
are eliminated in a nested dissection of that tree (George 1973): cliques by
centroid decomposition, deepest first; each moment at the topmost clique
whose blocks read it, that is, the topmost clique holding its support;
within a clique, the moments other cliques read last. A cover with no clique
tree is one front, in canonical order.

``H = L Lᵀ`` is factored by a multifrontal Cholesky with one dense front per
clique; the fronts at one height of the front tree are factored together,
padded to one size, by batched numpy calls. The inverse factor ``W = L⁻¹`` is
then formed front by front from the root: ``W[i, j]`` can be nonzero only
where ``i`` is ``j`` or an ancestor of ``j`` in the elimination tree, so it is
kept as term arrays over those entries, exact zeros dropped, and
``H⁻¹ b = Wᵀ (W b)`` takes two ``np.bincount`` calls.

The order, the front index sets and the scatter, extend-add and gather
indices depend only on the sparsity pattern. :func:`plan_of` computes them
once per pattern; :func:`inverse_factor` then pays only for ``H`` and the
dense work of each front.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import CliqueCover
from .errors import SolverDiverged
from .rip import NoOrderExists, RipFailsAt, check_rip, find_rip_order

REGULARIZATION = 1e-12  # on the diagonal of H, so that a moment no block reads has a pivot


class InverseFactor(NamedTuple):
    """``W = L⁻¹`` for ``H = L Lᵀ`` as terms over the free moments in
    canonical order: ``W[row[t], column[t]] = value[t]``."""

    row: np.ndarray
    column: np.ndarray
    value: np.ndarray
    size: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``H⁻¹ b = Wᵀ (W b)``."""
        z = np.bincount(self.row, self.value * b[self.column], minlength=self.size)
        return np.bincount(self.column, self.value * z[self.row], minlength=self.size)


class _Level(NamedTuple):
    """Fronts of one height of the front tree, factored together. Each is
    padded to ``own`` eliminated moments, ``update`` later moments it
    updates, and ``ancestors`` further rows of its columns of ``W``: the
    ancestors of its moments in the elimination tree."""

    count: int
    own: int
    update: int
    ancestors: int
    target: np.ndarray  # flat positions in the (count, own + update, own + update) fronts
    source: np.ndarray  # what goes there: positions in [H entries, 1.0, update matrices]
    update_at: int  # where the level's update matrices start in that buffer
    gather: np.ndarray  # (count, ancestors, update) positions in the W store
    w_at: int  # where the level's own blocks, then ancestor blocks, start in the W store


class FactorPlan(NamedTuple):
    """The value-independent part of the factorization of one pattern."""

    size: int  # free moments
    first: np.ndarray  # H gains coefficient[first] * coefficient[second] at ``entry``
    second: np.ndarray
    entry: np.ndarray
    diagonal: np.ndarray  # the entry of each diagonal element
    entries: int
    levels: tuple[_Level, ...]
    update_size: int
    w_size: int
    w_take: np.ndarray  # W's structural entries: positions in the W store,
    w_row: np.ndarray  # and their rows and columns among the free moments
    w_column: np.ndarray

    @property
    def fronts(self) -> int:
        """One per clique that is the topmost reader of some moment, and one
        for the moments no block reads, if any."""
        return sum(level.count for level in self.levels)


def inverse_factor(instance) -> InverseFactor:
    """The inverse factor of ``instance``'s normal matrix (an
    :class:`~smk.relax.SdpInstance`). A normal matrix with an entry that is
    not finite (from a coefficient whose square overflows, say) or that is
    numerically singular (columns of A that only a regularization below
    their rounding error tells apart) raises :class:`SolverDiverged`."""
    coefficient = instance.operator[2]
    plan = plan_of(instance)
    buf = np.empty(plan.entries + 1 + plan.update_size)
    with np.errstate(over="ignore", invalid="ignore"):
        products = coefficient[plan.first] * coefficient[plan.second]
    buf[: plan.entries] = np.bincount(plan.entry, products, minlength=plan.entries)
    if not np.isfinite(buf[: plan.entries]).all():
        raise SolverDiverged("the bundled solver's normal matrix AᵀA is not finite")
    buf[plan.diagonal] += REGULARIZATION
    buf[plan.entries] = 1.0  # the diagonal of a padded front
    factored = []
    for lv in plan.levels:
        n = lv.own + lv.update
        front = np.bincount(lv.target, buf[lv.source], minlength=lv.count * n * n)
        front = front.reshape(lv.count, n, n)
        try:
            inverse = np.linalg.inv(np.linalg.cholesky(front[:, : lv.own, : lv.own]))
        except np.linalg.LinAlgError:
            raise SolverDiverged("the bundled solver's normal matrix AᵀA is numerically singular") from None
        below = front[:, lv.own :, : lv.own] @ inverse.transpose(0, 2, 1)  # L's rows below the front
        schur = front[:, lv.own :, lv.own :] - below @ below.transpose(0, 2, 1)
        buf[lv.update_at : lv.update_at + schur.size] = schur.ravel()
        factored.append((inverse, below @ inverse))
    store = np.zeros(plan.w_size + 1)  # the last entry stays 0: gathers of structural zeros read it
    for lv, (inverse, spread) in zip(reversed(plan.levels), reversed(factored)):
        # W's rows above the front: W[R, own] = -W[R, update] L21 L11⁻¹
        ancestors = -(store[lv.gather] @ spread)
        mid = lv.w_at + inverse.size
        store[lv.w_at : mid] = inverse.ravel()
        store[mid : mid + ancestors.size] = ancestors.ravel()
    value = store[plan.w_take]
    keep = value != 0.0
    return InverseFactor(plan.w_row[keep], plan.w_column[keep], value[keep], plan.size)


def plan_of(instance) -> FactorPlan:
    """The :class:`FactorPlan` of ``instance``'s pattern: its cover, its
    blocks' cliques and sizes and its operator's rows and columns. The last
    two plans asked for are kept."""
    row, column, _ = instance.operator
    blocks = tuple((blk.clique, blk.size) for blk in instance.blocks)
    return _plan(
        instance.cover, blocks, instance.num_vars,
        np.asarray(row, dtype=np.int64).tobytes(), np.asarray(column, dtype=np.int64).tobytes(),
    )


@lru_cache(maxsize=2)
def _plan(cover: CliqueCover, blocks: tuple, num_vars: int, row_bytes: bytes, column_bytes: bytes):
    """The :class:`FactorPlan` of one pattern, with the operator's rows and
    columns as the bytes of int64 arrays, so that the pattern is hashable."""
    row, column = np.frombuffer(row_bytes, dtype=np.int64), np.frombuffer(column_bytes, dtype=np.int64)
    size = num_vars - 1
    order, ends = _elimination_order(cover, blocks, size, row, column)
    position = np.empty(size, dtype=np.int64)
    position[order] = np.arange(size)
    first, second, entry, diagonal, hi, hj = _normal_pattern(row, column, position, size)
    parent = _elimination_tree(hi, hj, size)
    starts = [0, *ends[:-1]]
    front_of = np.repeat(np.arange(len(ends)), np.diff([0, *ends]))
    updates, children = _update_sets(hi, hj, ends, front_of)
    chains = [_ancestors(parent, j) for j in range(size)]
    above = [sorted({k for j in range(s, e) for k in chains[j] if k >= e}) for s, e in zip(starts, ends)]
    above_at = [{k: a for a, k in enumerate(rows)} for rows in above]
    height = [0] * len(ends)
    for f, kids in enumerate(children):
        height[f] = 1 + max((height[c] for c in kids), default=-1)
    levels = [[f for f in range(len(ends)) if height[f] == h] for h in range(max(height, default=-1) + 1)]

    # the padded sizes of each level, each front's place in its level, and where
    # the levels' update matrices (in the buffer after H and the 1.0) and W blocks go
    shape = [
        (len(fronts), max(ends[f] - starts[f] for f in fronts),
         max(len(updates[f]) for f in fronts), max(len(above[f]) for f in fronts))
        for fronts in levels
    ]
    place = {f: (lv, b) for lv, fronts in enumerate(levels) for b, f in enumerate(fronts)}
    update_at = np.cumsum([len(hi) + 1] + [count * upd * upd for count, _, upd, _ in shape]).tolist()
    w_at = np.cumsum([0] + [count * own * (own + anc) for count, own, _, anc in shape]).tolist()

    def w_position(k, x):
        """Where W[k, x] is in the store, for k = x or an ancestor of x in the
        elimination tree; the sentinel zero where W[k, x] is a structural zero."""
        g = int(front_of[x])
        lv, b = place[g]
        count, own, _, anc = shape[lv]
        if starts[g] <= k < ends[g]:
            return w_at[lv] + (b * own + k - starts[g]) * own + x - starts[g]
        if k in above_at[g]:
            return w_at[lv] + count * own * own + (b * anc + above_at[g][k]) * own + x - starts[g]
        return w_at[-1]

    by_front = np.argsort(front_of[hj], kind="stable")
    cuts = np.searchsorted(front_of[hj][by_front], np.arange(len(ends) + 1)).tolist()
    plan_levels = []
    for lv, fronts in enumerate(levels):
        count, own, upd, anc = shape[lv]
        n = own + upd
        target, source = [], []
        gather = np.full((count, anc, upd), w_at[-1], dtype=np.int64)
        for b, f in enumerate(fronts):
            s, e = starts[f], ends[f]
            at = {x: x - s for x in range(s, e)}  # each moment's row in the front
            at.update({x: own + c for c, x in enumerate(updates[f])})
            base = b * n * n
            for t in by_front[cuts[f] : cuts[f + 1]].tolist():  # H's entries in the front's columns
                i, j = at[int(hi[t])], at[int(hj[t])]
                target += [base + i * n + j, base + j * n + i][: 1 + (i != j)]
                source += [t] * (1 + (i != j))
            for c in children[f]:  # extend-add of each child's update matrix
                clv, cb = place[c]
                cupd = shape[clv][2]
                origin = update_at[clv] + cb * cupd * cupd
                for p, x in enumerate(updates[c]):
                    target += [base + at[x] * n + at[y] for y in updates[c]]
                    source += range(origin + p * cupd, origin + p * cupd + len(updates[c]))
            for t in range(e - s, own):  # a padded front is the identity beyond its moments
                target.append(base + t * n + t)
                source.append(len(hi))
            for a, k in enumerate(above[f]):
                gather[b, a, : len(updates[f])] = [w_position(k, x) for x in updates[f]]
        plan_levels.append(_Level(
            count, own, upd, anc, np.array(target, dtype=np.int64),
            np.array(source, dtype=np.int64), update_at[lv], gather, w_at[lv],
        ))

    structure = np.array([(k, j) for j in range(size) for k in [j, *chains[j]]], dtype=np.int64)
    rows, columns = order[structure.reshape(-1, 2).T]
    by_row = np.lexsort((columns, rows))  # W's terms row by row, as a CSR matrix holds them
    return FactorPlan(
        size, first, second, entry, diagonal, len(hi), tuple(plan_levels), update_at[-1] - len(hi) - 1,
        w_at[-1], np.array([w_position(k, j) for k, j in structure.tolist()], dtype=np.int64)[by_row],
        rows[by_row], columns[by_row],
    )


def _elimination_order(cover, blocks, size, row, column):
    """The free moments (0-based) in elimination order and the end of each
    front in that order. A moment's front is the topmost clique whose blocks
    read it; moments no block reads form a first front."""
    moments = np.arange(size)
    depth = _dissection_depths(cover)
    if depth is None:
        return moments, [size] if size else []
    m = cover.m
    rank = np.full(m + 1, -1, dtype=np.int64)  # by 1-based clique: deepest first, then by position
    rank[np.lexsort((np.arange(m), -np.array(depth))) + 1] = np.arange(m)
    sizes = np.array([s for _, s in blocks], dtype=np.int64)
    clique_of_row = np.repeat(np.array([c for c, _ in blocks], dtype=np.int64), sizes**2)
    free = column > 0
    readers = np.sort((column[free] - 1) * (m + 1) + clique_of_row[row[free]])
    readers = readers[np.diff(readers, prepend=-1) != 0]  # each (moment, clique) pair once
    moment, clique = np.divmod(readers, m + 1)
    front = np.full(size, -1, dtype=np.int64)
    np.maximum.at(front, moment, rank[clique])
    shared = np.bincount(moment, minlength=size) > 1
    order = np.lexsort((moments, shared, front))
    _, counts = np.unique(front[order], return_counts=True)
    return order, np.cumsum(counts).tolist()


def _dissection_depths(cover: CliqueCover) -> list[int] | None:
    """Each clique's depth (0 at the top of each connected part) in a
    centroid decomposition of a clique tree of ``cover``, or None if the
    cover has none. In an order with the running intersection property, a
    clique hangs from its first witness when the two share a variable."""
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
        while True:  # step into a subtree holding more than half the part, while there is one
            heavy = [
                w for w in adjacent[centroid] if parent.get(w) == centroid and 2 * weight[w] > len(part)
            ]
            if not heavy:
                break
            centroid = heavy[0]
        depth[centroid] = d
        stack.extend((w, d + 1) for w in adjacent[centroid] if depth[w] < 0)
    return depth


def _normal_pattern(row, column, position, size):
    """The lower triangle of H in elimination order: the term pairs whose
    products sum into it, the entry each pair adds to, the entry of each
    diagonal element, and the entries' rows and columns, sorted by row, then
    column. Two terms pair when they share an operator row."""
    counts = np.bincount(row)
    per = counts[row]  # terms in each term's row; the terms are sorted by row
    first = np.repeat(np.arange(row.size), per)
    offset = np.arange(first.size) - np.repeat(np.cumsum(per) - per, per)
    second = np.repeat((np.cumsum(counts) - counts)[row], per) + offset
    keep = (column[first] > 0) & (column[second] > 0)
    first, second = first[keep], second[keep]
    i, j = position[column[first] - 1], position[column[second] - 1]
    keep = i >= j
    first, second, i, j = first[keep], second[keep], i[keep], j[keep]
    keys = np.concatenate([i * size + j, np.arange(size) * (size + 1)])
    pattern, index = np.unique(keys, return_inverse=True)
    hi, hj = np.divmod(pattern, max(size, 1))
    return first, second, index[: first.size], index[first.size :], hi, hj


def _elimination_tree(hi, hj, size) -> list[int]:
    """Parent of each position in the elimination tree of the lower-triangle
    pattern (hi, hj), sorted by row (Liu 1986, with path compression); -1 at
    a root."""
    parent, ancestor = [-1] * size, [-1] * size
    for i, j in zip(hi.tolist(), hj.tolist()):
        if i == j:
            continue
        while ancestor[j] not in (-1, i):
            ancestor[j], j = i, ancestor[j]
        if ancestor[j] < 0:
            ancestor[j] = parent[j] = i
    return parent


def _update_sets(hi, hj, ends, front_of):
    """Each front's update set (the later positions its dense factor
    reaches: those H joins to its columns and those of its children's update
    sets past it, sorted) and its children, the fronts whose update sets
    start in it."""
    later = [set() for _ in ends]
    front = front_of[hj]
    past = hi >= np.asarray(ends, dtype=np.int64)[front]
    for f, i in zip(front[past].tolist(), hi[past].tolist()):
        later[f].add(i)
    updates, children = [], [[] for _ in ends]
    for f, e in enumerate(ends):
        reach = later[f]
        for c in children[f]:
            reach.update(x for x in updates[c] if x >= e)
        updates.append(sorted(reach))
        if reach:
            children[int(front_of[updates[f][0]])].append(f)
    return updates, children


def _ancestors(parent: list[int], j: int) -> list[int]:
    out = []
    j = parent[j]
    while j >= 0:
        out.append(j)
        j = parent[j]
    return out
