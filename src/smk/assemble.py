"""Merging clique measures into a global atomic measure.

Running intersection makes the cliques a join tree: clique i >= 2 meets the
earlier ones only inside its witness j. So each clique measure is matched
against its witness's measure on their overlap, the pairs of one shape in one
stacked pass, and the glued atoms are then composed along the witness tree as
index arrays, one atom per clique. Pairwise marginal consistency is necessary
but not sufficient without the running intersection property, so every clique
marginal of the result is matched against its clique's measure by the same
matcher too, one stacked pass per clique shape.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .certify import RankPolicy
from .core import CliqueCover, SparseMomentVector, monomial_matrix
from .errors import FinalMarginalCheckFailed, MarginalMismatch
from .extract import AtomicMeasure, lex_order_rows
from .rip import RipWitnesses


def _cluster(points: np.ndarray, tol):
    """Greedy max-norm clustering of each set of a stack (sets, points,
    coordinates) at its tolerance, one pass per cluster: the first free point
    of each set takes every free point within ``tol`` of it, and itself, NaN
    or not. Returns each point's cluster, in first-appearance order, and per
    set and pass the point that took the others, the cluster's representative
    (0 once done)."""
    free = np.ones(points.shape[:2], dtype=bool)
    labels, firsts = np.full(free.shape, -1), []
    rows, tol = np.arange(len(free)), np.asarray(tol).reshape(-1, 1)
    while np.count_nonzero(free):
        first = free.argmax(axis=1)
        gap = np.abs(points - points[rows, first, None])
        near = np.maximum.reduce(gap, axis=2, initial=0.0) <= tol
        near[rows, first] = True
        labels += free  # a point taken in pass c was free in passes 0..c
        free &= ~near
        firsts.append(first)
    return labels, np.array(firsts, dtype=int).reshape(-1, len(free)).T


def _cluster_sums(weights: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each cluster's weight, added as ``weights[members].sum()`` adds it: one
    ``bincount`` below 8 points per set, as numpy too adds fewer than 8 one by
    one from 0; else the clusters of one size are summed as rows of one array."""
    count = labels.max(initial=-1) + 1
    key = (labels + count * np.arange(len(labels))[:, None]).ravel()
    members = np.broadcast_to(weights, labels.shape).ravel()
    if labels.shape[1] < 8:
        return np.bincount(key, members, len(labels) * count).reshape(len(labels), count)
    members = members[np.argsort(key, kind="stable")]
    sizes = np.bincount(key, minlength=len(labels) * count)
    out = np.zeros(len(sizes))
    for size in set(sizes.tolist()):
        at = np.flatnonzero(sizes == size)
        out[at] = members[(np.cumsum(sizes) - sizes)[at, None] + np.arange(size)].sum(axis=1)
    return out.reshape(len(labels), count)


def _match(points_a, weights_a, points_b, weights_b, policy, floor=True):
    """Match the atoms of two measures point by point and mass by mass, on
    stacks of pairs: points (pairs, atoms, width) and weights (pairs, atoms),
    each side clustered at each pair's tolerance. Per pair: each a atom's
    point, numbered by first appearance in a, each b atom's point in that
    numbering, each point's mass in a; and the first pair that fails a check,
    with the check's diagnostic, or None. A point of mass at most
    ``policy.tol()`` fails only with ``floor``."""
    scale = [np.maximum.reduce(np.abs(x), axis=(1, 2), initial=0.0) for x in (points_a, points_b)]
    tol = policy.tol(np.where(scale[1] > scale[0], scale[1], scale[0]))  # max(a, b) reads NaN so
    (labels_a, firsts_a), (labels_b, firsts_b) = _cluster(points_a, tol), _cluster(points_b, tol)
    rows, span = np.arange(len(tol))[:, None], np.arange(firsts_a.shape[1])
    count_a, count_b = (np.maximum.reduce(x, axis=1, initial=-1) + 1 for x in (labels_a, labels_b))
    reps, used = points_a[rows, firsts_a], np.arange(firsts_b.shape[1]) >= count_b[:, None]
    gap = np.abs(reps[:, :, None] - points_b[rows, firsts_b][:, None]).max(axis=3, initial=0.0)
    gap[~(gap < np.inf)] = np.inf  # NaN and inf match none
    order, found = np.zeros(gap.shape[:2], dtype=int), np.zeros(gap.shape[:2], dtype=bool)
    for p in span if gap.shape[2] else ():  # the nearest b point not matched yet, the first of equals
        near = np.where(used, np.inf, gap[:, p])
        order[:, p] = pick = near.argmin(axis=1)
        found[:, p] = near[rows[:, 0], pick] <= tol
        used[rows[:, 0], pick] |= found[:, p]
    ma, mb = _cluster_sums(weights_a, labels_a), _cluster_sums(weights_b, labels_b)
    mb = mb[rows, order] if mb.shape[1] else np.zeros_like(ma)  # no b point: the counts differ
    live, off = span < count_a[:, None], abs(ma - mb) > policy.tol(np.fmax(abs(ma), abs(mb)))
    lost, off, light = live & ~found, live & off, live & (ma <= policy.tol()) & floor
    bad, failure = (count_a != count_b) | (lost | off | light).any(axis=1), None
    if bad.any():
        g = int(bad.argmax())
        p = (np.flatnonzero(lost[g]).tolist() or np.flatnonzero(off[g] | light[g]).tolist() or [0])[0]
        failure = g, (
            f"{count_a[g]} marginal atoms on one side, {count_b[g]} on the other"
            if count_a[g] != count_b[g] else
            f"marginal atom {tuple(reps[g, p])} has no counterpart within {tol[g]}"
            if lost[g].any() else
            f"mass {ma[g, p]:.6g} vs {mb[g, p]:.6g} at point {tuple(reps[g, p])}"
            if off[g, p] else f"degenerate mass {ma[g, p]:.3e} at a marginal atom"
        )
    inverse = np.zeros((len(tol), firsts_b.shape[1] + 1), dtype=int)
    inverse[rows, np.where(live, order, firsts_b.shape[1])] = span
    return labels_a, inverse[rows, labels_b], ma, failure


def assemble(
    clique_measures: Sequence[AtomicMeasure],
    witnesses: RipWitnesses,
    policy: RankPolicy = RankPolicy(),
    chosen: Mapping[int, int] | None = None,
) -> AtomicMeasure:
    """Glue clique measures (given in the witnesses' clique order) into one
    atomic measure whose marginal on every clique reproduces that clique's
    measure.

    ``chosen`` optionally fixes the witness position j used at each position
    i >= 2 (e.g. the one recorded in a certificate); by default the smallest
    admissible witness is used. The first clique in clique order that does
    not match its witness raises :class:`MarginalMismatch`; a clique marginal
    of the result that differs raises :class:`FinalMarginalCheckFailed`,
    which catches glueings pairwise consistent but globally contradictory.
    """
    if len(clique_measures) != len(witnesses.order):
        raise ValueError("need exactly one measure per clique")
    variables = clique_measures[0].variables
    if len(clique_measures) > 1:
        variables = tuple(sorted(set().union(*(mu.variables for mu in clique_measures))))
    column = np.zeros(max(variables, default=0) + 1, dtype=int)  # variable -> column of ``atoms``
    column[list(variables)] = np.arange(len(variables))
    # every clique's atoms and weights as one padded stack, filled per shape (width, atom
    # count), and each variable's first clique and column there
    kinds, parent, shapes = {}, {}, {}
    for c, mu in enumerate(clique_measures):
        kinds.setdefault(mu.atoms.shape[::-1], []).append(c)
    holder = {v: (c, t) for c in reversed(range(len(clique_measures)))
              for t, v in enumerate(clique_measures[c].variables)}
    table = np.zeros((len(clique_measures), *np.max([mu.atoms.shape for mu in clique_measures], 0)))
    masses = np.zeros(table.shape[:2])
    for (width, rank), members in kinds.items():
        table[members, :rank, :width] = np.stack([clique_measures[c].atoms for c in members])
        masses[members, :rank] = np.stack([clique_measures[c].weights for c in members])
    for i, mu in enumerate(clique_measures[1:], start=2):  # match phase, one stack per shape
        j = (chosen or {}).get(i)
        parent[i] = j = min(witnesses.witness[i]) if j is None else j
        if not 1 <= j < i:
            raise ValueError(f"witness {j} of position {i} is not an earlier position")
        local = {v: t for t, v in enumerate(mu.variables)}
        cols = [(t, local[v]) for t, v in enumerate(clique_measures[j - 1].variables) if v in local]
        key = (len(cols), clique_measures[j - 1].num_atoms, mu.num_atoms)
        shapes.setdefault(key, []).append((j - 1, i - 1, cols))
    factors, matched, failures = masses.copy(), {}, []  # w_1, then w_i over its point's mass
    for (w, na, nb), members in shapes.items():
        j, i, cols = (np.array(x, dtype=int) for x in zip(*members))
        cols, sides = cols.reshape(len(i), 1, w, 2), []
        for c, k, t in ((j, np.arange(na), cols[..., 0]), (i, np.arange(nb), cols[..., 1])):
            sides += [table[c[:, None, None], k[:, None], t], masses[c[:, None], k]]
        labels_a, labels_b, point_mass, failure = _match(*sides, policy)
        if failure:
            g, message = failure
            failures.append((i[g] + 1, j[g], cols[g, 0, :, 0].tolist(), message))
        else:
            point_mass = np.take_along_axis(point_mass, labels_b, 1)  # of each atom of i
            factors[i[:, None], np.arange(nb)] = sides[3] / point_mass
        matched.update(zip((i + 1).tolist(), labels_a[:, :, None] == labels_b[:, None]))
    if failures:
        _, j, cols, message = min(failures, key=lambda failure: failure[0])
        overlap = tuple(clique_measures[j].variables[t] for t in cols)
        raise MarginalMismatch(f"overlap {overlap}: {message}")

    # compose phase: a row keeps its atom of each clique witnessing a later one; a step expands
    # each row by the atoms of i over its atom of j, by point in first-appearance order, then row
    last = {j: i for i, j in sorted(parent.items())}
    live, steps = {1: np.arange(clique_measures[0].num_atoms)}, []
    for i in range(2, len(clique_measures) + 1):
        near = matched[i][live[parent[i]]]
        k, l = near.nonzero()
        by_point = near.argmax(axis=0)[l].argsort(kind="stable")
        k, l = k[by_point], l[by_point]
        live = {c: rows[k] for c, rows in live.items() if last.get(c, 0) > i}
        live[i] = l
        steps.append((k, l))
    index = [np.arange(len(steps[-1][0]) if steps else clique_measures[0].num_atoms)]
    for k, l in reversed(steps):
        index[:1] = k[index[0]], l[index[0]]
    index = np.array(index)  # clique, row -> atom
    weights = np.prod(factors[np.arange(len(index))[:, None], index], axis=0)
    f, t = np.array([holder[v] for v in variables], dtype=int).reshape(-1, 2).T
    atoms = np.ascontiguousarray(table[f[:, None], index[f], t[:, None]].T)

    glued, failed = AtomicMeasure(variables, atoms, weights), []
    for (width, rank), members in kinds.items():  # one stacked match per clique shape
        cols = column[np.array([clique_measures[c].variables for c in members], dtype=int)]
        points = atoms[:, cols].transpose(1, 0, 2)
        failure = _match(points, weights, table[members, :rank, :width], masses[members, :rank],
                         policy, floor=False)[3]
        failed += [members[failure[0]] + 1] if failure else []
    if failed:
        raise FinalMarginalCheckFailed(
            f"assembled measure does not reproduce the measure of clique at position {min(failed)}"
        )
    return glued


def maximal_support_set(
    clique_measures: Sequence[AtomicMeasure],
    cover: CliqueCover,
    policy: RankPolicy = RankPolicy(),
) -> np.ndarray:
    """All points whose projection onto every clique is an atom of that
    clique's measure, via constraint-propagating concatenation. The result
    does not depend on the clique order; rows are sorted lexicographically.
    """
    first = clique_measures[0]
    column = {v: c for c, v in enumerate(first.variables)}  # variable -> column of ``points``
    points = first.atoms  # one row per candidate
    tol = policy.tol(max(np.abs(mu.atoms).max(initial=0.0) for mu in clique_measures))
    for mu in clique_measures[1:]:
        shared = [c for c, v in enumerate(mu.variables) if v in column]
        new_cols = [c for c, v in enumerate(mu.variables) if v not in column]
        near = np.abs(
            points[:, None, [column[mu.variables[c]] for c in shared]] - mu.atoms[None, :, shared]
        ) <= tol
        k, l = np.nonzero(near.all(axis=2))  # candidate-major: extensions keep candidate order
        points = np.hstack([points[k], mu.atoms[l][:, new_cols]])
        for c in new_cols:
            column[mu.variables[c]] = len(column)
    if points.size == 0:
        return np.zeros((0, cover.n))
    points = points[:, [column[v] for v in range(1, cover.n + 1)]]
    return points[lex_order_rows(points)]


def verify_global(mu: AtomicMeasure, y: SparseMomentVector) -> float:
    """Max absolute residual of the measure's moments against every entry of
    the sparse moment vector."""
    if mu.variables != tuple(range(1, y.cover.n + 1)):
        raise ValueError("measure must live on all variables 1..n")
    moments = monomial_matrix(y.index_map.slots, mu.atoms) @ mu.weights
    return float(np.abs(moments - y.values).max())
