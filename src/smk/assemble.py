"""Merging clique measures into a global atomic measure.

The construction is inductive: starting from the first clique's measure,
each subsequent clique measure is glued on through the marginal it shares
with its witness clique. Pairwise marginal consistency is necessary but not
sufficient without the running intersection property, so a full marginal
verification of the result against every clique measure is mandatory.

Point sets are clustered and compared as stacks: the final check runs one
pass per clique width and atom count, and :func:`pushforward`,
:func:`match_marginals` and :func:`measures_close` are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .certify import RankPolicy
from .core import CliqueCover, SparseMomentVector, monomial_matrix
from .errors import FinalMarginalCheckFailed, MarginalMismatch
from .extract import AtomicMeasure, lex_order_rows
from .rip import RipWitnesses


def _tols(policy: RankPolicy, scale):
    """``policy.tol`` at each entry of ``scale``, reading NaN as ``max(1.0, nan)`` does."""
    return policy.tol() * np.fmax(1.0, np.abs(scale))


def _cluster(points: np.ndarray, tol, free: np.ndarray | None = None):
    """Greedy max-norm clustering of each set of a stack (sets, points,
    coordinates) at its tolerance, one pass per cluster: the first free point
    of each set takes every free point within ``tol`` of it, and itself, NaN
    or not. Points ``free`` marks False stay out (label -1). Returns each
    point's cluster, in first-appearance order, and per set and pass the
    point that took the others, the cluster's representative (0 once done)."""
    free = np.ones(points.shape[:2], dtype=bool) if free is None else free.copy()
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
    """Each cluster's weight, added as ``weights[members].sum()`` adds it:
    the clusters of one size are summed as the rows of one array."""
    count = labels.max(initial=-1) + 1
    key = (labels + count * np.arange(len(labels))[:, None]).ravel()
    members = np.broadcast_to(weights, labels.shape).ravel()[np.argsort(key, kind="stable")]
    sizes = np.bincount(key, minlength=len(labels) * count)
    out = np.zeros(len(sizes))
    for size in set(sizes.tolist()):
        at = np.flatnonzero(sizes == size)
        out[at] = members[(np.cumsum(sizes) - sizes)[at, None] + np.arange(size)].sum(axis=1)
    return out.reshape(len(labels), count)


def _marginals(mu: AtomicMeasure, columns: np.ndarray, policy: RankPolicy):
    """Pushforwards of ``mu`` onto each row of ``columns``: representatives,
    weights (sets, clusters) and the number of clusters."""
    points = mu.atoms[:, columns].transpose(1, 0, 2)
    labels, firsts = _cluster(points, _tols(policy, np.abs(points).max(axis=(1, 2), initial=0.0)))
    reps = points[np.arange(len(points))[:, None], firsts]
    return reps, _cluster_sums(mu.weights, labels), labels.max(axis=1, initial=-1) + 1


def pushforward(mu: AtomicMeasure, target, policy: RankPolicy = RankPolicy()) -> AtomicMeasure:
    """Marginal of an atomic measure on the ``target`` variables: project
    every atom and merge the ones that coincide up to the policy tolerance
    (max-norm), summing their weights."""
    target = tuple(target)
    if not set(target) <= set(mu.variables):
        raise ValueError(f"target {target} is not a subset of the measure's variables {mu.variables}")
    columns = np.array([[mu.variables.index(v) for v in target]], dtype=int)
    reps, weights, (count,) = _marginals(mu, columns, policy)
    return AtomicMeasure(target, reps[0, :count], weights[0, :count])


@dataclass(frozen=True)
class MarginalGroups:
    """Matched overlap structure between a partial measure and an incoming
    clique measure.

    For each shared-marginal point there is one group: ``groups_a`` indexes
    atoms of the partial measure projecting onto it, ``groups_b`` atoms of
    the incoming measure, and ``masses`` holds the common projected mass.
    """

    points: np.ndarray
    masses: np.ndarray
    groups_a: tuple[tuple[int, ...], ...]
    groups_b: tuple[tuple[int, ...], ...]


def _sums(weights: np.ndarray, labels: np.ndarray, count: int) -> list[float]:
    """``weights[labels == g].sum()`` for each g < count, in one ``bincount``
    for fewer than 8 weights, which numpy too adds one by one from 0."""
    if len(labels) < 8:
        return np.bincount(labels, weights, count).tolist()
    return [float(weights[labels == g].sum()) for g in range(count)]


def _match(proj_a, weights_a, proj_b, weights_b, overlap, policy):
    """:func:`match_marginals` on projected atoms, clustered as a stack of two:
    each atom's marginal point, numbered by side a, and each point's mass."""
    points = np.zeros((2, max(len(proj_a), len(proj_b)), len(overlap)))
    points[0, : len(proj_a)], points[1, : len(proj_b)] = proj_a, proj_b
    free = np.ones(points.shape[:2], dtype=bool)  # the padding is not clustered
    free[0, len(proj_a) :] = free[1, len(proj_b) :] = False
    scales = np.maximum.reduce(np.abs(points).reshape(2, -1), axis=1, initial=0.0)
    tol = policy.tol(max(scales.tolist()))
    labels, firsts = _cluster(points, tol, free)
    labels_a, labels_b = labels[0, : len(proj_a)], labels[1, : len(proj_b)]
    na, nb = np.maximum.reduce(labels, axis=1, initial=-1) + 1
    if na != nb:
        raise MarginalMismatch(
            f"overlap {overlap}: {na} marginal atoms on one side, {nb} on the other"
        )
    reps_a, order_b, floor = points[0, firsts[0]], [], policy.tol()
    gap = np.abs(reps_a[:, None] - points[1, firsts[1]][None])
    for ra, row in zip(reps_a, np.maximum.reduce(gap, axis=2, initial=0.0).tolist()):
        # the nearest point not matched yet, the first of equals; NaN and inf match none
        near = [(d, b) for b, d in enumerate(row) if d < np.inf and b not in order_b]
        d, bi = min(near, default=(0, None))
        if bi is None or d > tol:
            raise MarginalMismatch(
                f"overlap {overlap}: marginal atom {tuple(ra)} has no counterpart within {tol}"
            )
        order_b.append(bi)
    sums_a, sums_b = _sums(weights_a, labels_a, na), _sums(weights_b, labels_b, nb)
    for gi, (ma, bi) in enumerate(zip(sums_a, order_b)):
        mb = sums_b[bi]
        if abs(ma - mb) > policy.tol(max(abs(ma), abs(mb))):
            raise MarginalMismatch(
                f"overlap {overlap}: mass {ma:.6g} vs {mb:.6g} at point {tuple(reps_a[gi])}"
            )
        if ma <= floor:
            raise MarginalMismatch(f"overlap {overlap}: degenerate mass {ma:.3e} at a marginal atom")
    return labels_a, np.array(order_b, dtype=int).argsort()[labels_b], np.array(sums_a)


def match_marginals(
    partial: AtomicMeasure,
    incoming: AtomicMeasure,
    overlap: tuple[int, ...],
    policy: RankPolicy = RankPolicy(),
) -> MarginalGroups:
    """Match the two pushforwards onto ``overlap`` atom by atom and mass by
    mass; raises :class:`MarginalMismatch` with a diagnostic otherwise."""
    overlap = tuple(overlap)
    proj_a = partial.atoms[:, [partial.variables.index(v) for v in overlap]]
    proj_b = incoming.atoms[:, [incoming.variables.index(v) for v in overlap]]
    *labels, masses = _match(proj_a, partial.weights, proj_b, incoming.weights, overlap, policy)
    a, b = (tuple(tuple(np.flatnonzero(lab == g).tolist()) for g in range(len(masses)))
            for lab in labels)
    return MarginalGroups(proj_a[[g[0] for g in a]], masses, a, b)


def _close(atoms_a, weights_a, atoms_b, weights_b, policy: RankPolicy) -> np.ndarray:
    """:func:`measures_close` on stacks of measures with equal atom counts: atom
    k of a takes the first unused atom of b near it in coordinates and weight."""
    scale_a, scale_b = (np.abs(x).max(axis=(1, 2), initial=0.0) for x in (atoms_a, atoms_b))
    tol = _tols(policy, np.where(scale_b > scale_a, scale_b, scale_a))  # max(a, b) as max reads NaN
    wa, wb = weights_a[:, :, None], weights_b[:, None]
    gap = np.abs(atoms_a[:, :, None] - atoms_b[:, None]).max(axis=3, initial=0.0)
    near = (gap <= tol[:, None, None]) & (abs(wa - wb) <= _tols(policy, np.fmax(abs(wa), abs(wb))))
    used, close = np.zeros(weights_b.shape, dtype=bool), np.ones(len(near), dtype=bool)
    rows = np.arange(len(near))
    for k in range(near.shape[1]):
        free = near[:, k] & ~used
        pick = free.argmax(axis=1)
        close &= free[rows, pick]
        used[rows, pick] |= free[rows, pick]
    return close


def measures_close(a: AtomicMeasure, b: AtomicMeasure, policy: RankPolicy = RankPolicy()) -> bool:
    """Same variable set, same atoms and weights, up to order and the policy tolerance."""
    if a.variables != b.variables or a.num_atoms != b.num_atoms:
        return False
    return bool(_close(a.atoms[None], a.weights[None], b.atoms[None], b.weights[None], policy)[0])


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
    admissible witness is used. After the inductive construction, every
    clique marginal of the result is verified; a failure raises
    :class:`FinalMarginalCheckFailed`, which catches glueings that were
    pairwise consistent but globally contradictory.
    """
    if len(clique_measures) != len(witnesses.order):
        raise ValueError("need exactly one measure per clique")
    variables = clique_measures[0].variables
    if len(clique_measures) > 1:
        variables = tuple(sorted(set().union(*(mu.variables for mu in clique_measures))))
    column = np.zeros(max(variables, default=0) + 1, dtype=int)  # variable -> column of ``atoms``
    column[list(variables)] = np.arange(len(variables))
    assigned = np.zeros(len(variables), dtype=bool)
    for i, incoming in enumerate(clique_measures, start=1):
        cols = column[list(incoming.variables)]
        spread = np.zeros((incoming.num_atoms, len(variables)))  # incoming atoms in those columns
        spread[:, cols] = incoming.atoms
        if i == 1:
            atoms, weights = spread, incoming.weights
        else:
            j = (chosen or {}).get(i)
            j = min(witnesses.witness[i]) if j is None else j
            overlap = tuple(v for v in clique_measures[j - 1].variables if v in incoming.variables)
            shared = column[list(overlap)]
            labels_a, labels_b, masses = _match(
                atoms[:, shared], weights, spread[:, shared], incoming.weights, overlap, policy
            )
            # every pair (k, l) of atoms over the same marginal point, by point, then k, then l
            by_point = labels_a.argsort(kind="stable")
            pair, l = (labels_a[by_point, None] == labels_b).nonzero()
            k = by_point[pair]
            atoms = np.where(assigned, atoms[k], spread[l])
            weights = weights[k] * incoming.weights[l] / masses[labels_a[k]]
        assigned[cols] = True

    glued, failed, shapes = AtomicMeasure(variables, atoms, weights), [], {}
    for i, mu in enumerate(clique_measures, start=1):
        shapes.setdefault((len(mu.variables), mu.num_atoms), []).append(i)
    for (width, rank), members in shapes.items():  # one stacked check per clique shape
        mus = [clique_measures[i - 1] for i in members]
        columns = column[np.array([mu.variables for mu in mus], dtype=int).reshape(-1, width)]
        reps, sums, count = _marginals(glued, columns, policy)
        ok = count == rank
        if ok.any():
            atoms_b = np.stack([mu.atoms for mu in mus])[ok]
            weights_b = np.stack([mu.weights for mu in mus])[ok]
            ok[ok] = _close(reps[ok, :rank], sums[ok, :rank], atoms_b, weights_b, policy)
        failed += [i for i, good in zip(members, ok) if not good]
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
    exponents = y.index_map.exponent_array
    moments = monomial_matrix(exponents, mu.atoms, y.index_map.monomial_steps) @ mu.weights
    return float(np.abs(moments - y.values).max())
