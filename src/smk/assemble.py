"""Merging clique measures into a global atomic measure.

The construction is inductive: starting from the first clique's measure,
each subsequent clique measure is glued on through the marginal it shares
with its witness clique. Pairwise marginal consistency is necessary but not
sufficient without the running intersection property, so a full marginal
verification of the result against every clique measure is mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .certify import RankPolicy
from .core import CliqueCover, Projection, SparseMomentVector, monomial_matrix
from .errors import FinalMarginalCheckFailed, MarginalMismatch
from .extract import AtomicMeasure, lex_order_rows
from .rip import RipWitnesses


def _point_tol(policy: RankPolicy, *points: np.ndarray) -> float:
    """Max-norm distance at which points coincide: ``policy.tol`` at the largest |coordinate|."""
    return policy.tol(max(np.abs(p).max(initial=0.0) for p in points))


def _cluster(points: np.ndarray, tol: float) -> tuple[np.ndarray, list[list[int]]]:
    """Greedy clustering under the max-norm (a point joins the first cluster
    whose representative is within ``tol``); returns representatives and the
    member indices per cluster, in first-appearance order. Run as: the first
    unclustered point takes every unclustered point within ``tol``."""
    groups: list[list[int]] = []
    free = np.arange(points.shape[0])
    while free.size:
        near = np.abs(points[free] - points[free[0]]).max(axis=1, initial=0.0) <= tol
        near[0] = True
        groups.append(free[near].tolist())
        free = free[~near]
    return points[[g[0] for g in groups]], groups


def pushforward(mu: AtomicMeasure, p: Projection, policy: RankPolicy = RankPolicy()) -> AtomicMeasure:
    """Marginal of an atomic measure: project every atom and merge the ones
    that coincide up to the policy tolerance (max-norm), summing their weights."""
    if p.source != mu.variables:
        raise ValueError(f"projection source {p.source} does not match measure on {mu.variables}")
    projected = mu.atoms[:, list(p.positions)]
    reps, groups = _cluster(projected, _point_tol(policy, projected))
    weights = np.array([mu.weights[g].sum() for g in groups])
    return AtomicMeasure(p.target, reps, weights)


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
    tol = _point_tol(policy, proj_a, proj_b)
    reps_a, groups_a = _cluster(proj_a, tol)
    reps_b, groups_b = _cluster(proj_b, tol)
    if len(groups_a) != len(groups_b):
        raise MarginalMismatch(
            f"overlap {overlap}: {len(groups_a)} marginal atoms on one side, "
            f"{len(groups_b)} on the other"
        )
    used = [False] * len(groups_b)
    order_b = []
    for ra in reps_a:
        best, best_dist = None, np.inf
        for k, rb in enumerate(reps_b):
            if used[k]:
                continue
            dist = float(np.abs(ra - rb).max()) if ra.size else 0.0
            if dist < best_dist:
                best, best_dist = k, dist
        if best is None or best_dist > tol:
            raise MarginalMismatch(
                f"overlap {overlap}: marginal atom {tuple(ra)} has no counterpart within {tol}"
            )
        used[best] = True
        order_b.append(best)
    masses = []
    for gi, bi in enumerate(order_b):
        ma = float(partial.weights[groups_a[gi]].sum())
        mb = float(incoming.weights[groups_b[bi]].sum())
        if abs(ma - mb) > policy.tol(max(abs(ma), abs(mb))):
            raise MarginalMismatch(
                f"overlap {overlap}: mass {ma:.6g} vs {mb:.6g} at point {tuple(reps_a[gi])}"
            )
        if ma <= policy.tol():
            raise MarginalMismatch(f"overlap {overlap}: degenerate mass {ma:.3e} at a marginal atom")
        masses.append(ma)
    return MarginalGroups(
        reps_a,
        np.array(masses),
        tuple(tuple(groups_a[gi]) for gi in range(len(groups_a))),
        tuple(tuple(groups_b[bi]) for bi in order_b),
    )


def measures_close(a: AtomicMeasure, b: AtomicMeasure, policy: RankPolicy = RankPolicy()) -> bool:
    """Same variable set, same atoms and weights, up to order and the policy tolerance."""
    if a.variables != b.variables or a.num_atoms != b.num_atoms:
        return False
    tol = _point_tol(policy, a.atoms, b.atoms)
    used = [False] * b.num_atoms
    for k in range(a.num_atoms):
        found = False
        for l in range(b.num_atoms):
            if used[l]:
                continue
            coord_ok = a.atoms.shape[1] == 0 or np.abs(a.atoms[k] - b.atoms[l]).max() <= tol
            wa, wb = a.weights[k], b.weights[l]
            if coord_ok and abs(wa - wb) <= policy.tol(max(abs(wa), abs(wb))):
                used[l] = True
                found = True
                break
        if not found:
            return False
    return True


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
    current = clique_measures[0]
    for i in range(2, len(clique_measures) + 1):
        incoming = clique_measures[i - 1]
        j = chosen.get(i) if chosen is not None else None
        if j is None:
            j = min(witnesses.witness[i])
        overlap = tuple(v for v in clique_measures[j - 1].variables if v in incoming.variables)
        groups = match_marginals(current, incoming, overlap, policy)
        union_vars = tuple(sorted(set(current.variables) | set(incoming.variables)))
        column = {v: c for c, v in enumerate(union_vars)}
        new_cols = [c for c, v in enumerate(incoming.variables) if v not in current.variables]
        # every pair (k, l) of atoms over the same marginal point g
        pairs = [(k, l, g) for g, (ga, gb) in enumerate(zip(groups.groups_a, groups.groups_b))
                 for k in ga for l in gb]
        k, l, g = np.array(pairs, dtype=int).reshape(-1, 3).T
        atoms = np.empty((len(pairs), len(union_vars)))
        atoms[:, [column[v] for v in current.variables]] = current.atoms[k]
        atoms[:, [column[incoming.variables[c]] for c in new_cols]] = incoming.atoms[l][:, new_cols]
        weights = current.weights[k] * incoming.weights[l] / groups.masses[g]
        current = AtomicMeasure(union_vars, atoms, weights)

    for i, mu_i in enumerate(clique_measures, start=1):
        marginal = pushforward(current, Projection(current.variables, mu_i.variables), policy)
        if not measures_close(marginal, mu_i, policy):
            raise FinalMarginalCheckFailed(
                f"assembled measure does not reproduce the measure of clique at position {i}"
            )
    return current


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
    tol = _point_tol(policy, *(mu.atoms for mu in clique_measures))
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
    moments = monomial_matrix(y.index_map.exponent_array, mu.atoms) @ mu.weights
    return float(np.abs(moments - y.values).max())
