"""Reference implementations of certification, atom extraction and gluing,
one clique and one matrix at a time: the loops that ``certify``,
``extract_clique_measures`` and ``assemble`` ran before cliques of one shape
were stacked, and the per-clique localizing and overlap matrices they read.
The stacked code must match them bit for bit, except that glued weights may
move in their last digits (see :func:`assemble_reference`). The gluing
reference checks its result with pointwise loops for the pushforward and for
measure comparison, not with the library's matcher.

The library's matcher, ``smk.assemble._match``, works on stacks of pairs;
:func:`pushforward`, :func:`match_marginals` and :func:`measures_close` run
it, or its clustering, on a stack of one measure or one pair, for the tests
that check it against these references."""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.optimize

from smk.assemble import _cluster, _cluster_sums, _match as _stacked_match
from smk.certify import CliqueCheck, FlatnessCertificate, OverlapCheck, RankPolicy, d_half
from smk.core import clique_subvector, local_exponents, monomial_matrix, subvector_on
from smk.errors import (
    FinalMarginalCheckFailed, FlatnessViolated, MarginalMismatch,
    NonPhysicalWeights, OrderTooHigh, ReconstructionFailed,
)
from smk.extract import MAX_REDRAWS, AtomicMeasure
from smk.matrices import LabeledSymMatrix, block_operator, gather, moment_matrix


def localizing_operator(clique, omega, g, d):
    """The compiled localizing block of ``g`` at order ``d`` on ``clique``,
    after checking that ``g`` lives on the clique and that ``d`` lies
    between ``g``'s minimal order and the relaxation order ``omega``."""
    if g.variables != clique:
        raise ValueError(f"constraint on {g.variables} does not match clique {clique}")
    if d < g.d_half:
        raise OrderTooHigh(f"localizing order {d} is below the minimal order {g.d_half}")
    if d > omega:
        raise OrderTooHigh(f"localizing order {d} exceeds relaxation order {omega}")
    return block_operator(len(clique), d, g)


def block_diagonal(blocks, count):
    """Stacks of ``count`` square blocks as one stack of block-diagonal
    matrices, the blocks in order; no blocks give ``count`` 0x0 matrices."""
    total = sum(b.shape[-1] for b in blocks)
    data = np.zeros((count, total, total))
    at = 0
    for b in blocks:
        size = b.shape[-1]
        data[:, at : at + size, at : at + size] = b
        at += size
    return data


def localizing_matrix(y_sub, g, d) -> LabeledSymMatrix:
    """Localizing matrix of ``g`` at order ``d``: entry (alpha, beta) is
    sum_gamma g_gamma * y[alpha + beta + gamma], over labels of degree
    <= d - d_half."""
    block = localizing_operator(y_sub.clique, y_sub.omega, g, d)
    return LabeledSymMatrix(y_sub.clique, block[0], gather(block, y_sub.moments[None])[0])


def localizing_block(y_sub, g_vec, d) -> LabeledSymMatrix:
    """Block-diagonal localizing matrix, one block per constraint in order.

    An empty constraint list gives the 0x0 matrix (PSD by convention).
    Labels are (constraint_position, local_exponent) pairs.
    """
    blocks = [localizing_matrix(y_sub, g, d) for g in g_vec]
    labels = tuple((pos, lab) for pos, blk in enumerate(blocks, start=1) for lab in blk.labels)
    data = block_diagonal([blk.data for blk in blocks], 1)[0]
    return LabeledSymMatrix(y_sub.clique, labels, data)


def overlap_moment_matrix(y, i, j, d) -> LabeledSymMatrix:
    """Moment matrix of order ``d`` on the variables shared by cliques i and j.

    A disjoint pair shares only the constant monomial, giving the 1x1 matrix
    holding the total mass.
    """
    shared = tuple(sorted(set(y.cover.clique(i)) & set(y.cover.clique(j))))
    return moment_matrix(subvector_on(y, shared), d)


def rank_and_gap(data, policy):
    if data.size == 0:
        return 0, (0.0, 0.0)
    sv = np.linalg.svd(policy.prepare(data), compute_uv=False)
    if sv[0] == 0.0:
        return 0, (0.0, 0.0)
    r = int(np.count_nonzero(sv > policy.rel_tol * sv[0]))
    kept = float(sv[r - 1]) if r > 0 else 0.0
    dropped = float(sv[r]) if r < len(sv) else 0.0
    return r, (kept, dropped)


def eig_range(data, policy):
    if data.size == 0:
        return (0.0, 0.0)
    eigs = np.linalg.eigvalsh(policy.prepare(data))
    return float(eigs[0]), float(eigs[-1])


def psd(lo, hi, policy):
    return lo >= -policy.rel_tol * max(1.0, hi)


def leading(M, d, omega):
    if d < 0:
        raise OrderTooHigh(f"moment matrix of order {d} needs degrees up to {2*d} > {2*omega}")
    k = len(local_exponents(len(M.variables), d))
    return M.data[:k, :k]


def certify(y, constraints, witnesses, policy=RankPolicy()) -> FlatnessCertificate:
    omega, m = y.omega, y.cover.m
    cliques = []
    for i in range(1, m + 1):
        sub = clique_subvector(y, i)
        di = d_half(constraints[i - 1])
        full = moment_matrix(sub, omega)
        rank_full, gap_full = rank_and_gap(full.data, policy)
        rank_shifted, gap_shifted = rank_and_gap(leading(full, omega - di, omega), policy)
        eigs = eig_range(full.data, policy)
        gs = constraints[i - 1]
        psd_loc = not gs or psd(*eig_range(localizing_block(sub, gs, omega).data, policy), policy)
        cliques.append(
            CliqueCheck(
                i, psd(*eigs, policy), psd_loc, rank_full, rank_shifted, di,
                gap_full, gap_shifted, eigs, full,
            )
        )
    overlaps = []
    for i in range(2, m + 1):
        candidates = tuple(sorted(witnesses.witness[i]))
        first = None
        for j in candidates:
            full = overlap_moment_matrix(y, i, j, omega)
            rank_full, gap_full = rank_and_gap(full.data, policy)
            rank_shifted, gap_shifted = rank_and_gap(leading(full, omega - 1, omega), policy)
            record = OverlapCheck(i, j, rank_full, rank_shifted, gap_full, gap_shifted, candidates)
            first = first or record
            if record.flat:
                break
        overlaps.append(record if record.flat else dataclasses.replace(first, witness_j=None))
    verdict = all(c.ok for c in cliques) and all(o.flat for o in overlaps)
    r_bound = max(c.rank_full for c in cliques)
    return FlatnessCertificate(tuple(cliques), tuple(overlaps), verdict, r_bound)


def column_echelon_basis(vt, allowed, tol):
    r, n = vt.shape
    R = vt.copy()
    pivots = []
    row = 0
    for col in range(n):
        if row >= r:
            break
        if not allowed[col]:
            continue
        k = row + int(np.argmax(np.abs(R[row:, col])))
        if abs(R[k, col]) <= tol:
            continue
        R[[row, k]] = R[[k, row]]
        R[row] /= R[row, col]
        others = [i for i in range(r) if i != row]
        R[others] -= np.outer(R[others, col], R[row])
        pivots.append(col)
        row += 1
    return pivots, R


def extract_atoms(M, r, policy=RankPolicy(), seed=0, nonnegative=False):
    """(measure, number of random combinations drawn). The weights solve the
    least-squares problem of the first row, or with ``nonnegative`` its
    nonnegative version (Lawson & Hanson's NNLS)."""
    nvars = len(M.variables)
    scale = max(1.0, float(np.abs(M.data).max())) if M.size else 1.0
    if r == 0:
        return AtomicMeasure(M.variables, np.zeros((0, nvars)), np.zeros(0)), 0
    labels = list(M.labels)
    column = {l: k for k, l in enumerate(labels)}
    omega = max(sum(l) for l in labels)
    allowed = np.array([sum(l) < omega for l in labels])

    eigvals, eigvecs = np.linalg.eigh(policy.prepare(M.data))
    idx = np.argsort(eigvals)[::-1][:r]
    if eigvals[idx[-1]] <= 0:
        raise ReconstructionFailed(f"matrix is not PSD of rank {r}: eigenvalue {eigvals[idx[-1]]}")
    V = eigvecs[:, idx] * np.sqrt(eigvals[idx])
    pivots, R = column_echelon_basis(V.T, allowed, policy.tol(np.sqrt(scale)))
    if len(pivots) < r:
        raise FlatnessViolated(
            f"only {len(pivots)} independent basis monomials of degree < {omega} found, need {r}"
        )
    operators = []
    for t in range(nvars):
        cols = []
        for p in pivots:
            shifted = tuple(e + (s == t) for s, e in enumerate(labels[p]))
            if shifted not in column:
                raise FlatnessViolated(f"monomial {shifted} exceeds the matrix order")
            cols.append(column[shifted])
        operators.append(R[:, cols])

    rng = np.random.default_rng(seed)
    atoms = None
    for draws in range(1, MAX_REDRAWS + 1):
        coeffs = rng.random(nvars) + 0.05
        coeffs /= coeffs.sum()
        combo = sum(c * N for c, N in zip(coeffs, operators))
        eigvals_c, P = np.linalg.eig(combo)
        gaps = np.abs(eigvals_c[:, None] - eigvals_c[None, :])
        gaps[np.diag_indices(r)] = np.inf
        if r > 1 and gaps.min() < policy.tol(np.abs(eigvals_c).max()):
            continue
        Pinv = np.linalg.inv(P)
        candidate = np.empty((r, nvars))
        ok = True
        for t, N in enumerate(operators):
            diag = np.diag(Pinv @ N @ P)
            if np.abs(diag.imag).max() > policy.tol(np.abs(diag).max()):
                ok = False
                break
            candidate[:, t] = diag.real
        if not ok:
            continue
        if r > 1:
            dist = np.abs(candidate[:, None, :] - candidate[None, :, :]).max(axis=2)
            dist[np.diag_indices(r)] = np.inf
            if dist.min() <= policy.tol(np.abs(candidate).max()):
                continue
        atoms = candidate
        break
    if atoms is None:
        raise ReconstructionFailed("could not separate atoms after redrawing combinations")

    A = monomial_matrix(labels, atoms)
    weights = scipy.optimize.nnls(A, M.data[0])[0] if nonnegative else np.linalg.pinv(A) @ M.data[0]
    if weights.min() <= policy.tol(weights.max()):
        raise NonPhysicalWeights(f"weight {weights.min():.3e} is not strictly positive")
    recon = (A * weights) @ A.T
    err = float(np.abs(recon - M.data).max())
    if err > policy.tol(scale):
        raise ReconstructionFailed(f"moment matrix residual {err:.3e} exceeds tolerance")
    return AtomicMeasure(M.variables, atoms, weights), draws


def _sums(weights, labels, count):
    """``weights[labels == g].sum()`` for each g < count, in one ``bincount``
    for fewer than 8 weights, which numpy too adds one by one from 0."""
    if len(labels) < 8:
        return np.bincount(labels, weights, count).tolist()
    return [float(weights[labels == g].sum()) for g in range(count)]


def _match(proj_a, weights_a, proj_b, weights_b, overlap, policy):
    """One gluing step's matching, each side clustered on its own: each
    atom's marginal point, numbered by side a, and each point's mass."""
    scales = [np.maximum.reduce(np.abs(p).ravel(), initial=0.0) for p in (proj_a, proj_b)]
    tol = policy.tol(max(scales))
    (labels_a, firsts_a), (labels_b, firsts_b) = (_cluster(p[None], tol) for p in (proj_a, proj_b))
    labels_a, labels_b = labels_a[0], labels_b[0]
    na, nb = (np.maximum.reduce(labels, initial=-1) + 1 for labels in (labels_a, labels_b))
    if na != nb:
        raise MarginalMismatch(
            f"overlap {overlap}: {na} marginal atoms on one side, {nb} on the other"
        )
    reps_a, order_b, floor = proj_a[firsts_a[0]], [], policy.tol()
    gap = np.abs(reps_a[:, None] - proj_b[firsts_b[0]][None])
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


def pushforward(mu, target, policy=RankPolicy()):
    """Marginal of an atomic measure on the ``target`` variables: project
    every atom and merge the ones that coincide up to the policy tolerance
    (max-norm), summing their weights."""
    target = tuple(target)
    if not set(target) <= set(mu.variables):
        raise ValueError(f"target {target} is not a subset of the measure's variables {mu.variables}")
    points = mu.atoms[None, :, [mu.variables.index(v) for v in target]]
    labels, firsts = _cluster(points, policy.tol(np.abs(points).max(initial=0.0)))
    return AtomicMeasure(target, points[0, firsts[0]], _cluster_sums(mu.weights, labels)[0])


@dataclasses.dataclass(frozen=True)
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


def match_marginals(partial, incoming, overlap, policy=RankPolicy()) -> MarginalGroups:
    """Match the two pushforwards onto ``overlap`` atom by atom and mass by
    mass; raises :class:`MarginalMismatch` with a diagnostic otherwise."""
    overlap = tuple(overlap)
    proj_a = partial.atoms[:, [partial.variables.index(v) for v in overlap]]
    proj_b = incoming.atoms[:, [incoming.variables.index(v) for v in overlap]]
    *labels, masses, failure = _stacked_match(
        proj_a[None], partial.weights[None], proj_b[None], incoming.weights[None], policy
    )
    if failure:
        raise MarginalMismatch(f"overlap {overlap}: {failure[1]}")
    count = labels[0].max(initial=-1) + 1
    a, b = (tuple(tuple(np.flatnonzero(lab[0] == g).tolist()) for g in range(count)) for lab in labels)
    return MarginalGroups(proj_a[[g[0] for g in a]], masses[0, :count], a, b)


def measures_close(a, b, policy=RankPolicy()) -> bool:
    """Same variable set, same atoms and weights, up to order and the policy tolerance."""
    if a.variables != b.variables or a.num_atoms != b.num_atoms:
        return False
    return not _stacked_match(
        a.atoms[None], a.weights[None], b.atoms[None], b.weights[None], policy, floor=False
    )[3]


def cluster_reference(points, tol):
    """Greedy max-norm clustering, point by point."""
    reps, groups = [], []
    for k, p in enumerate(points):
        for gi, rep in enumerate(reps):
            if p.size == 0 or np.abs(p - rep).max() <= tol:
                groups[gi].append(k)
                break
        else:
            reps.append(p)
            groups.append([k])
    return np.array(reps).reshape(len(reps), points.shape[1]), groups


def pushforward_reference(mu, variables, policy):
    """The per-clique pushforward: pointwise clustering of the projected
    atoms, and each cluster's weights summed."""
    projected = mu.atoms[:, [mu.variables.index(v) for v in variables]]
    reps, groups = cluster_reference(projected, policy.tol(np.abs(projected).max(initial=0.0)))
    return AtomicMeasure(variables, reps, np.array([mu.weights[g].sum() for g in groups]))


def measures_close_reference(a, b, policy):
    """Atom by atom: each atom of a takes the first unused atom of b that is
    within tolerance in coordinates and in weight."""
    if a.variables != b.variables or a.num_atoms != b.num_atoms:
        return False
    tol = policy.tol(max(np.abs(a.atoms).max(initial=0.0), np.abs(b.atoms).max(initial=0.0)))
    used = [False] * b.num_atoms
    for k in range(a.num_atoms):
        for l in range(b.num_atoms):
            coord_ok = a.atoms.shape[1] == 0 or np.abs(a.atoms[k] - b.atoms[l]).max() <= tol
            wa, wb = a.weights[k], b.weights[l]
            if not used[l] and coord_ok and abs(wa - wb) <= policy.tol(max(abs(wa), abs(wb))):
                used[l] = True
                break
        else:
            return False
    return True


def assemble_reference(clique_measures, witnesses, policy=RankPolicy(), chosen=None):
    """``assemble`` as one gluing step per clique: the measure glued so far is
    matched against each incoming clique measure on their overlap and
    extended by the atom pairs over each shared point, by point in
    first-appearance order, then k, then l. Masses are those of the measure
    glued so far, where ``assemble`` takes them from the witness's measure,
    so weights agree to rounding only. Then the final check, clique by
    clique in clique order."""
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
            by_point = labels_a.argsort(kind="stable")
            pair, l = (labels_a[by_point, None] == labels_b).nonzero()
            k = by_point[pair]
            atoms = np.where(assigned, atoms[k], spread[l])
            weights = weights[k] * incoming.weights[l] / masses[labels_a[k]]
        assigned[cols] = True
    glued = AtomicMeasure(variables, atoms, weights)
    for i, mu in enumerate(clique_measures, start=1):
        if not measures_close_reference(pushforward_reference(glued, mu.variables, policy), mu, policy):
            raise FinalMarginalCheckFailed(
                f"assembled measure does not reproduce the measure of clique at position {i}"
            )
    return glued
