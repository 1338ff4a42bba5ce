"""Reference implementations of certification and atom extraction, one
clique and one matrix at a time: the loops that ``certify`` and
``extract_clique_measures`` ran before cliques of one shape were stacked,
and the per-clique localizing and overlap matrices they read. The stacked
code must match them bit for bit."""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.optimize

from smk.certify import CliqueCheck, FlatnessCertificate, OverlapCheck, RankPolicy, d_half
from smk.core import clique_subvector, local_exponents, monomial_matrix, subvector_on
from smk.errors import (
    FlatnessViolated, IndexOutOfPattern, NonPhysicalWeights, OrderTooHigh, ReconstructionFailed,
)
from smk.extract import MAX_REDRAWS, AtomicMeasure
from smk.matrices import LabeledSymMatrix, block_diagonal, gather, localizing_operator, moment_matrix


def localizing_matrix(y_sub, g, d) -> LabeledSymMatrix:
    """Localizing matrix of ``g`` at order ``d``: entry (alpha, beta) is
    sum_gamma g_gamma * y[alpha + beta + gamma], over labels of degree
    <= d - d_half. A moment it needs but the subvector lacks raises
    :class:`IndexOutOfPattern`, as in ``moment_matrix``."""
    block = localizing_operator(y_sub.clique, y_sub.omega, g, d)
    needed = set(block[2].tolist())
    missing = [p for p in y_sub.absent.tolist() if p in needed]
    if missing:
        raise IndexOutOfPattern(local_exponents(len(y_sub.clique), 2 * y_sub.omega)[missing[0]])
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


def extract_atoms(M, r, policy=RankPolicy(), seed=0):
    """(measure, number of random combinations drawn)."""
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
    weights, _ = scipy.optimize.nnls(A, M.data[0])
    if weights.min() <= policy.tol(weights.max()):
        raise NonPhysicalWeights(f"weight {weights.min():.3e} is not strictly positive")
    recon = (A * weights) @ A.T
    err = float(np.abs(recon - M.data).max())
    if err > policy.tol(scale):
        raise ReconstructionFailed(f"moment matrix residual {err:.3e} exceeds tolerance")
    return AtomicMeasure(M.variables, atoms, weights), draws
