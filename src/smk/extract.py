"""Atom extraction from flat moment matrices.

Given a PSD moment matrix of known numerical rank r that is rank-flat, the
unique r-atomic representing measure of the underlying (local) moment vector
is recovered with standard linear algebra: factor the matrix, select a basis
of low-degree monomials, form the multiplication operators of the clique
variables in that basis, and simultaneously diagonalize them through a random
convex combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.optimize

from .certify import FlatnessCertificate, RankPolicy
from .core import monomial_matrix
from .errors import FlatnessViolated, NonPhysicalWeights, ReconstructionFailed
from .matrices import ConstraintPolynomial, LabeledSymMatrix

MAX_REDRAWS = 10


def lex_order_rows(points: np.ndarray, quantum: float = 1e-9) -> np.ndarray:
    """Indices sorting rows lexicographically, with coordinates quantized so
    noise far below the policy tolerance cannot flip the order."""
    if points.size == 0:
        return np.arange(points.shape[0])
    keys = np.round(points / quantum) * quantum
    return np.lexsort(keys.T[::-1])


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted sum of point masses over a named variable set.

    ``atoms`` has one row per atom (columns follow ``variables``); weights
    are positive and atoms pairwise distinct beyond the policy tolerance.
    """

    variables: tuple[int, ...]
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        weights = np.asarray(self.weights, dtype=float)
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if weights.shape[0] == 0:
            atoms = atoms.reshape(0, len(self.variables))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise ValueError("one weight per atom required")
        if self.atoms.shape[1] != len(self.variables):
            raise ValueError("atom arity does not match the variable set")

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def sorted_by_atoms(self) -> "AtomicMeasure":
        """Atoms in lexicographic coordinate order (canonical for reporting).

        Keys are quantized well below the policy tolerance so floating-point
        noise cannot flip the order of distinct atoms.
        """
        order = lex_order_rows(self.atoms)
        return AtomicMeasure(self.variables, self.atoms[order], self.weights[order])


def _column_echelon_basis(vt: np.ndarray, allowed: np.ndarray, tol: float):
    """Gauss-reduce ``vt`` scanning columns left to right, pivoting only on
    allowed columns. Returns (pivot column indices, reduced matrix) with the
    reduced matrix carrying the identity on pivot columns."""
    r, n = vt.shape
    R = vt.copy()
    pivots: list[int] = []
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


@lru_cache(maxsize=64)
def _label_table(labels: tuple, nvars: int):
    """Per label tuple, built once: the top degree omega, the mask of labels
    of degree below it, the labels as a uint8 exponent array, and
    ``shift[k, t]``, the column of labels[k] times x_t (-1 past the order)."""
    column = {l: k for k, l in enumerate(labels)}
    shifted = (tuple(e + (s == t) for s, e in enumerate(l)) for l in labels for t in range(nvars))
    shift = np.array([column.get(l, -1) for l in shifted], np.int64).reshape(len(labels), nvars)
    exponents = np.array(labels, dtype=np.uint8).reshape(len(labels), nvars)
    degree = exponents.sum(axis=1, dtype=np.int64)
    omega = int(degree.max(initial=0))
    allowed = degree < omega
    for a in (shift, exponents, allowed):
        a.setflags(write=False)
    return omega, allowed, exponents, shift


def extract_atoms(
    M: LabeledSymMatrix,
    r: int,
    policy: RankPolicy = RankPolicy(),
    seed: int = 0,
) -> AtomicMeasure:
    """Recover the r-atomic measure represented by a flat PSD moment matrix.

    ``M`` must be a full moment matrix (labels up to the relaxation order)
    whose numerical rank is ``r`` and which is rank-flat, so a monomial basis
    of degree below the top order exists. The randomness (convex combination
    used for simultaneous diagonalization) is driven entirely by ``seed``;
    the result is independent of the seed up to atom ordering.

    Raises
    ------
    FlatnessViolated
        if no rank-r basis of below-top-degree monomials exists.
    NonPhysicalWeights
        if some recovered weight is not strictly positive.
    ReconstructionFailed
        if the recovered measure does not reproduce ``M``.
    """
    nvars = len(M.variables)
    scale = max(1.0, float(np.abs(M.data).max())) if M.size else 1.0

    if r == 0:
        return AtomicMeasure(M.variables, np.zeros((0, nvars)), np.zeros(0))
    omega, allowed, exponents, shift = _label_table(tuple(M.labels), nvars)

    eigvals, eigvecs = np.linalg.eigh(policy.prepare(M.data))
    idx = np.argsort(eigvals)[::-1][:r]
    if eigvals[idx[-1]] <= 0:
        raise ReconstructionFailed(f"matrix is not PSD of rank {r}: eigenvalue {eigvals[idx[-1]]}")
    V = eigvecs[:, idx] * np.sqrt(eigvals[idx])

    pivots, R = _column_echelon_basis(V.T, allowed, policy.tol(np.sqrt(scale)))
    if len(pivots) < r:
        raise FlatnessViolated(
            f"only {len(pivots)} independent basis monomials of degree < {omega} found, need {r}"
        )

    # multiplication operator of each variable: column k holds the coordinates
    # of x_t * basis[k] in the basis
    operators = []
    for t in range(nvars):
        cols = shift[pivots, t]
        if (cols < 0).any():
            beta = M.labels[pivots[int(np.argmax(cols < 0))]]
            shifted = tuple(e + (s == t) for s, e in enumerate(beta))
            raise FlatnessViolated(f"monomial {shifted} exceeds the matrix order")
        operators.append(R[:, cols])

    rng = np.random.default_rng(seed)
    atoms = None
    for _ in range(MAX_REDRAWS):
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

    # weights from the degree-<=omega moments by nonnegative least squares
    A = monomial_matrix(exponents, atoms)
    b = M.data[0]  # the moments of the labels, which are in matrix order
    weights, _ = scipy.optimize.nnls(A, b)
    if weights.min() <= policy.tol(weights.max()):
        raise NonPhysicalWeights(f"weight {weights.min():.3e} is not strictly positive")

    recon = (A * weights) @ A.T
    err = float(np.abs(recon - M.data).max())
    if err > policy.tol(scale):
        raise ReconstructionFailed(f"moment matrix residual {err:.3e} exceeds tolerance")
    return AtomicMeasure(M.variables, atoms, weights)


def extract_clique_measures(
    certificate: FlatnessCertificate,
    policy: RankPolicy = RankPolicy(),
    seed: int = 0,
) -> list[AtomicMeasure]:
    """Atoms of every clique, from the full-order moment matrix that
    :func:`certify` checked and at its certified rank; clique i draws its
    random combination with ``seed + i``."""
    return [
        extract_atoms(c.moment, c.rank_full, policy, seed=seed + c.clique)
        for c in certificate.cliques
    ]


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-atom constraint values; violations are entries below -tol."""

    values: np.ndarray  # shape (num_atoms, num_constraints)
    violations: tuple[tuple[int, int, float], ...]  # (atom, constraint, value), 0-based

    @property
    def clean(self) -> bool:
        return not self.violations


def constraint_feasibility_check(
    mu: AtomicMeasure, constraints: Sequence[ConstraintPolynomial], tol: float = 1e-8
) -> FeasibilityReport:
    """Evaluate every constraint at every atom and flag negative values.

    Constraints may live on a subset of the measure's variables; atoms are
    projected onto the constraint's variables first.
    """
    values = np.zeros((mu.num_atoms, len(constraints)))
    violations = []
    for ci, g in enumerate(constraints):
        pos = [mu.variables.index(v) for v in g.variables]
        for ai in range(mu.num_atoms):
            val = g(mu.atoms[ai, pos])
            values[ai, ci] = val
            if val < -tol:
                violations.append((ai, ci, float(val)))
    return FeasibilityReport(values, tuple(violations))
