"""Atom extraction from flat moment matrices.

Given a PSD moment matrix of known numerical rank r that is rank-flat, the
unique r-atomic representing measure of the underlying (local) moment vector
is recovered with standard linear algebra: factor the matrix, select a basis
of low-degree monomials, form the multiplication operators of the clique
variables in that basis, and simultaneously diagonalize them through a random
convex combination.

Extraction runs on stacks: the moment matrices of cliques with the same
labels and rank go through each step together, with one ``eigh``, one
``eig``, one ``inv`` and one ``pinv`` per step over the stack and, per
clique, the arithmetic of an extraction on its own, so the atoms and
weights do not depend on how the cliques were stacked. Neither do the
errors: each is kept with its clique, a ``LinAlgError`` included, and the
first failing clique raises. :func:`extract_atoms` is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .certify import FlatnessCertificate, RankPolicy
from .core import exponent_slots, monomial_matrix, polynomial_values
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


def _column_echelon_bases(
    R: np.ndarray, pivots: np.ndarray, columns: list[int], tol: np.ndarray, row: int = 0
) -> None:
    """Gauss-reduce each matrix of the stack ``R`` (k, r, n) in place, from
    pivot row ``row`` on, scanning ``columns`` in order and pivoting on a
    column when its best entry in the rows below the pivots exceeds that
    matrix's ``tol``. The pivot column of each row goes to ``pivots`` (k, at
    least r, -1 beyond the last pivot); each reduced matrix carries the
    identity on its pivot columns.

    Matrices that pivot on the same columns take each step together, and
    where they part each part goes on as its own stack, so every matrix
    sees the arithmetic of a reduction on its own.
    """
    k, r, _ = R.shape
    at = np.arange(k)
    for pos, col in enumerate(columns):
        if row == r:
            break
        mag = np.abs(R[:, row:, col])
        best = mag.argmax(axis=1)
        small = mag[at, best] <= tol
        count = np.count_nonzero(small)
        if count:
            if count < k:
                for part in (~small, small):
                    sub, sub_pivots = R[part], pivots[part]
                    _column_echelon_bases(sub, sub_pivots, columns[pos:], tol[part], row)
                    R[part], pivots[part] = sub, sub_pivots
                return
            continue
        best += row
        pivot = R[at, best]
        R[at, best] = R[:, row]
        R[:, row] = pivot / pivot[:, col, None]
        update = R[:, :, col, None] * R[:, None, row]
        update[:, row] = 0.0  # the pivot row stays, as x - 0.0 is x
        R -= update
        pivots[:, row] = col
        row += 1


@lru_cache(maxsize=64)
def _label_table(labels: tuple, nvars: int):
    """Per label tuple, built once: the top degree omega, the columns of
    labels of degree below it, the labels' :class:`~smk.core.Slots`, and
    ``shift[k, t]``, the column of labels[k] times x_t, -1 past the order
    and in a last row that stands for no label."""
    column = {l: k for k, l in enumerate(labels)}
    shifted = (tuple(e + (s == t) for s, e in enumerate(l)) for l in labels for t in range(nvars))
    shift = np.array([column.get(l, -1) for l in shifted] + [-1] * nvars, np.int64)
    shift = shift.reshape(len(labels) + 1, nvars)
    exponents = np.array(labels, dtype=np.uint8).reshape(len(labels), nvars)
    degree = exponents.sum(axis=1, dtype=np.int64)
    omega = int(degree.max(initial=0))
    slots = exponent_slots(exponents)
    for a in (shift, *slots):
        a.setflags(write=False)
    return omega, np.flatnonzero(degree < omega).tolist(), slots, shift


def _drop(out: list, live: np.ndarray, failed: np.ndarray, error, *arrays):
    """Record ``error(q)`` for each failed position q of ``live`` in ``out``;
    return ``live`` and ``arrays`` (aligned with it) without the failed."""
    if not np.count_nonzero(failed):
        return (live, *arrays)
    for q in failed.nonzero()[0]:
        out[live[q]] = error(q)
    return _subset(~failed, live, *arrays)


def _dtype_parts(values: np.ndarray, P: np.ndarray) -> list:
    """A stack of ``np.linalg.eig`` results split as the call on each matrix
    alone would type them: real where all of a matrix's eigenvalues are
    real, complex elsewhere. Gives (part of the stack, values, vectors)."""
    if not np.iscomplexobj(values):
        return [(slice(None), values, P)]
    real = (values.imag == 0.0).all(axis=1)
    return [
        (part, v[part], p[part])
        for part, v, p in ((real, values.real, P.real), (~real, values, P))
        if part.any()
    ]


def _subset(mask: np.ndarray, *arrays):
    """``arrays`` where ``mask`` holds, or as they are when it holds everywhere."""
    return arrays if np.count_nonzero(mask) == len(mask) else tuple(a[mask] for a in arrays)


def _separate(keep, values, P, operators, r: int, policy: RankPolicy):
    """For a stack of combinations numbered ``keep``, with eigenvalues
    ``values`` and eigenvectors ``P`` (one dtype for all) of the
    multiplication ``operators`` (k, nvars, r, r): the numbers of those whose
    eigenvalues are apart, whose diagonalized operators are real and whose
    atoms are apart, and those atoms, shape (found, r, nvars)."""
    if r > 1:
        gaps = np.abs(values[:, :, None] - values[:, None, :]).reshape(-1, r * r)
        gaps[:, :: r + 1] = np.inf  # the diagonals
        apart = ~(gaps.min(axis=1) < policy.tol(np.abs(values).max(axis=1)))
        keep, P, operators = _subset(apart, keep, P, operators)
    # diags[b, t]: the diagonal of operator t in the eigenbasis of combination b
    diags = (np.linalg.inv(P)[:, None] @ operators @ P[:, None]).diagonal(axis1=2, axis2=3)
    if np.iscomplexobj(diags):  # a real diagonal passes this check whatever its values
        imag = np.abs(diags.imag).max(axis=2) > policy.tol(np.abs(diags).max(axis=2))
        real = ~imag.any(axis=1)
        keep, diags = keep[real], diags[real].real
    atoms = diags.transpose(0, 2, 1)
    if r > 1:
        dist = np.abs(atoms[:, :, None, :] - atoms[:, None, :, :]).max(axis=3).reshape(-1, r * r)
        dist[:, :: r + 1] = np.inf
        peak = np.abs(atoms).reshape(len(atoms), r * atoms.shape[2]).max(axis=1)
        apart = ~(dist.min(axis=1) <= policy.tol(peak))
        keep, atoms = _subset(apart, keep, atoms)
    return keep, atoms


def _extract_stack(
    data: np.ndarray, labels: tuple, nvars: int, r: int, policy: RankPolicy, seeds
) -> list:
    """Extraction on a stack of moment matrices ``data`` (k, s, s) with the
    same ``labels`` on ``nvars`` variables and the same rank ``r``: entry b
    is (atoms, weights) for ``data[b]``, or the error it fails with.

    Matrix b draws its combinations from ``default_rng(seeds[b])`` and only
    the matrices not yet separated redraw. Each matrix goes through the
    arithmetic it would go through alone: a stacked LAPACK call gives per
    matrix bit for bit what a call on that matrix gives.
    """
    k = len(data)
    if r == 0:
        return [(np.zeros((0, nvars)), np.zeros(0)) for _ in range(k)]
    omega, columns, slots, shift = _label_table(labels, nvars)
    scales = np.abs(data).max(axis=(1, 2), initial=0.0)
    out: list = [None] * k
    live = np.arange(k)

    eigvals, eigvecs = np.linalg.eigh(policy.prepare(data))
    idx = np.argsort(eigvals, axis=1)[:, : -r - 1 : -1]  # the top r, largest first
    at = live[:, None]  # at[:n] picks matrix b of a stack of n in row b
    top = eigvals[at, idx]
    live, data, scales, top, idx, eigvecs = _drop(
        out, live, top[:, -1] <= 0,
        lambda q: ReconstructionFailed(f"matrix is not PSD of rank {r}: eigenvalue {top[q, -1]}"),
        data, scales, top, idx, eigvecs,
    )
    # R[b] = V.T for V = the top eigenvectors scaled by the root eigenvalues
    R = eigvecs.transpose(0, 2, 1)[at[: len(live)], idx] * np.sqrt(top)[:, :, None]
    pivots = np.empty((len(live), r), dtype=np.int64)
    pivots.fill(-1)
    _column_echelon_bases(R, pivots, columns, policy.tol(np.sqrt(scales)))

    # multiplication operator of each variable: operators[b, t, :, j] holds
    # the coordinates of x_t * basis[j] in the basis of matrix b; a missing
    # pivot (-1) reads the last row of shift, so it is caught as past the order
    cols = shift[pivots]

    def unflat(q):
        if pivots[q, -1] < 0:
            found = np.count_nonzero(pivots[q] >= 0)
            return FlatnessViolated(
                f"only {found} independent basis monomials of degree < {omega} found, need {r}"
            )
        t = int(np.argmax((cols[q] < 0).any(axis=0)))
        beta = labels[pivots[q, int(np.argmax(cols[q, :, t] < 0))]]
        shifted = tuple(e + (s == t) for s, e in enumerate(beta))
        return FlatnessViolated(f"monomial {shifted} exceeds the matrix order")

    live, data, scales, R, cols = _drop(
        out, live, (cols < 0).any(axis=(1, 2)), unflat, data, scales, R, cols
    )
    rows = np.arange(r)[:, None]
    operators = R[at[: len(live), :, None, None], rows, cols.transpose(0, 2, 1)[:, :, None, :]]

    rngs = [np.random.default_rng(seeds[b]) for b in live.tolist()]
    atoms = np.empty((len(live), r, nvars))
    separated = np.zeros(len(live), dtype=bool)
    pending = np.arange(len(live))
    for _ in range(MAX_REDRAWS):
        coeffs = np.empty((len(pending), nvars))
        for q, b in enumerate(pending.tolist()):
            c = rngs[b].random(nvars) + 0.05
            coeffs[q] = c / c.sum()
        terms = coeffs[:, :, None, None] * operators
        combo = sum(terms[:, t] for t in range(nvars))
        values, P = np.linalg.eig(combo)
        done = 0
        for part, vals, vecs in _dtype_parts(values, P):
            found, found_atoms = _separate(pending[part], vals, vecs, operators[part], r, policy)
            atoms[found] = found_atoms
            separated[found] = True
            done += len(found)
        if done == len(pending):
            break
        left = ~separated[pending]
        pending, operators = pending[left], operators[left]
    else:
        error = "could not separate atoms after redrawing combinations"
        for q in pending:
            out[live[q]] = ReconstructionFailed(error)
        live, data, scales, atoms = _subset(separated, live, data, scales, atoms)

    # weights from the degree-<=omega moments by least squares, one solve per
    # stack; the moments of the labels are row 0, as labels are in matrix order
    A = monomial_matrix(slots, atoms.reshape(-1, nvars))
    A = A.reshape(len(labels), len(live), r).transpose(1, 0, 2).copy()
    weights = (np.linalg.pinv(A) @ data[:, 0, :, None])[:, :, 0]
    lightest = weights.min(axis=1)
    light = lightest <= policy.tol(weights.max(axis=1))
    recon = (A * weights[:, None, :]) @ A.transpose(0, 2, 1)
    errs = np.abs(recon - data).max(axis=(1, 2))
    live, atoms, weights = _drop(
        out, live, light | (errs > policy.tol(scales)),
        lambda q: NonPhysicalWeights(f"weight {lightest[q]:.3e} is not strictly positive")
        if light[q]
        else ReconstructionFailed(f"moment matrix residual {errs[q]:.3e} exceeds tolerance"),
        atoms, weights,
    )
    for q, b in enumerate(live.tolist()):
        out[b] = (atoms[q], weights[q])
    return out


def _extract(data: np.ndarray, labels: tuple, nvars: int, r: int, policy: RankPolicy, seeds):
    """:func:`_extract_stack`, with a ``LinAlgError`` recorded as the result
    of the matrix it comes from: a stack where a LAPACK call raises it is
    extracted again one matrix at a time."""
    try:
        return _extract_stack(data, labels, nvars, r, policy, seeds)
    except np.linalg.LinAlgError as error:
        if len(data) == 1:
            return [error]
        return [_extract(d[None], labels, nvars, r, policy, [s])[0] for d, s in zip(data, seeds)]


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
    result = _extract(M.data[None], M.labels, len(M.variables), r, policy, [seed])[0]
    if isinstance(result, Exception):
        raise result
    return AtomicMeasure(M.variables, *result)


def extract_clique_measures(
    certificate: FlatnessCertificate,
    policy: RankPolicy = RankPolicy(),
    seed: int = 0,
) -> list[AtomicMeasure]:
    """Atoms of every clique, from the full-order moment matrix that
    :func:`certify` checked and at its certified rank; clique i draws its
    random combination with ``seed + i``. Cliques whose matrices have the
    same labels and rank are extracted as one stack, with the results of
    one clique at a time; the first clique in order that fails raises."""
    stacks: dict[tuple, list] = {}
    for c in certificate.cliques:
        stacks.setdefault((c.moment.labels, len(c.moment.variables), c.rank_full), []).append(c)
    results = {}
    for (labels, nvars, r), checks in stacks.items():
        data = np.array([c.moment.data for c in checks])
        seeds = [seed + c.clique for c in checks]
        stack = _extract(data, labels, nvars, r, policy, seeds)
        results.update(zip([c.clique for c in checks], stack))
    measures = []
    for c in certificate.cliques:
        result = results[c.clique]
        if isinstance(result, Exception):
            raise result
        measures.append(AtomicMeasure(c.moment.variables, *result))
    return measures


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
    projected onto the constraint's variables first. Equal constraints are
    evaluated together, at every atom, by one call of the evaluator that
    ``g(z)`` calls on one point.
    """
    values = np.zeros((mu.num_atoms, len(constraints)))
    column = {v: c for c, v in enumerate(mu.variables)}
    shapes: dict[tuple, list[int]] = {}
    for ci, g in enumerate(constraints):
        shapes.setdefault((len(g.variables), tuple(g.coefficients.items())), []).append(ci)
    for (width, _), group in shapes.items():
        cols = np.array([[column[v] for v in constraints[ci].variables] for ci in group], dtype=int)
        z = mu.atoms[:, cols.reshape(len(group), width)]  # (atoms, constraints, width)
        points = z.reshape(z.shape[0] * len(group), width)
        values[:, group] = polynomial_values(constraints[group[0]].coefficients, points).reshape(z.shape[:2])
    con, atom = np.nonzero(values.T < -tol)  # constraint by constraint, atom by atom
    violations = zip(atom.tolist(), con.tolist(), values[atom, con].tolist())
    return FeasibilityReport(values, tuple(violations))
