"""Alternative representing measures supported on a fixed atom set.

With the atoms fixed, the weights of a representing measure solve a linear
feasibility system (one equation per sparse multi-index, including the total
mass row, so the feasible set is compact). Extreme representing measures are
the vertices of this polytope; each one is found by minimizing a linear cost
with a two-phase revised simplex method. It prices by Dantzig's rule (most
negative reduced cost) and falls back to Bland's rule for the pivot after a
degenerate one, which rules out cycling and takes far fewer pivots than
Bland's rule alone. Only phase 2 depends on the cost: the matrix is built,
its independent rows are chosen by blocked elimination, and phase 1 finds a
feasible basis, once per atom set.
"""

from __future__ import annotations

import numpy as np

from .certify import RankPolicy
from .core import SparseMomentVector, monomial_matrix
from .errors import Infeasible

PIVOT_TOL = 1e-9  # the simplex's numerical guard, not a data tolerance
REFACTOR_EVERY = 50
ELIMINATION_BLOCK = 64  # columns brought up to date by one product in _row_reduce


def _row_reduce(A: np.ndarray, b: np.ndarray, policy: RankPolicy) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``A`` and ``b`` that Gaussian elimination with partial
    pivoting keeps, as given: columns are taken in order, each pivoting on
    the largest remaining entry of the rows not yet chosen. An entry at or
    below ``policy.tol(scale)`` counts as zero, so a row that differs from a
    combination of others only by noise of the data's accuracy is dropped;
    a dropped row with rhs residual above that tolerance raises Infeasible.

    The elimination is lazy and blocked: each block of ``ELIMINATION_BLOCK``
    columns is brought up to date, on the rows not yet chosen, by one matrix
    product against the chosen rows (kept eliminated to the identity on the
    pivot columns), and the next pivot column is found by one scan of the
    block, so a block of zero columns costs one product."""
    rows, cols = A.shape
    tol = policy.tol(max(A.max(initial=0.0), -A.min(initial=0.0), np.abs(b).max(initial=0.0)))
    free = np.arange(rows)  # rows not yet chosen
    chosen: list[int] = []
    at_pivots = np.empty((rows, min(rows, cols)))  # column r: A at the r-th pivot column
    # row r: [A | b] of chosen row r minus the earlier chosen rows, with the
    # identity on the pivot columns; columns left of the current block go stale
    reduced = np.empty((min(rows, cols), cols + 1))
    for start in range(0, cols, ELIMINATION_BLOCK):
        if not free.size:
            break
        r = len(chosen)
        block = A[free, start:start + ELIMINATION_BLOCK]
        block -= at_pivots[free, :r] @ reduced[:r, start:start + block.shape[1]]
        taken = []  # rows of the block chosen; the update leaves them zero right of the pivot
        j = 0
        while True:
            above = np.flatnonzero((np.abs(block[:, j:]) > tol).any(axis=0))
            if not above.size:
                break
            j += int(above[0])
            k = int(np.argmax(np.abs(block[:, j])))
            row, r = int(free[k]), len(chosen)
            new = reduced[r, start:]
            new[:-1], new[-1] = A[row, start:], b[row]
            new -= at_pivots[row, :r] @ reduced[:r, start:]
            new /= new[j]
            reduced[:r, start:] -= reduced[:r, start + j, None] * new
            block[:, j + 1:] -= (block[:, j] / block[k, j])[:, None] * block[k, j + 1:]
            at_pivots[:, r] = A[:, start + j]
            chosen.append(row)
            taken.append(k)
            j += 1
        free = np.delete(free, taken)
    residual = b[free] - at_pivots[free, :len(chosen)] @ reduced[:len(chosen), -1]
    inconsistent = np.flatnonzero(np.abs(residual) > tol)
    if inconsistent.size:
        raise Infeasible(f"inconsistent moment equation, residual {residual[inconsistent[0]]:.3e}")
    chosen.sort()
    return A[chosen], b[chosen]


def _pivot(Binv: np.ndarray, d: np.ndarray, row: int) -> None:
    """Rank-1 update of ``Binv`` when column ``a``, with ``d = Binv @ a``, enters at ``row``."""
    pivot_row = Binv[row] / d[row]
    Binv -= d[:, None] * pivot_row
    Binv[row] = pivot_row


def _simplex_phase(A, b, c, basis, tol=PIVOT_TOL):
    """Revised simplex from a given feasible basis; returns the optimal basis
    and solution.

    The entering column has the most negative reduced cost (Dantzig), except
    right after a degenerate pivot (minimum ratio <= ``tol``), when it is the
    lowest-index improving column (Bland). The leaving row is always Bland's:
    the smallest variable index among the minimal ratios. This terminates: a
    cycle would consist of degenerate pivots only, so every pivot in it would
    follow Bland's rule, which cannot cycle; every other pivot strictly
    lowers the objective. The basis inverse gets one rank-1 update per pivot
    and is recomputed every ``REFACTOR_EVERY`` pivots; the solution is a
    fresh solve with the optimal basis matrix."""
    n = A.shape[1]
    basis = np.array(basis, dtype=int)
    degenerate = False
    for step in range(20000):
        if step % REFACTOR_EVERY == 0:
            Binv = np.linalg.inv(A[:, basis])
        reduced = c - (c[basis] @ Binv) @ A
        reduced[basis] = 0.0
        # Bland after a degenerate pivot: smallest index with negative reduced
        # cost; Dantzig otherwise: most negative reduced cost
        entering = int(np.argmax(reduced < -tol) if degenerate else np.argmin(reduced))
        if reduced[entering] >= -tol:
            x = np.zeros(n)
            x[basis] = np.linalg.solve(A[:, basis], b)
            return basis.tolist(), x
        d = Binv @ A[:, entering]
        rows = np.flatnonzero(d > tol)
        if rows.size == 0:
            raise Infeasible("weight program is unbounded; atoms and moments are inconsistent")
        ratios = (Binv @ b)[rows] / d[rows]
        min_ratio = ratios.min()
        # Bland tie-break: smallest variable index among minimal ratios
        ties = rows[ratios <= min_ratio + tol * (1 + abs(min_ratio))]
        leave_row = int(ties[np.argmin(basis[ties])])
        degenerate = min_ratio <= tol
        basis[leave_row] = entering
        _pivot(Binv, d, leave_row)
    raise RuntimeError("simplex iteration limit reached")


def _feasible_start(A: np.ndarray, b: np.ndarray, policy: RankPolicy):
    """Phase 1 for A x = b, x >= 0 with A of full row rank: ``(A, b, basis)``
    with rows sign-flipped to b >= 0, redundant rows dropped, and a feasible
    basis free of artificial variables."""
    m, n = A.shape
    A, b = A.copy(), b.copy()
    flip = b < 0
    A[flip] *= -1
    b[flip] *= -1
    if m == 0:
        return A, b, []

    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis, x = _simplex_phase(A1, b, c1, list(range(n, n + m)))
    if c1 @ x > policy.tol(np.abs(b).max()):
        raise Infeasible(f"no nonnegative weights satisfy the moment equations (gap {c1 @ x:.3e})")
    # drive any degenerate artificials out of the basis
    Binv = np.linalg.inv(A1[:, basis])
    keep_rows = []
    for row in range(m):
        if basis[row] >= n:
            d_row = Binv[row] @ A
            d_row[[j for j in basis if j < n]] = 0.0
            candidates = np.flatnonzero(np.abs(d_row) > 1e3 * PIVOT_TOL)
            if candidates.size == 0:
                continue  # redundant row
            basis[row] = int(candidates[0])
            _pivot(Binv, Binv @ A1[:, basis[row]], row)
        keep_rows.append(row)
    return A[keep_rows], b[keep_rows], [basis[r] for r in keep_rows]


def _optimal_weights(start, cost: np.ndarray) -> np.ndarray:
    """Phase 2 from a :func:`_feasible_start` result: a basic optimal solution."""
    A, b, basis = start
    if not basis:
        return np.zeros(A.shape[1])
    return np.maximum(_simplex_phase(A, b, cost, basis)[1], 0.0)


def solve_weight_lp(
    atoms, y: SparseMomentVector, cost, policy: RankPolicy = RankPolicy()
) -> np.ndarray:
    """Extreme optimal weights for a linear cost over the representing
    measures supported on ``atoms``.

    The (heavily redundant) moment equations are reduced to full row rank
    before the simplex runs. Raises :class:`Infeasible` if no nonnegative
    weight vector reproduces the moments.
    """
    A = monomial_matrix(y.index_map.slots, atoms)
    start = _feasible_start(*_row_reduce(A, y.values, policy), policy)
    return _optimal_weights(start, np.asarray(cost, dtype=float))


def enumerate_extreme_measures(
    atoms, y: SparseMomentVector, budget: int, seed: int = 0, policy: RankPolicy = RankPolicy()
) -> list[np.ndarray]:
    """Distinct basic feasible weight vectors found by ``budget`` random
    linear costs (seeded); duplicates within ``policy.tol()`` are merged.
    Each cost gives what :func:`solve_weight_lp` gives; phase 1 is shared."""
    if budget < 1:
        return []
    A = monomial_matrix(y.index_map.slots, atoms)
    start = _feasible_start(*_row_reduce(A, y.values, policy), policy)
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    for _ in range(budget):
        w = _optimal_weights(start, rng.standard_normal(A.shape[1]))
        if not any(np.abs(w - prev).max() <= policy.tol() for prev in found):
            found.append(w)
    return found
