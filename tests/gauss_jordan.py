"""Reference row reduction of the weight LP: the per-column Gauss–Jordan
loop that ``altmeasure._row_reduce`` ran before its elimination was blocked.
The blocked code must choose a basis of the same row space, raise
:class:`Infeasible` on the same systems, and lead to the same optimal
cost."""

from __future__ import annotations

import numpy as np

from smk.certify import RankPolicy
from smk.errors import Infeasible


def row_reduce(A: np.ndarray, b: np.ndarray, policy: RankPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Reduce [A | b] to full row rank by Gaussian elimination with partial
    pivoting. A pivot at or below ``policy.tol(scale)`` counts as zero, so a
    row that differs from a combination of others only by noise of the
    data's accuracy is dropped; a dropped row with rhs above that tolerance
    raises Infeasible."""
    M = np.hstack([A, b[:, None]]).astype(float)
    rows, cols = A.shape
    scale = max(1.0, np.abs(M).max())
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        k = rank + int(np.argmax(np.abs(M[rank:, col])))
        if abs(M[k, col]) <= policy.tol(scale):
            continue
        M[[rank, k]] = M[[k, rank]]
        factors = M[:, col] / M[rank, col]
        factors[rank] = 0.0  # eliminate col from every other row
        M -= np.outer(factors, M[rank])
        rank += 1
    for i in range(rank, rows):
        if abs(M[i, -1]) > policy.tol(scale):
            raise Infeasible(f"inconsistent moment equation, residual {M[i, -1]:.3e}")
    return M[:rank, :-1], M[:rank, -1]
