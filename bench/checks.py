"""Reference computations and output checks, written with numpy alone.

Nothing here imports ``smk``: inputs are generated and outputs are judged by
code that shares no logic with the program under test. A check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

ATOM_TOL = 1e-6  # glued atoms and weights against the seeded ones
BOUND_TOL = 1e-8  # relative, objective bound from exact moments
ADMM_ATOM_TOL = 1e-5  # minimizers from the bundled solver (observed <= 1e-7)
ADMM_BOUND_TOL = 1e-5  # |bound - 0| for the bundled solver at tol 1e-7 (observed <= 5e-7)
LP_TOL = 1e-7  # extreme weights: nonnegativity and moment residual


def local_exponents(width: int, degree: int) -> np.ndarray:
    """All exponent rows in ``width`` variables of total degree <= degree."""
    rows = [e for e in itertools.product(range(degree + 1), repeat=width) if sum(e) <= degree]
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def sparse_index_set(n: int, cliques, degree: int) -> np.ndarray:
    """Union over cliques of the global exponent rows supported on the clique,
    of degree <= ``degree``; rows are unique, order unspecified."""
    seen = {}
    for clique in cliques:
        cols = np.asarray(clique) - 1
        for loc in local_exponents(len(clique), degree):
            alpha = np.zeros(n, dtype=np.int64)
            alpha[cols] = loc
            seen.setdefault(alpha.tobytes(), alpha)
    return np.array(list(seen.values()))


def chain_count(m: int, width: int, overlap: int, degree: int) -> int:
    """Size of the sparse index set of a chain of ``m`` cliques of ``width``
    variables, consecutive cliques sharing ``overlap`` variables and others
    disjoint, by inclusion-exclusion."""
    return m * comb(width + degree, degree) - (m - 1) * comb(overlap + degree, degree)


def monomial_matrix(exponents: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """``A[k, j] = prod_t atoms[j, t] ** exponents[k, t]``, built a few
    exponent rows at a time so that no temporary exceeds about 0.5 MB."""
    out = np.empty((len(exponents), len(atoms)))
    step = max(1, 2**16 // max(1, atoms.size))
    for s in range(0, len(exponents), step):
        out[s:s + step] = np.prod(atoms[None, :, :] ** exponents[s:s + step, None, :], axis=2)
    return out


def moments(exponents: np.ndarray, atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return monomial_matrix(exponents, atoms) @ weights


def nearest(points: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each point, the index of and max-norm distance to the nearest
    reference point, a few points at a time (temporaries of about 0.5 MB)."""
    index = np.empty(len(points), dtype=np.int64)
    dist = np.empty(len(points))
    step = max(1, 2**16 // max(1, ref.size))
    for s in range(0, len(points), step):
        d = np.abs(points[s:s + step, None, :] - ref[None, :, :]).max(axis=2)
        index[s:s + step] = d.argmin(axis=1)
        dist[s:s + step] = d.min(axis=1)
    return index, dist


def measure_problems(atoms, weights, ref_atoms, ref_weights, tol: float, what: str) -> list[str]:
    """Same atoms, matched one to one by nearness, and, unless
    ``ref_weights`` is None, the same weights, within ``tol``."""
    atoms = np.asarray(atoms, dtype=float)
    if atoms.shape != ref_atoms.shape:
        return [f"{what}: {atoms.shape} atoms, expected {ref_atoms.shape}"]
    index, dist = nearest(atoms, ref_atoms)
    if len(set(index.tolist())) != len(index):
        return [f"{what}: atoms do not match the expected ones one to one"]
    problems = []
    if dist.max() > tol:
        problems.append(f"{what}: atoms off by {dist.max():.3e}")
    if ref_weights is not None:
        err = float(np.abs(np.asarray(weights, dtype=float) - ref_weights[index]).max())
        if err > tol:
            problems.append(f"{what}: weights off by {err:.3e}")
    return problems


def sdpa_header(text: str) -> tuple[int, tuple[int, ...]]:
    """Free-variable count and block sizes from the first lines of an SDPA
    sparse file (comment lines skipped)."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith(("*", '"')):
            rows.append(line)
            if len(rows) == 3:
                break
    sizes = tuple(int(t) for t in rows[2].replace(",", " ").split())
    if len(sizes) != int(rows[1]):
        raise ValueError("SDPA block count does not match its size list")
    return int(rows[0]), sizes


def extreme_weight_problems(weight_sets, matrix: np.ndarray, rhs: np.ndarray) -> list[str]:
    """Every weight vector is nonnegative, reproduces ``rhs`` through
    ``matrix``, and is a vertex: its support is no larger than the rank."""
    if not weight_sets:
        return ["no extreme weight vector returned"]
    rank = int(np.linalg.matrix_rank(matrix))
    scale = max(1.0, float(np.abs(rhs).max()))
    problems = []
    for k, w in enumerate(weight_sets):
        w = np.asarray(w, dtype=float)
        if w.shape != (matrix.shape[1],):
            problems.append(f"weights {k}: shape {w.shape}, expected ({matrix.shape[1]},)")
            continue
        if w.min() < -LP_TOL:
            problems.append(f"weights {k}: negative entry {w.min():.3e}")
        resid = float(np.abs(matrix @ w - rhs).max())
        if resid > LP_TOL * scale:
            problems.append(f"weights {k}: moment residual {resid:.3e}")
        support = int(np.count_nonzero(w > LP_TOL))
        if support > rank:
            problems.append(f"weights {k}: support {support} exceeds rank {rank}")
    return problems
