"""Small built-in instances used by the docs, the CLI walkthrough, and tests.

Each builder returns exact data (integer-valued moments), so ranks and
extracted atoms are reproduced to machine precision.
"""

from __future__ import annotations

import numpy as np

from .core import CliqueCover, SparseMomentVector, index_map_of, monomial_matrix, sparse_exponents
from .matrices import ConstraintPolynomial
from .relax import PopProblem


def moments_of_atoms(
    cover: CliqueCover, omega: int, atoms, weights
) -> SparseMomentVector:
    """Sparse moment vector of a weighted atomic measure on all n variables."""
    index_map = index_map_of(cover, 2 * omega)
    values = monomial_matrix(index_map.slots, atoms) @ np.asarray(weights, dtype=float)
    return SparseMomentVector.on_index_map(cover, omega, index_map, values)


def chain_pair_moments() -> SparseMomentVector:
    """n = 3, cliques {1,2} and {2,3}, order 2; 25 sparse entries.

    The four unit moments sit at the pure powers of x1 and x3; the vector is
    represented (non-uniquely) by four equally weighted atoms (+-1, 0, +-1).
    """
    cover = CliqueCover(3, ((1, 2), (2, 3)))
    values = {
        (0, 0, 0): 1.0,
        (2, 0, 0): 1.0,
        (0, 0, 2): 1.0,
        (4, 0, 0): 1.0,
        (0, 0, 4): 1.0,
    }
    return SparseMomentVector.build(cover, 2, values, allow_missing_as_zero=True)


def chain_triple_pop() -> PopProblem:
    """n = 4 minimization over three chained cliques.

    Objective (x1^2-1)^2 + (x2^2-1)^2 + x3^2 + (x4^2-1)^2 with ball-like
    constraints 3 - xi^2 - xj^2 >= 0 per clique; minimum 0 attained at the
    eight points (+-1, +-1, 0, +-1).
    """
    cover = CliqueCover(4, ((1, 2), (2, 3), (3, 4)))
    objectives = (
        # (x1^2-1)^2 + (x2^2-1)^2 on clique {1,2}
        {(4, 0): 1.0, (2, 0): -2.0, (0, 0): 2.0, (0, 4): 1.0, (0, 2): -2.0},
        # x3^2 on clique {2,3}
        {(0, 2): 1.0},
        # (x4^2-1)^2 on clique {3,4}
        {(0, 4): 1.0, (0, 2): -2.0, (0, 0): 1.0},
    )
    ball = {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0}
    constraints = tuple((ConstraintPolynomial(clique, ball),) for clique in cover.cliques)
    return PopProblem(cover, objectives, constraints)


def chain_triple_minimizers() -> np.ndarray:
    signs = [(s1, s2, s4) for s1 in (1, -1) for s2 in (1, -1) for s4 in (1, -1)]
    return np.array([[s1, s2, 0.0, s4] for s1, s2, s4 in signs], dtype=float)


def chain_triple_moments() -> SparseMomentVector:
    """Order-3 moment vector of the uniform measure on the eight minimizers
    of :func:`chain_triple_pop`; its clique moment matrices have ranks
    (4, 2, 2) and overlap ranks (2, 1)."""
    pop = chain_triple_pop()
    atoms = chain_triple_minimizers()
    return moments_of_atoms(pop.cover, 3, atoms, np.full(8, 0.125))


def triangle_moments() -> SparseMomentVector:
    """n = 3 with the cyclic cliques {1,2}, {2,3}, {1,3} (no admissible
    clique order exists); 31 sparse entries.

    Every clique subvector has an exact two-atom representing measure, yet
    the three measures cannot be glued: the pair correlations force
    x1 = x2 = x3 and x1 = -x3 simultaneously.
    """
    cover = CliqueCover(3, ((1, 2), (2, 3), (1, 3)))

    def value(alpha):
        a, b, c = alpha
        if c == 0:  # supported on {1,2}: perfectly correlated +-1 pair
            return 1.0 if (a + b) % 2 == 0 else 0.0
        if a == 0:  # supported on {2,3}: perfectly correlated +-1 pair
            return 1.0 if (b + c) % 2 == 0 else 0.0
        # supported on {1,3}: perfectly anti-correlated +-1 pair
        if a % 2 == 0 and c % 2 == 0:
            return 1.0
        if a % 2 == 1 and c % 2 == 1:
            return -1.0
        return 0.0

    values = {alpha: value(alpha) for alpha in sparse_exponents(cover, 4)}
    return SparseMomentVector.build(cover, 2, values)

