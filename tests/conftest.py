"""Shared fixtures: reference data for the demo instances and random
round-trip instance generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from smk.core import CliqueCover, Slots, SparseMomentVector, local_exponents
from smk.demo import moments_of_atoms
from smk.errors import IndexOutOfPattern


def lift(local, clique, n):
    """Embed a local exponent tuple on ``clique`` into n variables."""
    alpha = [0] * n
    for var, e in zip(clique, local):
        alpha[var - 1] = e
    return tuple(alpha)


class index_map_reference:
    """The sparse index set of ``(cover, bound)`` built by a dict of sparse
    keys, the pairs ``(variable, -exponent)`` of each multi-index's nonzeros
    in variable order, sorted by ``(degree, key)`` in Python: the reference
    for :class:`smk.core.IndexMap`, with the same readers."""

    def __init__(self, cover, bound):
        degrees = {}
        for cl in cover.cliques:
            for loc in local_exponents(len(cl), bound):
                degrees[tuple((var, -e) for var, e in zip(cl, loc) if e)] = sum(loc)
        order = sorted(degrees, key=lambda key: (degrees[key], key))
        self.n = cover.n
        self.position = {key: p for p, key in enumerate(order)}
        self.exponents = [self.dense(key) for key in order]
        shape = (len(order), max(map(len, order)))
        self.slots = Slots(np.zeros(shape, np.intp), np.zeros(shape, np.intp))
        for p, key in enumerate(order):
            for s, (var, e) in enumerate(key):
                self.slots.columns[p, s], self.slots.exponents[p, s] = var - 1, -e

    def dense(self, key):
        alpha = [0] * self.n
        for var, e in key:
            alpha[var - 1] = -e
        return tuple(alpha)

    def positions(self, variables, bound):
        var_order = sorted(range(len(variables)), key=variables.__getitem__)
        out = []
        for loc in local_exponents(len(variables), bound):
            key = tuple((variables[t], -loc[t]) for t in var_order if loc[t])
            if key not in self.position:
                raise IndexOutOfPattern(self.dense(key))
            out.append(self.position[key])
        return np.array(out, dtype=np.int64)

    def places(self, slots):
        rows = zip(slots.columns.tolist(), slots.exponents.tolist())
        keys = [tuple((c + 1, -e) for c, e in zip(*row) if e) for row in rows]
        return np.array([self.position.get(key, -1) for key in keys], dtype=np.int64)


# ---------------------------------------------------------------------------
# chain-pair reference data (n=3, cliques {1,2},{2,3}, omega=2)

CHAIN_PAIR_ENTRIES = {
    (0, 0, 0): 1.0,
    (1, 0, 0): 0.0, (0, 1, 0): 0.0, (0, 0, 1): 0.0,
    (2, 0, 0): 1.0, (1, 1, 0): 0.0, (0, 2, 0): 0.0, (0, 1, 1): 0.0, (0, 0, 2): 1.0,
    (3, 0, 0): 0.0, (2, 1, 0): 0.0, (1, 2, 0): 0.0, (0, 3, 0): 0.0,
    (0, 2, 1): 0.0, (0, 1, 2): 0.0, (0, 0, 3): 0.0,
    (4, 0, 0): 1.0, (3, 1, 0): 0.0, (2, 2, 0): 0.0, (1, 3, 0): 0.0, (0, 4, 0): 0.0,
    (0, 3, 1): 0.0, (0, 2, 2): 0.0, (0, 1, 3): 0.0, (0, 0, 4): 1.0,
}

# reference matrices in canonical (graded) label order
CHAIN_PAIR_M1 = np.array(
    [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)
CHAIN_PAIR_M2 = np.array(
    [
        [1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)
CHAIN_PAIR_M1_SHIFTED = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
CHAIN_PAIR_M2_SHIFTED = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 1]], dtype=float)
CHAIN_PAIR_OVERLAP = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=float)
CHAIN_PAIR_OVERLAP_SHIFTED = np.array([[1, 0], [0, 0]], dtype=float)

CHAIN_PAIR_ATOMS = np.array(
    [[1, 0, 1], [1, 0, -1], [-1, 0, 1], [-1, 0, -1]], dtype=float
)

# ---------------------------------------------------------------------------
# chain-triple reference data (n=4, cliques {1,2},{2,3},{3,4}, omega=3)
#
# The 10x10 reference moment matrices below are laid out in plain ascending
# tuple order of the local exponents, e.g. for clique variables (u, v):
# 1, v, v^2, v^3, u, u*v, u*v^2, u^2, u^2*v, u^3.

TUPLE_ORDER_LABELS_10 = sorted(local_exponents(2, 3))

CHAIN_TRIPLE_M1 = np.array(
    [
        [1, 0, 1, 0, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 1, 0],
        [1, 0, 1, 0, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 0, 0, 1],
        [1, 0, 1, 0, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 0, 1, 0, 0, 1],
    ],
    dtype=float,
)
CHAIN_TRIPLE_M2 = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)
CHAIN_TRIPLE_M3 = np.array(
    [
        [1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)
CHAIN_TRIPLE_OVERLAP_12 = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
)
CHAIN_TRIPLE_OVERLAP_23 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float
)


def keyed(sub) -> dict:
    """A clique subvector's moments keyed by their local exponent tuples."""
    return dict(zip(local_exponents(len(sub.clique), 2 * sub.omega), sub.moments.tolist()))


def ingest_reference_matrices() -> SparseMomentVector:
    """Rebuild the chain-triple moment vector from the three reference
    matrices, checking that repeated entries are consistent."""
    cover = CliqueCover(4, ((1, 2), (2, 3), (3, 4)))
    matrices = [CHAIN_TRIPLE_M1, CHAIN_TRIPLE_M2, CHAIN_TRIPLE_M3]
    values: dict[tuple, float] = {}
    for i, mat in enumerate(matrices, start=1):
        clique = cover.clique(i)
        for a, la in enumerate(TUPLE_ORDER_LABELS_10):
            for b, lb in enumerate(TUPLE_ORDER_LABELS_10):
                alpha = lift(tuple(x + y for x, y in zip(la, lb)), clique, 4)
                if alpha in values:
                    assert values[alpha] == mat[a, b], f"inconsistent entry at {alpha}"
                else:
                    values[alpha] = float(mat[a, b])
    return SparseMomentVector.build(cover, 3, values)


# ---------------------------------------------------------------------------
# triangle reference data (n=3, cliques {1,2},{2,3},{1,3}, omega=2)

TRIANGLE_ENTRIES = {
    (0, 0, 0): 1.0,
    (1, 0, 0): 0.0, (0, 1, 0): 0.0, (0, 0, 1): 0.0,
    (2, 0, 0): 1.0, (1, 1, 0): 1.0, (0, 2, 0): 1.0,
    (1, 0, 1): -1.0, (0, 1, 1): 1.0, (0, 0, 2): 1.0,
    (3, 0, 0): 0.0, (2, 1, 0): 0.0, (1, 2, 0): 0.0, (0, 3, 0): 0.0,
    (2, 0, 1): 0.0, (0, 2, 1): 0.0, (1, 0, 2): 0.0, (0, 1, 2): 0.0, (0, 0, 3): 0.0,
    (4, 0, 0): 1.0, (3, 1, 0): 1.0, (2, 2, 0): 1.0, (1, 3, 0): 1.0, (0, 4, 0): 1.0,
    (3, 0, 1): -1.0, (0, 3, 1): 1.0, (2, 0, 2): 1.0, (0, 2, 2): 1.0,
    (1, 0, 3): -1.0, (0, 1, 3): 1.0, (0, 0, 4): 1.0,
}

TRIANGLE_CLIQUE_ATOMS = {
    1: (np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([0.5, 0.5])),
    2: (np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([0.5, 0.5])),
    3: (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([0.5, 0.5])),
}


# ---------------------------------------------------------------------------
# random round-trip instances


@st.composite
def shuffled_chain_covers(draw):
    """Chains of 1-5 cliques of widths 1-4, each overlapping the previous one
    in 0 to width - 1 variables (no clique contains another), listed in a
    shuffled order."""
    cliques, start, prev = [], 1, None
    for _ in range(draw(st.integers(1, 5))):
        width = draw(st.integers(1, 4))
        start -= 0 if prev is None else draw(st.integers(0, min(width, prev) - 1))
        cliques.append(tuple(range(start, start + width)))
        start, prev = start + width, width
    return CliqueCover(start - 1, tuple(draw(st.permutations(cliques))))


def random_rip_cover(rng: np.random.Generator, max_cliques=4, max_clique_size=3):
    """Random clique cover satisfying the running intersection property by
    construction: each new clique shares a strict subset of one earlier
    clique and brings at least one fresh variable."""
    m = int(rng.integers(1, max_cliques + 1))
    first = int(rng.integers(1, max_clique_size + 1))
    cliques = [tuple(range(1, first + 1))]
    next_var = first + 1
    for _ in range(1, m):
        parent = cliques[int(rng.integers(0, len(cliques)))]
        k_shared = int(rng.integers(0, min(len(parent) - 1, max_clique_size - 1) + 1))
        shared = sorted(rng.choice(parent, size=k_shared, replace=False).tolist())
        n_new = int(rng.integers(1, max_clique_size - k_shared + 1))
        new = list(range(next_var, next_var + n_new))
        next_var += n_new
        cliques.append(tuple(sorted(shared + new)))
    return CliqueCover(next_var - 1, tuple(cliques))


def random_flat_instance(seed: int, omega: int = 3, max_atoms: int = 3):
    """Cover + global atomic measure + its sparse moment vector; the instance
    is flat at ``omega``.

    Every coordinate is redrawn until it separates every atom pair by at
    least 0.3, keeping all rank decisions far from the tolerance cut (three
    nearby values on a one-variable clique make the shifted moment matrix
    singular to within the rank tolerance).
    """
    rng = np.random.default_rng(seed)
    cover = random_rip_cover(rng)
    r = int(rng.integers(1, max_atoms + 1))
    atoms = np.empty((r, cover.n))
    for k in range(cover.n):
        while True:
            col = rng.choice([-1.0, 1.0], size=r) * rng.uniform(0.4, 1.6, size=r)
            if r == 1 or np.abs(col[:, None] - col[None, :])[~np.eye(r, dtype=bool)].min() >= 0.3:
                atoms[:, k] = col
                break
    weights = rng.uniform(0.2, 1.0, size=r)
    weights /= weights.sum()
    y = moments_of_atoms(cover, omega, atoms, weights)
    return cover, atoms, weights, y


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
