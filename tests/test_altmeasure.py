from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk import altmeasure
from smk.altmeasure import enumerate_extreme_measures, solve_weight_lp
from smk.certify import RankPolicy
from smk.core import CliqueCover, SparseMomentVector, monomial_matrix
from smk.errors import Infeasible
from smk import demo

import gauss_jordan
from conftest import CHAIN_PAIR_ATOMS


def moment_rows(atoms, y):
    """The weight program's matrix, read as the solver reads it: each
    monomial of ``y`` (the rows) at each atom (the columns)."""
    return monomial_matrix(y.index_map.slots, atoms)


def vertex_enumeration_oracle(atoms, y, tol=1e-9):
    """All vertices of {w >= 0 : A w = b} by brute force over column bases."""
    A, b = moment_rows(atoms, y), y.values
    rank = np.linalg.matrix_rank(A, tol=1e-9)
    n = atoms.shape[0]
    vertices = []
    for cols in combinations(range(n), rank):
        sub = A[:, cols]
        if np.linalg.matrix_rank(sub, tol=1e-9) < rank:
            continue
        w_basis, *_ = np.linalg.lstsq(sub, b, rcond=None)
        w = np.zeros(n)
        w[list(cols)] = w_basis
        if np.abs(A @ w - b).max() > tol or w.min() < -tol:
            continue
        if not any(np.abs(w - v).max() <= 1e-8 for v in vertices):
            vertices.append(np.maximum(w, 0.0))
    return vertices


def two_point_product(lows, highs, probs, omega):
    """Atoms and moments of the product of the two-point laws
    ``probs[t]`` at ``highs[t]`` and ``1 - probs[t]`` at ``lows[t]``, on the
    width-2 chain cover of ``len(lows)`` variables."""
    n = len(lows)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1
    atoms = np.where(bits == 1, highs, lows)
    weights = np.prod(np.where(bits == 1, probs, 1.0 - probs), axis=1)
    cover = CliqueCover(n, tuple((t, t + 1) for t in range(1, n)))
    return atoms, demo.moments_of_atoms(cover, omega, atoms, weights)


@st.composite
def product_lps(draw, costs=st.floats(-1.0, 1.0)):
    """A product of two-point laws on a chain of 2 or 3 variables, and a cost
    whose entries are drawn from ``costs``."""
    n = draw(st.integers(2, 3))
    coords = st.lists(st.floats(0.4, 1.2), min_size=n, max_size=n).map(np.array)
    probs = st.lists(st.floats(0.3, 0.7), min_size=n, max_size=n).map(np.array)
    atoms, y = two_point_product(-draw(coords), draw(coords), draw(probs), draw(st.integers(1, 2)))
    cost = draw(st.lists(costs, min_size=2**n, max_size=2**n))
    return atoms, y, np.array(cost)


@st.composite
def redundant_lps(draw):
    """A :func:`product_lps` weight program with 1 to 4 rows appended: copies
    of its own rows, as they are, scaled, or with noise a thousand times
    below or above the elimination tolerance, on the whole row or on its
    right-hand side alone."""
    atoms, y, cost = draw(product_lps())
    A, b = moment_rows(atoms, y), y.values
    tol = RankPolicy().tol(max(1.0, np.abs(A).max(), np.abs(b).max()))
    rows = [np.column_stack([A, b])]
    for _ in range(draw(st.integers(1, 4))):
        row = rows[0][draw(st.integers(0, len(b) - 1))].copy()
        kind = draw(st.sampled_from(["duplicate", "scaled", "noise below", "noise above"]))
        if kind == "scaled":
            row *= draw(st.sampled_from([-2.5, -1.0, 0.5, 3.0]))
        elif kind != "duplicate":
            seed = draw(st.integers(0, 2**16))
            noise = np.random.default_rng(seed).uniform(-1.0, 1.0, len(row))
            if draw(st.booleans()):
                noise[:-1] = 0.0  # the right-hand side alone
            row += noise * tol * (1e-3 if kind == "noise below" else 1e3)
        rows.append(row[None])
    M = np.vstack(rows)
    return M[:, :-1], M[:, -1], cost


@pytest.fixture
def y_pair():
    return demo.chain_pair_moments()


class TestSolveWeightLp:
    def test_first_cost_picks_antidiagonal(self, y_pair):
        cost = np.array([1.0, 0.0, 0.0, 0.0])
        w = solve_weight_lp(CHAIN_PAIR_ATOMS, y_pair, cost)
        assert np.allclose(w, [0.0, 0.5, 0.5, 0.0], atol=1e-8)

    def test_second_cost_picks_diagonal(self, y_pair):
        cost = np.array([0.0, 1.0, 0.0, 0.0])
        w = solve_weight_lp(CHAIN_PAIR_ATOMS, y_pair, cost)
        assert np.allclose(w, [0.5, 0.0, 0.0, 0.5], atol=1e-8)

    def test_general_cost_rule(self, y_pair, rng):
        # cost c selects the diagonal pair exactly when c1+c4 < c2+c3
        for _ in range(20):
            c = rng.standard_normal(4)
            if abs((c[0] + c[3]) - (c[1] + c[2])) < 1e-6:
                continue
            w = solve_weight_lp(CHAIN_PAIR_ATOMS, y_pair, c)
            if c[0] + c[3] < c[1] + c[2]:
                assert np.allclose(w, [0.5, 0.0, 0.0, 0.5], atol=1e-8)
            else:
                assert np.allclose(w, [0.0, 0.5, 0.5, 0.0], atol=1e-8)

    def test_single_atom(self):
        cover_y = demo.moments_of_atoms(
            demo.chain_pair_moments().cover, 2, [[1.0, 0.0, -1.0]], [1.0]
        )
        w = solve_weight_lp(np.array([[1.0, 0.0, -1.0]]), cover_y, np.array([5.0]))
        assert np.allclose(w, [1.0], atol=1e-10)

    def test_zero_cost_returns_vertex(self, y_pair):
        w = solve_weight_lp(CHAIN_PAIR_ATOMS, y_pair, np.zeros(4))
        rank = np.linalg.matrix_rank(moment_rows(CHAIN_PAIR_ATOMS, y_pair), tol=1e-9)
        assert np.count_nonzero(w > 1e-10) <= rank

    def test_infeasible(self, y_pair):
        with pytest.raises(Infeasible, match="inconsistent moment equation"):
            solve_weight_lp(np.array([[0.0, 0.0, 0.0]]), y_pair, np.array([1.0]))

    def test_unbounded_when_the_mass_row_is_below_the_tolerance(self):
        # moments up to 2.5e12 put the mass row's entries of 1 below the
        # elimination tolerance, so nothing bounds the weight of an atom at 0
        cover = CliqueCover(1, ((1,),))
        y = demo.moments_of_atoms(cover, 1, [[1e6], [2e6]], [0.5, 0.5])
        with pytest.raises(Infeasible, match="weight program is unbounded"):
            solve_weight_lp(np.array([[0.0], [1e6], [2e6]]), y, np.array([-1.0, 0.0, 0.0]))

    def test_negative_weights_infeasible(self):
        # atoms 0 and 1 with mean 2 need weights (-1, 2)
        cover = CliqueCover(1, ((1,),))
        y = SparseMomentVector.build(cover, 1, {(0,): 1.0, (1,): 2.0, (2,): 2.0})
        with pytest.raises(Infeasible, match="no nonnegative weights"):
            solve_weight_lp(np.array([[0.0], [1.0]]), y, np.array([1.0, 0.0]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(product_lps())
    def test_optimal_vertex_of_product_measures(self, case):
        atoms, y, cost = case
        w = solve_weight_lp(atoms, y, cost)
        A, b = moment_rows(atoms, y), y.values
        scale = max(1.0, np.abs(b).max())
        assert w.min() >= 0.0
        assert np.abs(A @ w - b).max() <= 1e-9 * scale
        assert np.count_nonzero(w) <= np.linalg.matrix_rank(A, tol=1e-9)
        for v in vertex_enumeration_oracle(atoms, y):
            assert cost @ w <= cost @ v + 1e-9 * scale

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(product_lps(costs=st.sampled_from([-1.0, 0.0, 1.0])))
    def test_optimal_vertex_under_tied_costs(self, case):
        # costs in {-1, 0, 1} tie, so degenerate pivots and the Bland fallback occur
        atoms, y, cost = case
        w = solve_weight_lp(atoms, y, cost)
        A, b = moment_rows(atoms, y), y.values
        scale = max(1.0, np.abs(b).max())
        assert w.min() >= 0.0
        assert np.abs(A @ w - b).max() <= 1e-9 * scale
        for v in vertex_enumeration_oracle(atoms, y):
            assert cost @ w <= cost @ v + 1e-9 * scale

    def test_residual_and_nonnegativity(self, y_pair, rng):
        scale = 1 + max(abs(v) for v in y_pair.entries.values())
        A = moment_rows(CHAIN_PAIR_ATOMS, y_pair)
        for _ in range(10):
            w = solve_weight_lp(CHAIN_PAIR_ATOMS, y_pair, rng.standard_normal(4))
            assert w.min() >= -1e-10
            assert np.abs(A @ w - y_pair.values).max() <= 1e-8 * scale


class TestRowReduce:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(redundant_lps())
    def test_same_row_space_and_optimum_as_gauss_jordan(self, case):
        A, b, cost = case
        policy = RankPolicy()
        scale = max(1.0, np.abs(A).max(), np.abs(b).max())

        def outcome(reduce):
            try:
                return reduce(A, b, policy)
            except Infeasible:
                return None

        blocked, reference = outcome(altmeasure._row_reduce), outcome(gauss_jordan.row_reduce)
        assert (blocked is None) == (reference is None)
        if reference is None:
            return
        rank = len(reference[1])
        assert len(blocked[1]) == rank
        stacked = np.vstack([np.column_stack(blocked), np.column_stack(reference)])
        assert np.linalg.matrix_rank(stacked, tol=policy.tol(scale)) == rank

        def optimum(reduced):
            try:
                start = altmeasure._feasible_start(*reduced, policy)
            except Infeasible:
                return None
            return cost @ altmeasure._optimal_weights(start, cost)

        found, expected = optimum(blocked), optimum(reference)
        assert (found is None) == (expected is None)
        if expected is not None:
            assert abs(found - expected) <= 1e-9 * scale

    def test_pivots_in_every_block(self):
        # 256 atoms make four elimination blocks, and the 16 pivot columns
        # (0-4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192) fall in each
        rng = np.random.default_rng(8)
        atoms, y = two_point_product(
            -rng.uniform(0.4, 1.2, 8), rng.uniform(0.4, 1.2, 8), rng.uniform(0.3, 0.7, 8), 3
        )
        full_A = moment_rows(atoms, y)
        A, b = altmeasure._row_reduce(full_A, y.values, RankPolicy())
        ref_A, ref_b = gauss_jordan.row_reduce(full_A, y.values, RankPolicy())
        assert len(b) == len(ref_b) == np.linalg.matrix_rank(full_A)
        assert np.linalg.matrix_rank(np.vstack([A, ref_A])) == len(b)
        assert all(any(np.array_equal(row, full) for full in full_A) for row in A)


class TestEnumerate:
    def test_chain_pair_two_vertices(self, y_pair):
        found = enumerate_extreme_measures(CHAIN_PAIR_ATOMS, y_pair, budget=20, seed=11)
        expected = vertex_enumeration_oracle(CHAIN_PAIR_ATOMS, y_pair)
        assert len(expected) == 2
        assert len(found) == 2
        for v in expected:
            assert any(np.abs(v - w).max() <= 1e-8 for w in found)

    def test_single_atom(self):
        y = demo.moments_of_atoms(demo.chain_pair_moments().cover, 2, [[1.0, 0.0, -1.0]], [1.0])
        found = enumerate_extreme_measures(np.array([[1.0, 0.0, -1.0]]), y, budget=5, seed=0)
        assert len(found) == 1

    @pytest.mark.parametrize("name", ["chain-triple", "product-4"])
    def test_same_as_one_solve_per_cost(self, name):
        if name == "chain-triple":
            atoms, y = demo.chain_triple_minimizers(), demo.chain_triple_moments()
        else:
            atoms, y = two_point_product(
                -np.array([0.5, 0.9, 1.1, 0.7]), np.array([1.2, 0.6, 0.8, 0.4]),
                np.array([0.3, 0.55, 0.7, 0.45]), 2,
            )
        rng = np.random.default_rng(5)
        expected: list[np.ndarray] = []
        for _ in range(30):
            w = solve_weight_lp(atoms, y, rng.standard_normal(atoms.shape[0]))
            if not any(np.abs(w - v).max() <= 1e-8 for v in expected):
                expected.append(w)
        found = enumerate_extreme_measures(atoms, y, budget=30, seed=5)
        assert len(found) == len(expected) > 1
        for w, v in zip(found, expected):
            assert np.array_equal(w, v)

    def test_chain_triple_mass_and_support(self):
        y = demo.chain_triple_moments()
        atoms = demo.chain_triple_minimizers()
        rank = np.linalg.matrix_rank(moment_rows(atoms, y), tol=1e-9)
        found = enumerate_extreme_measures(atoms, y, budget=50, seed=5)
        assert found
        for w in found:
            assert w.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.count_nonzero(w > 1e-8) <= 8
            assert np.count_nonzero(w > 1e-8) <= rank


class TestSimplexPhase:
    def test_beale_cycling_lp(self):
        # Beale (1955): from the slack basis, the most-negative-reduced-cost
        # rule alone cycles through degenerate bases and never terminates
        A = np.array([
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
        _, x = altmeasure._simplex_phase(A, b, c, [0, 1, 2], 1e-9)
        assert c @ x == pytest.approx(-1.25, abs=1e-12)
        assert np.allclose(x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_pivots_fewer_than_atoms(self, monkeypatch):
        rng = np.random.default_rng(8)
        atoms, y = two_point_product(
            -rng.uniform(0.4, 1.2, 8), rng.uniform(0.4, 1.2, 8), rng.uniform(0.3, 0.7, 8), 3
        )
        calls = []
        pivot = altmeasure._pivot
        monkeypatch.setattr(altmeasure, "_pivot", lambda *args: calls.append(1) or pivot(*args))
        found = enumerate_extreme_measures(atoms, y, budget=2, seed=42)
        assert found
        assert len(calls) < atoms.shape[0] == 256
