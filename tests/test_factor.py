"""The inverse factor of the bundled solver's normal matrix, against a dense
solve of the same matrix kept here as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk import demo
from smk.core import CliqueCover
from smk.errors import SolverDiverged
from smk.factor import inverse_factor, plan_of
from smk.matrices import ConstraintPolynomial
from smk.relax import PopProblem, SdpBlock, SdpInstance, build_relaxation, solve_sdp_bundled

from test_relax import ball_chain, ball_pops


def dense_normal_matrix(instance):
    """AᵀA + 1e-12 I, dense, for A the operator without its constant column."""
    row, column, coefficient = instance.operator
    A = np.zeros((instance.offsets[-1], instance.num_vars))
    np.add.at(A, (row, column), coefficient)
    A = A[:, 1:]
    return A.T @ A + 1e-12 * np.eye(A.shape[1])


def normal_product(instance, x):
    """(AᵀA + 1e-12 I) x, one operator term at a time."""
    row, column, coefficient = instance.operator
    values = np.concatenate([[0.0], x])
    Ax = np.zeros(instance.offsets[-1])
    np.add.at(Ax, row, coefficient * values[column])
    out = np.zeros(instance.num_vars)
    np.add.at(out, column, coefficient * Ax[row])
    return out[1:] + 1e-12 * x


def assert_solves_like_dense(instance, seed):
    H = dense_normal_matrix(instance)
    b = np.random.default_rng(seed).standard_normal(H.shape[0])
    got = inverse_factor(instance).solve(b)
    reference = np.linalg.solve(H, b)
    assert np.linalg.norm(H @ got - b) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(got - reference) <= 1e-12 * np.linalg.norm(reference)


def ball_pop(cover):
    """A ball constraint and the objective x_first^2 on every clique."""
    constraints, objectives = [], []
    for clique in cover.cliques:
        width = len(clique)
        ball = {(0,) * width: float(width + 1)}
        ball.update({tuple(2 * (s == t) for s in range(width)): -1.0 for t in range(width)})
        constraints.append((ConstraintPolynomial(clique, ball),))
        objectives.append({(2,) + (0,) * (width - 1): 1.0})
    return PopProblem(cover, tuple(objectives), tuple(constraints))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ball_pops(), st.integers(0, 2**32 - 1))
def test_solve_matches_dense_reference_on_ball_chains(case, seed):
    assert_solves_like_dense(build_relaxation(*case), seed)


@pytest.mark.parametrize("omega", [2, 3, 4])
def test_solve_matches_dense_reference_on_the_chain_triple(omega):
    inst = build_relaxation(demo.chain_triple_pop(), omega)
    assert plan_of(inst).fronts == 3  # one per clique
    assert_solves_like_dense(inst, omega)


def test_triangle_has_no_clique_tree_and_one_front():
    inst = build_relaxation(ball_pop(CliqueCover(3, ((1, 2), (2, 3), (1, 3)))), 2)
    assert plan_of(inst).fronts == 1
    assert_solves_like_dense(inst, 0)


@pytest.mark.parametrize("cliques,fronts", [
    (((1, 2), (3, 4), (2, 3)), 3),  # the given order fails the running intersection property
    (((1, 2), (3, 4)), 2),  # two connected parts
    (((1,), (1, 2), (2, 3)), 2),  # clique {1} holds no moment that {1, 2} does not
])
def test_covers_out_of_order_apart_or_nested(cliques, fronts):
    inst = build_relaxation(ball_pop(CliqueCover(max(map(max, cliques)), cliques)), 2)
    assert plan_of(inst).fronts == fronts
    assert_solves_like_dense(inst, 1)


def test_moment_no_block_reads_gets_a_front_of_its_own():
    # y_2 appears in no block: its row of AᵀA is empty but for 1e-12
    block = SdpBlock(1, "moment", None, 1, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]))
    inst = SdpInstance(CliqueCover(1, ((1,),)), 1, ((0,), (1,), (2,)), np.zeros(3), (block,))
    assert plan_of(inst).fronts == 2
    assert_solves_like_dense(inst, 2)


def test_inverse_factor_stays_sparse_on_a_long_chain():
    # 100 width-3 cliques, 3004 free moments: the dissection order keeps
    # 19,712 entries of W, the canonical order 252,952
    inst = build_relaxation(ball_chain(100, 0), 2)
    factor = inverse_factor(inst)
    assert factor.value.size <= 40_000
    b = np.random.default_rng(3).standard_normal(inst.num_vars - 1)
    x = factor.solve(b)
    assert np.linalg.norm(normal_product(inst, x) - b) <= 1e-12 * np.linalg.norm(b)


def test_one_plan_per_pattern():
    pop = demo.chain_triple_pop()
    other = PopProblem(pop.cover, ({(2, 0): 5.0}, {}, {}), pop.constraints)
    assert plan_of(build_relaxation(pop, 3)) is plan_of(build_relaxation(other, 3))


def test_normal_matrix_that_overflows_raises_typed():
    block = SdpBlock(1, "moment", None, 1, np.array([0]), np.array([1]), np.array([1e200]))
    inst = SdpInstance(CliqueCover(1, ((1,),)), 1, ((0,), (1,)), np.zeros(2), (block,))
    with pytest.raises(SolverDiverged, match="normal matrix AᵀA is not finite"):
        solve_sdp_bundled(inst)


def test_numerically_singular_normal_matrix_raises_typed():
    # y_1 and y_2 only ever appear summed: AᵀA = 1e8 [[1, 1], [1, 1]], whose
    # 1e-12 regularization is below its rounding error
    block = SdpBlock(1, "moment", None, 1, np.array([0, 0]), np.array([1, 2]), np.array([1e4, 1e4]))
    inst = SdpInstance(CliqueCover(1, ((1,),)), 1, ((0,), (1,), (2,)), np.zeros(3), (block,))
    with pytest.raises(SolverDiverged, match="normal matrix AᵀA is numerically singular"):
        solve_sdp_bundled(inst)
