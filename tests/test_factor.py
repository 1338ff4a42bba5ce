"""The inverse factor of the bundled solver's normal matrix and of random
positive definite matrices dense on each clique, against a dense solve of the
same matrix, and the plan's elimination tree against Liu's loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk import demo, factor
from smk.core import CliqueCover, index_map_of
from smk.errors import SolverDiverged
from smk.factor import Pattern, inverse_factor, plan
from smk.matrices import ConstraintPolynomial
from smk.relax import PopProblem, SdpBlock, SdpInstance, build_relaxation, normal_matrix, solve_sdp_bundled

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
    got = inverse_factor(*normal_matrix(instance)[1:]).solve(b)
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
    assert normal_matrix(inst)[1].fronts == 3  # one per clique
    assert_solves_like_dense(inst, omega)


def test_triangle_has_no_clique_tree_and_one_front():
    inst = build_relaxation(ball_pop(CliqueCover(3, ((1, 2), (2, 3), (1, 3)))), 2)
    assert normal_matrix(inst)[1].fronts == 1
    assert_solves_like_dense(inst, 0)


@pytest.mark.parametrize("cliques,fronts", [
    (((1, 2), (3, 4), (2, 3)), 3),  # the given order fails the running intersection property
    (((1, 2), (3, 4)), 2),  # two connected parts
    (((1,), (1, 2), (2, 3)), 2),  # clique {1} holds no moment that {1, 2} does not
])
def test_covers_out_of_order_apart_or_nested(cliques, fronts):
    inst = build_relaxation(ball_pop(CliqueCover(max(map(max, cliques)), cliques)), 2)
    assert normal_matrix(inst)[1].fronts == fronts
    assert_solves_like_dense(inst, 1)


def test_moment_no_block_reads_gets_a_front_of_its_own():
    # y_2 appears in no block: its row of AᵀA is empty but for 1e-12
    block = SdpBlock(1, "moment", None, 1, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]))
    inst = SdpInstance(CliqueCover(1, ((1,),)), 1, ((0,), (1,), (2,)), np.zeros(3), (block,))
    assert normal_matrix(inst)[1].fronts == 2
    assert_solves_like_dense(inst, 2)


def test_inverse_factor_stays_sparse_on_a_long_chain():
    # 100 width-3 cliques, 3004 free moments: the dissection order keeps
    # 19,712 entries of W, the canonical order 252,952
    inst = build_relaxation(ball_chain(100, 0), 2)
    inverse = inverse_factor(*normal_matrix(inst)[1:])
    assert inverse.value.size <= 40_000
    b = np.random.default_rng(3).standard_normal(inst.num_vars - 1)
    x = inverse.solve(b)
    assert np.linalg.norm(normal_product(inst, x) - b) <= 1e-12 * np.linalg.norm(b)


def test_one_plan_per_pattern():
    pop = demo.chain_triple_pop()
    other = PopProblem(pop.cover, ({(2, 0): 5.0}, {}, {}), pop.constraints)
    assert normal_matrix(build_relaxation(pop, 3))[1] is normal_matrix(build_relaxation(other, 3))[1]


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


def random_rip_cover(rng):
    """Up to seven cliques, each sharing a nonempty part of an earlier clique
    or nothing (a new connected part) and adding up to two new variables (none
    makes it nested in the earlier one), listed in a random order."""
    cliques, n = [], 0
    for _ in range(rng.integers(1, 8)):
        shared = []
        if cliques and rng.random() < 0.8:
            host = cliques[rng.integers(len(cliques))]
            shared = rng.choice(host, size=rng.integers(1, len(host) + 1), replace=False).tolist()
        new = int(rng.integers(0 if shared else 1, 3))
        cliques.append(tuple(sorted(shared + list(range(n + 1, n + 1 + new)))))
        n += new
    return CliqueCover(n, tuple(cliques[i] for i in rng.permutation(len(cliques))))


def dense_per_clique(cover, rng):
    """The moments of degree at most 2 on ``cover`` and one moment no clique
    reads, each read by the cliques holding its support, and the random
    positive definite matrix sum_c B_c B_cᵀ + I, each B_c dense on clique c's
    moments: its pattern and the dense matrix."""
    exponents = np.array(index_map_of(cover, 2).exponents)
    support = [set(np.flatnonzero(e) + 1) for e in exponents]
    reads = np.array([[s <= set(c) for c in cover.cliques] for s in support] + [[False] * cover.m])
    size = len(reads)
    H = np.eye(size)
    for c in range(cover.m):
        moments = np.flatnonzero(reads[:, c])
        B = rng.standard_normal((moments.size, moments.size))
        H[np.ix_(moments, moments)] += B @ B.T
    meet = (reads.astype(int) @ reads.T.astype(int) > 0) | np.eye(size, dtype=bool)
    row, column = np.nonzero(np.tril(meet))
    read, reader = np.nonzero(reads)
    return Pattern(size, row, column, read, reader + 1), H


@pytest.mark.parametrize("seed", range(40))
def test_solve_matches_dense_reference_dense_per_clique(seed):
    rng = np.random.default_rng(seed)
    cover = random_rip_cover(rng) if seed else CliqueCover(3, ((1, 2), (2, 3), (1, 3)))  # seed 0: the triangle
    pattern, H = dense_per_clique(cover, rng)
    p = plan(cover, pattern)
    if not seed:
        assert p.fronts == 1
    b = rng.standard_normal(pattern.size)
    got, reference = inverse_factor(p, H[pattern.row, pattern.column]).solve(b), np.linalg.solve(H, b)
    assert np.linalg.norm(got - reference) <= 1e-10 * np.linalg.norm(reference)


def elimination_tree(hi, hj, size):
    """Parent of each position in the elimination tree of the strictly lower
    pattern (hi, hj), sorted by row (Liu 1986, with path compression); -1 at
    a root. The reference for the plan's symbolic factorization."""
    parent, ancestor = [-1] * size, [-1] * size
    for i, j in zip(hi.tolist(), hj.tolist()):
        while ancestor[j] not in (-1, i):
            ancestor[j], j = i, ancestor[j]
        if ancestor[j] < 0:
            ancestor[j] = parent[j] = i
    return np.array(parent)


def liu_parents(cover, pattern):
    """Each unknown's parent in the elimination tree of ``pattern`` in the
    plan's elimination order, by Liu's loop, in canonical numbering."""
    order, _ = factor._elimination_order(cover, pattern)
    position = np.argsort(order)
    i, j = position[pattern.row], position[pattern.column]
    hi, hj = np.maximum(i, j), np.minimum(i, j)
    by_row = np.lexsort((hj[hi > hj], hi[hi > hj]))
    parent = elimination_tree(hi[hi > hj][by_row], hj[hi > hj][by_row], pattern.size)
    out = np.full(pattern.size, -1)
    out[order[parent >= 0]] = order[parent[parent >= 0]]
    return out


def plan_parents(p):
    """Each unknown's parent read off W's structure: the ancestor with one
    ancestor fewer."""
    above = np.bincount(p.w_column, minlength=p.size) - 1  # ancestors of each column
    out = np.full(p.size, -1)
    step = (p.w_row != p.w_column) & (above[p.w_row] == above[p.w_column] - 1)
    out[p.w_column[step]] = p.w_row[step]
    return out


def corpus():
    """Ball chains of 1 to 100 cliques, the chain triple at orders 2 to 4, the
    covers above (the triangle, out of order, apart, nested) and the unread moment."""
    yield from (build_relaxation(ball_chain(m, s), 2) for m in (1, 5, 16, 100) for s in (0, 1))
    yield from (build_relaxation(demo.chain_triple_pop(), omega) for omega in (2, 3, 4))
    for cliques in [((1, 2), (2, 3), (1, 3)), ((1, 2), (3, 4), (2, 3)), ((1, 2), (3, 4)), ((1,), (1, 2), (2, 3))]:
        yield build_relaxation(ball_pop(CliqueCover(max(map(max, cliques)), cliques)), 2)
    block = SdpBlock(1, "moment", None, 1, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]))
    yield SdpInstance(CliqueCover(1, ((1,),)), 1, ((0,), (1,), (2,)), np.zeros(3), (block,))


def test_elimination_tree_is_liu_loop_on_relaxations():
    for inst in corpus():
        pattern, p, _ = normal_matrix(inst)
        assert (plan_parents(p) == liu_parents(inst.cover, pattern)).all()


@pytest.mark.parametrize("seed", range(1, 40))
def test_elimination_tree_is_liu_loop_dense_per_clique(seed):
    rng = np.random.default_rng(seed)
    cover = random_rip_cover(rng)
    pattern, _ = dense_per_clique(cover, rng)
    assert (plan_parents(plan(cover, pattern)) == liu_parents(cover, pattern)).all()
