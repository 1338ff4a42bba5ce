import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk.core import CliqueCover, CliqueSubvector, SparseMomentVector, clique_subvector, local_exponents, subvector_on
from smk.errors import OrderTooHigh
from smk.matrices import ConstraintPolynomial, block_operator, moment_matrix
from smk import demo

from per_clique import localizing_block, localizing_matrix, overlap_moment_matrix

from conftest import (
    CHAIN_PAIR_M1,
    CHAIN_PAIR_M1_SHIFTED,
    CHAIN_PAIR_M2,
    CHAIN_PAIR_M2_SHIFTED,
    CHAIN_PAIR_OVERLAP,
    CHAIN_PAIR_OVERLAP_SHIFTED,
    CHAIN_TRIPLE_OVERLAP_12,
    CHAIN_TRIPLE_OVERLAP_23,
    TUPLE_ORDER_LABELS_10,
    ingest_reference_matrices,
    keyed,
)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def moment_matrix_reference(y_sub, d):
    """Entry by entry: sum two labels, look the sum up in the subvector."""
    if d < 0 or d > y_sub.omega:
        raise OrderTooHigh(d)
    labels, values = local_exponents(len(y_sub.clique), d), keyed(y_sub)
    data = np.empty((len(labels), len(labels)))
    for a, la in enumerate(labels):
        for b in range(a, len(labels)):
            data[a, b] = data[b, a] = values[_add(la, labels[b])]
    return labels, data


def localizing_matrix_reference(y_sub, g, d):
    """Entry by entry: sum_gamma g_gamma * y[alpha + beta + gamma]."""
    if d < g.d_half or d > y_sub.omega:
        raise OrderTooHigh(d)
    labels, values = local_exponents(len(y_sub.clique), d - g.d_half), keyed(y_sub)
    data = np.empty((len(labels), len(labels)))
    for a, la in enumerate(labels):
        for b in range(a, len(labels)):
            ab = _add(la, labels[b])
            v = 0.0
            for gamma, c in g.coefficients.items():
                if c == 0.0:
                    continue
                v += c * values[_add(ab, gamma)]
            data[a, b] = data[b, a] = v
    return labels, data


def outcome(build, *args):
    """(labels, data) of a matrix, or the type of the error it raises."""
    try:
        result = build(*args)
    except OrderTooHigh:
        return OrderTooHigh, None
    if isinstance(result, tuple):
        return tuple(result[0]), result[1]
    return result.labels, result.data


def assert_same_outcome(got, want):
    assert type(got[0]) is type(want[0])
    if isinstance(want[0], type):
        assert got == want
    else:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


@st.composite
def subvector_cases(draw, max_width=4):
    """A subvector on 0-4 variables with random values and a random
    constraint on the same variables (zero coefficients and constant-only
    constraints included)."""
    width = draw(st.integers(0, max_width))
    omega = draw(st.integers(1, 3 if width <= 2 else 2))
    local = local_exponents(width, 2 * omega)
    value = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])
    moments = [draw(value) for _ in local]
    coef = st.sampled_from([0.0, 1.0, -1.0, 3.0, 0.1]) | st.floats(-4.0, 4.0, allow_nan=False)
    constant_only = draw(st.booleans())
    exps = st.just((0,) * width) if constant_only else st.sampled_from(local)
    g = ConstraintPolynomial(tuple(range(1, width + 1)), draw(st.dictionaries(exps, coef, max_size=5)))
    return CliqueSubvector(tuple(range(1, width + 1)), omega, moments), g


def check_against_references(sub, g):
    for d in range(-1, sub.omega + 2):
        assert_same_outcome(outcome(moment_matrix, sub, d), outcome(moment_matrix_reference, sub, d))
        assert_same_outcome(
            outcome(localizing_matrix, sub, g, d), outcome(localizing_matrix_reference, sub, g, d)
        )


class TestCompiledGather:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(subvector_cases())
    def test_equals_entrywise_reference(self, case):
        check_against_references(*case)



class TestCompiledBlockCache:
    BALL = {(0, 0): 4.0, (2, 0): -1.0, (0, 2): -1.0}

    @pytest.mark.parametrize("g", [None, ConstraintPolynomial((1, 2), BALL)])
    def test_compiled_arrays_are_read_only(self, g):
        labels, *arrays = block_operator(2, 2, g)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_equal_constraints_on_different_cliques_share_one_operator(self):
        on_12 = ConstraintPolynomial((1, 2), self.BALL)
        on_34 = ConstraintPolynomial((3, 4), self.BALL | {(1, 1): 0.0})  # a zero term is no term
        assert block_operator(2, 3, on_12) is block_operator(2, 3, on_34)
        assert block_operator(2, 3) is block_operator(2, 3)

    def test_other_coefficients_get_their_own_operator(self):
        ball = ConstraintPolynomial((1, 2), self.BALL)
        wider = ConstraintPolynomial((1, 2), self.BALL | {(0, 0): 9.0})
        assert block_operator(2, 3, ball) is not block_operator(2, 3, wider)
        assert not np.array_equal(block_operator(2, 3, ball)[3], block_operator(2, 3, wider)[3])


def subvector_of_point(z, omega):
    """Dense moment subvector of a unit point mass, by direct evaluation."""
    z = tuple(z)
    moments = [
        float(np.prod([c**e for c, e in zip(z, alpha)])) for alpha in local_exponents(len(z), 2 * omega)
    ]
    return CliqueSubvector(tuple(range(1, len(z) + 1)), omega, moments)


def moment_matrix_oracle(points, weights, omega):
    """Weighted sum of outer products of monomial evaluation vectors."""
    labels = local_exponents(len(points[0]), omega)
    M = np.zeros((len(labels), len(labels)))
    for z, w in zip(points, weights):
        v = np.array([np.prod([c**e for c, e in zip(z, a)]) for a in labels])
        M += w * np.outer(v, v)
    return M


@pytest.fixture
def y_pair():
    return demo.chain_pair_moments()


@pytest.fixture
def y_triple():
    return demo.chain_triple_moments()


class TestMomentMatrix:
    def test_chain_pair_printed_matrices(self, y_pair):
        M1 = moment_matrix(clique_subvector(y_pair, 1), 2)
        M2 = moment_matrix(clique_subvector(y_pair, 2), 2)
        assert np.array_equal(M1.data, CHAIN_PAIR_M1)
        assert np.array_equal(M2.data, CHAIN_PAIR_M2)
        assert np.array_equal(moment_matrix(clique_subvector(y_pair, 1), 1).data, CHAIN_PAIR_M1_SHIFTED)
        assert np.array_equal(moment_matrix(clique_subvector(y_pair, 2), 1).data, CHAIN_PAIR_M2_SHIFTED)

    def test_overlap_at_low_order(self, y_pair):
        sub = subvector_on(y_pair, (2,))
        assert np.array_equal(moment_matrix(sub, 1).data, CHAIN_PAIR_OVERLAP_SHIFTED)

    def test_point_mass(self):
        sub = subvector_of_point((1.0, 2.0), 1)
        M = moment_matrix(sub, 1)
        assert np.allclose(M.data, [[1, 1, 2], [1, 1, 2], [2, 2, 4]])
        assert np.allclose(M.data, moment_matrix_oracle([(1.0, 2.0)], [1.0], 1))

    def test_labels_graded(self, y_pair):
        M = moment_matrix(clique_subvector(y_pair, 1), 2)
        assert M.labels == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_principal_submatrix(self, y_triple):
        sub = clique_subvector(y_triple, 1)
        M3 = moment_matrix(sub, 3)
        M2 = moment_matrix(sub, 2)
        k = M2.size
        assert np.array_equal(M3.data[:k, :k], M2.data)

    def test_order_too_high(self, y_pair):
        with pytest.raises(OrderTooHigh):
            moment_matrix(clique_subvector(y_pair, 1), 3)

    def test_psd_for_random_atomic_measures(self, rng):
        for _ in range(20):
            r = rng.integers(1, 4)
            points = rng.standard_normal((r, 2))
            weights = rng.uniform(0.1, 1.0, r)
            moments = [
                float(sum(w * np.prod(p ** np.array(a)) for p, w in zip(points, weights)))
                for a in local_exponents(2, 4)
            ]
            sub = CliqueSubvector((1, 2), 2, moments)
            M = moment_matrix(sub, 2)
            eigs = np.linalg.eigvalsh(M.data)
            assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])
            assert np.allclose(M.data, moment_matrix_oracle(points, weights, 2))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_constraint_coefficient_is_refused(value):
    # through the library a NaN coefficient reached the bundled solver's
    # factorization, which failed on it untyped
    message = f"coefficient {value!r} at exponent (2, 0) is not a finite number"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): value})


@pytest.mark.parametrize("alpha", [(-1, 0), (1.5, 0), (True, 0), (0, float("nan")), (0, "2")])
def test_exponent_that_is_not_a_nonnegative_integer_is_refused(alpha):
    # a negative exponent wrapped round the local order and 1.5 was read as 1,
    # so either built the block of another polynomial
    with pytest.raises(ValueError, match=re.escape(f"in {alpha} is not a nonnegative integer")):
        ConstraintPolynomial((1, 2), {alpha: 1.0, (0, 0): 1.0})


def test_integral_exponents_are_stored_as_ints():
    g = ConstraintPolynomial((1, 2), {(0.0, 0.0): 3.0, (2.0, 0.0): -1.0, (np.int64(0), 2): -1.0})
    assert list(g.coefficients) == [(0, 0), (2, 0), (0, 2)]
    assert {type(e) for a in g.coefficients for e in a} == {int}
    assert g((1.0, -1.0)) == 1.0


def test_point_of_the_wrong_length_is_refused():
    # a point has one coordinate per variable; cut to fit, a short one would read x2^2 as 1
    g = ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0})
    assert g((1.0, -1.0)) == 1.0
    for z in ((1.0,), (1.0, -1.0, 5.0)):
        with pytest.raises(ValueError):
            g(z)


class TestLocalizing:
    def test_triple_fixture_block(self, y_triple):
        g = ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0})
        L = localizing_matrix(clique_subvector(y_triple, 1), g, 3)
        assert L.size == 6
        assert L.data[0, 0] == 1.0  # 3 - E[x1^2] - E[x2^2] = 3 - 1 - 1
        # oracle: sum over atoms of g(z) * outer(monomials(z))
        atoms = np.array([[1, 1], [1, -1], [-1, -1], [-1, 1]], dtype=float)
        labels = local_exponents(2, 2)
        expect = np.zeros((6, 6))
        for z in atoms:
            v = np.array([np.prod(z ** np.array(a)) for a in labels])
            expect += 0.25 * g(z) * np.outer(v, v)
        assert np.allclose(L.data, expect)

    def test_vanishing_on_support(self):
        # g(z) = 0 at the single atom makes every entry vanish
        z = (0.5, -2.0)
        g = ConstraintPolynomial((1, 2), {(1, 0): 2.0, (0, 0): -1.0})  # 2*x - 1
        assert abs(g(z)) < 1e-15
        L = localizing_matrix(subvector_of_point(z, 2), g, 2)
        assert np.allclose(L.data, 0.0)

    def test_point_mass_with_coordinate_constraint(self):
        # g = first coordinate; at order 2 the labels have degree <= 1 and the
        # result is g(z) times the order-1 moment matrix of the point
        sub = subvector_of_point((1.0, 2.0), 2)
        g = ConstraintPolynomial((1, 2), {(1, 0): 1.0})
        L = localizing_matrix(sub, g, 2)
        assert np.allclose(L.data, [[1, 1, 2], [1, 1, 2], [2, 2, 4]])

    def test_below_minimal_order(self):
        sub = subvector_of_point((1.0, 2.0), 2)
        g = ConstraintPolynomial((1, 2), {(1, 0): 1.0})
        with pytest.raises(OrderTooHigh):
            localizing_matrix(sub, g, 0)

    def test_above_relaxation_order(self):
        sub = subvector_of_point((1.0, 2.0), 2)
        g = ConstraintPolynomial((1, 2), {(1, 0): 1.0})
        with pytest.raises(OrderTooHigh):
            localizing_matrix(sub, g, 3)

    def test_psd_when_g_nonnegative_on_support(self, rng):
        for _ in range(10):
            points = rng.uniform(-1.0, 1.0, (3, 2))
            weights = rng.uniform(0.1, 1.0, 3)
            g = ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0})
            assert all(g(z) >= 0 for z in points)
            moments = [
                float(sum(w * np.prod(p ** np.array(a)) for p, w in zip(points, weights)))
                for a in local_exponents(2, 4)
            ]
            L = localizing_matrix(CliqueSubvector((1, 2), 2, moments), g, 2)
            eigs = np.linalg.eigvalsh(L.data)
            assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])

    def test_block_single_equals_matrix(self, y_triple):
        sub = clique_subvector(y_triple, 1)
        g = ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0})
        blk = localizing_block(sub, [g], 3)
        assert np.array_equal(blk.data, localizing_matrix(sub, g, 3).data)

    def test_block_two_copies(self, y_triple):
        sub = clique_subvector(y_triple, 1)
        g = ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0})
        blk = localizing_block(sub, [g, g], 3)
        one = localizing_matrix(sub, g, 3).data
        assert blk.size == 12
        assert np.array_equal(blk.data[:6, :6], one)
        assert np.array_equal(blk.data[6:, 6:], one)
        assert np.all(blk.data[:6, 6:] == 0)
        assert len(set(blk.labels)) == 12

    def test_block_empty(self, y_triple):
        blk = localizing_block(clique_subvector(y_triple, 1), [], 3)
        assert blk.size == 0


class TestOverlap:
    def test_chain_pair(self, y_pair):
        O = overlap_moment_matrix(y_pair, 1, 2, 2)
        assert np.array_equal(O.data, CHAIN_PAIR_OVERLAP)
        assert O.variables == (2,)

    def test_chain_triple_reference(self, y_triple):
        assert np.array_equal(overlap_moment_matrix(y_triple, 1, 2, 3).data, CHAIN_TRIPLE_OVERLAP_12)
        assert np.array_equal(overlap_moment_matrix(y_triple, 2, 3, 3).data, CHAIN_TRIPLE_OVERLAP_23)

    def test_disjoint_cliques(self):
        cover = CliqueCover(4, ((1, 2), (3, 4)))
        y = SparseMomentVector.build(cover, 2, {(0, 0, 0, 0): 3.0}, allow_missing_as_zero=True)
        O = overlap_moment_matrix(y, 1, 2, 2)
        assert O.size == 1
        assert O.data[0, 0] == 3.0
        assert O.labels == ((),)

    def test_symmetry_and_subvector_identity(self, y_triple):
        a = overlap_moment_matrix(y_triple, 1, 2, 2)
        b = overlap_moment_matrix(y_triple, 2, 1, 2)
        assert np.array_equal(a.data, b.data)
        sub = subvector_on(y_triple, (2,))
        assert np.array_equal(a.data, moment_matrix(sub, 2).data)


def test_reference_matrix_ingestion_matches_demo():
    y_ref = ingest_reference_matrices()
    assert y_ref.entries == demo.chain_triple_moments().entries


def test_reference_label_order_is_plain_tuple_sort():
    assert TUPLE_ORDER_LABELS_10[:4] == [(0, 0), (0, 1), (0, 2), (0, 3)]
