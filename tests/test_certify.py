import json

import numpy as np
import pytest

from smk.certify import (
    RankPolicy,
    ZeroPropagation,
    certify,
    _ranks_and_gaps,
    d_half,
    zero_propagation_check,
)
from smk.core import CliqueCover, SparseMomentVector, clique_subvector
from smk.errors import NonFiniteMoment, SmkError, ZeroVector
from smk.matrices import ConstraintPolynomial, LabeledSymMatrix, moment_matrix
from smk.rip import RipWitnesses, check_rip
from smk import demo, io

import per_clique
from conftest import random_flat_instance
from per_clique import eig_range, overlap_moment_matrix, psd


def labeled(data, variables=(1,)):
    data = np.asarray(data, dtype=float)
    labels = tuple((k,) for k in range(data.shape[0]))
    return LabeledSymMatrix(variables, labels, data)


def rank(M, policy=RankPolicy()):
    """The numerical rank that ``certify`` decides for ``M``."""
    return _ranks_and_gaps(M.data[None], policy)[0][0]


@pytest.fixture
def y_pair():
    return demo.chain_pair_moments()


@pytest.fixture
def y_triple():
    return demo.chain_triple_moments()


class TestNumericalRank:
    def test_chain_pair_overlap(self, y_pair):
        assert rank(overlap_moment_matrix(y_pair, 1, 2, 2)) == 1

    def test_zero_matrix(self):
        assert rank(labeled(np.zeros((3, 3)))) == 0

    def test_empty_matrix(self):
        assert rank(LabeledSymMatrix((1,), (), np.zeros((0, 0)))) == 0

    def test_chain_triple_first_clique(self, y_triple):
        assert rank(moment_matrix(clique_subvector(y_triple, 1), 3)) == 4

    def test_permutation_invariance(self, rng):
        A = rng.standard_normal((6, 3))
        M = A @ A.T
        perm = rng.permutation(6)
        assert rank(labeled(M)) == rank(labeled(M[np.ix_(perm, perm)])) == 3

    def test_rounding_policy(self):
        M = labeled([[1.0, 0.0], [0.0, 1e-5]])
        assert rank(M, RankPolicy()) == 2
        assert rank(M, RankPolicy(round_decimals=4)) == 1


def test_d_half():
    deg2 = ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0})
    deg5 = ConstraintPolynomial((1,), {(5,): 1.0})
    assert d_half([deg2]) == 1
    assert d_half([]) == 1
    assert d_half([deg5]) == 3
    assert d_half([deg2, deg5]) == 3


class TestCertify:
    def test_chain_pair(self, y_pair):
        wit = check_rip(y_pair.cover)
        cert = certify(y_pair, ((), ()), wit)
        assert cert.verdict
        assert [(c.rank_full, c.rank_shifted) for c in cert.cliques] == [(2, 2), (2, 2)]
        assert cert.overlap_at(2).rank_full == 1
        assert cert.overlap_at(2).rank_shifted == 1
        assert cert.overlap_at(2).witness_j == 1
        assert cert.rank_lower_bound_r == 2

    def test_chain_triple(self, y_triple):
        pop = demo.chain_triple_pop()
        cert = certify(y_triple, pop.constraints, check_rip(y_triple.cover))
        assert cert.verdict
        assert [c.rank_full for c in cert.cliques] == [4, 2, 2]
        assert [c.rank_shifted for c in cert.cliques] == [4, 2, 2]
        assert [(o.rank_full, o.rank_shifted) for o in cert.overlaps] == [(2, 2), (1, 1)]
        assert all(c.psd_localizing for c in cert.cliques)
        assert cert.rank_lower_bound_r == 4

    def test_point_mass_flat_at_order_one(self):
        cover = CliqueCover(2, ((1, 2),))
        y = demo.moments_of_atoms(cover, 1, [[0.0, 0.0]], [1.0])
        cert = certify(y, ((),), check_rip(cover))
        assert cert.verdict
        assert cert.cliques[0].rank_full == cert.cliques[0].rank_shifted == 1

    def test_zero_vector_rejected(self, y_pair):
        zero = SparseMomentVector.build(y_pair.cover, 2, {}, allow_missing_as_zero=True)
        with pytest.raises(ZeroVector):
            certify(zero, ((), ()), check_rip(y_pair.cover))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_moment_refused(self, y_triple, bad):
        values = y_triple.values.copy()
        values[-1] = bad  # x4^6, a moment of clique 3 alone
        y = SparseMomentVector.on_index_map(y_triple.cover, y_triple.omega, y_triple.index_map, values)
        pop = demo.chain_triple_pop()
        with pytest.raises(NonFiniteMoment, match=rf"clique 3: the moment at \(0, 0, 0, 6\) is {bad}"):
            certify(y, pop.constraints, check_rip(y.cover))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_moment_file_refused(self, tmp_path, token):
        doc = io.moment_vector_to_dict(demo.chain_triple_moments())
        k = [e["alpha"] for e in doc["entries"]].index([1, 1, 0, 0])  # in clique 1 alone
        doc["entries"][k]["value"] = float(token)
        text = json.dumps(doc)
        assert f'"value": {token}' in text
        path = tmp_path / "y.json"
        path.write_text(text)
        y = io.load_moment_vector(path)
        assert io._read_table(text, False) is not None
        pop = demo.chain_triple_pop()
        with pytest.raises(NonFiniteMoment, match=r"clique 1: the moment at \(1, 1, 0, 0\)"):
            certify(y, pop.constraints, check_rip(y.cover))

    def test_gap_fields(self, y_pair):
        cert = certify(y_pair, ((), ()), check_rip(y_pair.cover))
        for c in cert.cliques:
            kept, dropped = c.gap_full
            assert kept > dropped >= 0.0
            lo, hi = c.eig_range
            assert lo >= -1e-12 and hi == pytest.approx(2.0)  # top eigenvalue of both matrices

    def test_localizing_failure_flips_verdict(self, y_triple):
        # constraint that is violated on the support: x2^2 - 2 <= 0 at x2=+-1
        bad = ConstraintPolynomial((1, 2), {(0, 2): 1.0, (0, 0): -2.0})
        cert = certify(y_triple, ((bad,), (), ()), check_rip(y_triple.cover))
        assert not cert.cliques[0].psd_localizing
        assert not cert.verdict

    def test_round_trip_random_instances(self):
        for seed in range(25):
            cover, atoms, weights, y = random_flat_instance(seed)
            cert = certify(y, tuple(() for _ in range(cover.m)), check_rip(cover))
            assert cert.verdict, f"seed {seed}: {cert.to_dict()}"

    def test_round_trip_with_ball_constraints(self):
        for seed in range(10):
            cover, atoms, weights, y = random_flat_instance(seed + 500)
            constraints = tuple(
                (
                    ConstraintPolynomial(
                        cover.clique(i),
                        {(0,) * len(cover.clique(i)): 25.0}
                        | {
                            tuple(2 if k == j else 0 for k in range(len(cover.clique(i)))): -1.0
                            for j in range(len(cover.clique(i)))
                        },
                    ),
                )
                for i in range(1, cover.m + 1)
            )
            cert = certify(y, constraints, check_rip(cover))
            assert cert.verdict, f"seed {seed}"
            assert all(c.psd_localizing for c in cert.cliques)


class TestRankPolicy:
    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1.0, 2.0, float("nan"), float("inf")])
    def test_rel_tol_outside_the_unit_interval_is_refused(self, rel_tol):
        # a cut at or above the largest singular value would make every rank 0
        with pytest.raises(ValueError, match=r"rel_tol must lie in \(0, 1\)"):
            RankPolicy(rel_tol=rel_tol)

    def test_negative_round_decimals_is_refused(self):
        with pytest.raises(ValueError, match="round_decimals"):
            RankPolicy(round_decimals=-1)

    @pytest.mark.parametrize(
        "policy", [RankPolicy(), RankPolicy(rel_tol=1e-4), RankPolicy(round_decimals=3)]
    )
    def test_tol_on_an_array_is_tol_per_entry(self, policy):
        scale = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -7.25, 1e300, np.nan, np.inf, -np.inf])
        rounding = 0.0 if policy.round_decimals is None else 10.0 ** -policy.round_decimals
        unit = max(policy.rel_tol, rounding)
        formula = np.array([unit * max(1.0, abs(s)) for s in scale.tolist()])  # max(1.0, nan) is 1.0
        per_entry = np.array([policy.tol(s) for s in scale.tolist()])
        assert per_entry.tobytes() == formula.tobytes()
        assert policy.tol(scale).tobytes() == per_entry.tobytes()
        grid = scale.reshape(3, 4)
        assert policy.tol(grid).tobytes() == per_entry.reshape(3, 4).tobytes()

    def test_psd_cut_is_relative_to_the_top_eigenvalue(self):
        policy = RankPolicy(rel_tol=1e-6)
        assert policy.psd(-0.9e-6, 0.5) and not policy.psd(-1.1e-6, 0.5)
        assert policy.psd(-0.9e-4, 100.0) and not policy.psd(-1.1e-4, 100.0)
        assert not policy.psd(float("nan"), 1.0)


class TestZeroPropagation:
    def test_all_nonzero(self, y_pair):
        assert zero_propagation_check(y_pair) is ZeroPropagation.ALL_NONZERO

    def test_all_zero(self, y_pair):
        zero = SparseMomentVector.build(y_pair.cover, 2, {}, allow_missing_as_zero=True)
        assert zero_propagation_check(zero) is ZeroPropagation.ALL_ZERO

    def test_inconsistent(self, y_pair):
        # zero out everything supported on clique 1 (keeps pure-x3 entries)
        entries = {
            a: (0.0 if not any(a[2:]) else v) for a, v in y_pair.entries.items()
        }
        y = SparseMomentVector(y_pair.cover, 2, entries)
        assert zero_propagation_check(y) is ZeroPropagation.INCONSISTENT


class TestZeroMassBoundary:
    """A PSD, rank-flat subvector with zero mass must be identically zero;
    signed combinations with zero mass lose positive semidefiniteness."""

    def test_zero_subvector_satisfies_all_three(self):
        cover = CliqueCover(2, ((1, 2),))
        zero = SparseMomentVector.build(cover, 2, {}, allow_missing_as_zero=True)
        M = moment_matrix(clique_subvector(zero, 1), 2)
        assert psd(*eig_range(M.data, RankPolicy()), RankPolicy())
        assert rank(M) == rank(moment_matrix(clique_subvector(zero, 1), 1))
        assert not clique_subvector(zero, 1).moments.any()

    def test_signed_zero_mass_is_not_psd(self):
        cover = CliqueCover(2, ((1, 2),))
        plus = demo.moments_of_atoms(cover, 2, [[1.0, 0.5]], [1.0])
        minus = demo.moments_of_atoms(cover, 2, [[-0.5, 1.0]], [1.0])
        signed = SparseMomentVector(
            cover, 2, {a: plus.entries[a] - minus.entries[a] for a in plus.entries}
        )
        assert abs(signed.mass) < 1e-15
        M = moment_matrix(clique_subvector(signed, 1), 2)
        assert not psd(*eig_range(M.data, RankPolicy()), RankPolicy())


class TestShapeErrors:
    """A constraint that does not fit its clique is refused before any
    decision is made, naming the first such clique, with the error the
    per-clique loop raises."""

    @staticmethod
    def outcome(run, *args):
        try:
            run(*args)
        except (SmkError, ValueError) as exc:
            return type(exc).__name__, str(exc)
        return None

    def test_constraint_lists_and_witnesses_must_fit_the_cover(self, y_pair):
        with pytest.raises(ValueError, match=r"^need one constraint list per clique \(2\), got 3$"):
            certify(y_pair, ((), (), ()), check_rip(y_pair.cover))
        with pytest.raises(ValueError, match="^witnesses must be computed for the cover's own clique order$"):
            certify(y_pair, ((), ()), RipWitnesses((2, 1), {2: frozenset({1})}))

    @pytest.mark.parametrize("swap", [False, True])
    def test_first_bad_clique_raises(self, y_triple, swap):
        misplaced = ConstraintPolynomial((1, 2), {(0, 0): 1.0, (2, 0): -1.0})
        too_high = {(0, 0): 1.0, (8, 0): -1.0}  # half-degree 4 above the order 3
        constraints = [(), (misplaced,), (ConstraintPolynomial((3, 4), too_high),)]
        if swap:
            constraints = [(), (ConstraintPolynomial((2, 3), too_high),), (misplaced,)]
        witnesses = check_rip(y_triple.cover)
        expected = self.outcome(per_clique.certify, y_triple, constraints, witnesses)
        assert expected[0] == ("OrderTooHigh" if swap else "ValueError")
        assert self.outcome(certify, y_triple, constraints, witnesses) == expected
