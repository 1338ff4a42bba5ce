import dataclasses

import numpy as np
import pytest

from smk.certify import RankPolicy, _rank_and_gap, certify
from smk.core import CliqueSubvector, clique_subvector, local_exponents, monomial_matrix
from smk.errors import FlatnessViolated, NonPhysicalWeights, ReconstructionFailed
from smk.extract import (
    AtomicMeasure,
    constraint_feasibility_check,
    extract_atoms,
    extract_clique_measures,
)
from smk.matrices import ConstraintPolynomial, LabeledSymMatrix, moment_matrix
from smk.rip import check_rip
from smk import demo, extract, matrices

from conftest import random_flat_instance


def measure_subvector(variables, atoms, weights, omega):
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    values = {}
    for alpha in local_exponents(len(variables), 2 * omega):
        vals = np.prod(atoms ** np.asarray(alpha, dtype=float), axis=1)
        values[alpha] = float(weights @ vals)
    return CliqueSubvector(tuple(variables), omega, values)


def match_atoms(mu: AtomicMeasure, atoms, weights, tol=1e-8):
    """Greedy matching of extracted atoms to the expected ones."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    assert mu.num_atoms == atoms.shape[0]
    used = [False] * atoms.shape[0]
    for k in range(mu.num_atoms):
        dists = np.abs(atoms - mu.atoms[k]).max(axis=1)
        j = int(np.argmin(np.where(used, np.inf, dists)))
        assert dists[j] <= tol, f"atom {mu.atoms[k]} vs {atoms[j]} off by {dists[j]}"
        assert abs(mu.weights[k] - weights[j]) <= tol
        used[j] = True


class TestExtractAtoms:
    def test_chain_pair_first_clique(self):
        y = demo.chain_pair_moments()
        M = moment_matrix(clique_subvector(y, 1), 2)
        mu = extract_atoms(M, 2, seed=1)
        match_atoms(mu, [[1, 0], [-1, 0]], [0.5, 0.5], tol=1e-10)

    def test_chain_triple_first_clique(self):
        y = demo.chain_triple_moments()
        M = moment_matrix(clique_subvector(y, 1), 3)
        mu = extract_atoms(M, 4, seed=1)
        match_atoms(
            mu, [[1, 1], [1, -1], [-1, 1], [-1, -1]], [0.25] * 4, tol=1e-10
        )

    def test_point_mass(self, rng):
        for _ in range(5):
            z = rng.standard_normal(3)
            sub = measure_subvector((1, 2, 3), [z], [1.0], 2)
            mu = extract_atoms(moment_matrix(sub, 2), 1, seed=0)
            match_atoms(mu, [z], [1.0], tol=1e-9)

    def test_round_trip_random(self, rng):
        for trial in range(20):
            r = int(rng.integers(1, 5))
            atoms = rng.uniform(0.3, 1.7, (r, 2)) * rng.choice([-1.0, 1.0], (r, 2))
            weights = rng.uniform(0.2, 1.0, r)
            sub = measure_subvector((1, 2), atoms, weights, 3)
            M = moment_matrix(sub, 3)
            r_num = _rank_and_gap(M.data, RankPolicy())[0]
            assert r_num == r
            mu = extract_atoms(M, r, seed=trial)
            match_atoms(mu, atoms, weights, tol=1e-6)
            assert mu.num_atoms == r_num

    def test_seed_independence(self):
        y = demo.chain_triple_moments()
        M = moment_matrix(clique_subvector(y, 1), 3)
        reference = extract_atoms(M, 4, seed=0).sorted_by_atoms()
        for seed in range(1, 6):
            mu = extract_atoms(M, 4, seed=seed).sorted_by_atoms()
            assert np.allclose(mu.atoms, reference.atoms, atol=1e-9)
            assert np.allclose(mu.weights, reference.weights, atol=1e-9)

    @pytest.mark.parametrize("round_decimals", [None, 4])
    def test_clique_measures_reuse_certified_matrices(self, round_decimals):
        policy = RankPolicy(round_decimals=round_decimals)
        y = demo.chain_triple_moments()
        if round_decimals is not None:
            y = y.rounded(round_decimals)
        cert = certify(y, demo.chain_triple_pop().constraints, check_rip(y.cover), policy)
        got = extract_clique_measures(cert, policy, seed=7)
        for i, (check, mu) in enumerate(zip(cert.cliques, got), start=1):
            M = moment_matrix(clique_subvector(y, i), y.omega)
            assert np.array_equal(check.moment.data, M.data) and check.moment.labels == M.labels
            ref = extract_atoms(M, check.rank_full, policy, seed=7 + i)
            assert np.array_equal(mu.atoms, ref.atoms) and np.array_equal(mu.weights, ref.weights)
        # the matrices ride along without entering the record
        assert " moment=" not in repr(cert.cliques[0])
        assert "moment" not in cert.to_dict()["cliques"][0]
        other = dataclasses.replace(cert.cliques[0], moment=cert.cliques[1].moment)
        assert other == cert.cliques[0] and hash(other) == hash(cert.cliques[0])

    def test_rank_zero_gives_empty_measure(self):
        M = LabeledSymMatrix((1,), ((0,), (1,)), np.zeros((2, 2)))
        mu = extract_atoms(M, 0, seed=0)
        assert mu.num_atoms == 0

    def test_flatness_violated(self):
        # rank 2 at order 1 in one variable: no degree-0 basis of size 2 exists
        sub = measure_subvector((1,), [[0.0], [1.0]], [0.5, 0.5], 1)
        M = moment_matrix(sub, 1)
        with pytest.raises(FlatnessViolated):
            extract_atoms(M, 2, seed=0)

    def test_non_psd_matrix_rejected(self):
        M = LabeledSymMatrix(
            (1,), ((0,), (1,), (2,)), np.diag([1.0, -1.0, 0.0])
        )
        with pytest.raises(ReconstructionFailed):
            extract_atoms(M, 2, seed=0)

    def test_overestimated_rank(self):
        # nearly rank-1 matrix: asking for 2 atoms must not silently succeed
        sub = measure_subvector((1, 2), [[1.0, 0.5], [1.0 + 1e-9, 0.5]], [1.0, 1e-10], 2)
        M = moment_matrix(sub, 2)
        with pytest.raises((FlatnessViolated, NonPhysicalWeights, ReconstructionFailed)):
            extract_atoms(M, 2, seed=0)

    def test_tiny_weight_rejected(self):
        # well-separated atoms, but one weight below tolerance
        sub = measure_subvector((1, 2), [[1.0, 0.5], [-1.0, 0.7]], [1.0, 1e-9], 2)
        M = moment_matrix(sub, 2)
        with pytest.raises((NonPhysicalWeights, ReconstructionFailed)):
            extract_atoms(M, 2, seed=0)

    def test_extraction_residual_bound(self, rng):
        for trial in range(10):
            r = int(rng.integers(1, 4))
            atoms = rng.uniform(0.3, 1.7, (r, 3)) * rng.choice([-1.0, 1.0], (r, 3))
            weights = rng.uniform(0.2, 1.0, r)
            sub = measure_subvector((1, 2, 3), atoms, weights, 2)
            M = moment_matrix(sub, 2)
            mu = extract_atoms(M, r, seed=trial)
            bound = 1e-8 * (1 + max(abs(v) for v in sub.values.values()))
            moments = monomial_matrix(local_exponents(3, 4), mu.atoms) @ mu.weights
            assert np.abs(moments - sub.moments).max() <= bound

def test_shape_caches_cold_and_warm_agree_bitwise():
    """Certificates and atoms from freshly compiled blocks and label tables
    equal, bit for bit, those read back from the caches."""

    def run():
        out = []
        for seed in range(20):
            cover, _, _, y = random_flat_instance(seed)
            cert = certify(y, tuple(() for _ in range(cover.m)), check_rip(cover))
            measures = extract_clique_measures(cert)
            arrays = [(mu.atoms.tobytes(), mu.weights.tobytes()) for mu in measures]
            out.append((repr(cert.to_dict()), arrays))
        return out

    matrices._compile_block.cache_clear()
    extract._label_table.cache_clear()
    cold = run()
    assert matrices._compile_block.cache_info().hits > 0
    assert extract._label_table.cache_info().hits > 0
    assert run() == cold


class TestFeasibility:
    BALL = ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0})

    def test_clean(self):
        mu = AtomicMeasure((1, 2), [[1, 1], [1, -1], [-1, 1], [-1, -1]], [0.25] * 4)
        report = constraint_feasibility_check(mu, [self.BALL])
        assert report.clean
        assert np.allclose(report.values, 1.0)

    def test_flagged(self):
        mu = AtomicMeasure((1, 2), [[2.0, 0.0]], [1.0])
        report = constraint_feasibility_check(mu, [self.BALL])
        assert not report.clean
        assert report.violations[0][2] == pytest.approx(-1.0)

    def test_no_constraints(self):
        mu = AtomicMeasure((1, 2), [[2.0, 0.0]], [1.0])
        assert constraint_feasibility_check(mu, []).clean

    def test_projection_onto_constraint_variables(self):
        g = ConstraintPolynomial((3,), {(1,): 1.0})  # x3 >= 0
        mu = AtomicMeasure((1, 2, 3), [[0.0, 0.0, -1.0]], [1.0])
        report = constraint_feasibility_check(mu, [g])
        assert not report.clean
