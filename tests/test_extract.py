import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk.certify import FlatnessCertificate, RankPolicy, _ranks_and_gaps, certify
from smk.core import (
    CliqueCover,
    CliqueSubvector,
    SparseMomentVector,
    clique_subvector,
    local_exponents,
    monomial_matrix,
)
from smk.errors import FlatnessViolated, NonPhysicalWeights, ReconstructionFailed, SmkError
from smk.extract import (
    AtomicMeasure,
    constraint_feasibility_check,
    extract_atoms,
    extract_clique_measures,
)
from smk.matrices import ConstraintPolynomial, LabeledSymMatrix, moment_matrix
from smk.rip import check_rip, find_rip_order
from smk import demo, extract, matrices

import per_clique
from conftest import random_flat_instance, shuffled_chain_covers


def measure_subvector(variables, atoms, weights, omega):
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    moments = [
        float(weights @ np.prod(atoms ** np.asarray(alpha, dtype=float), axis=1))
        for alpha in local_exponents(len(variables), 2 * omega)
    ]
    return CliqueSubvector(tuple(variables), omega, moments)


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
            r_num = _ranks_and_gaps(M.data[None], RankPolicy())[0][0]
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

    def test_shifted_basis_monomial_outside_the_labels(self):
        # three atoms give the basis 1, x1, x2 below order 2; labels without
        # x1*x2, which no moment matrix lacks, leave x1 * x2 with no column
        labels = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))
        V = monomial_matrix(labels, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        M = LabeledSymMatrix((1, 2), labels, (V * [0.2, 0.3, 0.5]) @ V.T)
        with pytest.raises(FlatnessViolated, match=r"^monomial \(1, 1\) exceeds the matrix order$"):
            extract_atoms(M, 3, seed=0)

    def test_matrix_the_atoms_do_not_reproduce(self):
        # PSD of rank 2 and flat, but no moment matrix: the x*x entry is not
        # the 1*x^2 entry, so the atoms +-1 read from the rest miss it by 0.1
        M = LabeledSymMatrix((1,), ((0,), (1,), (2,)), np.array([[1.0, 0, 1], [0, 1.1, 0], [1, 0, 1]]))
        with pytest.raises(ReconstructionFailed, match="^moment matrix residual 1.000e-01 exceeds tolerance$"):
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
            bound = 1e-8 * (1 + np.abs(sub.moments).max())
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


# ---------------------------------------------------------------------------
# stacked certification and extraction against the per-clique loops


def outcome(extract_one, *args):
    """Atom and weight bytes of a measure, or the name and message of the
    error raised instead."""
    try:
        mu = extract_one(*args)
    except (SmkError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)
    mu = mu[0] if isinstance(mu, tuple) else mu
    return mu.atoms.tobytes(), mu.weights.tobytes()


def assert_stacks_match_per_clique(y, constraints, policy, seed):
    witnesses = check_rip(y.cover)
    cert = certify(y, constraints, witnesses, policy)
    ref = per_clique.certify(y, constraints, witnesses, policy)
    assert repr(cert.to_dict()) == repr(ref.to_dict())
    assert [c.moment.data.tobytes() for c in cert.cliques] == [
        c.moment.data.tobytes() for c in ref.cliques
    ]
    expected = [
        outcome(per_clique.extract_atoms, c.moment, c.rank_full, policy, seed + c.clique)
        for c in ref.cliques
    ]
    alone = [
        outcome(extract_atoms, c.moment, c.rank_full, policy, seed + c.clique) for c in cert.cliques
    ]
    assert alone == expected
    failures = [e for e in expected if isinstance(e[0], str)]
    try:
        measures = extract_clique_measures(cert, policy, seed)
    except SmkError as exc:
        assert failures and (type(exc).__name__, str(exc)) == failures[0]
    else:
        assert [(mu.atoms.tobytes(), mu.weights.tobytes()) for mu in measures] == expected
    return cert


def ball(width: int, radius_sq: float) -> dict:
    coefficients = {(0,) * width: radius_sq}
    for t in range(width):
        coefficients[tuple(2 * (s == t) for s in range(width))] = -1.0
    return coefficients


def mixed_chain_instance(cover, seed: int, noise: float):
    """A measure of 1-3 atoms on a chain put in running-intersection order,
    where some variables take one value at every atom (so cliques of one
    width have different ranks), and per clique no constraint, one ball or
    two: moment and localizing shapes of several kinds."""
    cover = cover.reorder(find_rip_order(cover))
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    atoms = np.empty((r, cover.n))
    for k in range(cover.n):
        while True:
            col = rng.choice([-1.0, 1.0], size=r) * rng.uniform(0.4, 1.6, size=r)
            if rng.random() < 0.4:
                col[:] = col[0]
            gaps = np.abs(col[:, None] - col[None, :])[~np.eye(r, dtype=bool)]
            if r == 1 or gaps.max() == 0.0 or gaps.min() >= 0.3:
                atoms[:, k] = col
                break
    weights = rng.uniform(0.2, 1.0, size=r)
    y = demo.moments_of_atoms(cover, 2, atoms, weights / weights.sum())
    if noise:
        values = y.values + noise * rng.standard_normal(y.values.size)
        y = SparseMomentVector.on_index_map(cover, 2, y.index_map, values)
    kinds = [(), (3.0,), (2.0,), (3.0, 6.0)]
    constraints = tuple(
        tuple(
            ConstraintPolynomial(clique, ball(len(clique), radius_sq))
            for radius_sq in kinds[int(rng.integers(len(kinds)))]
        )
        for clique in cover.cliques
    )
    return y, constraints


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), round_decimals=st.sampled_from([None, 4]))
def test_stacks_match_per_clique_on_random_flat_instances(seed, round_decimals):
    policy = RankPolicy(round_decimals=round_decimals)
    _, _, _, y = random_flat_instance(seed)
    if round_decimals is not None:
        y = y.rounded(round_decimals)
    assert_stacks_match_per_clique(y, tuple(() for _ in range(y.cover.m)), policy, seed)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    cover=shuffled_chain_covers(),
    seed=st.integers(0, 2**16),
    round_decimals=st.sampled_from([None, 4]),
    noise=st.sampled_from([0.0, 1e-9]),
)
def test_stacks_match_per_clique_on_mixed_chains(cover, seed, round_decimals, noise):
    policy = RankPolicy(round_decimals=round_decimals)
    y, constraints = mixed_chain_instance(cover, seed, noise)
    if round_decimals is not None:
        y = y.rounded(round_decimals)
    assert_stacks_match_per_clique(y, constraints, policy, seed)


def test_mixed_chain_stacks_several_shapes_and_ranks():
    """One instance of the property above whose stacks are mixed: cliques
    of one width with different constraints and different ranks."""
    cover = CliqueCover(9, ((1, 2), (2, 3), (3, 4, 5), (5, 6), (6, 7, 8), (8, 9)))
    for seed in range(200):
        y, constraints = mixed_chain_instance(cover, seed, 0.0)
        cert = assert_stacks_match_per_clique(y, constraints, RankPolicy(), seed)
        shapes = {(len(c.moment.variables), len(gs)) for c, gs in zip(cert.cliques, constraints)}
        ranks = {(len(c.moment.variables), c.rank_full) for c in cert.cliques}
        if len(shapes) >= 4 and len(ranks) >= 3 and len({r for _, r in ranks}) >= 2:
            break
    else:
        pytest.fail("no seed below 200 gives mixed stacks")


def certificate_of(*cliques):
    """A certificate carrying only clique records, one per (moment matrix,
    rank), for extraction."""
    y = demo.chain_pair_moments()
    template = certify(y, ((), ()), check_rip(y.cover)).cliques[0]
    checks = tuple(
        dataclasses.replace(template, clique=i, rank_full=r, moment=M)
        for i, (M, r) in enumerate(cliques, start=1)
    )
    return FlatnessCertificate(checks, (), False, max(r for _, r in cliques))


def moments_on_pair(atoms, weights):
    return moment_matrix(measure_subvector((1, 2), atoms, weights, 2), 2)


class TestStackedExtraction:
    POINT = moments_on_pair([[0.5, -0.7]], [1.0])
    PAIR = moments_on_pair([[1.0, 0.5], [-0.6, 1.2]], [0.3, 0.7])
    LIGHT = moments_on_pair([[1.0, 0.5], [-1.0, 0.7]], [1.0, 1e-9])  # a weight below tolerance
    SIGNED = moments_on_pair([[0.5, 0.5]], [-1.0])  # negative semidefinite

    @pytest.mark.parametrize(
        "cliques",
        [
            # clique 2 fails in the rank-2 stack, clique 3 in the rank-1
            # stack, which is extracted first
            [(POINT, 1), (LIGHT, 2), (SIGNED, 1), (PAIR, 2)],
            # clique 2 fails in the rank-1 stack, clique 3 in the rank-2
            # stack, which is extracted first
            [(PAIR, 2), (SIGNED, 1), (LIGHT, 2), (POINT, 1)],
        ],
    )
    def test_first_failing_clique_raises_its_error(self, cliques):
        cert = certificate_of(*cliques)
        errors = [
            outcome(per_clique.extract_atoms, M, r, RankPolicy(), 3 + i)
            for i, (M, r) in enumerate(cliques, start=1)
        ]
        failures = [e for e in errors if isinstance(e[0], str)]
        assert len(failures) == 2 and failures[0][0] != failures[1][0]
        with pytest.raises(SmkError) as info:
            extract_clique_measures(cert, seed=3)
        assert (type(info.value).__name__, str(info.value)) == errors[1] == failures[0]

    def test_linalg_error_fails_its_clique_only(self):
        """A LAPACK call that fails on one matrix of a stack (``eig`` on the
        combination of a matrix with a NaN moment) fails that clique alone:
        an earlier clique's error in a stack extracted later still raises
        first, and otherwise the NaN clique raises what it raises alone."""
        broken = self.PAIR.data.copy()
        broken[0, 1] = broken[1, 0] = np.nan
        nan = LabeledSymMatrix(self.PAIR.variables, self.PAIR.labels, broken)
        cliques = [(self.PAIR, 2), (self.SIGNED, 1), (nan, 2), (self.POINT, 1)]
        expected = [
            outcome(per_clique.extract_atoms, M, r, RankPolicy(), 3 + i)
            for i, (M, r) in enumerate(cliques, start=1)
        ]
        assert expected[1][0] == "FlatnessViolated" and expected[2][0] == "LinAlgError"
        alone = [
            outcome(extract_atoms, M, r, RankPolicy(), 3 + i)
            for i, (M, r) in enumerate(cliques, start=1)
        ]
        assert alone == expected
        # the rank-2 stack, holding cliques 1 and 3, is extracted first
        with pytest.raises(FlatnessViolated) as info:
            extract_clique_measures(certificate_of(*cliques), seed=3)
        assert str(info.value) == expected[1][1]
        cliques[1] = (self.POINT, 1)
        with pytest.raises(np.linalg.LinAlgError) as info:
            extract_clique_measures(certificate_of(*cliques), seed=3)
        assert str(info.value) == expected[2][1]

    # seed 5 ties clique 2's eigenvalues as reals; with seed 19 they come out
    # as a complex pair, so the first combinations of the stack are complex
    @pytest.mark.parametrize("seed", [5, 19])
    def test_unseparated_first_combination_redraws(self, seed):
        """Clique 2's atoms take one value under its first random
        combination, so it alone draws a second one; every clique gets the
        atoms of the per-clique path."""
        coeffs = np.random.default_rng(seed + 2).random(2) + 0.05
        coeffs /= coeffs.sum()
        a = np.array([0.6, -0.4])
        tied = moments_on_pair([a, a + 0.8 * np.array([coeffs[1], -coeffs[0]])], [0.4, 0.6])
        others = [
            moments_on_pair([[1.0, 0.5 + 0.1 * k], [-0.6, 1.2 - 0.1 * k]], [0.3, 0.7])
            for k in range(5)
        ]
        cert = certificate_of(*[(M, 2) for M in [others[0], tied, *others[1:]]])
        reference = [
            per_clique.extract_atoms(c.moment, c.rank_full, RankPolicy(), seed + c.clique)
            for c in cert.cliques
        ]
        assert [draws for _, draws in reference] == [1, 2, 1, 1, 1, 1]
        got = extract_clique_measures(cert, seed=seed)
        for (ref, _), mu in zip(reference, got):
            assert mu.atoms.tobytes() == ref.atoms.tobytes()
            assert mu.weights.tobytes() == ref.weights.tobytes()


# ---------------------------------------------------------------------------
# least-squares weights against nonnegative least squares


def nnls_outcome(M, r, policy, seed):
    """Weights of the per-clique path with NNLS weights, or the class of
    the error it raises."""
    try:
        return per_clique.extract_atoms(M, r, policy, seed, nonnegative=True)[0].weights
    except (SmkError, np.linalg.LinAlgError) as exc:
        return type(exc)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), round_decimals=st.sampled_from([None, 4, 3]))
def test_least_squares_weights_agree_with_nnls(seed, round_decimals):
    """On flat atoms the weights solve a full-column-rank system, so least
    squares and NNLS give one verdict and one error class, and on every
    extraction that succeeds the same weights to 1e-12 of the largest."""
    policy = RankPolicy(round_decimals=round_decimals)
    _, _, _, y = random_flat_instance(seed)
    if round_decimals is not None:
        y = y.rounded(round_decimals)
    cert = certify(y, tuple(() for _ in range(y.cover.m)), check_rip(y.cover), policy)
    oracle = [nnls_outcome(c.moment, c.rank_full, policy, seed + c.clique) for c in cert.cliques]
    for c, expected in zip(cert.cliques, oracle):
        try:
            mu = extract_atoms(c.moment, c.rank_full, policy, seed + c.clique)
        except (SmkError, np.linalg.LinAlgError) as exc:
            assert type(exc) is expected
        else:
            assert isinstance(expected, np.ndarray)
            assert np.abs(mu.weights - expected).max() <= 1e-12 * expected.max()
    failures = [e for e in oracle if not isinstance(e, np.ndarray)]
    try:
        extract_clique_measures(cert, policy, seed)
    except (SmkError, np.linalg.LinAlgError) as exc:
        assert failures and type(exc) is failures[0]
    else:
        assert not failures


def test_negative_least_squares_weight_is_named():
    """A PSD rank-2 matrix (not a moment matrix) whose atoms are 0 and 1 and
    whose first row (1, 2, 2) needs the weights (-1, 2): the error names the
    negative weight, where NNLS would stop at a zero one."""
    M = LabeledSymMatrix((1,), ((0,), (1,), (2,)), np.array([[1.0, 2, 2], [2, 5, 5], [2, 5, 5]]))
    A = monomial_matrix(M.labels, np.array([[0.0], [1.0]]))
    lightest = np.linalg.lstsq(A, M.data[0], rcond=None)[0].min()
    assert lightest == pytest.approx(-1.0)
    with pytest.raises(NonPhysicalWeights) as info:
        extract_atoms(M, 2)
    assert str(info.value) == f"weight {lightest:.3e} is not strictly positive"
    assert nnls_outcome(M, 2, RankPolicy(), 0) is NonPhysicalWeights


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

    @staticmethod
    def pointwise(mu, constraints, tol):
        """Each constraint at each atom through ``g(z)``, constraint by constraint."""
        values = np.zeros((mu.num_atoms, len(constraints)))
        violations = []
        for ci, g in enumerate(constraints):
            pos = [mu.variables.index(v) for v in g.variables]
            for ai in range(mu.num_atoms):
                values[ai, ci] = g(mu.atoms[ai, pos])
                if values[ai, ci] < -tol:
                    violations.append((ai, ci, float(values[ai, ci])))
        return values, tuple(violations)

    @pytest.mark.parametrize("seed", range(10))
    def test_values_bitwise_those_of_pointwise_calls(self, seed):
        rng = np.random.default_rng(seed)
        mu = AtomicMeasure((1, 2, 3, 4, 5), rng.normal(scale=1.5, size=(7, 5)), np.full(7, 1 / 7))
        quartic = {(4, 0): 1.0, (0, 2): -2.5, (1, 1): 0.3, (0, 0): 2.0, (3, 1): -1.0}
        constraints = [
            ConstraintPolynomial((1, 2), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0}),
            ConstraintPolynomial((4, 2), quartic),  # a non-sorted subset of the variables
            ConstraintPolynomial((2, 3), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0}),
            ConstraintPolynomial((5,), {(1,): 1.0, (3,): -0.5}),
            ConstraintPolynomial((3, 1, 5), {(1, 1, 1): rng.normal(), (0, 0, 0): 0.5, (2, 0, 7): 1.0}),
            ConstraintPolynomial((1, 3), quartic),
            ConstraintPolynomial((4,), {}),
        ]
        for tol in (0.0, 1e-8, 1.0):
            report = constraint_feasibility_check(mu, constraints, tol=tol)
            values, violations = self.pointwise(mu, constraints, tol)
            assert report.values.tobytes() == values.tobytes()
            assert report.violations == violations
        assert constraint_feasibility_check(mu, []).values.shape == (7, 0)

    def test_projection_onto_constraint_variables(self):
        g = ConstraintPolynomial((3,), {(1,): 1.0})  # x3 >= 0
        mu = AtomicMeasure((1, 2, 3), [[0.0, 0.0, -1.0]], [1.0])
        report = constraint_feasibility_check(mu, [g])
        assert not report.clean
