import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk.altmeasure import enumerate_extreme_measures

from smk.assemble import _cluster, assemble, maximal_support_set, verify_global
from smk.certify import RankPolicy, certify
from smk.core import CliqueCover, SparseMomentVector, monomial_matrix
from smk.errors import FinalMarginalCheckFailed, MarginalMismatch
from smk.extract import AtomicMeasure, extract_clique_measures, lex_order_rows
from smk.rip import RipWitnesses, check_rip
from smk import demo

import per_clique
from per_clique import (
    cluster_reference, match_marginals, measures_close, measures_close_reference, pushforward,
    pushforward_reference,
)
from conftest import CHAIN_PAIR_ATOMS, TRIANGLE_CLIQUE_ATOMS, random_flat_instance, random_rip_cover


def chain_pair_measures():
    return [
        AtomicMeasure((1, 2), [[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5]),
        AtomicMeasure((2, 3), [[0.0, 1.0], [0.0, -1.0]], [0.5, 0.5]),
    ]


def chain_triple_measures():
    return [
        AtomicMeasure((1, 2), [[1, 1], [1, -1], [-1, 1], [-1, -1]], [0.25] * 4),
        AtomicMeasure((2, 3), [[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5]),
        AtomicMeasure((3, 4), [[0.0, 1.0], [0.0, -1.0]], [0.5, 0.5]),
    ]


def glue_reference(measures, witnesses, policy=RankPolicy(), chosen=None):
    """The inductive gluing of ``assemble``, atom pair by atom pair, without
    the final marginal check."""
    current = measures[0]
    for i in range(2, len(measures) + 1):
        incoming = measures[i - 1]
        j = (chosen or {}).get(i, min(witnesses.witness[i]))
        overlap = tuple(v for v in measures[j - 1].variables if v in incoming.variables)
        groups = match_marginals(current, incoming, overlap, policy)
        union_vars = tuple(sorted(set(current.variables) | set(incoming.variables)))
        atoms, weights = [], []
        for gi, theta in enumerate(groups.masses):
            for k in groups.groups_a[gi]:
                for l in groups.groups_b[gi]:
                    point = dict(zip(incoming.variables, incoming.atoms[l]))
                    point.update(zip(current.variables, current.atoms[k]))
                    atoms.append([point[v] for v in union_vars])
                    weights.append(current.weights[k] * incoming.weights[l] / theta)
        current = AtomicMeasure(union_vars, np.array(atoms), np.array(weights))
    return current


def pointwise_assemble_reference(measures, witnesses, policy=RankPolicy(), chosen=None):
    """``glue_reference``, then the final check clique by clique, in clique order."""
    glued = glue_reference(measures, witnesses, policy, chosen)
    for i, mu in enumerate(measures, start=1):
        if not measures_close_reference(pushforward_reference(glued, mu.variables, policy), mu, policy):
            raise FinalMarginalCheckFailed(
                f"assembled measure does not reproduce the measure of clique at position {i}"
            )
    return glued


def outcome(glue, *args, **kwargs):
    """The glued variables, atoms and weights, or the error type and message."""
    try:
        mu = glue(*args, **kwargs)
    except Exception as exc:  # every error is compared, whatever its type
        return type(exc), str(exc)
    return mu.variables, mu.atoms.tobytes(), mu.weights


def assert_same_outcome(got, expected, rtol=1e-12):
    """The same error, or the same variables and atoms bit for bit and
    weights within ``rtol``: ``assemble`` takes each point's mass from the
    witness's measure, the references from the measure glued so far."""
    assert got[:2] == expected[:2]
    if len(expected) == 3:
        np.testing.assert_allclose(got[2], expected[2], rtol=rtol, atol=0.0)


def overlap_named(message):
    """The ``overlap (...)`` a :class:`MarginalMismatch` message starts with."""
    return message.split(":")[0]


def product_chain_measures(rng, n):
    """Clique marginals, on the width-2 chain over n variables, of a product
    of seeded two-point laws."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1
    atoms = np.where(bits == 1, rng.uniform(0.4, 1.2, n), rng.uniform(-1.2, -0.4, n))
    p = rng.uniform(0.3, 0.7, n)
    mu = AtomicMeasure(tuple(range(1, n + 1)), atoms, np.prod(np.where(bits == 1, p, 1 - p), axis=1))
    cover = CliqueCover(n, tuple((t, t + 1) for t in range(1, n)))
    return [pushforward(mu, c) for c in cover.cliques], cover


def support_reference(clique_measures, cover, tol=1e-6):
    """``maximal_support_set`` candidate by candidate, each a dict over the
    variables assigned so far."""
    assigned = clique_measures[0].variables
    candidates = [dict(zip(assigned, atom)) for atom in clique_measures[0].atoms]
    for mu in clique_measures[1:]:
        shared = [v for v in mu.variables if v in assigned]
        new_vars = [v for v in mu.variables if v not in assigned]
        extended = []
        for cand in candidates:
            for atom in mu.atoms:
                point = dict(zip(mu.variables, atom))
                if all(abs(cand[v] - point[v]) <= tol for v in shared):
                    nxt = dict(cand)
                    for v in new_vars:
                        nxt[v] = point[v]
                    extended.append(nxt)
        candidates = extended
        assigned = tuple(sorted(set(assigned) | set(mu.variables)))
    points = np.array([[c[v] for v in range(1, cover.n + 1)] for c in candidates])
    if points.size == 0:
        return np.zeros((0, cover.n))
    return points[lex_order_rows(points)]


def long_chain_measures(rng, m, num_atoms=3):
    """Clique marginals of ``num_atoms`` seeded points on the width-3 chain
    with m cliques overlapping in one variable."""
    n = 2 * m + 1
    atoms = rng.uniform(-1.0, 1.0, (num_atoms, n))
    atoms[1, : n // 2] = atoms[0, : n // 2]  # marginals with fewer points than atoms
    mu = AtomicMeasure(tuple(range(1, n + 1)), atoms, rng.uniform(0.5, 1.0, num_atoms))
    cover = CliqueCover(n, tuple((s, s + 1, s + 2) for s in range(1, n - 1, 2)))
    return [pushforward(mu, c) for c in cover.cliques], cover


def tiny_weight_measures():
    """A chain pair whose first clique holds an atom of weight 1e-9, below the
    mass floor, on a marginal point of mass 0.5 + 1e-9."""
    return [
        AtomicMeasure((1, 2), [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]], [0.5, 1e-9, 0.5 - 1e-9]),
        AtomicMeasure((2, 3), [[1.0, 2.0], [-1.0, 3.0]], [0.5 + 1e-9, 0.5 - 1e-9]),
    ]


def triangle_measures():
    return [
        AtomicMeasure((1, 2), *TRIANGLE_CLIQUE_ATOMS[1]),
        AtomicMeasure((2, 3), *TRIANGLE_CLIQUE_ATOMS[2]),
        AtomicMeasure((1, 3), *TRIANGLE_CLIQUE_ATOMS[3]),
    ]


class TestPushforward:
    def test_diagonal_pair(self):
        mu = AtomicMeasure((1, 2), [[1, 1], [-1, -1]], [0.5, 0.5])
        out = pushforward(mu, (2,))
        assert measures_close(out, AtomicMeasure((2,), [[1.0], [-1.0]], [0.5, 0.5]))

    def test_atoms_merge(self):
        mu = chain_pair_measures()[0]
        out = pushforward(mu, (2,))
        assert out.num_atoms == 1
        assert out.atoms[0, 0] == 0.0
        assert out.weights[0] == pytest.approx(1.0)

    def test_identity(self):
        mu = chain_pair_measures()[0]
        out = pushforward(mu, (1, 2))
        assert measures_close(out, mu)

    def test_empty_target(self):
        mu = chain_pair_measures()[0]
        out = pushforward(mu, ())
        assert out.num_atoms == 1
        assert out.mass == pytest.approx(1.0)

    def test_target_order_kept(self):
        mu = AtomicMeasure((1, 2), [[1.0, 2.0], [-1.0, 3.0]], [0.25, 0.75])
        out = pushforward(mu, [2, 1])
        assert out.variables == (2, 1)
        assert np.array_equal(out.atoms, mu.atoms[:, ::-1])

    def test_target_outside_measure(self):
        mu = chain_pair_measures()[0]
        with pytest.raises(ValueError, match=r"target \(3,\) is not a subset"):
            pushforward(mu, (3,))
        with pytest.raises(ValueError):
            pushforward(mu, (2, 3))

    def test_weights_equal_per_cluster_sums(self, rng):
        # clusters of 1 to 512 atoms, several sizes in one stack; each weight
        # is bit for bit the per-cluster sum of the pointwise reference
        product, _ = product_chain_measures(rng, 10)
        mu = glue_reference(product, check_rip(CliqueCover(10, tuple((t, t + 1) for t in range(1, 10)))))
        skewed = AtomicMeasure(mu.variables, np.round(mu.atoms * rng.integers(1, 4, mu.atoms.shape)), mu.weights)
        for measure in (mu, skewed):
            for target in ((1,), (1, 2), (3, 7, 9), (2, 4, 6, 8, 10)):
                got = pushforward(measure, target)
                ref = pushforward_reference(measure, target, RankPolicy())
                assert got.atoms.tobytes() == ref.atoms.tobytes()
                assert got.weights.tobytes() == ref.weights.tobytes()


class TestMeasuresClose:
    def test_each_atom_matches_once(self):
        # both atoms of a are within tolerance of the first atom of b, and
        # more than the tolerance apart from each other
        t = RankPolicy().tol()
        a = AtomicMeasure((1,), [[-0.9 * t], [0.9 * t]], [0.5, 0.5])
        b = AtomicMeasure((1,), [[0.0], [5.0]], [0.5, 0.5])
        assert pushforward(a, (1,)).num_atoms == 2
        assert not measures_close(a, b) and not measures_close_reference(a, b, RankPolicy())
        assert measures_close(a, a) and measures_close(b, b)
        # an atom of weight 1e-9 is no degenerate mass here
        tiny = tiny_weight_measures()[0]
        assert measures_close(tiny, tiny) and measures_close_reference(tiny, tiny, RankPolicy())


class TestMatchMarginals:
    def test_chain_pair(self):
        a, b = chain_pair_measures()
        groups = match_marginals(a, b, (2,))
        assert len(groups.masses) == 1
        assert groups.points[0, 0] == 0.0
        assert groups.masses[0] == pytest.approx(1.0)
        assert groups.groups_a == ((0, 1),)
        assert groups.groups_b == ((0, 1),)

    def test_chain_triple_two_points(self):
        m1, m2, _ = chain_triple_measures()
        groups = match_marginals(m1, m2, (2,))
        assert len(groups.masses) == 2
        assert sorted(groups.points[:, 0]) == [-1.0, 1.0]
        assert np.allclose(groups.masses, 0.5)

    def test_masses_equal_per_group_sums(self, rng):
        # groups of 1 to 19 atoms: each mass is bit for bit the group's sum
        for size in range(1, 20):
            atoms = rng.integers(0, 2, (size, 2)).astype(float)
            weights = rng.uniform(0.1, 1.0, size) * 10.0 ** rng.integers(-3, 8, size)
            partial = AtomicMeasure((1, 2), atoms, weights)
            groups = [np.flatnonzero(atoms[:, 1] == v) for v in np.unique(atoms[:, 1])]
            incoming = AtomicMeasure((2, 3), [[atoms[g[0], 1], 0.0] for g in groups],
                                     [partial.weights[g].sum() for g in groups])
            matched = match_marginals(partial, incoming, (2,))
            for g, mass in zip(matched.groups_a, matched.masses):
                assert mass.tobytes() == partial.weights[list(g)].sum().tobytes()

    def test_mass_mismatch(self):
        a = AtomicMeasure((1,), [[1.0], [-1.0]], [0.5, 0.5])
        b = AtomicMeasure((1,), [[1.0]], [1.0])
        with pytest.raises(MarginalMismatch):
            match_marginals(a, b, (1,))

    def test_point_mismatch(self):
        a = AtomicMeasure((1,), [[1.0]], [1.0])
        b = AtomicMeasure((1,), [[0.5]], [1.0])
        with pytest.raises(MarginalMismatch):
            match_marginals(a, b, (1,))

    def test_no_atoms_on_one_side(self):
        empty, one = AtomicMeasure((1,), np.zeros((0, 1)), []), AtomicMeasure((1,), [[1.0]], [1.0])
        for a, b, counts in ((empty, one, "0 marginal atoms on one side, 1"),
                             (one, empty, "1 marginal atoms on one side, 0")):
            with pytest.raises(MarginalMismatch, match=counts):
                match_marginals(a, b, (1,))


class TestAssemble:
    def test_chain_pair(self):
        measures = chain_pair_measures()
        wit = check_rip(CliqueCover(3, ((1, 2), (2, 3))))
        mu = assemble(measures, wit).sorted_by_atoms()
        assert mu.variables == (1, 2, 3)
        expect = CHAIN_PAIR_ATOMS[np.lexsort(CHAIN_PAIR_ATOMS.T[::-1])]
        assert np.allclose(mu.atoms, expect)
        assert np.allclose(mu.weights, 0.25)

    def test_one_measure_per_clique(self):
        wit = check_rip(CliqueCover(3, ((1, 2), (2, 3))))
        with pytest.raises(ValueError, match="^need exactly one measure per clique$"):
            assemble(chain_pair_measures()[:1], wit)

    def test_chain_triple(self):
        measures = chain_triple_measures()
        wit = check_rip(CliqueCover(4, ((1, 2), (2, 3), (3, 4))))
        mu = assemble(measures, wit).sorted_by_atoms()
        expect = demo.chain_triple_minimizers()
        expect = expect[np.lexsort(expect.T[::-1])]
        assert np.allclose(mu.atoms, expect)
        assert np.allclose(mu.weights, 0.125)

    def test_equals_pairwise_gluing(self, rng):
        for measures, cover in (
            (chain_triple_measures(), CliqueCover(4, ((1, 2), (2, 3), (3, 4)))),
            product_chain_measures(rng, 6),
            long_chain_measures(rng, 100),
            product_chain_measures(rng, 10),  # 1024 glued atoms
        ):
            wit = check_rip(cover)
            mu, ref = assemble(measures, wit), glue_reference(measures, wit)
            assert mu.variables == ref.variables
            assert mu.atoms.tobytes() == ref.atoms.tobytes()
            np.testing.assert_allclose(mu.weights, ref.weights, rtol=1e-12, atol=0.0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["chain", "forced"]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.floats(0.25, 4.0),
    )
    def test_final_check_equals_per_clique_reference(self, case, seed, on_weight, c):
        # one atom coordinate or one weight of one clique moved by c times its
        # tolerance: assemble fails, with the same error, exactly when the
        # per-clique reference does. A moved weight that passes reaches the
        # glued weights through the witness's masses, by up to c tolerances
        rng, policy = np.random.default_rng(seed), RankPolicy()
        chosen = None
        if case == "chain":
            measures, cover = long_chain_measures(rng, int(rng.integers(2, 7)))
            witnesses = check_rip(cover)
        else:
            # cliques (1, 2), (3, 4), (2, 3), the last glued through variable 2
            # only, so only the final check compares it on variable 3
            measures, cover = product_chain_measures(rng, 4)
            measures = [measures[0], measures[2], measures[1]]
            witnesses = RipWitnesses((1, 2, 3), {2: frozenset({1}), 3: frozenset({1})})
            chosen = {2: 1, 3: 1}
        q = int(rng.integers(len(measures)))
        mu = measures[q]
        atoms, weights = mu.atoms.copy(), mu.weights.copy()
        r = int(rng.integers(mu.num_atoms))
        if on_weight:
            weights[r] += c * policy.tol(weights[r])
        else:
            atoms[r, int(rng.integers(atoms.shape[1]))] += c * policy.tol(np.abs(atoms).max())
        measures[q] = AtomicMeasure(mu.variables, atoms, weights)
        expected = outcome(pointwise_assemble_reference, measures, witnesses, policy, chosen)
        got = outcome(assemble, measures, witnesses, policy, chosen)
        assert_same_outcome(got, expected, 8 * policy.tol() if on_weight else 1e-12)

    def test_cluster_equals_pointwise_loop(self, rng):
        centres = rng.uniform(-1.0, 1.0, (4, 2))
        points = centres[rng.integers(0, 4, 60)] + rng.uniform(-2e-7, 2e-7, (60, 2))
        points[7] = np.nan
        for pts in (points, points[:, :0], points[:0]):
            labels, firsts = _cluster(pts[None], 1e-6)
            groups = [np.flatnonzero(labels[0] == c).tolist() for c in range(firsts.shape[1])]
            ref_reps, ref_groups = cluster_reference(pts, 1e-6)
            assert groups == ref_groups
            assert np.array_equal(pts[firsts[0]], ref_reps, equal_nan=True)
        # a stack: each set at its own tolerance, with its own number of clusters
        stack = np.stack([points, points[::-1], np.repeat(points[:1], 60, axis=0)])
        tols = np.array([1e-6, 1e-9, 1e-6])
        labels, firsts = _cluster(stack, tols)
        for pts, tol, lab, first in zip(stack, tols, labels, firsts):
            ref_reps, ref_groups = cluster_reference(pts, tol)
            assert [np.flatnonzero(lab == c).tolist() for c in range(len(ref_groups))] == ref_groups
            assert lab.max() + 1 == len(ref_groups)
            assert np.array_equal(pts[first[: len(ref_groups)]], ref_reps, equal_nan=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_final_check_names_first_failing_position(self, seed):
        # cliques 3 and 4 are glued through one variable only and fail the
        # final check; they sit in different (width, atom count) stacks, the
        # later one in the stack checked first
        rng = np.random.default_rng(seed)
        atoms = rng.choice([-1.0, 1.0], (3, 5)) * rng.uniform(0.4, 1.6, (3, 5))
        mu = AtomicMeasure((1, 2, 3, 4, 5), atoms, rng.uniform(0.2, 1.0, 3))
        cliques = ((1, 2), (3, 4, 5), (2, 3, 4), (1, 5))
        measures = [pushforward(mu, c) for c in cliques]
        forced = RipWitnesses((1, 2, 3, 4), {i: frozenset({1}) for i in (2, 3, 4)})
        chosen = {2: 1, 3: 1, 4: 1}
        expected = outcome(pointwise_assemble_reference, measures, forced, RankPolicy(), chosen)
        assert expected == (
            FinalMarginalCheckFailed,
            "assembled measure does not reproduce the measure of clique at position 3",
        )
        assert outcome(assemble, measures, forced, RankPolicy(), chosen) == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
    def test_equals_sequential_reference(self, seed, num_atoms, noisy):
        # random covers, whose witness trees branch; atoms that share
        # coordinates, so marginal points hold several atoms; coordinate noise
        # below the tolerance; a random admissible witness per position. The
        # weights are exact pushforwards: noise on them would part the
        # witness's masses from those of the measure glued so far by itself
        rng, policy = np.random.default_rng(seed), RankPolicy()
        cover = random_rip_cover(rng, max_cliques=7, max_clique_size=3)
        shape = (num_atoms, cover.n)
        atoms = rng.choice([-1.0, 1.0], shape) * rng.uniform(0.4, 1.6, shape)
        atoms = np.where(rng.random(atoms.shape) < 0.4, atoms[:1], atoms)
        mu = AtomicMeasure(tuple(range(1, cover.n + 1)), atoms, rng.uniform(0.2, 1.0, num_atoms))
        measures = [pushforward(mu, c, policy) for c in cover.cliques]
        if noisy:
            measures = [
                AtomicMeasure(m.variables, m.atoms + rng.uniform(-1e-3, 1e-3, m.atoms.shape)
                              * policy.tol(np.abs(m.atoms).max()), m.weights)
                for m in measures
            ]
        witnesses = check_rip(cover)
        chosen = {i: int(rng.choice(sorted(js))) for i, js in witnesses.witness.items()}
        expected = outcome(per_clique.assemble_reference, measures, witnesses, policy, chosen)
        assert len(expected) == 3
        assert_same_outcome(outcome(assemble, measures, witnesses, policy, chosen), expected)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("fault", ["moved", "mass", "extra", "degenerate"])
    def test_mismatch_equals_sequential_reference(self, seed, fault):
        # one fault in clique q on the variable it shares with its witness
        # q - 1 (its column 0): the same error type, naming the same overlap
        rng, policy, tiny = np.random.default_rng(seed), RankPolicy(), 1e-8
        measures, cover = long_chain_measures(rng, 6)
        q = int(rng.integers(2, 7))
        mu, before = measures[q - 1], measures[q - 2]
        atoms, weights = mu.atoms.copy(), mu.weights.copy()
        r = int(rng.integers(mu.num_atoms))
        if fault == "moved":
            atoms[r, 0] += 0.1
        elif fault == "mass":
            weights[r] += 10 * policy.tol(weights[r])
        elif fault == "extra":
            atoms, weights = np.vstack([atoms, [2.0, 0.0, 0.0]]), np.append(weights, 0.1)
        else:
            # a point of mass below the floor on both sides; the witness's
            # extra atom sits on a point it already has for its own witness
            extra = [before.atoms[0, 0], before.atoms[0, 1], 2.0]
            measures[q - 2] = AtomicMeasure(before.variables, np.vstack([before.atoms, extra]),
                                            np.append(before.weights, tiny))
            atoms, weights = np.vstack([atoms, [2.0, 0.0, 0.0]]), np.append(weights, tiny)
        measures[q - 1] = AtomicMeasure(mu.variables, atoms, weights)
        witnesses = check_rip(cover)
        expected = outcome(per_clique.assemble_reference, measures, witnesses, policy)
        got = outcome(assemble, measures, witnesses, policy)
        assert expected[0] is got[0] is MarginalMismatch
        assert overlap_named(got[1]) == overlap_named(expected[1]) == f"overlap ({2 * q - 1},)"
        if fault == "degenerate":
            assert "degenerate mass" in got[1]

    def test_chosen_witness_is_the_one_matched(self):
        # position 3 lists witnesses 1 and 2, and clique 1 shares none of its
        # variables: an atom of clique 3 moved on variable 3 fails the match
        # against clique 2, but only the final check when glued through 1
        measures = chain_triple_measures()
        moved = measures[2].atoms.copy()
        moved[0, 0] += 0.5
        measures[2] = AtomicMeasure(measures[2].variables, moved, measures[2].weights)
        forced = RipWitnesses((1, 2, 3), {2: frozenset({1}), 3: frozenset({1, 2})})
        for chosen, error in (({3: 2}, MarginalMismatch), (None, FinalMarginalCheckFailed)):
            expected = outcome(per_clique.assemble_reference, measures, forced, chosen=chosen)
            assert expected[0] is error
            assert outcome(assemble, measures, forced, chosen=chosen) == expected

    def test_chosen_witness_must_come_earlier(self):
        witnesses = check_rip(CliqueCover(4, ((1, 2), (2, 3), (3, 4))))
        for chosen in ({2: 3}, {3: 0}, {3: 5}):
            with pytest.raises(ValueError, match="is not an earlier position"):
                assemble(chain_triple_measures(), witnesses, chosen=chosen)

    @pytest.mark.parametrize("seed", range(4))
    def test_mismatch_names_first_failing_clique_across_shapes(self, seed):
        # pair shapes (overlap width, witness atoms, clique atoms): positions
        # 2 and 5 are (1, 2, 3) and matched in the first stack, 3 is
        # (1, 3, 3). Cliques 3 and 5 each move an atom on the variable they
        # share with their witness: clique 3 is named, as the loop names it
        rng = np.random.default_rng(seed)
        atoms = rng.choice([-1.0, 1.0], (3, 6)) * rng.uniform(0.4, 1.6, (3, 6))
        atoms[1, [0, 1, 3, 4]] = atoms[0, [0, 1, 3, 4]]
        mu = AtomicMeasure(tuple(range(1, 7)), atoms, rng.uniform(0.2, 1.0, 3))
        cover = CliqueCover(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)))
        measures = [pushforward(mu, c) for c in cover.cliques]
        assert [m.num_atoms for m in measures] == [2, 3, 3, 2, 3]
        for q in (3, 5):
            nu = measures[q - 1]
            moved = nu.atoms.copy()
            moved[0, 0] += 0.1
            measures[q - 1] = AtomicMeasure(nu.variables, moved, nu.weights)
        expected = outcome(per_clique.assemble_reference, measures, check_rip(cover))
        assert expected[0] is MarginalMismatch and overlap_named(expected[1]) == "overlap (3,)"
        assert outcome(assemble, measures, check_rip(cover)) == expected

    def test_single_clique(self):
        mu0 = chain_pair_measures()[0]
        wit = RipWitnesses((1,), {})
        assert measures_close(assemble([mu0], wit), mu0)

    def test_triangle_forced_matching_fails_final_check(self):
        measures = triangle_measures()
        forced = RipWitnesses((1, 2, 3), {2: frozenset({1}), 3: frozenset({1, 2})})
        for j in (1, 2):
            with pytest.raises(FinalMarginalCheckFailed):
                assemble(measures, forced, chosen={2: 1, 3: j})

    def test_weights_sum_to_mass(self):
        measures = chain_triple_measures()
        wit = check_rip(CliqueCover(4, ((1, 2), (2, 3), (3, 4))))
        mu = assemble(measures, wit)
        assert mu.mass == pytest.approx(1.0, abs=1e-10)

    def test_clique_marginals_reproduced(self):
        for measures, cover, count in (
            (chain_triple_measures(), CliqueCover(4, ((1, 2), (2, 3), (3, 4))), 8),
            (tiny_weight_measures(), CliqueCover(3, ((1, 2), (2, 3))), 3),
        ):
            mu = assemble(measures, check_rip(cover))
            assert mu.num_atoms == count
            for mu_i in measures:
                marg = pushforward(mu, mu_i.variables)
                assert measures_close(marg, mu_i)

    def test_final_check_merges_coinciding_clique_atoms(self):
        # clique 1 holds one point as two atoms 0.1 tolerance apart, against
        # AtomicMeasure's rule: the final check compares it merged, as the
        # witness match does; the atom-by-atom reference refuses it
        t = RankPolicy().tol()
        measures = [
            AtomicMeasure((1, 2), [[1.0, 1.0], [1.0, 1.0 + 0.1 * t], [-1.0, -1.0]], [0.25, 0.25, 0.5]),
            AtomicMeasure((2, 3), [[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5]),
        ]
        wit = check_rip(CliqueCover(3, ((1, 2), (2, 3))))
        mu = assemble(measures, wit)
        assert mu.num_atoms == 3
        assert measures_close(pushforward(mu, (1, 2)), pushforward(measures[0], (1, 2)))
        assert outcome(pointwise_assemble_reference, measures, wit)[0] is FinalMarginalCheckFailed

    def test_atom_set_invariant_across_valid_orders(self):
        cover = CliqueCover(4, ((1, 2), (2, 3), (3, 4)))
        measures = chain_triple_measures()
        wit = check_rip(cover)
        ref = assemble(measures, wit).sorted_by_atoms()
        # the reversed chain also satisfies the property
        order = (3, 2, 1)
        wit_rev = check_rip(cover.reorder(order))
        reordered = [measures[i - 1] for i in order]
        alt = assemble(reordered, wit_rev).sorted_by_atoms()
        assert np.allclose(ref.atoms, alt.atoms)
        assert np.allclose(ref.weights, alt.weights, atol=1e-12)

    def test_atom_count_at_least_max_clique_rank(self):
        for seed in range(10):
            cover, atoms, weights, y = random_flat_instance(seed + 40)
            measures = []
            for i in range(1, cover.m + 1):
                measures.append(
                    pushforward(AtomicMeasure(tuple(range(1, cover.n + 1)), atoms, weights), cover.clique(i))
                )
            wit = check_rip(cover)
            mu = assemble(measures, wit)
            assert mu.num_atoms >= max(m.num_atoms for m in measures)


class TestMaximalSupport:
    def test_chain_pair(self):
        pts = maximal_support_set(chain_pair_measures(), CliqueCover(3, ((1, 2), (2, 3))))
        expect = CHAIN_PAIR_ATOMS[np.lexsort(CHAIN_PAIR_ATOMS.T[::-1])]
        assert np.allclose(pts, expect)

    def test_triangle_empty(self):
        pts = maximal_support_set(triangle_measures(), CliqueCover(3, ((1, 2), (2, 3), (1, 3))))
        assert pts.shape == (0, 3)

    def test_single_clique(self):
        mu = chain_pair_measures()[0]
        pts = maximal_support_set([mu], CliqueCover(2, ((1, 2),)))
        assert np.allclose(pts, [[-1.0, 0.0], [1.0, 0.0]])

    def test_order_independence(self):
        measures = chain_triple_measures()
        cover = CliqueCover(4, ((1, 2), (2, 3), (3, 4)))
        a = maximal_support_set(measures, cover)
        b = maximal_support_set(measures[::-1], cover)
        assert np.allclose(a, b)

    def test_equals_reference_on_product_measures(self, rng):
        for n in (2, 5, 8):
            measures, cover = product_chain_measures(rng, n)
            for order in (measures, measures[::-1], [measures[k] for k in rng.permutation(n - 1)]):
                got = maximal_support_set(order, cover)
                assert got.shape == (2**n, n)
                assert np.array_equal(got, support_reference(order, cover))

    def test_equals_reference_on_long_chain(self, rng):
        for m in (1, 12, 40):
            measures, cover = long_chain_measures(rng, m)
            for order in (measures, measures[::-1]):
                assert np.array_equal(
                    maximal_support_set(order, cover), support_reference(order, cover)
                )
        for measures, cover in (
            (triangle_measures(), CliqueCover(3, ((1, 2), (2, 3), (1, 3)))),
            (chain_triple_measures(), CliqueCover(4, ((1, 2), (2, 3), (3, 4)))),
        ):
            assert np.array_equal(
                maximal_support_set(measures, cover), support_reference(measures, cover)
            )

    def test_support_of_assembly_equals_maximal_set(self):
        measures = chain_triple_measures()
        cover = CliqueCover(4, ((1, 2), (2, 3), (3, 4)))
        mu = assemble(measures, check_rip(cover)).sorted_by_atoms()
        assert np.allclose(mu.atoms, maximal_support_set(measures, cover))


class TestVerifyGlobal:
    def test_chain_pair_quarter_weights(self):
        y = demo.chain_pair_moments()
        mu = AtomicMeasure((1, 2, 3), CHAIN_PAIR_ATOMS, [0.25] * 4)
        assert verify_global(mu, y) <= 1e-10

    def test_lambda_family(self):
        # every mixture with weights (t, 1/2 - t, 1/2 - t, t) represents the
        # same chain-pair moment vector
        y = demo.chain_pair_moments()
        for lam in (0.0, 0.3, 0.5):
            w = [lam, 0.5 - lam, 0.5 - lam, lam]
            keep = [k for k, v in enumerate(w) if v > 0]
            mu = AtomicMeasure((1, 2, 3), CHAIN_PAIR_ATOMS[keep], np.array(w)[keep])
            assert verify_global(mu, y) <= 1e-10

    def test_measure_on_some_variables_is_refused(self):
        mu = AtomicMeasure((1, 2), [[1.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match=r"^measure must live on all variables 1..n$"):
            verify_global(mu, demo.chain_pair_moments())

    def test_empty_measure(self):
        y = demo.chain_pair_moments()
        mu = AtomicMeasure((1, 2, 3), np.zeros((0, 3)), np.zeros(0))
        assert verify_global(mu, y) == pytest.approx(1.0)  # max |y| entry

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_residual_of_a_fresh_scan(self, seed):
        # the slots kept on the index map give the residual of the dense exponents
        cover, atoms, weights, y = random_flat_instance(seed + 60)
        atoms = atoms + np.random.default_rng(seed).normal(scale=1e-3, size=atoms.shape)
        mu = AtomicMeasure(tuple(range(1, cover.n + 1)), atoms, weights)
        fresh = np.array(y.index_map.exponents, dtype=np.uint8)
        expected = float(np.abs(monomial_matrix(fresh, atoms) @ weights - y.values).max())
        assert verify_global(mu, y) == expected


class TestSolverNoise:
    """Noise far below the rank cut, as a solver leaves it in the moments,
    must not turn a true verdict into a refusal at a later step: extraction,
    gluing and the weight LP all judge by the same policy tolerance."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 299),
        st.sampled_from([1e-6, 1e-5, 1e-4]),
        st.sampled_from([1e-4, 1e-5]),
        st.integers(0, 2**32 - 1),
    )
    def test_true_verdict_extracts_glues_and_weighs(self, seed, rel_tol, ratio, noise_seed):
        cover, _, _, exact = random_flat_instance(seed)
        noise = rel_tol * ratio * np.random.default_rng(noise_seed).uniform(-1, 1, exact.values.shape)
        noise[0] = 0.0  # the mass entry is fixed, as in the relaxation
        y = SparseMomentVector.on_index_map(cover, exact.omega, exact.index_map, exact.values + noise)
        policy = RankPolicy(rel_tol=rel_tol)
        witnesses = check_rip(cover)
        cert = certify(y, [()] * cover.m, witnesses, policy)
        assert cert.verdict
        measures = extract_clique_measures(cert, policy)
        mu = assemble(measures, witnesses, policy, chosen=cert.witness_choice())
        assert enumerate_extreme_measures(mu.atoms, y, 2, policy=policy)
        assert verify_global(mu, y) <= rel_tol

    @pytest.mark.parametrize("noise_seed", range(20))
    def test_weight_lp_drops_rows_equal_up_to_noise(self, noise_seed):
        # noisy redundant moment rows differ by pivots near the noise (1e-6),
        # far below the policy tolerance; kept, they made phase 1 infeasible
        exact = demo.chain_triple_moments()
        noise = 1e-6 * np.random.default_rng(noise_seed).uniform(-1, 1, exact.values.shape)
        noise[0] = 0.0
        y = SparseMomentVector.on_index_map(
            exact.cover, exact.omega, exact.index_map, exact.values + noise
        )
        policy = RankPolicy(rel_tol=1e-4)
        witnesses = check_rip(y.cover)
        cert = certify(y, [()] * y.cover.m, witnesses, policy)
        assert cert.verdict
        measures = extract_clique_measures(cert, policy)
        mu = assemble(measures, witnesses, policy, chosen=cert.witness_choice())
        assert enumerate_extreme_measures(mu.atoms, y, 2, policy=policy)
