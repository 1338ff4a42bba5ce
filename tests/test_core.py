import math
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk.core import (
    CliqueCover,
    CliqueSubvector,
    IndexMap,
    SparseMomentVector,
    clique_subvector,
    grlex_key,
    Slots,
    exponent_slots,
    local_exponents,
    monomial_matrix,
    sparse_exponents,
    subvector_on,
    validate_cover,
)
from smk.certify import certify
from smk.errors import DuplicateEntry, IndexOutOfPattern, MissingEntries
from smk.extract import extract_atoms
from smk.matrices import moment_matrix
from smk.rip import check_rip
from smk import demo

from conftest import (
    CHAIN_PAIR_ENTRIES, TRIANGLE_ENTRIES, index_map_reference, keyed, lift, random_flat_instance,
    random_rip_cover, shuffled_chain_covers,
)

CHAIN_PAIR = CliqueCover(3, ((1, 2), (2, 3)))
TRIANGLE = CliqueCover(3, ((1, 2), (2, 3), (1, 3)))
CHAIN_TRIPLE = CliqueCover(4, ((1, 2), (2, 3), (3, 4)))


def brute_force_sparse(cover, bound):
    """Independent enumeration over the full exponent grid."""
    out = set()
    for exps in product(range(bound + 1), repeat=cover.n):
        if sum(exps) > bound:
            continue
        supp = {k + 1 for k, e in enumerate(exps) if e > 0}
        if any(supp <= set(c) for c in cover.cliques):
            out.add(exps)
    return out


def grlex_reference(cover, bound):
    """The sparse index set by dense tuples: every lift, deduplicated, sorted
    by the canonical key."""
    lifted = {
        lift(loc, cl, cover.n) for cl in cover.cliques for loc in local_exponents(len(cl), bound)
    }
    return sorted(lifted, key=grlex_key)


def subvector_reference(y, variables):
    """Clique subvector by lifting every local index to a dense tuple."""
    return [
        (loc, y.entries[lift(loc, variables, y.cover.n)])
        for loc in local_exponents(len(variables), 2 * y.omega)
    ]


class TestIndexMap:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(shuffled_chain_covers(), st.integers(0, 6))
    def test_order_equals_sorted_dense_lifts(self, cover, bound):
        assert validate_cover(cover) == []
        index_map = IndexMap(cover, bound)
        reference = grlex_reference(cover, bound)
        assert list(index_map.exponents) == reference
        assert np.array_equal(index_map.places(index_map.slots), np.arange(len(reference)))
        for row, columns, exponents, alpha in zip(range(len(reference)), *index_map.slots, reference):
            nonzero = [(t, e) for t, e in enumerate(alpha) if e]
            padding = [(0, 0)] * (len(columns) - len(nonzero))
            assert list(zip(columns.tolist(), exponents.tolist())) == nonzero + padding, row

    @pytest.mark.parametrize("seed", range(12))
    def test_slots_equal_those_of_the_dense_lifts(self, seed):
        # covers with n up to 48 at degree bounds 0-4: one slot per nonzero, in
        # variable order, padded with column 0 and exponent 0 to the widest row,
        # and each row is found at its own position
        rng = np.random.default_rng(seed)
        cover = random_rip_cover(rng, max_cliques=16, max_clique_size=3)
        index_map = IndexMap(cover, int(rng.integers(0, 5)))
        slots = index_map.slots
        assert index_map.slots is slots and isinstance(slots, Slots)
        dense = np.array(index_map.exponents, dtype=np.uint8).reshape(-1, cover.n)
        reference = exponent_slots(dense)
        assert slots.columns.dtype == slots.exponents.dtype == np.intp
        assert np.array_equal(slots.columns, reference.columns)
        assert np.array_equal(slots.exponents, reference.exponents)
        assert not (slots.columns.flags.writeable or slots.exponents.flags.writeable)
        assert np.array_equal(index_map.places(slots), np.arange(len(dense)))

    def test_places_compare_exact_pairs(self):
        # exponents 10-20 at degree bound 20: each multi-index is found at its
        # position in any row order, and none outside the set is found
        index_map = IndexMap(CHAIN_TRIPLE, 20)
        dense = np.array(index_map.exponents, dtype=np.uint8)
        assert dense.max() == 20
        order = np.random.default_rng(0).permutation(len(dense))
        assert np.array_equal(index_map.places(exponent_slots(dense[order])), order)
        outside = [(16, 0, 1, 0), (0, 0, 0, 21), (10, 11, 0, 0), (1, 1, 1, 0), (0, 17, 0, 4)]
        rows = np.array([*outside, (0, 16, 0, 0), (0, 0, 10, 10)], dtype=np.uint8)
        places = index_map.places(exponent_slots(rows)).tolist()
        assert places[:5] == [-1] * 5
        assert places[5:] == [index_map.exponents.index((0, 16, 0, 0)), index_map.exponents.index((0, 0, 10, 10))]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.one_of(
            shuffled_chain_covers(),
            st.integers(0, 2**32 - 1).map(lambda seed: random_rip_cover(np.random.default_rng(seed), 16, 4)),
        ),
        st.integers(0, 6),
    )
    def test_equals_dict_and_sort_reference(self, cover, bound):
        # exponents, slots, every clique's and overlap's positions at every
        # bound up to the map's, and places of the map's rows in a shuffled
        # order among rows outside the set
        index_map, reference = IndexMap(cover, bound), index_map_reference(cover, bound)
        assert list(index_map.exponents) == reference.exponents
        assert all(np.array_equal(a, b) for a, b in zip(index_map.slots, reference.slots))
        overlaps = {tuple(sorted(set(a) & set(b))) for a, b in combinations(cover.cliques, 2)}
        for variables, b in product([*cover.cliques, *overlaps], range(bound + 1)):
            assert np.array_equal(index_map.positions(variables, b), reference.positions(variables, b))
        rng = np.random.default_rng(bound)
        dense = np.array(reference.exponents, dtype=np.uint8).reshape(-1, cover.n)
        rows = np.concatenate([dense, rng.integers(0, 3, (20, cover.n), dtype=np.uint8)])
        slots = exponent_slots(rows[rng.permutation(len(rows))])
        assert np.array_equal(index_map.places(slots), reference.places(slots))

    def test_positions_of_unsorted_empty_and_outside_tuples(self):
        index_map, reference = IndexMap(CHAIN_TRIPLE, 4), index_map_reference(CHAIN_TRIPLE, 4)
        for variables in ((3, 2), (4, 3), (2,), ()):
            assert np.array_equal(index_map.positions(variables, 4), reference.positions(variables, 4))
        assert index_map.positions((), 4).tolist() == [0]
        for variables, alpha in [((4, 1), (1, 0, 0, 1)), ((2, 3, 4), (0, 1, 0, 1)), ((3, 1), (1, 0, 1, 0))]:
            with pytest.raises(IndexOutOfPattern) as got:
                index_map.positions(variables, 4)
            with pytest.raises(IndexOutOfPattern) as want:
                reference.positions(variables, 4)
            assert got.value.alpha == want.value.alpha == alpha

    def test_cover_without_cliques_is_refused(self):
        with pytest.raises(ValueError, match="the cover must have cliques"):
            IndexMap(CliqueCover(2, ()), 2)

    def test_dense_exponents_are_built_on_first_read(self):
        index_map = IndexMap(CHAIN_TRIPLE, 4)
        assert len(index_map.exponents) == 35 and "_tuples" not in vars(index_map.exponents)
        assert index_map.exponents[2] == (0, 1, 0, 0) and "_tuples" in vars(index_map.exponents)
        assert index_map.exponents[-2:] == ((0, 0, 1, 3), (0, 0, 0, 4))

    def test_positions_follow_local_order(self):
        index_map = IndexMap(CHAIN_TRIPLE, 4)
        for variables in ((2, 3), (3, 2), (4,), ()):
            lifted = [lift(loc, variables, 4) for loc in local_exponents(len(variables), 4)]
            got = [index_map.exponents[p] for p in index_map.positions(variables, 4)]
            assert got == lifted

    def test_positions_cached_read_only(self):
        index_map = IndexMap(CHAIN_TRIPLE, 4)
        table = index_map.positions([2, 3], 4)
        assert index_map.positions((2, 3), 4) is table
        assert index_map.positions((2, 3), 2) is not table
        with pytest.raises(ValueError):
            table[0] = 5
        for _ in range(2):  # a failed lookup is not cached
            with pytest.raises(IndexOutOfPattern, match=re.escape("(1, 0, 1, 0)")):
                index_map.positions((1, 3), 4)


@pytest.mark.parametrize(
    "cover,bound,count",
    [
        (CHAIN_PAIR, 4, 25),
        (TRIANGLE, 4, 31),
        (CHAIN_TRIPLE, 6, 70),
    ],
)
def test_sparse_exponents_counts(cover, bound, count):
    exps = sparse_exponents(cover, bound)
    assert len(exps) == count
    assert set(exps) == brute_force_sparse(cover, bound)
    assert len(set(exps)) == len(exps)


def test_sparse_exponents_bound_zero():
    assert sparse_exponents(CHAIN_PAIR, 0) == [(0, 0, 0)]


def test_sparse_exponents_canonical_order():
    exps = sparse_exponents(CHAIN_PAIR, 2)
    degs = [sum(a) for a in exps]
    assert degs == sorted(degs)
    # within degree 1, variable 1 comes first
    assert exps[1] == (1, 0, 0) and exps[2] == (0, 1, 0) and exps[3] == (0, 0, 1)
    assert exps[4] == (2, 0, 0)


def test_sparse_exponents_monotone(rng):
    for seed in range(10):
        cover = random_rip_cover(np.random.default_rng(seed))
        small = set(sparse_exponents(cover, 2))
        assert small <= set(sparse_exponents(cover, 4))
        bigger = CliqueCover(cover.n + 1, cover.cliques + ((cover.n + 1,),))
        grown = {a[: cover.n] for a in sparse_exponents(bigger, 2) if a[cover.n] == 0}
        assert small <= grown


def test_sparse_exponents_count_bound():
    for cover, disjoint in [
        (CHAIN_PAIR, False),
        (CliqueCover(4, ((1, 2), (3, 4))), True),
    ]:
        exps = sparse_exponents(cover, 4)
        bound = sum(math.comb(len(c) + 4, 4) for c in cover.cliques)
        if disjoint:
            # disjoint cliques double-count only the constant index
            assert len(exps) == bound - (cover.m - 1)
        else:
            assert len(exps) < bound


def test_local_exponents_zero_vars():
    assert local_exponents(0, 3) == [()]


def test_lift_restrict_inverse():
    clique = (2, 4)
    for loc in local_exponents(2, 3):
        alpha = lift(loc, clique, 5)
        assert tuple(alpha[var - 1] for var in clique) == loc
        assert sum(alpha) == sum(loc)
        assert {k + 1 for k, a in enumerate(alpha) if a > 0} <= set(clique)


@pytest.fixture
def y_pair():
    return SparseMomentVector.build(CHAIN_PAIR, 2, CHAIN_PAIR_ENTRIES)


@pytest.fixture
def y_triangle():
    return SparseMomentVector.build(TRIANGLE, 2, TRIANGLE_ENTRIES)


def test_demo_matches_reference(y_pair, y_triangle):
    assert demo.chain_pair_moments().entries == y_pair.entries
    assert demo.triangle_moments().entries == y_triangle.entries


class TestMonomialMatrix:
    def test_equals_product_loop(self, rng):
        cover = CliqueCover(6, ((1, 2, 3), (3, 4), (4, 5, 6)))
        exponents = sparse_exponents(cover, 6)
        atoms = rng.uniform(-1.5, 1.5, (7, 6))
        atoms[0, 2] = 0.0
        loop = np.array([np.prod([atoms[:, t] ** float(e) for t, e in enumerate(a)], axis=0) for a in exponents])
        assert np.array_equal(monomial_matrix(exponents, atoms), loop)
        assert np.array_equal(monomial_matrix(np.array(exponents), atoms), loop)

    def test_a_point_gets_the_same_bits_in_any_batch(self):
        # numpy computes a broadcast power by another path once the array is
        # large, which gave dozens of these squares other bits than a call on
        # their point alone
        points = np.random.default_rng(0).standard_normal((3000, 1))
        points[:2, 0] = 0.0, -0.0
        exponents = [(d,) for d in range(21)]
        stacked = monomial_matrix(exponents, points)
        alone = np.column_stack([monomial_matrix(exponents, point) for point in points])
        assert np.array_equal(stacked.view(np.uint64), alone.view(np.uint64))

    @pytest.mark.parametrize("case", ["glued", "negative zero", "single atom", "degree twenty"])
    def test_bitwise_product_loop(self, rng, case):
        # powers are taken once per distinct coordinate: glued atoms repeat
        # coordinates, and -0.0 equals 0.0 but its odd powers are -0.0; at
        # degree bound 20 exponents 10-20 are evaluated the same way
        cover = CliqueCover(5, ((1, 2), (2, 3), (3, 4), (4, 5)))
        if case == "glued":  # every sign pattern of two values per variable
            bits = (np.arange(32)[:, None] >> np.arange(5)) & 1
            atoms = np.where(bits == 1, rng.uniform(0.4, 1.2, 5), rng.uniform(-1.2, -0.4, 5))
        elif case in ("negative zero", "degree twenty"):
            atoms = rng.uniform(-1.5, 1.5, (4, 5))
            atoms[0, 1], atoms[1, 1], atoms[2, 3] = -0.0, 0.0, -0.0
        else:
            atoms = rng.uniform(-1.5, 1.5, (1, 5))
        index_map = IndexMap(cover, 20 if case == "degree twenty" else 6)
        loop = np.array([np.prod(atoms ** np.asarray(a, dtype=float), axis=1) for a in index_map.exponents])
        for A in (
            monomial_matrix(index_map.exponents, atoms),
            monomial_matrix(index_map.slots, atoms),
        ):
            assert A.tobytes() == loop.tobytes()
        if case == "negative zero":
            zeros = loop[loop == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    def test_empty_shapes(self):
        assert monomial_matrix([()], np.zeros((3, 0))).tolist() == [[1.0, 1.0, 1.0]]
        assert monomial_matrix([], np.ones((2, 4))).shape == (0, 2)
        assert monomial_matrix([(1, 2)], np.zeros((0, 2))).shape == (1, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            monomial_matrix([(-1, 0)], np.ones((1, 2)))


class TestMomentVectorBuild:
    def test_duplicate_is_an_error(self):
        pairs = [((0, 0, 0), 1.0), ((0, 0, 0), 2.0)]
        with pytest.raises(DuplicateEntry):
            SparseMomentVector.build(CHAIN_PAIR, 1, pairs)

    def test_missing_is_an_error(self):
        with pytest.raises(MissingEntries):
            SparseMomentVector.build(CHAIN_PAIR, 1, {(0, 0, 0): 1.0})

    def test_missing_as_zero(self):
        y = SparseMomentVector.build(
            CHAIN_PAIR, 1, {(0, 0, 0): 1.0}, allow_missing_as_zero=True
        )
        assert y.entries[(1, 0, 0)] == 0.0
        assert len(y.entries) == len(sparse_exponents(CHAIN_PAIR, 2))

    def test_extra_key_is_an_error(self):
        values = dict.fromkeys(sparse_exponents(CHAIN_PAIR, 2), 0.0)
        values[(1, 0, 1)] = 1.0  # supported on no clique
        with pytest.raises(IndexOutOfPattern):
            SparseMomentVector.build(CHAIN_PAIR, 1, values)

    def test_key_set_is_exactly_the_pattern(self, y_pair):
        assert list(y_pair.entries) == sparse_exponents(CHAIN_PAIR, 4)

    def test_entries_are_built_on_first_read(self):
        y = demo.chain_triple_moments()
        fresh = SparseMomentVector.on_index_map(y.cover, y.omega, y.index_map, y.values)
        certify(fresh, ((), (), ()), check_rip(fresh.cover))
        assert fresh.mass == 1.0 and not fresh.is_zero()
        assert "data" not in vars(fresh.entries)  # read only by position so far
        assert list(fresh.entries.items()) == list(zip(y.index_map.exponents, y.values.tolist()))
        assert fresh.entries == dict(y.entries) and dict(y.entries) == fresh.entries
        assert fresh == y and fresh == SparseMomentVector(y.cover, y.omega, dict(y.entries))

    def test_constructor_reads_entries_in_canonical_order(self):
        y = demo.chain_pair_moments()
        z = SparseMomentVector(y.cover, y.omega, dict(list(y.entries.items())[::-1]))
        assert z == y
        assert z.values.tobytes() == y.values.tobytes() and z.mass == y.mass == 1.0
        witnesses = check_rip(y.cover)
        assert certify(z, ((), ()), witnesses).verdict and certify(y, ((), ()), witnesses).verdict
        assert repr(certify(z, ((), ()), witnesses).to_dict()) == repr(
            certify(y, ((), ()), witnesses).to_dict()
        )

    def test_constructor_refuses_another_key_set(self):
        entries = dict(demo.chain_pair_moments().entries)
        del entries[(0, 1, 1)]
        message = "1 sparse indices missing, first (0, 1, 1)"
        with pytest.raises(MissingEntries, match=re.escape(message)):
            SparseMomentVector(CHAIN_PAIR, 2, entries)
        entries[(0, 1, 1)] = 0.0
        entries[(1, 0, 1)] = 1.0  # supported on no clique
        with pytest.raises(IndexOutOfPattern, match=re.escape("(1, 0, 1)")):
            SparseMomentVector(CHAIN_PAIR, 2, entries)

    def test_constructor_checks_the_key_set_before_any_read(self):
        # unchecked, a vector with one entry swapped for (9, 9, 9) would
        # equal itself and be written to a file that the reader refuses
        entries = dict(demo.chain_pair_moments().entries)
        del entries[(0, 1, 1)]
        entries[(9, 9, 9)] = 1.0
        with pytest.raises(IndexOutOfPattern, match=re.escape("(9, 9, 9)")):
            SparseMomentVector(CHAIN_PAIR, 2, entries)


class TestRounded:
    def test_noise_below_the_digit_leaves_no_trace(self):
        # noise of either sign rounds to +-0.0 unless signed zeros are normalised,
        # and the sign of a zero entry reorders the extracted atoms
        y = demo.chain_triple_moments()
        noise = np.random.default_rng(0).choice([-1e-9, 1e-9], y.values.size)
        a, b = (
            SparseMomentVector.on_index_map(
                y.cover, y.omega, y.index_map, (y.values + sign * noise).tolist()
            ).rounded(4)
            for sign in (1.0, -1.0)
        )
        assert a.values.tobytes() == b.values.tobytes()
        for i, rank in zip((1, 2, 3), (4, 2, 2)):
            mu_a, mu_b = (
                extract_atoms(moment_matrix(clique_subvector(v, i), 3), rank, seed=i)
                for v in (a, b)
            )
            assert np.array_equal(mu_a.atoms, mu_b.atoms)
            assert np.array_equal(mu_a.weights, mu_b.weights)


class TestCliqueSubvector:
    def test_pair_clique_one(self, y_pair):
        sub = clique_subvector(y_pair, 1)
        assert sub.clique == (1, 2)
        assert keyed(sub)[(4, 0)] == 1.0
        assert keyed(sub)[(0, 4)] == 0.0
        assert len(sub.moments) == len(local_exponents(2, 4))

    def test_zero_vector(self):
        y = SparseMomentVector.build(CHAIN_PAIR, 1, {}, allow_missing_as_zero=True)
        assert not clique_subvector(y, 2).moments.any()

    def test_triangle_clique_three(self, y_triangle):
        sub = clique_subvector(y_triangle, 3)
        assert sub.clique == (1, 3)
        assert keyed(sub)[(1, 1)] == -1.0

    def test_subvectors_equal_dense_reference(self):
        y = demo.chain_triple_moments()
        for i in range(1, y.cover.m + 1):
            sub = clique_subvector(y, i)
            assert list(keyed(sub).items()) == subvector_reference(y, y.cover.clique(i))
        for variables in ((2,), (3, 4), (4, 3), ()):
            sub = subvector_on(y, variables)
            assert list(keyed(sub).items()) == subvector_reference(y, variables)

    def test_moments_are_a_read_only_gather_of_the_vector(self):
        for y in (demo.chain_pair_moments(), demo.chain_triple_moments(), demo.triangle_moments()):
            for i, clique in enumerate(y.cover.cliques, start=1):
                sub = clique_subvector(y, i)
                expected = y.values[y.index_map.positions(clique, 2 * y.omega)]
                assert sub.moments.tobytes() == expected.tobytes()
                with pytest.raises(ValueError):
                    sub.moments[0] = 0.0

    def test_constructor_refuses_an_array_of_another_length(self):
        size = len(local_exponents(2, 4))
        sub = CliqueSubvector((1, 2), 2, np.arange(size))
        assert sub.moments.dtype == float and not sub.moments.flags.writeable
        for length in (0, size - 1, size + 1):
            with pytest.raises(ValueError, match="moments for clique"):
                CliqueSubvector((1, 2), 2, np.zeros(length))
        with pytest.raises(ValueError):
            CliqueSubvector((1, 2), 2, np.zeros((1, size)))

    def test_subvectors_compare_without_their_arrays(self, y_pair):
        a, b = clique_subvector(y_pair, 1), clique_subvector(y_pair, 1)
        assert a == b and hash(a) == hash(b)
        assert a != clique_subvector(y_pair, 2)

    def test_moment_matrix_equals_the_certificate_bitwise(self):
        instances = [demo.chain_pair_moments(), demo.chain_triple_moments()]
        instances += [random_flat_instance(seed)[3] for seed in range(8)]
        for y in instances:
            cert = certify(y, [()] * y.cover.m, check_rip(y.cover))
            for i, check in enumerate(cert.cliques, start=1):
                M = moment_matrix(clique_subvector(y, i), y.omega)
                assert M.labels == check.moment.labels
                assert M.data.tobytes() == check.moment.data.tobytes()

    def test_variables_outside_every_clique(self):
        y = demo.chain_triple_moments()
        with pytest.raises(IndexOutOfPattern, match=re.escape("(1, 0, 1, 0)")) as info:
            subvector_on(y, (1, 3))
        assert info.value.alpha == (1, 0, 1, 0)

    @pytest.mark.parametrize("variables,outside", [((5,), 5), ((0, 1), 0), ((1, 2, 3, 4, 5), 5)])
    def test_variables_outside_one_to_n_refused_typed(self, variables, outside):
        # neither may reach numpy's indexing: variable 5 of 4 would raise an
        # untyped IndexError, and variable 0 would wrap round to the last column
        y = demo.chain_triple_moments()
        with pytest.raises(IndexOutOfPattern, match=re.escape(f"variable {outside} is outside 1..4")) as info:
            subvector_on(y, variables)
        assert info.value.alpha == variables

    def test_reembedding_roundtrip(self, y_triangle):
        for i in (1, 2, 3):
            clique = TRIANGLE.clique(i)
            sub = clique_subvector(y_triangle, i)
            for loc, v in keyed(sub).items():
                assert y_triangle.entries[lift(loc, clique, 3)] == v


class TestValidateCover:
    def test_chain_pair_ok(self):
        assert validate_cover(CHAIN_PAIR) == []

    def test_containment(self):
        report = validate_cover(CliqueCover(3, ((1, 2), (1, 2, 3))))
        assert any("clique 1" in r and "clique 2" in r for r in report)

    def test_uncovered(self):
        report = validate_cover(CliqueCover(3, ((1, 2),)))
        assert any("variable 3 uncovered" in r for r in report)

    def test_uncovered_report_does_not_grow_with_n(self):
        # the first uncovered variable, then a count; no line per variable
        report = validate_cover(CliqueCover(10**9, ((1, 2), (2, 3))))
        assert report == ["variable 4 uncovered", "999999996 more variables uncovered"]
        report = validate_cover(CliqueCover(10**9, ((2, 3), (3, 10**9))))
        assert report == ["variable 1 uncovered", "999999996 more variables uncovered"]
        assert validate_cover(CliqueCover(4, ((1, 2), (2, 4)))) == ["variable 3 uncovered"]

    def test_unsorted_clique(self):
        report = validate_cover(CliqueCover(2, ((2, 1),)))
        assert any("not strictly increasing" in r for r in report)


@st.composite
def nesting_covers(draw):
    """Covers of 1-8 cliques on 1..n, each a fresh subset, an earlier clique
    again, a part of an earlier clique, or a list of variables in any order
    and maybe repeated; some cliques are empty or disjoint from the rest."""
    n = draw(st.integers(1, 8))
    cliques = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "equal", "part", "unsorted"] if cliques else ["fresh"]))
        if kind == "fresh":
            clique = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=4)))
        elif kind == "unsorted":
            clique = draw(st.lists(st.integers(1, n), min_size=1, max_size=5))
        else:
            clique = draw(st.sampled_from(cliques))
            if kind == "part" and clique:
                clique = draw(st.lists(st.sampled_from(clique), unique=True))
        cliques.append(tuple(clique))
    return CliqueCover(n, tuple(cliques))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cover=nesting_covers())
def test_validate_cover_reports_nesting_as_the_all_pairs_loop(cover):
    nested = [
        f"clique {i} ⊆ clique {j}"
        for i, ci in enumerate(cover.cliques, start=1)
        for j, cj in enumerate(cover.cliques, start=1)
        if i != j and set(ci) <= set(cj)
    ]
    report = validate_cover(cover)
    assert report[len(report) - len(nested) :] == nested
    assert not any("⊆" in line for line in report[: len(report) - len(nested)])
