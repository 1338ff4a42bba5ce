import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk import demo, io
from smk.core import CliqueCover, SparseMomentVector, index_map_of, sparse_exponents
from smk.errors import DuplicateEntry, IndexOutOfPattern, MissingEntries
from smk.extract import AtomicMeasure
from smk.relax import build_relaxation

from conftest import shuffled_chain_covers


def test_moment_vector_round_trip(tmp_path):
    y = demo.chain_pair_moments()
    path = tmp_path / "y.json"
    io.save_moment_vector(y, path)
    back = io.load_moment_vector(path)
    assert back.cover == y.cover
    assert back.omega == y.omega
    assert back.entries == y.entries


def test_duplicate_alpha_rejected():
    data = io.moment_vector_to_dict(demo.chain_pair_moments())
    data["entries"].append(dict(data["entries"][0]))
    with pytest.raises(DuplicateEntry):
        io.load_moment_vector(data)


def test_missing_entries_rejected_unless_flagged():
    data = io.moment_vector_to_dict(demo.chain_pair_moments())
    data["entries"] = data["entries"][:3]
    with pytest.raises(MissingEntries):
        io.load_moment_vector(data)
    y = io.load_moment_vector(data, allow_missing_as_zero=True)
    assert len(y.entries) == 25


def test_entries_any_order():
    data = io.moment_vector_to_dict(demo.chain_pair_moments())
    data["entries"] = data["entries"][::-1]
    y = io.load_moment_vector(data)
    assert y.entries == demo.chain_pair_moments().entries


def moment_doc(cover, omega, pairs) -> dict:
    return {
        "n": cover.n,
        "cliques": [list(c) for c in cover.cliques],
        "omega": omega,
        "entries": [{"alpha": list(a), "value": v} for a, v in pairs],
    }


class TestMomentReader:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shuffled_chain_covers(), st.integers(1, 2), st.booleans(), st.integers(0, 2**32 - 1))
    def test_shuffled_and_partial_entries(self, cover, omega, drop, seed):
        rng = np.random.default_rng(seed)
        exponents = sparse_exponents(cover, 2 * omega)
        pairs = [(exponents[k], float(v)) for k, v in
                 zip(rng.permutation(len(exponents)), rng.normal(size=len(exponents)))]
        if drop:
            pairs = [pair for pair in pairs if rng.random() < 0.7]
        reference = SparseMomentVector.build(cover, omega, pairs, allow_missing_as_zero=True)
        loaded = io.load_moment_vector(moment_doc(cover, omega, pairs), allow_missing_as_zero=True)
        assert list(loaded.entries) == list(reference.entries)
        assert loaded.values.tolist() == reference.values.tolist()
        assert loaded.index_map is reference.index_map

    @pytest.mark.parametrize(
        "defect, error",
        [
            ("duplicate", DuplicateEntry),
            ("out of pattern", IndexOutOfPattern),
            ("ragged", IndexOutOfPattern),
            ("negative", IndexOutOfPattern),
            ("exponent 256", IndexOutOfPattern),
            ("fractional", IndexOutOfPattern),
            ("null value", TypeError),
            ("duplicate after out of pattern", DuplicateEntry),
            ("missing", MissingEntries),
        ],
    )
    def test_first_error_matches_build(self, defect, error):
        y = demo.chain_pair_moments()
        entries = [[list(a), v] for a, v in y.entries.items()]
        if defect.startswith("duplicate"):
            entries.append(list(entries[3]))
        if defect.endswith("out of pattern"):
            entries.insert(1, [[1, 0, 1], 0.0])  # x1*x3 lies in no clique
        alpha = {"ragged": [0, 0], "negative": [-1, 0, 0], "exponent 256": [256, 0, 0],
                 "fractional": [0, 0, 1.5]}.get(defect)
        if alpha is not None:
            entries.append([alpha, 0.0])
        if defect == "null value":
            entries[5][1] = None
        if defect == "missing":
            del entries[7:9]
        with pytest.raises(error) as expected:
            SparseMomentVector.build(y.cover, y.omega, entries)
        with pytest.raises(error) as got:
            io.load_moment_vector(moment_doc(y.cover, y.omega, entries))
        assert str(got.value) == str(expected.value)

    def test_fractional_exponent_named_as_written(self):
        y = demo.chain_pair_moments()
        pairs = [*y.entries.items(), ((0, 0, 1.5), 0.0)]
        with pytest.raises(IndexOutOfPattern, match=r"\(0, 0, 1\.5\)"):
            io.load_moment_vector(moment_doc(y.cover, y.omega, pairs))

    def test_integral_float_exponents_load(self):
        y = demo.chain_pair_moments()
        pairs = [([float(e) for e in a], v) for a, v in y.entries.items()]
        assert io.load_moment_vector(moment_doc(y.cover, y.omega, pairs)).entries == y.entries

    def test_one_index_map_per_cover(self, tmp_path):
        assert index_map_of(CliqueCover(3, ((1, 2), (2, 3))), 4) is index_map_of(
            CliqueCover(3, [[1, 2], [2, 3]]), 4
        )
        path = tmp_path / "y.json"
        io.save_moment_vector(demo.chain_triple_moments(), path)
        loaded = io.load_moment_vector(path)
        instance = build_relaxation(demo.chain_triple_pop(), 3)
        assert instance.index_map is loaded.index_map
        assert instance.moment_vector(loaded.values).index_map is loaded.index_map


def test_measure_round_trip(tmp_path):
    mu = AtomicMeasure((1, 3), [[1.0, -1.0], [0.5, 2.0]], [0.25, 0.75])
    path = tmp_path / "mu.json"
    io.save_measure(mu, path)
    back = io.load_measure(path)
    assert back.variables == mu.variables
    assert np.array_equal(back.atoms, mu.atoms)
    assert np.array_equal(back.weights, mu.weights)


def test_empty_measure_round_trip():
    mu = AtomicMeasure((1, 2), np.zeros((0, 2)), np.zeros(0))
    back = io.load_measure(io.measure_to_dict(mu))
    assert back.num_atoms == 0
    assert back.atoms.shape == (0, 2)


def test_pop_round_trip(tmp_path):
    pop = demo.chain_triple_pop()
    path = tmp_path / "pop.json"
    io.save_pop(pop, path)
    back = io.load_pop(path)
    assert back.cover == pop.cover
    assert back.objectives == pop.objectives
    for gs_a, gs_b in zip(back.constraints, pop.constraints):
        assert len(gs_a) == len(gs_b)
        for a, b in zip(gs_a, gs_b):
            assert a.variables == b.variables
            assert a.coefficients == b.coefficients
