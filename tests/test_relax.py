import dataclasses
import hashlib
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st

from smk.certify import RankPolicy
from smk.core import CliqueCover, IndexMap, SparseMomentVector, local_exponents, sparse_exponents
from smk.errors import (
    BlockNotPsdWarning, DegreeTooLow, DimensionMismatch, NonFiniteMoment, SolverDiverged,
)
from smk.matrices import ConstraintPolynomial, block_operator
from smk.altmeasure import enumerate_extreme_measures
from smk.assemble import maximal_support_set, verify_global
from smk.rip import check_rip
from smk.relax import (
    PopProblem,
    SdpBlock,
    SdpInstance,
    SdpaData,
    SolveReport,
    build_relaxation,
    emit_sdpa,
    glue_certified,
    ingest_solution,
    parse_sdpa,
    pipeline,
    project_psd,
    sdpa_text,
    size_groups,
    solve_sdp_bundled,
)
from smk import core, demo, io, relax

from conftest import random_flat_instance


def objective_value(pop, x):
    """The full objective at a global point, term by term."""
    total = 0.0
    for i, obj in enumerate(pop.objectives, start=1):
        clique = pop.cover.clique(i)
        for a, c in obj.items():
            term = c
            for var, e in zip(clique, a):
                term *= x[var - 1] ** e
            total += term
    return total


def block_matrices(instance, values):
    """Every block's matrix at ``values``, each entry summing its operator
    terms in their stored order."""
    row, column, coefficient = instance.operator
    flat = np.zeros(instance.offsets[-1])
    np.add.at(flat, row, coefficient * values[column])
    return [
        flat[lo : lo + blk.size**2].reshape(blk.size, blk.size)
        for lo, blk in zip(instance.offsets, instance.blocks)
    ]


def csr_reference(instance):
    """The stacked operator as a scipy CSR matrix built straight from the
    blocks' terms: scipy sorts them by row, then column, and sums repeats."""
    rows = [lo + np.asarray(blk.entry) for lo, blk in zip(instance.offsets, instance.blocks)]
    terms = (
        np.concatenate([blk.coefficient for blk in instance.blocks]),
        (np.concatenate(rows), np.concatenate([blk.position for blk in instance.blocks])),
    )
    return scipy.sparse.csr_matrix(terms, shape=(instance.offsets[-1], instance.num_vars))


def to_sdpa(instance):
    """The instance as :class:`SdpaData`, from the columns ``emit_sdpa`` formats."""
    m, sizes, c, index, value = relax._sdpa_columns(instance)
    return SdpaData(m, tuple(sizes), tuple(c.tolist()), tuple(zip(*index.tolist(), value.tolist())))


def feasibility_pop(cover):
    return PopProblem(cover, tuple({} for _ in cover.cliques), tuple(() for _ in cover.cliques))


def terms_reference(pop, omega):
    """Per block, upper-triangular (row, col, position, coefficient) terms,
    built entry by entry from label sums looked up in a dict."""
    index_map = IndexMap(pop.cover, 2 * omega)
    tables = [
        dict(zip(local_exponents(len(cl), 2 * omega), index_map.positions(cl, 2 * omega)))
        for cl in pop.cover.cliques
    ]

    def label_sums(labels):
        return [
            (r, c, tuple(x + z for x, z in zip(labels[r], labels[c])))
            for r in range(len(labels))
            for c in range(r, len(labels))
        ]

    blocks = []
    for clique, table in zip(pop.cover.cliques, tables):
        labels = local_exponents(len(clique), omega)
        blocks.append((len(labels), [(r, c, table[a], 1.0) for r, c, a in label_sums(labels)]))
    for clique, table, gs in zip(pop.cover.cliques, tables, pop.constraints):
        for g in gs:
            labels = local_exponents(len(clique), omega - g.d_half)
            terms = []
            for r, c, base in label_sums(labels):
                for gamma, coef in g.coefficients.items():
                    if coef != 0.0:
                        terms.append((r, c, table[tuple(x + z for x, z in zip(base, gamma))], coef))
            blocks.append((len(labels), terms))
    return blocks


def assemble_matrix_reference(size, terms, values):
    M = np.zeros((size, size))
    for r, c, pos, coef in terms:
        M[r, c] += coef * values[pos]
    iu = np.triu_indices(size, 1)
    M[(iu[1], iu[0])] = M[iu]
    return M


def sdpa_entries_reference(blocks):
    entries = []
    for bno, (_, terms) in enumerate(blocks, start=1):
        for r, col, pos, coef in terms:
            entries.append((pos, bno, r + 1, col + 1, -coef if pos == 0 else coef))
    entries.sort(key=lambda e: e[:4])
    merged = []
    for e in entries:
        if merged and merged[-1][:4] == e[:4]:
            merged[-1] = (*e[:4], merged[-1][4] + e[4])
        else:
            merged.append(e)
    return tuple(e for e in merged if e[4] != 0.0)


def sdpa_text_reference(data):
    """SDPA text written line by line, one f-string per entry."""
    lines = [
        str(data.m),
        str(len(data.block_sizes)),
        " ".join(str(s) for s in data.block_sizes),
        " ".join(repr(v) for v in data.c),
    ]
    for matno, blk, i, j, v in data.entries:
        lines.append(f"{matno} {blk} {i} {j} {v!r}")
    return "\n".join(lines) + "\n"


def relaxation_reference(pop, omega):
    """Per block (clique, kind, constraint, size, entry, position,
    coefficient), one operator and one index per block, and the objective
    summed term by term in clique order, then each map's order."""
    index_map = IndexMap(pop.cover, 2 * omega)
    tables = [index_map.positions(cl, 2 * omega) for cl in pop.cover.cliques]
    objective = np.zeros(len(index_map.exponents))
    for clique, table, obj in zip(pop.cover.cliques, tables, pop.objectives):
        local = dict(zip(local_exponents(len(clique), 2 * omega), table.tolist()))
        for a, c in obj.items():
            objective[local[a]] += c
    specs = [(i, "moment", None, None) for i in range(1, pop.cover.m + 1)]
    specs += [(i, "localizing", gi, g) for i, gs in enumerate(pop.constraints, start=1)
              for gi, g in enumerate(gs, start=1)]
    blocks = []
    for i, kind, gi, g in specs:
        labels, entry, position, coefficient = block_operator(len(pop.cover.clique(i)), omega, g)
        blocks.append((i, kind, gi, len(labels), entry, tables[i - 1][position], coefficient))
    return blocks, objective


def assert_bitwise(inst, pop, omega):
    """Blocks, objective and SDPA text as the block-by-block build and the
    line-by-line writer give them, bit for bit."""
    blocks, objective = relaxation_reference(pop, omega)
    assert inst.objective.tobytes() == objective.tobytes()
    got = [(b.clique, b.kind, b.constraint, b.size, b.entry, b.position, b.coefficient)
           for b in inst.blocks]
    assert [b[:4] for b in got] == [b[:4] for b in blocks]
    for a, b in zip(got, blocks):
        assert all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a[4:], b[4:]))
    assert emit_sdpa(inst) == sdpa_text_reference(to_sdpa(inst))


COEFFICIENTS = [0.0, -0.0, 1.0, -1.0, 3.0, 0.1, -2.5, 1e-300]


def mixed_width_pop(m: int = 30, seed: int = 0) -> PopProblem:
    """``m`` cliques of widths cycling 1, 2, 3 along a chain, every other
    one sharing a variable with the next, with seeded quartic objectives
    and zero to two constraints each: a ball shared by all cliques of one
    width, or a seeded polynomial of their own."""
    rng = np.random.default_rng(seed)
    cliques, start = [], 1
    for k in range(m):
        width = 1 + k % 3
        cliques.append(tuple(range(start, start + width)))
        start += width - k % 2
    cover = CliqueCover(max(c[-1] for c in cliques), tuple(cliques))

    def poly(width, count):
        exps = local_exponents(width, 4)
        picks = rng.choice(len(exps), size=min(count, len(exps)), replace=False)
        return {exps[p]: COEFFICIENTS[rng.integers(len(COEFFICIENTS))] for p in picks}

    objectives, constraints = [], []
    for clique in cliques:
        width = len(clique)
        ball = {(0,) * width: float(width + 1)}
        ball.update({tuple(2 * (s == t) for s in range(width)): -1.0 for t in range(width)})
        objectives.append(poly(width, 4))
        gs = [ball if rng.random() < 0.5 else poly(width, 3) for _ in range(rng.integers(3))]
        constraints.append(tuple(ConstraintPolynomial(clique, g) for g in gs))
    return PopProblem(cover, tuple(objectives), tuple(constraints))


@st.composite
def mixed_width_pops(draw):
    """A chain of 1-5 cliques of widths 1-3, each sharing one variable with
    the next or none, with zero to two constraints per clique: one of two
    shared per width, or one of its own; coefficients include -0.0 and
    1e-300."""
    omega = draw(st.integers(1, 2))
    coef = st.sampled_from(COEFFICIENTS)
    shared = {w: draw(st.lists(st.dictionaries(st.sampled_from(local_exponents(w, 2 * omega)), coef,
                                               max_size=3), min_size=2, max_size=2))
              for w in (1, 2, 3)}
    cliques, start = [], 1
    for _ in range(draw(st.integers(1, 5))):
        width = draw(st.integers(1, 3))
        cliques.append(tuple(range(start, start + width)))
        start += width - draw(st.integers(0, 1))
    cover = CliqueCover(max(c[-1] for c in cliques), tuple(cliques))
    objectives, constraints = [], []
    for clique in cliques:
        exps = local_exponents(len(clique), 2 * omega)
        polys = st.dictionaries(st.sampled_from(exps), coef, max_size=5)
        objectives.append(draw(polys))
        gs = draw(st.lists(st.one_of(st.sampled_from(shared[len(clique)]), polys), max_size=2))
        constraints.append(tuple(ConstraintPolynomial(clique, g) for g in gs))
    return PopProblem(cover, tuple(objectives), tuple(constraints)), omega


@st.composite
def chain_pops(draw):
    """A chain of 1-3 cliques of width 1-3 with random objectives and
    constraints (zero coefficients, constant-only ones and any term order)."""
    width = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    omega = draw(st.integers(1, 3 if width < 3 else 2))
    cover = CliqueCover(width + m - 1, tuple(tuple(range(i, i + width)) for i in range(1, m + 1)))
    exps = local_exponents(width, 2 * omega)
    coef = st.sampled_from([0.0, 1.0, -1.0, 3.0, 0.1, -2.5])
    polys = st.dictionaries(st.sampled_from(exps), coef, max_size=5)
    objectives = tuple(draw(polys) for _ in range(m))
    constraints = tuple(
        tuple(ConstraintPolynomial(cl, c) for c in draw(st.lists(polys, max_size=2)))
        for cl in cover.cliques
    )
    return PopProblem(cover, objectives, constraints), omega


class TestBlockOperator:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chain_pops(), st.integers(0, 2**32 - 1))
    def test_blocks_and_sdpa_match_entrywise_reference(self, case, seed):
        pop, omega = case
        inst = build_relaxation(pop, omega)
        reference = terms_reference(pop, omega)
        values = np.random.default_rng(seed).standard_normal(inst.num_vars)
        assert [b.size for b in inst.blocks] == [size for size, _ in reference]
        # the operator sums an entry's terms by position, the reference in the
        # order of the constraint's coefficients: a few roundings apart at most
        tol = 64 * np.finfo(float).eps
        for M, (size, terms) in zip(block_matrices(inst, values), reference):
            assert np.allclose(M, assemble_matrix_reference(size, terms, values), rtol=tol, atol=tol)
        assert to_sdpa(inst).entries == sdpa_entries_reference(reference)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(mixed_width_pops())
    def test_per_shape_build_and_writer_match_block_by_block(self, case):
        pop, omega = case
        inst = build_relaxation(pop, omega)
        assert_bitwise(inst, pop, omega)
        assert to_sdpa(inst).entries == sdpa_entries_reference(terms_reference(pop, omega))

    def test_blocks_match_matrices_on_the_fixture(self, inst_triple):
        y = demo.chain_triple_moments()
        reference = terms_reference(demo.chain_triple_pop(), 3)
        for M, (size, terms) in zip(block_matrices(inst_triple, y.values), reference):
            assert np.array_equal(M, assemble_matrix_reference(size, terms, y.values))


@pytest.fixture
def pop_triple():
    return demo.chain_triple_pop()


@pytest.fixture
def inst_triple(pop_triple):
    return build_relaxation(pop_triple, 3)


class TestBuildRelaxation:
    def test_chain_triple_structure(self, inst_triple):
        assert inst_triple.num_vars == len(sparse_exponents(inst_triple.cover, 6)) == 70
        moments = [b for b in inst_triple.blocks if b.kind == "moment"]
        locs = [b for b in inst_triple.blocks if b.kind == "localizing"]
        assert [b.size for b in moments] == [10, 10, 10]
        assert [b.size for b in locs] == [6, 6, 6]

    def test_single_variable(self):
        cover = CliqueCover(1, ((1,),))
        pop = PopProblem(cover, ({(2,): 1.0},), ((),))
        inst = build_relaxation(pop, 1)
        assert inst.num_vars == 3
        assert [b.size for b in inst.blocks] == [2]

    def test_chain_pair_feasibility(self):
        pop = feasibility_pop(CliqueCover(3, ((1, 2), (2, 3))))
        inst = build_relaxation(pop, 2)
        assert inst.num_vars == 25
        assert [b.size for b in inst.blocks] == [6, 6]

    def test_degree_too_low(self, pop_triple):
        with pytest.raises(DegreeTooLow):
            build_relaxation(pop_triple, 1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_objective_coefficient_is_refused(self, pop_triple, value):
        # the file reader refuses it as MalformedInput; through the library it
        # reached the solver's factorization, which failed on it untyped
        first, second, third = pop_triple.objectives
        objectives = (first, {**second, (1, 1): value}, third)
        message = f"objective coefficient {value!r} at exponent (1, 1) on clique 2 is not a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PopProblem(pop_triple.cover, objectives, pop_triple.constraints)

    @pytest.mark.parametrize("alpha", [(-1, 0), (1.5, 0), (True, 0)])
    def test_objective_exponent_that_is_not_a_nonnegative_integer_is_refused(self, pop_triple, alpha):
        first, _, third = pop_triple.objectives
        with pytest.raises(ValueError, match=re.escape(f"in {alpha} is not a nonnegative integer")):
            PopProblem(pop_triple.cover, (first, {alpha: 1.0}, third), pop_triple.constraints)

    def test_integral_float_exponents_read_as_ints(self, pop_triple):
        # float exponents such as 2.0 once reached the slot compiler of g(z),
        # which failed on them with an untyped TypeError
        def floats(terms):
            return {tuple(map(float, a)): c for a, c in terms.items()}

        constraints = tuple(
            tuple(ConstraintPolynomial(g.variables, floats(g.coefficients)) for g in gs)
            for gs in pop_triple.constraints
        )
        pop = PopProblem(pop_triple.cover, tuple(map(floats, pop_triple.objectives)), constraints)
        assert pop == pop_triple
        y = demo.chain_triple_moments()
        assert emit_sdpa(build_relaxation(pop, 3)) == emit_sdpa(build_relaxation(pop_triple, 3))
        result = pipeline(pop, 3, solver="file", solution=y)
        assert result.feasibility_clean and len(result.measure.atoms) == 8

    def test_objective_vector_matches_pop(self, pop_triple, rng):
        inst = build_relaxation(pop_triple, 3)
        for _ in range(20):
            x = rng.standard_normal(4)
            mono = np.array([np.prod(x ** np.array(a)) for a in inst.exponents])
            assert inst.objective @ mono == pytest.approx(objective_value(pop_triple, x), rel=1e-12)


class TestSdpa:
    def test_chain_pair_header(self):
        pop = feasibility_pop(CliqueCover(3, ((1, 2), (2, 3))))
        text = emit_sdpa(build_relaxation(pop, 2))
        lines = text.splitlines()
        assert lines[0] == "24"
        assert lines[1] == "2"
        assert lines[2] == "6 6"

    def test_round_trip_bit_exact(self, inst_triple):
        text = emit_sdpa(inst_triple)
        assert sdpa_text(parse_sdpa(text)) == text

    def test_round_trip_data_equality(self, inst_triple):
        data = to_sdpa(inst_triple)
        assert parse_sdpa(sdpa_text(data)) == data

    def test_no_localizing_block_for_unconstrained_clique(self):
        cover = CliqueCover(3, ((1, 2), (2, 3)))
        g = ConstraintPolynomial((1, 2), {(0, 0): 1.0, (2, 0): -1.0})
        pop = PopProblem(cover, ({}, {}), ((g,), ()))
        data = to_sdpa(build_relaxation(pop, 2))
        assert len(data.block_sizes) == 3  # two moment blocks + one localizing

    @pytest.mark.parametrize(
        "pop, omega, digest",
        [
            (demo.chain_triple_pop, 2, "23b86ea99cc5025bb7b320f579e376087fd4f0e706ceb3c8333574f942bfe505"),
            (demo.chain_triple_pop, 3, "450a4d430a721bc4a523ebd551f7895f804e616f2048dd61950428bff7368acf"),
            (mixed_width_pop, 2, "b493c36f3a54dd10a01d7ba64c9c7d2945c270e5b10a6acd9a4833ffdd23adca"),
        ],
    )
    def test_pinned_text(self, pop, omega, digest):
        inst = build_relaxation(pop(), omega)
        assert_bitwise(inst, pop(), omega)
        assert hashlib.sha256(emit_sdpa(inst).encode()).hexdigest() == digest

    def test_writer_keeps_signed_zero_and_exact_reprs(self):
        data = relax.SdpaData(2, (2,), (-0.0, 1e-300),
                              ((0, 1, 1, 1, -0.0), (1, 1, 1, 2, 0.1), (2, 1, 2, 2, 0.0)))
        assert sdpa_text(data) == sdpa_text_reference(data) == "2\n1\n2\n-0.0 1e-300\n" + (
            "0 1 1 1 -0.0\n1 1 1 2 0.1\n2 1 2 2 0.0\n")
        empty = relax.SdpaData(0, (), (), ())
        assert sdpa_text(empty) == sdpa_text_reference(empty) == "0\n0\n\n\n"

    def test_comments_skipped(self, inst_triple):
        text = emit_sdpa(inst_triple)
        commented = '* comment\n"another\n' + text
        assert parse_sdpa(commented) == parse_sdpa(text)


class TestIngest:
    def test_fixture_moments(self, inst_triple):
        y_fix = demo.chain_triple_moments()
        y = ingest_solution(inst_triple, y_fix)
        assert y.entries == y_fix.entries

    def test_free_coordinate_vector(self, inst_triple):
        zeros = np.zeros(inst_triple.num_vars - 1)
        y = ingest_solution(inst_triple, zeros)
        assert y.mass == 1.0
        assert sum(abs(v) for v in y.entries.values()) == 1.0  # only the constant entry

    def test_dimension_mismatch(self, inst_triple):
        with pytest.raises(DimensionMismatch):
            ingest_solution(inst_triple, np.zeros(10))

    def test_non_psd_warns(self):
        pop = feasibility_pop(CliqueCover(1, ((1,),)))
        inst = build_relaxation(pop, 1)
        # moments of nothing physical: E[x^2] < 0
        with pytest.warns(BlockNotPsdWarning):
            ingest_solution(inst, np.array([0.0, -1.0]))

    def test_mapping_ingest(self, inst_triple):
        y_fix = demo.chain_triple_moments()
        y = ingest_solution(inst_triple, dict(y_fix.entries))
        assert y.entries == y_fix.entries

    @pytest.mark.parametrize("kind", ["moment vector", "mapping"])
    def test_mass_other_than_one_is_refused(self, pop_triple, inst_triple, kind):
        # the relaxation pins the constant moment to 1, whatever the source
        y = demo.chain_triple_moments()
        doubled = SparseMomentVector.on_index_map(y.cover, y.omega, y.index_map, 2.0 * y.values)
        source = doubled if kind == "moment vector" else dict(doubled.entries)
        with pytest.raises(DimensionMismatch, match=r"^ingested mass 2\.0 != 1$"):
            ingest_solution(inst_triple, source)
        with pytest.raises(DimensionMismatch, match=r"^ingested mass 2\.0 != 1$"):
            pipeline(pop_triple, 3, solver="file", solution=source)

    def test_permuted_cover_rebuilt_on_instance_cover(self, inst_triple):
        y_fix = demo.chain_triple_moments()
        permuted = SparseMomentVector(y_fix.cover.reorder((2, 3, 1)), 3, y_fix.entries)
        y = ingest_solution(inst_triple, permuted)
        assert y.cover == inst_triple.cover
        assert y.entries == y_fix.entries

    def test_reordered_cover_keeps_entries_and_order(self, inst_triple):
        y_fix = demo.chain_triple_moments()
        data = io.moment_vector_to_dict(y_fix)
        data["cliques"] = data["cliques"][::-1]
        y = ingest_solution(inst_triple, io.load_moment_vector(data))
        assert y.cover == inst_triple.cover
        assert y.entries == y_fix.entries
        assert list(y.entries) == list(inst_triple.exponents)
        assert y.values.tolist() == [y_fix.entries[a] for a in inst_triple.exponents]

    def test_warnings_in_block_order(self):
        # moment blocks of sizes 3 and 1 and localizing blocks of size 1 on
        # two cliques; values chosen so that blocks of both sizes fail
        cover = CliqueCover(3, ((1, 2), (2, 3)))
        g = [ConstraintPolynomial(cl, {(0, 0): 1.0, (2, 0): -1.0}) for cl in cover.cliques]
        inst = build_relaxation(PopProblem(cover, ({}, {}), ((g[0],), (g[1],))), 1)
        rng = np.random.default_rng(3)
        free = rng.normal(size=inst.num_vars - 1)
        expected = []
        values = np.concatenate([[1.0], free])
        for bno, (blk, M) in enumerate(zip(inst.blocks, block_matrices(inst, values)), start=1):
            eigs = np.linalg.eigvalsh(M)
            if eigs[0] < -1e-6 * max(1.0, eigs[-1]):
                expected.append(
                    f"block {bno} (clique {blk.clique}, {blk.kind}) has eigenvalue {eigs[0]:.3e}"
                )
        assert len(expected) >= 2 and {blk.size for blk in inst.blocks} == {1, 3}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ingest_solution(inst, free)
        assert [str(w.message) for w in caught if w.category is BlockNotPsdWarning] == expected

    @pytest.mark.parametrize("kind", ["vector", "mapping", "free coordinates"])
    @pytest.mark.parametrize("position, value", [(5, np.nan), (22, -np.inf)])
    def test_non_finite_value_named_before_eigenvalues(self, inst_triple, monkeypatch, kind, position, value):
        # eigvalsh on a non-finite block raises an untyped LinAlgError
        values = demo.chain_triple_moments().values.copy()
        values[position] = value
        source = {
            "vector": inst_triple.moment_vector(values),
            "mapping": dict(zip(inst_triple.exponents, values.tolist())),
            "free coordinates": values[1:],
        }[kind]
        monkeypatch.setattr(SdpInstance, "block_eig_range", lambda *args: pytest.fail("eigenvalues taken"))
        alpha = inst_triple.exponents[position]
        with pytest.raises(NonFiniteMoment, match=rf"^solution entry {position} \(the moment at {re.escape(str(alpha))}\) is {value}$"):
            ingest_solution(inst_triple, source)

    def test_infinite_mass_is_non_finite_not_a_mass_mismatch(self, inst_triple):
        entries = dict(demo.chain_triple_moments().entries)
        entries[inst_triple.exponents[0]] = np.inf
        with pytest.raises(NonFiniteMoment, match=r"^solution entry 0 "):
            ingest_solution(inst_triple, entries)

    def test_other_cliques_rejected(self, inst_triple):
        merged = CliqueCover(4, ((1, 2), (2, 3, 4)))
        y = demo.moments_of_atoms(merged, 3, demo.chain_triple_minimizers(), np.full(8, 0.125))
        with pytest.raises(DimensionMismatch):
            ingest_solution(inst_triple, y)


def project_psd_reference(blocks):
    """Per block: symmetrize, eigendecompose, keep the positive eigenvalues."""
    out = []
    for W in blocks:
        W = 0.5 * (W + W.T)
        evals, evecs = np.linalg.eigh(W)
        pos = evals > 0
        out.append((evecs[:, pos] * evals[pos]) @ evecs[:, pos].T)
    return out


def admm_reference(instance, max_iters: int = 20000, tol: float = 1e-7) -> SolveReport:
    """The plain consensus ADMM sweep that :func:`solve_sdp_bundled`
    accelerates: the same update order, stopping test and ``rho`` schedule,
    each sweep's output taken as the next point."""
    nfree = instance.num_vars - 1
    row, column, coefficient = instance.operator
    operator = scipy.sparse.csr_matrix(
        (coefficient, (row, column)), shape=(instance.offsets[-1], instance.num_vars)
    )
    A = operator[:, 1:]
    AT = A.T.tocsr()
    const = operator[:, 0].toarray().ravel()
    groups = size_groups([blk.size for blk in instance.blocks])
    lu = scipy.sparse.linalg.splu((AT @ A + 1e-12 * scipy.sparse.identity(nfree)).tocsc())
    f_free = instance.objective[1:]
    scale = max(1.0, float(np.abs(instance.objective).max()))

    yfree = np.zeros(nfree)
    X = np.zeros(A.shape[0])
    U = np.zeros(A.shape[0])
    rho = 1.0
    primal = dual = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        Xnew = project_psd(A @ yfree + const + U, groups)
        step = Xnew - X
        X = Xnew
        yfree = lu.solve(-f_free / rho + AT @ (X - U - const))
        resid = A @ yfree + const - X
        U += resid
        primal = float(np.sqrt(resid @ resid))
        dual = float(rho * np.sqrt(step @ step))
        if primal <= tol and dual <= tol * scale:
            break
        if it % 100 == 0:
            if primal > 10 * dual and rho < 1e6:
                rho *= 2.0
                U /= 2.0
            elif dual > 10 * primal and rho > 1e-6:
                rho /= 2.0
                U *= 2.0

    values = np.concatenate([[1.0], yfree])
    converged = primal <= tol and dual <= tol * scale
    return SolveReport(
        y=instance.moment_vector(values),
        objective=float(instance.objective @ values),
        iterations=it,
        primal_residual=primal,
        dual_residual=dual,
        min_block_eig=float(instance.block_eig_range(values)[0].min(initial=0.0)),
        converged=converged,
    )


def ball_chain(m: int, seed: int) -> PopProblem:
    """m width-3 cliques in a chain, the ball 3 - x^2 - y^2 - z^2 >= 0 on
    each, and the objective x1^2 + u x1 x2 + v x3 per clique with u and v
    drawn uniform in [-1, 1] from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    cover = CliqueCover(2 * m + 1, tuple((2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(m)))
    ball = {(0, 0, 0): 3.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}
    objectives = tuple(
        {(2, 0, 0): 1.0, (1, 1, 0): float(rng.uniform(-1, 1)), (0, 0, 1): float(rng.uniform(-1, 1))}
        for _ in range(m)
    )
    return PopProblem(cover, objectives, tuple((ConstraintPolynomial(c, ball),) for c in cover.cliques))


@st.composite
def ball_pops(draw):
    """A chain of 1-4 cliques of widths 1-3, each sharing one variable with
    the next or none, with a ball constraint per clique and a random
    objective of degree at most 2*omega: a feasible, bounded relaxation."""
    omega = draw(st.integers(1, 2))
    cliques, start = [], 1
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 3))
        cliques.append(tuple(range(start, start + width)))
        start += width - draw(st.integers(0, 1))
    cover = CliqueCover(max(c[-1] for c in cliques), tuple(cliques))
    coef = st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0])
    objectives, constraints = [], []
    for clique in cliques:
        width = len(clique)
        ball = {(0,) * width: float(width + 1)}
        ball.update({tuple(2 * (s == t) for s in range(width)): -1.0 for t in range(width)})
        objectives.append(draw(st.dictionaries(st.sampled_from(local_exponents(width, 2 * omega)), coef,
                                               max_size=5)))
        constraints.append((ConstraintPolynomial(clique, ball),))
    return PopProblem(cover, tuple(objectives), tuple(constraints)), omega


class TestOperatorMatchesCsr:
    """The operator's term arrays do what a scipy CSR matrix of the same
    terms did, bit for bit."""

    @staticmethod
    def assert_matches_csr(inst, values):
        """The term arrays against :func:`csr_reference`, bit for bit: the
        same terms in the same order, the block spectra of the CSR product,
        and the SDPA entries in ``tocsc()`` order."""
        row, column, coefficient = inst.operator
        assert np.unique(row * inst.num_vars + column).size == row.size  # CSR would merge a repeat
        csr = csr_reference(inst)
        assert np.array_equal(np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr)), row)
        assert np.array_equal(csr.indices, column) and np.array_equal(csr.data, coefficient)
        flat = csr @ values
        lo, hi = np.zeros(len(inst.blocks)), np.zeros(len(inst.blocks))
        for blocks, index in size_groups([blk.size for blk in inst.blocks]):
            eigs = np.linalg.eigvalsh(flat[index])
            lo[blocks], hi[blocks] = eigs[:, 0], eigs[:, -1]
        got = inst.block_eig_range(values)
        assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)
        csc = csr.tocsc()
        matno = np.repeat(np.arange(csc.shape[1]), np.diff(csc.indptr))
        sizes = np.array([blk.size for blk in inst.blocks])
        block = np.searchsorted(inst.offsets, csc.indices, side="right") - 1
        i, j = np.divmod(csc.indices - inst.offsets[block], sizes[block])
        keep = (i <= j) & (csc.data != 0.0)
        index = np.stack([matno, block + 1, i + 1, j + 1])[:, keep]
        value = np.where(matno == 0, -csc.data, csc.data)[keep]
        _, _, _, got_index, got_value = relax._sdpa_columns(inst)
        assert np.array_equal(got_index, index) and np.array_equal(got_value, value)

    def test_operator_matches_csr_on_the_fixture(self, inst_triple):
        self.assert_matches_csr(inst_triple, demo.chain_triple_moments().values)
        self.assert_matches_csr(inst_triple, np.random.default_rng(0).standard_normal(70))

    def test_operator_sorts_each_row_by_column(self):
        # built blocks list an entry's moments in ascending order; a
        # hand-built block need not
        block = SdpBlock(1, "moment", None, 1, np.array([0, 0]), np.array([2, 0]), np.array([-1.0, 3.0]))
        inst = SdpInstance(CliqueCover(1, ((1,),)), 1, ((0,), (1,), (2,)), np.zeros(3), (block,))
        assert inst.operator[1].tolist() == [0, 2]
        self.assert_matches_csr(inst, np.array([1.0, 0.5, 0.25]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ball_pops(), st.integers(0, 2**32 - 1))
    def test_operator_matches_csr_on_ball_chains(self, case, seed):
        inst = build_relaxation(*case)
        self.assert_matches_csr(inst, np.random.default_rng(seed).standard_normal(inst.num_vars))

    @pytest.mark.parametrize("seed", range(8))
    def test_operator_matches_csr_on_flat_instances(self, seed):
        cover, _, _, y = random_flat_instance(seed)
        inst = build_relaxation(feasibility_pop(cover), y.omega)
        self.assert_matches_csr(inst, np.array([y.entries[a] for a in inst.exponents]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=9), seed=st.integers(0, 2**32 - 1))
def test_batched_projection_matches_per_block(sizes, seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(-1.0, 1.0, (s, s)) for s in sizes]
    for W in blocks[::2]:
        W += W.T  # some blocks symmetric, the others not
    flat = np.concatenate([W.ravel() for W in blocks] + [np.zeros(0)])
    got = project_psd(flat, size_groups(sizes))
    lo = 0
    for s, ref in zip(sizes, project_psd_reference(blocks)):
        X = got[lo : lo + s * s].reshape(s, s)
        lo += s * s
        assert np.allclose(X, ref, rtol=0.0, atol=1e-12)
        if s:
            assert np.linalg.eigvalsh(X)[0] >= -1e-12
    assert lo == flat.size


def test_size_groups_cover_every_entry_once():
    sizes = [3, 0, 1, 3, 2, 0, 1]
    groups = size_groups(sizes)
    assert [index.shape[1] for _, index in groups] == [1, 2, 3]
    assert [blocks.tolist() for blocks, _ in groups] == [[2, 6], [4], [0, 3]]
    covered = np.sort(np.concatenate([index.ravel() for _, index in groups]))
    assert covered.tolist() == list(range(sum(s * s for s in sizes)))


class TestBundledSolver:
    @pytest.mark.parametrize("omega,iterations", [(2, 276), (3, 355), (4, 616)])
    def test_chain_triple_iteration_counts(self, omega, iterations):
        # ``iterations`` is the plain sweep's count; acceleration at least halves it
        inst = build_relaxation(demo.chain_triple_pop(), omega)
        assert admm_reference(inst).iterations == iterations
        rep = solve_sdp_bundled(inst)
        assert rep.converged
        assert rep.iterations == {2: 35, 3: 99, 4: 137}[omega]
        assert 2 * rep.iterations <= iterations

    def test_ball_chain_converges_no_later_than_plain(self):
        # a safeguard that measures the residual on (dy, dU), not (A dy, dU),
        # stops unconverged at 20000 iterations on this chain
        inst = build_relaxation(ball_chain(10, 7), 2)
        ref = admm_reference(inst)
        rep = solve_sdp_bundled(inst)
        assert ref.converged and ref.iterations == 11757
        assert rep.converged
        assert rep.iterations <= ref.iterations
        scale = max(1.0, float(np.abs(inst.objective).max()))
        assert abs(rep.objective - ref.objective) <= 1e-6 * scale

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ball_pops())
    def test_accelerated_solve_matches_reference(self, case):
        pop, omega = case
        inst = build_relaxation(pop, omega)
        ref = admm_reference(inst, tol=1e-8)
        assume(ref.converged)
        rep = solve_sdp_bundled(inst, tol=1e-8)
        assert rep.converged
        assert rep.iterations <= ref.iterations
        scale = max(1.0, float(np.abs(inst.objective).max()))
        assert abs(rep.objective - ref.objective) <= 1e-6 * scale
        assert rep.min_block_eig >= -1e-6

    def test_log_counts_accelerated_steps(self, caplog):
        with caplog.at_level(logging.INFO, logger="smk.relax"):
            solve_sdp_bundled(build_relaxation(demo.chain_triple_pop(), 4))
        assert caplog.messages[-1].endswith("accelerated steps accepted 126, refused 2")

    def test_long_chain_memory(self):
        # 100 width-3 cliques with a ball constraint each: nfree = 3004, so
        # a dense normal matrix alone would take 72 MB
        pop = ball_chain(100, 0)
        tracemalloc.start()
        try:
            rep = solve_sdp_bundled(build_relaxation(pop, 2), max_iters=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.iterations == 1
        assert peak < 20e6

    def test_chain_pair_feasibility(self):
        pop = feasibility_pop(CliqueCover(3, ((1, 2), (2, 3))))
        inst = build_relaxation(pop, 2)
        rep = solve_sdp_bundled(inst, max_iters=5000, tol=1e-8)
        assert rep.converged
        assert rep.min_block_eig >= -1e-6
        values = np.array([rep.y.entries[a] for a in inst.exponents])
        for M in block_matrices(inst, values):
            assert np.linalg.eigvalsh(M)[0] >= -1e-6

    def test_chain_triple_reaches_optimum(self, inst_triple):
        rep = solve_sdp_bundled(inst_triple, max_iters=30000, tol=1e-8)
        assert rep.objective <= 1e-3  # true minimum is 0
        assert rep.min_block_eig >= -1e-5
        assert rep.converged or rep.primal_residual > 0

    def test_infeasible_instance_flags_nonconvergence(self):
        cover = CliqueCover(1, ((1,),))
        exponents = ((0,), (1,), (2,))
        blocks = (
            SdpBlock(1, "moment", None, 1, np.array([0]), np.array([1]), np.array([1.0])),  # [y_1] >= 0
            # [-y_1 - 1] >= 0
            SdpBlock(1, "moment", None, 1, np.array([0, 0]), np.array([1, 0]), np.array([-1.0, -1.0])),
        )
        inst = SdpInstance(cover, 1, exponents, np.zeros(3), blocks)
        rep = solve_sdp_bundled(inst, max_iters=300, tol=1e-9)
        assert not rep.converged
        assert rep.primal_residual > 1e-3

    def test_large_objective_does_not_loosen_the_primal_test(self):
        # the moments live on the scale of a probability measure, so the
        # primal residual is held to tol whatever the objective's size; a
        # test scaled by max|objective| stopped at iteration 943 (objective
        # 1.073, primal 9.9e-4) and at iteration 11 (primal 4.85) with
        # converged=True
        pop = demo.chain_triple_pop()
        for coefficient, max_iters in ((1e4, 20000), (1e8, 2000)):
            objectives = ({**pop.objectives[0], (4, 0): coefficient}, *pop.objectives[1:])
            inst = build_relaxation(PopProblem(pop.cover, objectives, pop.constraints), 2)
            rep = solve_sdp_bundled(inst, max_iters=max_iters)
            assert rep.converged == (rep.primal_residual <= 1e-7) == (coefficient == 1e4)
            if rep.converged:
                assert rep.objective == pytest.approx(0.9999, abs=1e-5)  # the minimum, 1 - 1/coefficient
                assert rep.min_block_eig >= -1e-6
            else:
                assert rep.iterations == max_iters

    def test_overflowing_residual_raises_typed(self):
        pop = demo.chain_triple_pop()
        objectives = ({**pop.objectives[0], (4, 0): 1e200}, *pop.objectives[1:])
        inst = build_relaxation(PopProblem(pop.cover, objectives, pop.constraints), 2)
        with pytest.raises(SolverDiverged, match="not finite at iteration 1$"):
            solve_sdp_bundled(inst)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_unusable_tol_is_refused(self, inst_triple, pop_triple, tol):
        # an infinite tol would stop after one sweep and report convergence
        with pytest.raises(ValueError, match="tol must be a finite non-negative number"):
            solve_sdp_bundled(inst_triple, tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite non-negative number"):
            pipeline(pop_triple, 3, solve_tol=tol)

    def test_empty_block_is_ignored(self):
        cover = CliqueCover(1, ((1,),))
        exponents = ((0,), (1,), (2,))
        moment = SdpBlock(1, "moment", None, 2, np.arange(4), np.array([0, 1, 1, 2]), np.ones(4))
        empty = SdpBlock(1, "localizing", 1, 0, np.zeros(0, int), np.zeros(0, int), np.zeros(0))
        objective = np.array([0.0, 1.0, 1.0])  # min y_1 + y_2 over [[1, y_1], [y_1, y_2]] >= 0
        plain = solve_sdp_bundled(SdpInstance(cover, 1, exponents, objective, (moment,)))
        padded = solve_sdp_bundled(SdpInstance(cover, 1, exponents, objective, (empty, moment, empty)))
        assert plain.converged and plain.objective == pytest.approx(-0.25, abs=1e-6)
        assert padded.iterations == plain.iterations
        assert np.array_equal(padded.y.values, plain.y.values)


class TestPipeline:
    def test_fixture_solution(self, pop_triple):
        res = pipeline(pop_triple, 3, solver="file", solution=demo.chain_triple_moments())
        assert res.certificate.verdict
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        expect = demo.chain_triple_minimizers()
        expect = expect[np.lexsort(expect.T[::-1])]
        assert np.allclose(res.minimizers, expect, atol=1e-8)
        assert np.allclose(res.measure.weights, 0.125, atol=1e-10)
        assert res.global_residual <= 1e-10
        assert res.feasibility_clean

    @pytest.mark.parametrize(
        "solver,solution,detail",
        [
            ("bundled", "moments", "solver 'bundled' takes no solution"),
            ("file", None, "solver 'file' needs a solution"),
            ("scs", None, "unknown solver 'scs'"),
            ("scs", "moments", "unknown solver 'scs'"),
        ],
    )
    def test_solver_and_solution_are_checked_first(self, pop_triple, monkeypatch, solver, solution, detail):
        def unreachable(*args, **kwargs):
            raise AssertionError("pipeline went past its argument check")

        for name in ("check_rip", "find_rip_order", "build_relaxation", "solve_sdp_bundled"):
            monkeypatch.setattr(relax, name, unreachable)
        solution = demo.chain_triple_moments() if solution == "moments" else solution
        with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
            pipeline(pop_triple, 3, solver=solver, solution=solution)

    def test_reordered_problem_takes_solution_in_given_order(self, pop_triple):
        # the cover fails running intersection, so the relaxation is built on
        # a reordered cover while the solution keeps the given clique order
        pop = pop_triple.reorder((1, 3, 2))
        atoms = demo.chain_triple_minimizers()
        y = demo.moments_of_atoms(pop.cover, 3, atoms, np.full(8, 0.125))
        res = pipeline(pop, 3, solver="file", solution=y)
        assert res.clique_order != (1, 2, 3)
        assert res.certificate.verdict
        assert np.allclose(res.minimizers, atoms[np.lexsort(atoms.T[::-1])], atol=1e-8)

    def test_reordered_problem_builds_one_index_map(self, pop_triple, monkeypatch):
        built = []
        init = IndexMap.__init__
        monkeypatch.setattr(IndexMap, "__init__", lambda s, *a: built.append(a) or init(s, *a))
        core._index_map.cache_clear()
        pop = pop_triple.reorder((1, 3, 2))
        y = demo.moments_of_atoms(pop.cover, 3, demo.chain_triple_minimizers(), np.full(8, 0.125))
        assert pipeline(pop, 3, solver="file", solution=y).certificate.verdict
        assert len(built) == 1

    def test_file_to_weights_builds_no_dense_exponent(self, pop_triple, tmp_path):
        # the table read, the pipeline, the global check and the weight program
        # read the index map by slots and positions: no length-n tuple is built
        path = tmp_path / "y.json"
        io.save_moment_vector(demo.chain_triple_moments(), path)
        core._index_map.cache_clear()
        y = io.load_moment_vector(path)
        res = pipeline(pop_triple, 3, solver="file", solution=y)
        assert res.certificate.verdict and verify_global(res.measure, y) == res.global_residual
        assert enumerate_extreme_measures(maximal_support_set(res.clique_measures, y.cover), y, 2)
        index_map = core.index_map_of(y.cover, 6)
        assert y.index_map is index_map and build_relaxation(pop_triple, 3).exponents is index_map.exponents
        assert "_tuples" not in vars(index_map.exponents) and "data" not in vars(y.entries)
        assert len(index_map.exponents) == 70 and index_map.exponents[-1] == (0, 0, 0, 6)

    def test_ordered_cover_checks_rip_once(self, pop_triple, monkeypatch):
        covers = []
        check = relax.check_rip
        monkeypatch.setattr(relax, "check_rip", lambda cover: covers.append(cover) or check(cover))
        pipeline(pop_triple, 3, solver="file", solution=demo.chain_triple_moments())
        assert covers == [pop_triple.cover]
        covers.clear()
        pop = pop_triple.reorder((1, 3, 2))
        y = demo.moments_of_atoms(pop.cover, 3, demo.chain_triple_minimizers(), np.full(8, 0.125))
        res = pipeline(pop, 3, solver="file", solution=y)
        assert covers == [pop.cover, pop.reorder(res.clique_order).cover]

    def test_bundled_order_two_is_not_certified(self, pop_triple):
        # recorded outcome: the order-2 relaxation already attains the optimal
        # value but its first moment matrix is not rank-flat
        res = pipeline(
            pop_triple, 2, RankPolicy(round_decimals=4), solver="bundled",
            max_iters=40000, solve_tol=1e-9,
        )
        assert not res.certificate.verdict
        assert res.measure is None
        assert abs(res.objective) <= 1e-3

    def test_bundled_order_three_certifies(self, pop_triple):
        res = pipeline(
            pop_triple, 3, RankPolicy(round_decimals=4), solver="bundled",
            max_iters=40000, solve_tol=1e-9, seed=42,
        )
        assert res.certificate.verdict
        expect = demo.chain_triple_minimizers()
        expect = expect[np.lexsort(expect.T[::-1])]
        assert np.allclose(res.minimizers, expect, atol=1e-4)

    def test_minimizer_quality(self, pop_triple):
        res = pipeline(pop_triple, 3, solver="file", solution=demo.chain_triple_moments())
        for x in res.minimizers:
            for gs in pop_triple.constraints:
                for g in gs:
                    assert g(x[[v - 1 for v in g.variables]]) >= -1e-6
            assert objective_value(pop_triple, x) - res.objective <= 1e-5 * (1 + abs(res.objective))

    def test_lower_bound_against_sampled_feasible_points(self, pop_triple, rng):
        res = pipeline(pop_triple, 3, solver="file", solution=demo.chain_triple_moments())
        f_omega = res.objective
        count = 0
        while count < 50:
            x = rng.uniform(-1.2, 1.2, 4)
            if all(g(x[[v - 1 for v in g.variables]]) >= 0
                   for gs in pop_triple.constraints for g in gs):
                assert objective_value(pop_triple, x) >= f_omega - 1e-6
                count += 1

    def test_trivial_single_variable_pop(self):
        # min x1^2 over the real line: bound 0, unique minimizer at the origin
        cover = CliqueCover(1, ((1,),))
        pop = PopProblem(cover, ({(2,): 1.0},), ((),))
        res = pipeline(pop, 1, solver="bundled", max_iters=10000, solve_tol=1e-9)
        assert res.certificate.verdict
        assert abs(res.objective) <= 1e-6
        assert res.minimizers.shape == (1, 1)
        assert abs(res.minimizers[0, 0]) <= 1e-4

    def test_reorders_shuffled_cover(self):
        # same chain, cliques listed in an order violating the running
        # intersection property: the pipeline must reorder
        cover = CliqueCover(4, ((1, 2), (3, 4), (2, 3)))
        objectives = ({(4, 0): 1.0, (2, 0): -2.0, (0, 0): 2.0, (0, 4): 1.0, (0, 2): -2.0},
                      {(0, 4): 1.0, (0, 2): -2.0, (0, 0): 1.0},
                      {(0, 2): 1.0})
        constraints = tuple(
            (ConstraintPolynomial(cover.clique(i), {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0}),)
            for i in (1, 2, 3)
        )
        pop = PopProblem(cover, objectives, constraints)
        res = pipeline(pop, 3, solver="bundled", max_iters=30000, solve_tol=1e-9,
                       policy=RankPolicy(round_decimals=4))
        assert res.clique_order != (1, 2, 3)
        assert res.certificate.verdict
        assert res.minimizers.shape == (8, 4)


def test_traced_peak_per_clique_does_not_grow_with_the_chain():
    # a width-3 chain at m = 200 and m = 1600 (n = 3201): the moments of two
    # atoms on the index map and pipeline(solver="file") on them; a dense
    # tuple of length n per multi-index would make the peak per clique grow 8x
    peaks = {}
    for m in (200, 1600):
        pop = ball_chain(m, 0)
        rng = np.random.default_rng(m)
        a2 = rng.uniform(-1.0, 1.0, pop.cover.n)
        a1 = np.where(a2 > 0, a2 - rng.uniform(0.3, 1.0, a2.size), a2 + rng.uniform(0.3, 1.0, a2.size))
        core._index_map.cache_clear()
        tracemalloc.start()
        try:
            y = demo.moments_of_atoms(pop.cover, 2, np.array([a1, a2]), [0.25, 0.75])
            res = pipeline(pop, 2, solver="file", solution=y)
            peaks[m] = tracemalloc.get_traced_memory()[1] / m
        finally:
            tracemalloc.stop()
        assert res.certificate.verdict and len(res.minimizers) == 2
    assert peaks[1600] <= 1.5 * peaks[200], peaks


def chain_fields(glued):
    """The certify-to-minimizers chain of a record, as comparable values."""
    measures = glued.clique_measures and [io.measure_to_dict(mu) for mu in glued.clique_measures]
    measure = glued.measure and io.measure_to_dict(glued.measure)
    return glued.certificate.to_dict(), measures, measure, glued.global_residual, glued.feasibility_clean


class TestGlueCertified:
    def test_false_verdict_stops_after_the_certificate(self):
        # three collinear first coordinates: rank grows with the order, not flat
        cover = demo.chain_pair_moments().cover
        y = demo.moments_of_atoms(cover, 2, [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]], [1 / 3] * 3)
        glued = glue_certified(y, ((), ()), check_rip(cover))
        assert glued.certificate.verdict is False
        assert chain_fields(glued)[1:] == (None, None, None, None)

    @pytest.mark.parametrize("decimals", [None, 4])
    def test_fields_are_the_pipelines(self, pop_triple, decimals):
        # rounding stays with the caller: pipeline rounds before the chain
        y, policy = demo.chain_triple_moments(), RankPolicy(round_decimals=decimals)
        res = pipeline(pop_triple, 3, policy, solver="file", solution=y)
        y = y if decimals is None else y.rounded(decimals)
        glued = glue_certified(y, pop_triple.constraints, check_rip(pop_triple.cover), policy)
        assert glued.certificate.verdict and len(glued.clique_measures) == 3
        assert chain_fields(glued) == chain_fields(res)
        assert res.objective == float(build_relaxation(pop_triple, 3).objective @ y.values)


def test_result_records_are_frozen(pop_triple):
    y = demo.chain_triple_moments()
    records = [
        (pipeline(pop_triple, 3, solver="file", solution=y), "objective"),
        (glue_certified(y, pop_triple.constraints, check_rip(pop_triple.cover)), "measure"),
        (solve_sdp_bundled(build_relaxation(pop_triple, 2), max_iters=1), "converged"),
    ]
    for record, field in records:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)
