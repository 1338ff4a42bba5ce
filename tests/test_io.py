import json
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smk import demo, io
from smk.assemble import verify_global
from smk.core import CliqueCover, SparseMomentVector, index_map_of, sparse_exponents
from smk.errors import DuplicateEntry, IndexOutOfPattern, MalformedInput, MissingEntries
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


LAYOUTS = ("compact", "indent", "spaced")


def dump(doc: dict, layout: str, seed: int = 0) -> str:
    """``doc`` as JSON text: compact ``json.dumps``, ``indent=2``, or with
    random JSON whitespace around every token."""
    if layout == "compact":
        return json.dumps(doc)
    if layout == "indent":
        return json.dumps(doc, indent=2)
    rnd = random.Random(seed)

    def ws():
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.randrange(3)))

    def spaced(value):
        if isinstance(value, dict):
            items = (f"{ws()}{json.dumps(k)}{ws()}:{ws()}{spaced(v)}{ws()}" for k, v in value.items())
            return "{" + ",".join(items) + ws() + "}"
        if isinstance(value, list):
            return "[" + ",".join(f"{ws()}{spaced(v)}{ws()}" for v in value) + ws() + "]"
        return json.dumps(value)

    return ws() + spaced(doc) + ws()


def read_entry_by_entry(text: str, allow_missing_as_zero: bool = False) -> SparseMomentVector:
    """The reference reader: ``json`` for the whole text, then every alpha
    as a tuple through ``SparseMomentVector.build``; text ``json`` refuses,
    a missing field, a value that is no JSON number, an integer field that
    is no integral number, a list field that is no list, cliques that are
    not lists of integers, a cover that is not one of 1..n (nested cliques
    pass) and an omega below 1 are :class:`MalformedInput`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from None

    def field(obj, key, where=""):
        if not isinstance(obj, dict) or key not in obj:
            raise MalformedInput(f'{where}no "{key}"')
        return obj[key]

    def is_integer(value):
        return type(value) is int or type(value) is float and value.is_integer()

    def integer(obj, key):
        if not is_integer(field(obj, key)):
            raise MalformedInput(f"{key} {obj[key]!r} is not an integer")
        return int(obj[key])

    def sequence(obj, key, where=""):
        if not isinstance(field(obj, key, where), list):
            raise MalformedInput(f"{where}{key} {obj[key]!r} is not a list")
        return tuple(obj[key])

    n = integer(data, "n")
    cliques = field(data, "cliques")
    if not (isinstance(cliques, list) and all(isinstance(c, list) and all(map(is_integer, c)) for c in cliques)):
        raise MalformedInput(f"cliques {cliques!r} is not a list of lists of integers")
    cliques = tuple(tuple(int(v) for v in c) for c in cliques)
    if n < 1:
        raise MalformedInput(f"ambient dimension n = {n} must be positive")
    if not cliques:
        raise MalformedInput("cover has no cliques")
    for i, c in enumerate(cliques, start=1):
        if not c:
            raise MalformedInput(f"clique {i} is empty")
        if any(b <= a for a, b in zip(c, c[1:])):
            raise MalformedInput(f"clique {i} = {c} is not strictly increasing")
        if not all(1 <= v <= n for v in c):
            raise MalformedInput(f"clique {i} = {c} has variables outside 1..{n}")
    uncovered = set(range(1, n + 1)).difference(*cliques)
    if uncovered:
        raise MalformedInput(f"variable {min(uncovered)} uncovered")
    pairs = [
        (sequence(item, "alpha", f"entry {k}: "), field(item, "value", f"entry {k}: "))
        for k, item in enumerate(sequence(data, "entries"))
    ]
    for k, (_, value) in enumerate(pairs):
        if type(value) not in (int, float):  # a bool or a string is no JSON number
            raise MalformedInput(f"entry {k}: value {value!r} is not a number")
    omega = integer(data, "omega")
    if omega < 1:
        raise MalformedInput(f"omega {omega} is not >= 1")
    return SparseMomentVector.build(
        CliqueCover(n, cliques), omega, pairs, allow_missing_as_zero=allow_missing_as_zero
    )


def outcome(read, *args, **kwargs):
    """The values bytes, entry order and index map read, or the error
    type and message raised."""
    try:
        y = read(*args, **kwargs)
    except Exception as exc:  # every error is compared, whatever its type
        return type(exc), str(exc)
    return y.values.tobytes(), list(y.entries), y.index_map


def assert_file_reads_as_reference(tmp_path, text: str, table: bool, **kwargs):
    """Loading ``text`` from a file gives what the reference reader gives;
    ``table`` says whether the file is read as one exponent table."""
    path = tmp_path / "y.json"
    path.write_text(text)
    expected = outcome(read_entry_by_entry, text, **kwargs)
    assert outcome(io.load_moment_vector, path, **kwargs) == expected
    try:
        read_as_table = io._read_table(text, kwargs.get("allow_missing_as_zero", False)) is not None
    except Exception:  # the table read raised the error of record itself
        read_as_table = True
    assert read_as_table == table
    return expected


class TestMomentReader:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shuffled_chain_covers(), st.integers(1, 2), st.booleans(), st.integers(0, 2**32 - 1))
    def test_shuffled_and_partial_entries(self, tmp_path, cover, omega, drop, seed):
        rng = np.random.default_rng(seed)
        exponents = sparse_exponents(cover, 2 * omega)
        pairs = [(exponents[k], float(v)) for k, v in
                 zip(rng.permutation(len(exponents)), rng.normal(size=len(exponents)))]
        if drop:
            pairs = [pair for pair in pairs if rng.random() < 0.7]
        reference = SparseMomentVector.build(cover, omega, pairs, allow_missing_as_zero=True)
        doc = moment_doc(cover, omega, pairs)
        expected = reference.values.tobytes(), list(reference.entries), reference.index_map
        assert outcome(io.load_moment_vector, doc, allow_missing_as_zero=True) == expected
        for layout in LAYOUTS:
            text = dump(doc, layout, seed)
            got = assert_file_reads_as_reference(tmp_path, text, bool(pairs), allow_missing_as_zero=True)
            assert got == expected

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
    def test_first_error_matches_build(self, tmp_path, defect, error):
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
        message = str(expected.value)
        if defect == "null value":  # the reader names the entry where build names the type
            error, message = MalformedInput, "entry 5: value None is not a number"
        doc = moment_doc(y.cover, y.omega, entries)
        with pytest.raises(error) as got:
            io.load_moment_vector(doc)
        assert str(got.value) == message
        for layout in LAYOUTS:
            got = assert_file_reads_as_reference(tmp_path, dump(doc, layout), defect == "null value")
            assert got == (error, message)

    @pytest.mark.parametrize("value", [True, "1.0", 10**400], ids=["true", "string", "huge integer"])
    def test_value_that_is_no_json_number_is_refused(self, tmp_path, value):
        # a bool or a string is no JSON number, and 10**400 has no float
        doc = io.moment_vector_to_dict(demo.chain_pair_moments())
        doc["entries"][4]["value"] = value
        path = tmp_path / "y.json"
        path.write_text(json.dumps(doc))  # one-digit exponents: read as one table
        for source in (doc, path):
            with pytest.raises(MalformedInput) as got:
                io.load_moment_vector(source)
            assert str(got.value) == f"entry 4: value {value!r} is not a number"

    def test_int_and_float_values_read_as_float_reads_each(self, tmp_path):
        # the table read converts its values at once, bit for bit as float()
        doc = io.moment_vector_to_dict(demo.chain_pair_moments())
        values = [2**53 + 1, 10**300, -(2**64) - 1, -0.0, 0.1, 7]
        for k, value in enumerate(values, start=1):
            doc["entries"][k]["value"] = value
        path = tmp_path / "y.json"
        path.write_text(json.dumps(doc))
        expected = np.array([float(value) for value in values]).tobytes()
        assert io.load_moment_vector(path).values[1:7].tobytes() == expected

    def test_bool_exponent_is_out_of_pattern(self, tmp_path):
        # True == 1, but a bool is no exponent
        doc = io.moment_vector_to_dict(demo.chain_pair_moments())
        next(e for e in doc["entries"] if e["alpha"] == [1, 0, 0])["alpha"] = [True, 0, 0]
        path = tmp_path / "y.json"
        path.write_text(json.dumps(doc))
        for source in (doc, path):
            with pytest.raises(IndexOutOfPattern, match=re.escape("(True, 0, 0)")):
                io.load_moment_vector(source)

    @pytest.mark.parametrize("allow_missing_as_zero", [False, True])
    @pytest.mark.parametrize(
        "edits, table",
        [
            ((("[0, 0, 1]", "[0, 01]"),), False),
            ((("[0, 0, 1]", "[0, 0, 01]"),), False),
            ((("[0, 0, 1]", "[1 2, 0]"),), False),
            ((("[0, 0, 1]", "[0 0 0 0 1]"),), False),
            ((("[0, 0, 1]", "[0,,1]"),), False),
            ((("[0, 0, 1]", "[0, 0, 1,]"),), False),
            ((("[0, 0, 1]", "[0, 0, 1.0]"),), False),
            ((("[0, 0, 1]", "[0, 0, -0]"),), False),
            ((("[0, 0, 1]", "[[0], 0, 1]"),), False),
            ((("[0, 0, 1]", "[0, 0, 01]"), ('"n": 3', '"n": "three"')), False),
            ((('"omega": 2', '"omega": -1'),), False),
            ((("[[1, 2], [2, 3]]", "[[2, 1], [2, 3]]"),), False),
            ((("[[1, 2], [2, 3]]", "[[1, 2], [2, 4]]"),), False),
            ((('"n": 3, "cliques": [[1, 2], [2, 3]]', '"n": 0, "cliques": []'),), False),
            ((("[[1, 2], [2, 3]]", "[[1, 2], [2, 4]]"), ("}]", '}, {"alpha": [0, 0, 0], "value": 1.0}]')),
             False),
            ((("[0, 0, 1]", "[0, 0, 1"),), False),
            ((('"alpha": [0, 0, 1]', '"alpha": [9, 9, 9], "alpha": [0, 0, 1]'),), False),
            ((('"alpha": [0, 0, 1]', '"alpha": [0, 0, 1], "alpha": [0, 0, 0]'),), False),
            ((('"omega"', '"alpha": [1, 0, 0], "omega"'),), False),
            ((('{"alpha": [0, 0, 1], "value": 0.0}, ', ""), ('"omega"', '"alpha": [0, 0, 1], "omega"')),
             False),
            ((('"alpha": [0, 0, 1]', '"alpha": 7'), ('"omega"', '"alpha": [0, 0, 1], "omega"')), False),
            ((('"omega"', '"note": "\\"alpha\\": [1]", "omega"'),), False),
            ((('"omega"', '"note": "\u00e9", "omega"'),), True),
            ((("[0, 0, 1]", "[0, 0, \u00b9]"),), False),
            ((('"entries": [{"alpha": [0, 0, 0]', '"alpha": [0, 0, 0], "entries": [{"\\u0061lpha": []'),),
             False),
            ((('"value": 1.0', '"value": null'), ('{"alpha": [0, 0, 1], "value": 0.0}', '{"alpha": [0, 0, 1]}')),
             False),
            ((('"value": 1.0', '"value": true'),), True),
            ((('"value": 1.0', '"value": "1.0"'),), True),
            ((('"value": 1.0', '"value": "one"'),), True),
            ((('"value": 1.0', '"value": NaN'),), True),
            ((('"value": 1.0', '"value": -Infinity'),), True),
        ],
    )
    def test_adversarial_files_read_as_reference(self, tmp_path, edits, table, allow_missing_as_zero):
        text = json.dumps(io.moment_vector_to_dict(demo.chain_pair_moments()))
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        assert_file_reads_as_reference(tmp_path, text, table, allow_missing_as_zero=allow_missing_as_zero)

    @pytest.mark.parametrize("cut", [1, 5, 20])
    def test_truncated_file_reads_as_reference(self, tmp_path, cut):
        text = json.dumps(io.moment_vector_to_dict(demo.chain_pair_moments()))
        text = text[: text.rindex('"alpha": [') + len('"alpha": [') + cut]
        assert assert_file_reads_as_reference(tmp_path, text, False)[0] is MalformedInput

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_multi_digit_exponents(self, tmp_path, layout):
        # order 5 on the chain pair: exponents up to 10, read entry by entry
        y = demo.moments_of_atoms(demo.chain_pair_moments().cover, 5, [[0.5, -1.0, 1.5]], [1.0])
        text = dump(io.moment_vector_to_dict(y), layout)
        expected = assert_file_reads_as_reference(tmp_path, text, False)
        assert expected[0] == y.values.tobytes()
        # "1 0" is two tokens, never a 10
        split = json.dumps(io.moment_vector_to_dict(y)).replace("[10, 0, 0]", "[1 0, 0, 0]")
        assert "[1 0, 0, 0]" in split
        assert assert_file_reads_as_reference(tmp_path, split, False)[0] is MalformedInput
        # ":" follows "9" in ASCII, but is no digit
        doc = io.moment_vector_to_dict(y)
        doc["entries"] = [e for e in doc["entries"] if max(e["alpha"]) < 10]
        colon = json.dumps(doc).replace("[9, 0, 0]", "[:, 0, 0]")
        assert "[:, 0, 0]" in colon
        got = assert_file_reads_as_reference(tmp_path, colon, False, allow_missing_as_zero=True)
        assert got[0] is MalformedInput

    @staticmethod
    def one_variable_text(top: int) -> str:
        # no x^0 entry, so an exponent 256 read as 0 would be placed there
        pairs = [((e,), float(e)) for e in range(1, top + 1)]
        return json.dumps(moment_doc(CliqueCover(1, ((1,),)), 128, pairs))

    @pytest.mark.parametrize("top", [9, 10, 255, 256])
    def test_exponents_up_to_top(self, tmp_path, top):
        # only one-digit exponents are read as a table
        text = self.one_variable_text(top)
        expected = assert_file_reads_as_reference(tmp_path, text, top < 10, allow_missing_as_zero=True)
        assert np.frombuffer(expected[0])[:top + 1].tolist() == [float(e) for e in range(top + 1)]

    def test_exponents_ten_to_twenty(self, tmp_path):
        # a chain at omega = 10 holds exponents up to 20: its file is read
        # entry by entry as the reference reads it, with the atoms' moments
        cover = CliqueCover(3, ((1, 2), (2, 3)))
        atoms, weights = np.array([[0.5, -1.25, 0.75], [-0.5, 1.0, 1.5]]), np.array([0.25, 0.75])
        y = demo.moments_of_atoms(cover, 10, atoms, weights)
        got = assert_file_reads_as_reference(tmp_path, json.dumps(io.moment_vector_to_dict(y)), False)
        assert got[0] == y.values.tobytes() and max(map(max, got[1])) == 20
        loop = np.array([np.prod(atoms ** np.asarray(a, dtype=float), axis=1) for a in got[1]]) @ weights
        assert loop.tobytes() == y.values.tobytes()
        loaded = io.load_moment_vector(tmp_path / "y.json")
        assert verify_global(AtomicMeasure((1, 2, 3), atoms, weights), loaded) == 0.0

    def test_malformed_multi_digit_exponents(self, tmp_path):
        text = self.one_variable_text(255)
        # four digits are never three
        got = assert_file_reads_as_reference(tmp_path, text.replace("[10]", "[1010]"), False,
                                              allow_missing_as_zero=True)
        assert got[0] is IndexOutOfPattern
        # a list split in two and an empty one: as many digit runs as exponents
        broken = text.replace("[10]", "[1 0]").replace("[45]", "[]")
        got = assert_file_reads_as_reference(tmp_path, broken, False, allow_missing_as_zero=True)
        assert got[0] is MalformedInput

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("multi_digit", [False, True])
    def test_malformed_input_names_its_entry(self, tmp_path, layout, multi_digit):
        # one-digit exponents are read as a table, a 10 sends the file entry by entry
        y = demo.chain_pair_moments()
        pairs = list(y.entries.items()) + [((0, 0, 10), 0.0)] * multi_digit
        doc = moment_doc(y.cover, y.omega, pairs)
        path = tmp_path / "y.json"
        for value, shown in ((None, "None"), ("one", "'one'"), ([1.0], "[1.0]")):
            doc["entries"][4]["value"] = value
            path.write_text(dump(doc, layout))
            with pytest.raises(MalformedInput, match=rf"^entry 4: value {re.escape(shown)} is not a number$"):
                io.load_moment_vector(path)
        text = dump(io.moment_vector_to_dict(y), layout)
        for cut in (1, len(text) // 2, len(text) - 2):
            path.write_text(text[:cut])
            with pytest.raises(MalformedInput, match="^not valid JSON: "):
                io.load_moment_vector(path)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["entries"][0].pop("value"), 'entry 0: no "value"'),
            (lambda doc: doc["entries"][3].pop("alpha"), 'entry 3: no "alpha"'),
            (lambda doc: doc.pop("cliques"), 'no "cliques"'),
            (lambda doc: doc.pop("entries"), 'no "entries"'),
            (lambda doc: doc.update(omega=0), "omega 0 is not >= 1"),
            (lambda doc: doc.update(omega="two"), "omega 'two' is not an integer"),
            (lambda doc: doc.update(n="three"), "n 'three' is not an integer"),
            (lambda doc: doc.update(omega=float("inf")), "omega inf is not an integer"),
            (lambda doc: doc.update(cliques=5), "cliques 5 is not a list of lists of integers"),
            (lambda doc: doc["cliques"][1].__setitem__(0, "x"),
             "cliques [[1, 2], ['x', 3]] is not a list of lists of integers"),
            (lambda doc: doc["cliques"].__setitem__(0, 1), "cliques [1, [2, 3]] is not a list of lists of integers"),
            (lambda doc: doc.update(entries=5), "entries 5 is not a list"),
            (lambda doc: doc["entries"][2].update(alpha=5), "entry 2: alpha 5 is not a list"),
            (lambda doc: doc["entries"][2].update(alpha=None), "entry 2: alpha None is not a list"),
            (lambda doc: doc["entries"][2].update(alpha="001"), "entry 2: alpha '001' is not a list"),
            (lambda doc: doc.update(entries="[]"), "entries '[]' is not a list"),
            (lambda doc: doc.update(omega=2.7), "omega 2.7 is not an integer"),
            (lambda doc: doc.update(omega=True), "omega True is not an integer"),
            (lambda doc: doc.update(n=3.5), "n 3.5 is not an integer"),
            (lambda doc: doc.update(cliques="12"), "cliques '12' is not a list of lists of integers"),
            (lambda doc: doc["cliques"][1].__setitem__(0, 1.9),
             "cliques [[1, 2], [1.9, 3]] is not a list of lists of integers"),
            (lambda doc: doc["cliques"].__setitem__(0, "12"), "cliques ['12', [2, 3]] is not a list of lists of integers"),
        ],
    )
    def test_malformed_structure_names_its_field(self, tmp_path, layout, edit, message):
        doc = io.moment_vector_to_dict(demo.chain_pair_moments())
        edit(doc)
        with pytest.raises(MalformedInput) as got:
            io.load_moment_vector(doc)
        assert str(got.value) == message
        assert assert_file_reads_as_reference(tmp_path, dump(doc, layout), False) == (MalformedInput, message)

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


def test_pop_clique_zero_is_not_the_last_clique():
    # a 0 read as a Python index would load the terms onto clique 3
    for key in ("objectives", "constraints"):
        doc = io.pop_to_dict(demo.chain_triple_pop())
        doc[key][-1]["clique"] = 0
        with pytest.raises(MalformedInput, match=rf"^{key[:-1]} \d+: clique 0 is not in 1\.\.3$"):
            io.load_pop(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["objectives"][0].pop("clique"), 'objective 0: no "clique"'),
        (lambda doc: doc["constraints"][1].pop("clique"), 'constraint 1: no "clique"'),
        (lambda doc: doc["objectives"][1].update(clique=9), "objective 1: clique 9 is not in 1..3"),
        (lambda doc: doc["constraints"][0].update(clique=-1), "constraint 0: clique -1 is not in 1..3"),
        (lambda doc: doc["objectives"][0].update(clique="one"), "objective 0: clique 'one' is not an integer"),
        (lambda doc: doc["objectives"][2].pop("terms"), 'objective 2: no "terms"'),
        (lambda doc: doc["objectives"][0]["terms"][1].pop("coef"), 'objective 0: term 1: no "coef"'),
        (lambda doc: doc["constraints"][0]["terms"][2].pop("alpha_local"),
         'constraint 0: term 2: no "alpha_local"'),
        (lambda doc: doc["objectives"][0]["terms"][0].update(coef=None),
         "objective 0: term 0: coef None is not a number"),
        # a string or a bool is no JSON number, whatever float() makes of it
        (lambda doc: doc["objectives"][0]["terms"][0].update(coef="3"),
         "objective 0: term 0: coef '3' is not a number"),
        (lambda doc: doc["constraints"][1]["terms"][0].update(coef=True),
         "constraint 1: term 0: coef True is not a number"),
        (lambda doc: doc["constraints"][0]["terms"][0].update(coef=float("nan")),
         "constraint 0: term 0: coef nan is not a finite number"),
        (lambda doc: doc["objectives"][1]["terms"][0].update(coef=float("inf")),
         "objective 1: term 0: coef inf is not a finite number"),
        (lambda doc: doc["constraints"][2]["terms"][1].update(coef=-float("inf")),
         "constraint 2: term 1: coef -inf is not a finite number"),
        (lambda doc: doc["objectives"][0]["terms"][0].update(alpha_local=4),
         "objective 0: term 0: alpha_local 4 is not a list"),
        (lambda doc: doc["objectives"][0]["terms"][0].update(alpha_local=[4]),
         "objective 0: term 0: alpha_local [4] is not 2 integers"),
        (lambda doc: doc["constraints"][0]["terms"][0].update(alpha_local=["x", 0]),
         "constraint 0: term 0: alpha_local ['x', 0] is not 2 integers"),
        (lambda doc: doc.update(objectives=5), "objectives 5 is not a list"),
        (lambda doc: doc.update(cliques=[[1, 2], "x"]), "cliques [[1, 2], 'x'] is not a list of lists of integers"),
        (lambda doc: doc.pop("n"), 'no "n"'),
        (lambda doc: doc.update(n=4.5), "n 4.5 is not an integer"),
        (lambda doc: doc["objectives"][0].update(clique=1.9), "objective 0: clique 1.9 is not an integer"),
        (lambda doc: doc["constraints"][2].update(clique="1"), "constraint 2: clique '1' is not an integer"),
        (lambda doc: doc.update(cliques="12"), "cliques '12' is not a list of lists of integers"),
        (lambda doc: doc["objectives"][0]["terms"][0].update(alpha_local=[1.5, 0]),
         "objective 0: term 0: alpha_local [1.5, 0] is not 2 integers"),
        # a negative exponent wrapped round the local order and priced another monomial
        (lambda doc: doc["objectives"][0]["terms"][0].update(alpha_local=[-1, 0]),
         "objective 0: term 0: alpha_local [-1, 0] has a negative exponent"),
        (lambda doc: doc["constraints"][1]["terms"][0].update(alpha_local=[0, -2.0]),
         "constraint 1: term 0: alpha_local [0, -2.0] has a negative exponent"),
        (lambda doc: doc.update(constraints="ab"), "constraints 'ab' is not a list"),
        (lambda doc: doc["objectives"][1].update(terms="xy"), "objective 1: terms 'xy' is not a list"),
    ],
)
def test_malformed_problem_names_its_field(tmp_path, edit, message):
    doc = io.pop_to_dict(demo.chain_triple_pop())
    edit(doc)
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(doc, indent=2))
    for source in (doc, path):
        with pytest.raises(MalformedInput) as got:
            io.load_pop(source)
        assert str(got.value) == message


def test_problem_without_objectives_or_constraints_loads():
    pop = io.load_pop({"n": 2, "cliques": [[1, 2]]})
    assert pop.objectives == ({},) and pop.constraints == ((),)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("atoms"), 'no "atoms"'),
        (lambda doc: doc.pop("weights"), 'no "weights"'),
        (lambda doc: doc.update(atoms=[[1.0, -1.0]]), "not a measure: "),
        (lambda doc: doc.update(variables=["x", 3]), "not a measure: "),
        (lambda doc: doc.update(weights=[0.25, "x"]), "not a measure: "),
        (lambda doc: doc.update(variables=[1.5, 3]), "not a measure: "),
        (lambda doc: doc.update(variables="13"), "not a measure: "),
        (lambda doc: doc["atoms"][1].__setitem__(0, None), "not a measure: None is not a number"),
        # a string or a bool is no JSON number, whatever float() makes of it
        (lambda doc: doc["atoms"][0].__setitem__(0, "0.5"), "not a measure: '0.5' is not a number"),
        (lambda doc: doc["atoms"][1].__setitem__(1, True), "not a measure: True is not a number"),
        (lambda doc: doc["weights"].__setitem__(0, "0.25"), "not a measure: '0.25' is not a number"),
        (lambda doc: doc["weights"].__setitem__(0, None), "not a measure: None is not a number"),
        (lambda doc: doc["atoms"][0].__setitem__(1, float("inf")),
         "not a measure: an atom coordinate or weight is not finite"),
    ],
)
def test_malformed_measure_names_its_field(edit, message):
    doc = io.measure_to_dict(AtomicMeasure((1, 3), [[1.0, -1.0], [0.5, 2.0]], [0.25, 0.75]))
    edit(doc)
    with pytest.raises(MalformedInput, match="^" + re.escape(message)):
        io.load_measure(doc)


@pytest.mark.parametrize("load", [io.load_pop, io.load_measure])
def test_problem_and_measure_text_json_refuses(tmp_path, load):
    path = tmp_path / "doc.json"
    path.write_text('{"n": 2, "cliques": [[1, 2]')
    with pytest.raises(MalformedInput, match="^not valid JSON: "):
        load(path)


@pytest.mark.parametrize(
    "n, cliques, message",
    [
        (2, [[1, 2], [2, 3]], "clique 2 = (2, 3) has variables outside 1..2"),
        (3, [[1, 2], []], "clique 2 is empty"),
        (4, [[1, 2], [2, 3]], "variable 4 uncovered"),
        (3, [[0, 1], [1, 2]], "clique 1 = (0, 1) has variables outside 1..3"),
        (3, [[1, 1, 2], [2, 3]], "clique 1 = (1, 1, 2) is not strictly increasing"),
        (3, [[2, 1], [2, 3]], "clique 1 = (2, 1) is not strictly increasing"),
        (0, [[1, 2], [2, 3]], "ambient dimension n = 0 must be positive"),
        (3, [], "cover has no cliques"),
    ],
)
def test_readers_refuse_a_cover_that_is_not_one_of_1_to_n(tmp_path, n, cliques, message):
    moments = io.moment_vector_to_dict(demo.chain_pair_moments())
    pop = io.pop_to_dict(demo.chain_triple_pop())
    for doc, load in ((moments, io.load_moment_vector), (pop, io.load_pop)):
        doc.update(n=n, cliques=cliques)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for source in (doc, path):
            with pytest.raises(MalformedInput) as got:
                load(source)
            assert str(got.value) == message


def test_readers_accept_nested_cliques(tmp_path):
    cover = CliqueCover(3, ((1, 2), (1, 2, 3)))
    y = demo.moments_of_atoms(cover, 2, [[0.5, -1.0, 1.5]], [1.0])
    path = tmp_path / "nested.json"
    io.save_moment_vector(y, path)
    assert io.load_moment_vector(path).values.tobytes() == y.values.tobytes()
    assert io.load_pop({"n": 3, "cliques": [[1, 2], [1, 2, 3]]}).cover == cover


@pytest.mark.parametrize("alpha", [[[0], 0, 1], [{"a": 1}, 0, 0]])
def test_alpha_holding_a_list_or_object_is_out_of_pattern(alpha):
    doc = io.moment_vector_to_dict(demo.chain_pair_moments())
    doc["entries"].insert(1, {"alpha": alpha, "value": 0.0})
    with pytest.raises(IndexOutOfPattern) as got:
        io.load_moment_vector(doc)
    assert str(got.value) == f"multi-index {tuple(alpha)} is not in the sparse pattern"
    doc["entries"].append(dict(doc["entries"][3]))  # a duplicate is still named first
    with pytest.raises(DuplicateEntry):
        io.load_moment_vector(doc)


def test_load_solution_reads_a_moment_document_or_free_coordinates(tmp_path):
    y = demo.chain_triple_moments()
    free = [y.entries[a] for a in build_relaxation(demo.chain_triple_pop(), 3).exponents[1:]]
    moments, primal, bad = tmp_path / "y.json", tmp_path / "y.txt", tmp_path / "bad.txt"
    io.save_moment_vector(y, moments)
    moments.write_text("\n \t" + moments.read_text())  # leading blanks still make a document
    primal.write_text(" ".join(map(repr, free[:5])) + "\n" + " ".join(map(repr, free[5:])))
    bad.write_text("1.0 abc 2.0\n")
    loaded = io.load_solution(moments)
    assert loaded.index_map is y.index_map and loaded.values.tobytes() == y.values.tobytes()
    assert io.load_solution(primal) == free
    with pytest.raises(MalformedInput, match="^entry 1: value 'abc' is not a number$"):
        io.load_solution(bad)
    doc = io.moment_vector_to_dict(y)
    doc["entries"].pop()
    moments.write_text(json.dumps(doc))
    with pytest.raises(MissingEntries):
        io.load_solution(moments)
    assert io.load_solution(moments, allow_missing_as_zero=True).values[-1] == 0.0
    with pytest.raises(FileNotFoundError):
        io.load_solution(tmp_path / "absent.txt")


@pytest.mark.parametrize(
    "load", [io.load_moment_vector, io.load_solution, io.load_pop, io.load_cover, io.load_measure]
)
def test_readers_refuse_a_file_that_is_not_utf8(tmp_path, load):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe\x00{")
    with pytest.raises(MalformedInput, match="^not UTF-8 text: "):
        load(path)


def test_load_cover_keeps_what_the_cover_breaks(tmp_path):
    path = tmp_path / "cover.json"
    io.save_moment_vector(demo.chain_pair_moments(), path)
    assert io.load_cover(path) == demo.chain_pair_moments().cover
    broken = {"n": 4, "cliques": [[1, 2], [1, 2], []]}
    path.write_text(json.dumps(broken))
    for source in (broken, path):
        assert io.load_cover(source) == CliqueCover(4, ((1, 2), (1, 2), ()))
    path.write_text('{"n": 4, "cliques": 5}')
    with pytest.raises(MalformedInput, match="is not a list of lists of integers"):
        io.load_cover(path)
