import copy
import gc
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from smk import cli, demo, io
from smk.cli import run
from smk.errors import SmkError

from conftest import random_flat_instance


@pytest.fixture
def files(tmp_path):
    paths = {
        "pair": tmp_path / "pair.json",
        "triangle": tmp_path / "triangle.json",
        "triple_pop": tmp_path / "triple_pop.json",
        "triple_y": tmp_path / "triple_y.json",
    }
    io.save_moment_vector(demo.chain_pair_moments(), paths["pair"])
    io.save_moment_vector(demo.triangle_moments(), paths["triangle"])
    io.save_pop(demo.chain_triple_pop(), paths["triple_pop"])
    io.save_moment_vector(demo.chain_triple_moments(), paths["triple_y"])
    return {k: str(v) for k, v in paths.items()}


def _not_json(token):
    raise ValueError(f"{token} is not a JSON number")


def run_json(capsys, argv):
    """Exit code and report; a NaN or Infinity token in the report fails."""
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_not_json)


def test_certify_pair(files, capsys):
    code, report = run_json(capsys, ["certify", "--input", files["pair"]])
    assert code == 0
    ranks = [c["rank_full"] for c in report["certificate"]["cliques"]]
    overlap = [o["rank_full"] for o in report["certificate"]["overlaps"]]
    assert ranks == [2, 2] and overlap == [1]
    assert report["certificate"]["verdict"] is True
    assert report["exit_code"] == 0


def test_rip_triangle_exit_two(files, capsys):
    code, report = run_json(capsys, ["rip", "--input", files["triangle"]])
    assert code == 2
    assert report["no_order_exists"] is True


def test_rip_reorders(tmp_path, capsys):
    data = {"n": 4, "cliques": [[1, 2], [3, 4], [2, 3]]}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(data))
    code, report = run_json(capsys, ["rip", "--input", str(path)])
    assert code == 0
    assert report["reordered"] is True


def test_extract_assemble_pair(files, capsys, tmp_path):
    out = tmp_path / "mu.json"
    code, report = run_json(
        capsys,
        ["extract-assemble", "--input", files["pair"], "--measure-output", str(out)],
    )
    assert code == 0
    assert len(report["measure"]["atoms"]) == 4
    assert report["global_residual"] <= 1e-10
    assert len(report["maximal_support"]) == 4
    saved = io.load_measure(out)
    assert saved.num_atoms == 4


def test_pipeline_with_solution_file(files, capsys):
    code, report = run_json(
        capsys,
        [
            "pipeline", "--pop", files["triple_pop"], "--omega", "3",
            "--solution", files["triple_y"], "--round", "4",
        ],
    )
    assert code == 0
    assert len(report["minimizers"]) == 8
    assert report["global_residual"] <= 1e-10
    assert report["feasibility_clean"] is True


def test_pipeline_solution_file_is_closed(files, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["pipeline", "--pop", files["triple_pop"], "--omega", "3",
                    "--solution", files["triple_y"]])
        gc.collect()
    capsys.readouterr()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_pipeline_primal_vector_file(files, capsys, tmp_path):
    from smk.relax import build_relaxation

    inst = build_relaxation(demo.chain_triple_pop(), 3)
    y = demo.chain_triple_moments()
    free = [y.entries[a] for a in inst.exponents[1:]]
    vec = tmp_path / "primal.txt"
    vec.write_text(" ".join(repr(v) for v in free))
    code, report = run_json(
        capsys,
        ["pipeline", "--pop", files["triple_pop"], "--omega", "3", "--solution", str(vec)],
    )
    assert code == 0
    assert len(report["minimizers"]) == 8


def test_pipeline_primal_vector_bad_token_exit_one(files, capsys, tmp_path):
    vec = tmp_path / "primal.txt"
    vec.write_text("1.0 abc 2.0\n")
    code, report = run_json(
        capsys,
        ["pipeline", "--pop", files["triple_pop"], "--omega", "3", "--solution", str(vec)],
    )
    assert code == 1
    assert (report["error"], report["detail"]) == ("MalformedInput", "entry 1: value 'abc' is not a number")


@pytest.mark.parametrize("kind", ["moment JSON", "primal vector"])
def test_pipeline_non_finite_solution_exit_one(files, capsys, tmp_path, kind):
    from smk.relax import build_relaxation

    exponents = build_relaxation(demo.chain_triple_pop(), 3).exponents
    path = tmp_path / "solution"
    if kind == "moment JSON":
        doc = io.moment_vector_to_dict(demo.chain_triple_moments())
        doc["entries"][5]["value"] = float("nan")
        path.write_text(json.dumps(doc))
        detail = f"solution entry 5 (the moment at {exponents[5]}) is nan"
    else:
        free = demo.chain_triple_moments().values[1:].tolist()
        free[3] = float("inf")
        path.write_text(" ".join(repr(v) for v in free))
        detail = f"solution entry 4 (the moment at {exponents[4]}) is inf"
    code, report = run_json(
        capsys, ["pipeline", "--pop", files["triple_pop"], "--omega", "3", "--solution", str(path)]
    )
    assert code == report["exit_code"] == 1
    assert (report["error"], report["detail"]) == ("NonFiniteMoment", detail)


def test_pipeline_solution_on_reordered_cover(capsys, tmp_path):
    # the problem's clique order fails running intersection; the solution
    # file keeps that order while the pipeline solves a reordered relaxation
    pop = demo.chain_triple_pop().reorder((1, 3, 2))
    y = demo.moments_of_atoms(pop.cover, 3, demo.chain_triple_minimizers(), np.full(8, 0.125))
    io.save_pop(pop, tmp_path / "pop.json")
    io.save_moment_vector(y, tmp_path / "moments.json")
    code, report = run_json(
        capsys,
        [
            "pipeline", "--pop", str(tmp_path / "pop.json"), "--omega", "3",
            "--solution", str(tmp_path / "moments.json"),
        ],
    )
    assert code == 0
    assert report["clique_order"] != [1, 2, 3]
    assert len(report["minimizers"]) == 8


def test_certify_verdict_false_exit_two(tmp_path, capsys):
    # three collinear first coordinates: rank grows with the order, not flat
    cover = demo.chain_pair_moments().cover
    y = demo.moments_of_atoms(
        cover, 2, [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]], [1 / 3] * 3
    )
    path = tmp_path / "notflat.json"
    io.save_moment_vector(y, path)
    code, report = run_json(capsys, ["certify", "--input", str(path)])
    assert code == 2
    assert report["certificate"]["verdict"] is False


def test_certify_non_finite_moment_exit_one(files, capsys, tmp_path):
    with open(files["pair"]) as fh:
        text = fh.read()
    cut = text.rindex('"value": ')
    path = tmp_path / "inf.json"
    path.write_text(text[:cut] + '"value": Infinity' + text[text.index("\n", cut):])
    code, report = run_json(capsys, ["certify", "--input", str(path)])
    assert code == 1
    assert report["error"] == "NonFiniteMoment"
    assert report["detail"].startswith("clique 2: the moment at (0, 0, 4) is inf")


@pytest.mark.parametrize("command", [["certify"], ["extract-assemble"], ["altmeasure", "--cost", "random:2"]])
def test_malformed_moment_file_exit_one(files, capsys, tmp_path, command):
    with open(files["pair"]) as fh:
        text = fh.read()
    truncated, null = tmp_path / "truncated.json", tmp_path / "null.json"
    truncated.write_text(text[: len(text) // 2])
    cut = text.rindex('"value": ')
    null.write_text(text[:cut] + '"value": null' + text[text.index("\n", cut):])
    for path, detail in ((truncated, "not valid JSON: "), (null, "entry 24: value None is not a number")):
        code, report = run_json(capsys, [*command, "--input", str(path)])
        assert code == 1
        assert report["error"] == "MalformedInput"
        assert report["detail"].startswith(detail)


@pytest.mark.parametrize(
    "edit, detail",
    [
        (lambda doc: doc["entries"][0].pop("value"), 'entry 0: no "value"'),
        (lambda doc: doc.pop("cliques"), 'no "cliques"'),
        (lambda doc: doc.update(omega=0), "omega 0 is not >= 1"),
        (lambda doc: doc.update(n="three"), "n 'three' is not an integer"),
    ],
)
def test_malformed_moment_structure_exit_one(capsys, tmp_path, edit, detail):
    doc = io.moment_vector_to_dict(demo.chain_pair_moments())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc, indent=2))
    code, report = run_json(capsys, ["certify", "--input", str(path)])
    assert code == 1
    assert (report["error"], report["detail"]) == ("MalformedInput", detail)


@pytest.mark.parametrize(
    "command", [["relax", "--omega", "3"], ["solve", "--omega", "3"], ["pipeline", "--omega", "3"]]
)
@pytest.mark.parametrize(
    "edit, detail",
    [
        (lambda doc: doc["objectives"][2].update(clique=0), "objective 2: clique 0 is not in 1..3"),
        (lambda doc: doc["constraints"][0].pop("clique"), 'constraint 0: no "clique"'),
        (lambda doc: doc["objectives"][0]["terms"][0].pop("coef"), 'objective 0: term 0: no "coef"'),
    ],
)
def test_malformed_problem_exit_one(capsys, tmp_path, command, edit, detail):
    doc = io.pop_to_dict(demo.chain_triple_pop())
    edit(doc)
    path = tmp_path / "bad_pop.json"
    path.write_text(json.dumps(doc, indent=2))
    code, report = run_json(capsys, [*command, "--pop", str(path)])
    assert code == 1
    assert (report["error"], report["detail"]) == ("MalformedInput", detail)


@pytest.mark.parametrize("variables", [[1, 2], [3, 2, 1]])
def test_altmeasure_measure_on_other_variables_exit_one(files, capsys, tmp_path, variables):
    # the atom columns are read as variables 1..n of the moment file, so a
    # measure on fewer or permuted variables is refused before the LP
    path = tmp_path / "measure.json"
    atoms = [[1.0] * len(variables), [-1.0] * len(variables)]
    path.write_text(json.dumps({"variables": variables, "atoms": atoms, "weights": [0.5, 0.5]}))
    code, report = run_json(capsys, ["altmeasure", "--input", files["pair"], "--measure", str(path),
                                     "--cost", "random:2"])
    assert code == 1
    assert (report["error"], report["detail"]) == (
        "MalformedInput", f"measure variables {tuple(variables)} are not the moment file's (1, 2, 3)"
    )


def test_altmeasure_loads_moments_once(files, capsys, monkeypatch):
    calls = []
    load = io.load_moment_vector
    monkeypatch.setattr(io, "load_moment_vector", lambda *a, **k: calls.append(a) or load(*a, **k))
    code, report = run_json(capsys, ["altmeasure", "--input", files["pair"], "--cost", "random:2"])
    assert code == 0 and report["weights"]
    assert len(calls) == 1


def test_pipeline_reads_solution_file_once(files, capsys, monkeypatch):
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    # ``Path.read_text`` opens through ``io.open``, the builtin under another name
    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr("io.open", counting_open)
    code, report = run_json(
        capsys,
        ["pipeline", "--pop", files["triple_pop"], "--omega", "3", "--solution", files["triple_y"], "--round", "4"],
    )
    assert code == 0 and len(report["minimizers"]) == 8
    assert opened.count(files["triple_y"]) == 1


def test_rip_checks_an_ordered_cover_once(files, capsys, monkeypatch):
    covers = []
    check = cli.check_rip
    monkeypatch.setattr(cli, "check_rip", lambda cover: covers.append(cover) or check(cover))
    code, report = run_json(capsys, ["rip", "--input", files["pair"]])
    assert code == 0 and report["reordered"] is False
    assert report["witnesses"] == {"2": [1]}
    assert len(covers) == 1


def test_measure_output_is_the_reported_measure(files, capsys, tmp_path):
    out = tmp_path / "mu.json"
    code, report = run_json(capsys, ["extract-assemble", "--input", files["pair"], "--measure-output", str(out)])
    assert code == 0
    assert out.read_text() == json.dumps(report["measure"], indent=2) + "\n"


def test_relax_emits_sdpa(files, capsys, tmp_path):
    out = tmp_path / "prob.dat-s"
    code, report = run_json(
        capsys,
        ["relax", "--pop", files["triple_pop"], "--omega", "3", "--sdpa-output", str(out)],
    )
    assert code == 0
    assert report["num_vars"] == 70
    assert report["block_sizes"] == [10, 10, 10, 6, 6, 6]
    assert out.read_text().splitlines()[0] == "69"


def test_solve_reports_convergence(files, capsys, tmp_path):
    mom = tmp_path / "sol.json"
    code, report = run_json(
        capsys,
        ["solve", "--pop", files["triple_pop"], "--omega", "2", "--max-iters", "20000",
         "--moments-output", str(mom)],
    )
    assert code == 0
    assert "converged" in report
    assert report["objective"] <= 1e-3
    io.load_moment_vector(mom)  # parses back


def test_altmeasure_costs(files, capsys):
    code, report = run_json(
        capsys, ["altmeasure", "--input", files["pair"], "--cost", "1,0,0,0"]
    )
    assert code == 0
    assert np.allclose(report["weights"][0], [0.0, 0.5, 0.5, 0.0], atol=1e-8)
    code, report = run_json(
        capsys, ["altmeasure", "--input", files["pair"], "--cost", "random:20"]
    )
    assert code == 0
    assert len(report["weights"]) == 2


def test_altmeasure_negative_first_cost(files, capsys):
    _, spaced = run_json(capsys, ["altmeasure", "--input", files["pair"], "--cost", "-1,0,1,0"])
    _, bound = run_json(capsys, ["altmeasure", "--input", files["pair"], "--cost=-1,0,1,0"])
    assert spaced["exit_code"] == bound["exit_code"] == 0
    assert spaced["weights"] == bound["weights"]


@pytest.mark.parametrize("extra", [[], ["--round", "4"]], ids=["plain", "round-4"])
def test_altmeasure_on_bundled_solver_moments(files, capsys, tmp_path, extra):
    """The weight LP judges consistency by the certificate's tolerance, so
    moments accurate to the solver's 1e-7 give their extreme measures."""
    mom = str(tmp_path / "sol.json")
    assert run(["solve", "--pop", files["triple_pop"], "--omega", "3", "--moments-output", mom]) == 0
    capsys.readouterr()
    code, report = run_json(
        capsys,
        ["altmeasure", "--input", mom, "--constraints", files["triple_pop"], "--cost", "random:3",
         *extra],
    )
    assert code == 0 and "error" not in report
    assert len(report["atoms"]) == 8 and report["weights"]


@pytest.mark.parametrize("cost", ["1,a,0,0", "random:x", "nan,0,0,0", "1,0,-inf,0", "random:0", "random:-3"])
def test_altmeasure_bad_cost_is_usage_error(files, capsys, cost):
    assert run(["altmeasure", "--input", files["pair"], "--cost", cost]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --cost:") and repr(cost) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--input", "{pair}", "--rel-tol", "1"],
        ["certify", "--input", "{pair}", "--rel-tol", "inf"],
        ["certify", "--input", "{pair}", "--rel-tol", "nan"],
        ["certify", "--input", "{pair}", "--rel-tol", "0"],
        ["certify", "--input", "{pair}", "--rel-tol", "-1"],
        ["certify", "--input", "{pair}", "--round", "-1"],
        ["extract-assemble", "--input", "{pair}", "--rel-tol", "inf"],
        ["pipeline", "--pop", "{triple_pop}", "--omega", "3", "--solution", "{triple_y}", "--rel-tol", "1"],
        ["solve", "--pop", "{triple_pop}", "--omega", "3", "--max-iters", "0"],
        ["pipeline", "--pop", "{triple_pop}", "--omega", "3", "--max-iters", "0"],
        ["pipeline", "--pop", "{triple_pop}", "--omega", "3", "--max-iters", "-3"],
        ["certify", "--input", "{pair}", "--seed", "-5"],
        ["extract-assemble", "--input", "{pair}", "--seed", "-1"],
        ["altmeasure", "--input", "{pair}", "--cost", "random:2", "--seed", "-5"],
        ["pipeline", "--pop", "{triple_pop}", "--omega", "3", "--solution", "{triple_y}", "--seed", "-5"],
        ["solve", "--pop", "{triple_pop}", "--omega", "3", "--tol", "inf"],
        ["solve", "--pop", "{triple_pop}", "--omega", "3", "--tol", "nan"],
        ["solve", "--pop", "{triple_pop}", "--omega", "3", "--tol", "-1"],
        ["pipeline", "--pop", "{triple_pop}", "--omega", "3", "--tol", "inf"],
        ["pipeline", "--pop", "{triple_pop}", "--omega", "3", "--tol", "nan"],
    ],
)
def test_unusable_flag_value_is_usage_error(files, capsys, argv):
    assert run([arg.format(**files) for arg in argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: ")


def test_zero_tol_runs_every_iteration(files, capsys):
    code, report = run_json(capsys, ["solve", "--pop", files["triple_pop"], "--omega", "3",
                                     "--tol", "0", "--max-iters", "5"])
    assert (code, report["iterations"], report["converged"]) == (0, 5, False)


def test_pipeline_solution_of_mass_two_exit_one(files, capsys, tmp_path):
    doc = io.moment_vector_to_dict(demo.chain_triple_moments())
    for entry in doc["entries"]:
        entry["value"] *= 2
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(
        capsys, ["pipeline", "--pop", files["triple_pop"], "--omega", "3", "--solution", str(path)]
    )
    assert (code, report["error"], report["detail"]) == (1, "DimensionMismatch", "ingested mass 2.0 != 1")


@pytest.mark.parametrize("coef", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "command",
    [["relax"], ["solve", "--max-iters", "20"], ["pipeline", "--solution", "{triple_y}"]],
)
def test_non_finite_coefficient_exit_one(files, capsys, tmp_path, coef, command):
    doc = io.pop_to_dict(demo.chain_triple_pop())
    doc["constraints"][0]["terms"][0]["coef"] = coef
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], "--pop", str(path), "--omega", "3", *(a.format(**files) for a in command[1:])]
    code, report = run_json(capsys, argv)
    detail = f"constraint 0: term 0: coef {coef} is not a finite number"
    assert (code, report["error"], report["detail"]) == (1, "MalformedInput", detail)


def test_rip_reports_a_count_of_uncovered_variables(capsys, tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"n": 10**9, "cliques": [[1, 2], [2, 3]]}))
    code, report = run_json(capsys, ["rip", "--input", str(path)])
    assert code == report["exit_code"] == 1
    assert report["cover_violations"] == ["variable 4 uncovered", "999999996 more variables uncovered"]


def test_usage_error_exit_64(capsys):
    assert run(["bogus"]) == 64
    assert run([]) == 64


def test_merge_tol_flag_is_gone(files, capsys):
    assert run(["certify", "--input", files["pair"], "--merge-tol", "1e-6"]) == 64


def test_missing_file_exit_one(capsys):
    code, report = run_json(capsys, ["certify", "--input", "/no/such/file.json"])
    assert code == 1
    assert report["error"] == "OSError"


def test_byte_identical_reports(files, capsys):
    run(["pipeline", "--pop", files["triple_pop"], "--omega", "3",
         "--solution", files["triple_y"], "--round", "4", "--seed", "7"])
    first = capsys.readouterr().out
    run(["pipeline", "--pop", files["triple_pop"], "--omega", "3",
         "--solution", files["triple_y"], "--round", "4", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_output_file_written(files, capsys, tmp_path):
    out = tmp_path / "report.json"
    code, report = run_json(
        capsys, ["certify", "--input", files["pair"], "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["certificate"]["verdict"] is True


def test_unwritable_output_gives_one_error_report(files, capsys, tmp_path):
    # the --output file is written before the report is printed, so the
    # printed report is the one that names the failed write
    out = tmp_path / "missing" / "report.json"
    code = run(["certify", "--input", files["pair"], "--output", str(out)])
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_not_json)
    assert (code, report["exit_code"], report["error"], captured.err) == (1, 1, "OSError", "")
    assert report["certificate"]["verdict"] is True and not out.exists()


@pytest.mark.parametrize("command", [
    ["certify", "--input", "{doc}"],
    ["pipeline", "--pop", "{triple_pop}", "--omega", "3", "--solution", "{doc}"],
])
def test_file_that_is_not_utf8_exit_one(files, capsys, tmp_path, command):
    path = tmp_path / "not_utf8.json"
    path.write_bytes(b"\xff\xfe\x00{")
    code, report = run_json(capsys, [arg.format(doc=path, **files) for arg in command])
    assert (code, report["exit_code"], report["error"]) == (1, 1, "MalformedInput")
    assert report["detail"].startswith("not UTF-8 text: ")


def test_clique_order_is_taken_as_given(files, capsys, tmp_path):
    # clique order 1, 3, 2 of the chain triple lacks running intersection:
    # certify refuses it, rip prints an admissible order
    doc = io.moment_vector_to_dict(demo.chain_triple_moments())
    doc["cliques"] = [doc["cliques"][k] for k in (0, 2, 1)]
    path = tmp_path / "reordered.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, ["certify", "--input", str(path)])
    assert (code, report["error"]) == (1, "RipFailsAt")
    code, report = run_json(capsys, ["rip", "--input", str(path)])
    assert (code, report["order"]) == (0, [1, 3, 2])
    code, report = run_json(capsys, ["certify", "--input", files["triangle"]])
    assert (code, report["error"]) == (1, "RipFailsAt")


# the documents the malformed-input property mutates, and every subcommand
# that reads each one ("{doc}" is the mutated file)
MUTABLE = {
    "moments": lambda: io.moment_vector_to_dict(demo.chain_pair_moments()),
    "problem": lambda: io.pop_to_dict(demo.chain_triple_pop()),
    "measure": lambda: {
        "variables": [1, 2, 3],
        "atoms": [[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, -1.0]],
        "weights": [0.25, 0.25, 0.25, 0.25],
    },
}
READERS = {
    "moments": [
        ["rip", "--input", "{doc}"],
        ["certify", "--input", "{doc}"],
        ["extract-assemble", "--input", "{doc}"],
        ["altmeasure", "--input", "{doc}", "--cost", "random:2"],
        ["pipeline", "--pop", "{pair_pop}", "--omega", "2", "--solution", "{doc}"],
    ],
    "problem": [
        ["rip", "--input", "{doc}"],
        ["relax", "--pop", "{doc}", "--omega", "3"],
        ["solve", "--pop", "{doc}", "--omega", "3", "--max-iters", "20"],
        ["pipeline", "--pop", "{doc}", "--omega", "3", "--max-iters", "20"],
        ["certify", "--input", "{triple_y}", "--constraints", "{doc}"],
        ["extract-assemble", "--input", "{triple_y}", "--constraints", "{doc}"],
        ["altmeasure", "--input", "{triple_y}", "--constraints", "{doc}", "--cost", "random:2"],
    ],
    "measure": [["altmeasure", "--input", "{pair}", "--measure", "{doc}", "--cost", "random:2"]],
}
REPLACEMENTS = [
    "x", "", "1.0", [], [1, 2], {}, {"a": 1}, None, 0, 1, -1, 3, 0.5, -2.5, True, False,
    float("nan"), float("inf"), -float("inf"),
]


@pytest.mark.parametrize(
    "command, kind, edit, detail",
    [
        (["certify", "--input"], "moments", {"n": 2}, "clique 2 = (2, 3) has variables outside 1..2"),
        (["relax", "--omega", "3", "--pop"], "problem", {"cliques": [[1, 2], [], [3, 4]]}, "clique 2 is empty"),
        (["pipeline", "--omega", "3", "--pop"], "problem", {"n": 5}, "variable 5 uncovered"),
        (["relax", "--omega", "3", "--pop"], "problem", {"cliques": [[0, 1], [1, 2], [3, 4]]},
         "clique 1 = (0, 1) has variables outside 1..4"),
        (["certify", "--input"], "moments", {"cliques": [[1, 1, 2], [2, 3]]},
         "clique 1 = (1, 1, 2) is not strictly increasing"),
    ],
)
def test_invalid_cover_exit_one(capsys, tmp_path, command, kind, edit, detail):
    doc = MUTABLE[kind]()
    doc.update(edit)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, [*command, str(path)])
    assert (code, report["error"], report["detail"]) == (1, "MalformedInput", detail)


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["extract-assemble", "--input", "{pair}", "--constraints", "{triple_pop}"],
         "constraints file cover does not match the moment file cover"),
        (["altmeasure", "--input", "{pair}", "--cost", "1,0"], "cost has 2 entries for 4 atoms"),
    ],
)
def test_input_that_does_not_fit_the_moments_exit_one(files, capsys, argv, detail):
    code, report = run_json(capsys, [arg.format(**files) for arg in argv])
    assert (code, report["error"], report["detail"]) == (1, "SmkError", detail)


def slots(node):
    """Every (container, key) pair of a JSON document, at every depth."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from slots(node[key])


def mutate(doc, draw):
    """Drop or replace one value of a JSON document. Half the draws pick the
    value uniformly among all values at every depth, so most of them land in
    the long lists (problem terms, moment entries). The other half walk down
    from the top, each level the last with probability 1/2, so the few
    top-level fields are drawn as often as the many entries."""
    if draw(st.booleans()):
        node, key = draw(st.sampled_from(list(slots(doc))))
    else:
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
                break
            node = child
    replacement = draw(st.sampled_from(["drop", *REPLACEMENTS]))
    if replacement == "drop":
        del node[key]
    else:
        node[key] = copy.deepcopy(replacement)


def error_types(base=SmkError):
    return {base.__name__}.union(*(error_types(sub) for sub in base.__subclasses__()))


SMK_ERRORS = error_types()


@pytest.mark.parametrize("kind", list(MUTABLE))
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_never_escapes(files, capsys, tmp_path, kind, data):
    doc = MUTABLE[kind]()
    mutate(doc, data.draw)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    pair_pop = tmp_path / "pair_pop.json"
    pair_pop.write_text(json.dumps({"n": 3, "cliques": [[1, 2], [2, 3]]}))
    names = {**files, "doc": str(path), "pair_pop": str(pair_pop)}
    for command in READERS[kind]:
        argv = [arg.format(**names) for arg in command]
        code, report = run_json(capsys, argv)  # no exception escapes
        refused = "cover_violations" in report or report.get("error") in SMK_ERRORS
        assert report["exit_code"] == code and (code in (0, 2) or code == 1 and refused), (argv, report)


def test_import_loads_no_scipy_module():
    """A fresh interpreter importing smk and its CLI loads no scipy module,
    nor does solving the chain triple at order 2 with the bundled solver."""
    code = (
        "import json, sys, smk, smk.cli; "
        "smk.solve_sdp_bundled(smk.build_relaxation(smk.demo.chain_triple_pop(), 2)); "
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []


def test_bundled_pipeline_loads_no_masked_array_module():
    """A bundled pipeline on the chain triple, in a fresh interpreter, leaves
    numpy.ma unloaded: ``np.unique`` without an index output would load it."""
    code = (
        "import json, sys, smk; "
        "result = smk.pipeline(smk.demo.chain_triple_pop(), 3); "
        "print(json.dumps([len(result.minimizers), [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']]]))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [8, []]


FRESH_RUNS = """
import contextlib, io, json, sys
from smk.cli import run
codes = []  # per run: exit code, report, whether scipy is loaded after it
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(argv)
    codes.append((code, json.loads(out.getvalue()), "scipy" in sys.modules))
print(json.dumps(codes))
"""


def test_no_command_loads_scipy(files, tmp_path):
    """In one fresh interpreter, every command runs and leaves scipy
    unloaded, the bundled solver's ``solve`` and ``pipeline`` included; both
    converge and the pipeline certifies."""
    runs = [
        ["certify", "--input", files["pair"]],
        ["extract-assemble", "--input", files["pair"]],
        ["altmeasure", "--input", files["pair"], "--cost", "random:5"],
        ["relax", "--pop", files["triple_pop"], "--omega", "3"],
        ["pipeline", "--pop", files["triple_pop"], "--omega", "3", "--solution", files["triple_y"]],
        ["solve", "--pop", files["triple_pop"], "--omega", "2"],
        ["rip", "--input", files["pair"]],
        ["pipeline", "--pop", files["triple_pop"], "--omega", "3"],
    ]
    out = subprocess.run(
        [sys.executable, "-c", FRESH_RUNS, json.dumps(runs)], capture_output=True, text=True, check=True
    ).stdout
    codes = json.loads(out)
    assert [code for code, _, _ in codes] == [0] * len(runs)
    assert [scipy for _, _, scipy in codes] == [False] * len(runs)
    assert codes[5][1]["converged"] is True
    assert codes[7][1]["solver"]["converged"] is True and codes[7][1]["certificate"]["verdict"] is True


@pytest.mark.parametrize("command", [["solve"], ["pipeline"]])
def test_overflowing_solve_gives_a_typed_report(tmp_path, command):
    """An objective coefficient of 1e200 is finite, so the reader accepts it;
    the bundled solver's residual then overflows, which must end in a strict
    JSON report, not a traceback after LAPACK's complaint on stderr."""
    doc = io.pop_to_dict(demo.chain_triple_pop())
    doc["objectives"][0]["terms"][0]["coef"] = 1e200
    path = tmp_path / "pop_1e200.json"
    path.write_text(json.dumps(doc))
    argv = [*command, "--pop", str(path), "--omega", "2"]
    code = "import sys; from smk.cli import run; sys.exit(run(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    report = json.loads(proc.stdout, parse_constant=_not_json)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert (report["error"], report["detail"]) == (
        "SolverDiverged", "the bundled solver's residual is not finite at iteration 1"
    )


def test_pipeline_and_extract_assemble_agree(files, capsys, tmp_path):
    """``smk pipeline`` and ``smk extract-assemble`` run one library chain,
    ``relax.glue_certified``: on the same moments and problem they report the
    same certificate, measure, global residual and feasibility flag."""
    cases = [(files["triple_y"], files["triple_pop"], 3)]
    for seed in range(4):
        cover, _, _, y = random_flat_instance(seed)
        moments, pop = tmp_path / f"y{seed}.json", tmp_path / f"pop{seed}.json"
        io.save_moment_vector(y, moments)
        pop.write_text(json.dumps({"n": cover.n, "cliques": [list(c) for c in cover.cliques]}))
        cases.append((str(moments), str(pop), y.omega))
    for moments, pop, omega in cases:
        code_p, piped = run_json(capsys, ["pipeline", "--pop", pop, "--omega", str(omega), "--solution", moments])
        code_e, chained = run_json(capsys, ["extract-assemble", "--input", moments, "--constraints", pop])
        assert code_p == code_e == 0
        assert piped["certificate"] == chained["certificate"]
        assert piped["measure"] == chained["measure"]
        assert piped["global_residual"] == chained["global_residual"]
        assert piped["feasibility_clean"] == chained["feasibility_clean"]
