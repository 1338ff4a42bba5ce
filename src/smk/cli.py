"""Command-line front end.

Batch-oriented: every subcommand reads JSON inputs, writes one JSON report
to stdout (and optionally to a file), and signals through the exit code:
0 = success / verdict true, 2 = valid negative outcome (verdict false, no
admissible clique order), 1 = error, 64 = usage error. Identical inputs and
seed produce byte-identical reports. Set ``SMK_LOG`` for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import warnings

import numpy as np

from . import io
from .altmeasure import enumerate_extreme_measures, solve_weight_lp
from .assemble import maximal_support_set
from .certify import RankPolicy, certify, zero_propagation_check
from .core import validate_cover
from .errors import MalformedInput, SmkError
from .extract import extract_clique_measures, lex_order_rows
from .relax import build_relaxation, emit_sdpa, glue_certified, pipeline, solve_sdp_bundled
from .rip import NoOrderExists, RipFailsAt, check_rip, find_rip_order

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_USAGE = 64

log = logging.getLogger("smk")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _cost(text: str):
    """``--cost``: ``random:N`` gives the budget N >= 1, anything else one finite cost per atom."""
    try:
        if text.startswith("random:"):
            budget = int(text.split(":", 1)[1])
            if budget >= 1:
                return budget
        else:
            cost = np.array([float(t) for t in text.split(",")])
            if np.isfinite(cost).all():
                return cost
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated finite numbers or random:N with N >= 1, got {text!r}"
    )


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rel-tol", type=float, default=1e-6, help="rank/PSD tolerance")
    common.add_argument("--round", type=int, default=None, metavar="DECIMALS",
                        help="round moment entries before rank decisions")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--allow-missing-as-zero", action="store_true",
                        help="treat absent sparse entries in moment files as 0")
    common.add_argument("--output", default=None, help="also write the JSON report here")

    parser = _Parser(prog="smk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add("rip", "check/search a clique order with the running intersection property")
    p.add_argument("--input", required=True, help="moment-vector or {n, cliques} JSON")

    p = add("certify", "run the flatness certificate on a moment vector")
    p.add_argument("--input", required=True, help="moment-vector JSON")
    p.add_argument("--constraints", default=None, help="problem JSON supplying constraints")

    p = add("extract-assemble", "certify, extract clique atoms, assemble, verify")
    p.add_argument("--input", required=True)
    p.add_argument("--constraints", default=None)
    p.add_argument("--measure-output", default=None, help="write the assembled measure JSON here")

    p = add("altmeasure", "extreme representing measures over the maximal atoms")
    p.add_argument("--input", required=True)
    p.add_argument("--constraints", default=None)
    p.add_argument("--measure", default=None,
                   help="measure JSON on variables 1..n supplying the atoms (default: run the chain)")
    p.add_argument("--cost", required=True, type=_cost,
                   help="comma-separated cost vector, or random:N")

    p = add("relax", "build the relaxation and emit SDPA sparse text")
    p.add_argument("--pop", required=True)
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--sdpa-output", default=None, help="write the .dat-s text here")

    p = add("solve", "bundled best-effort SDP solve")
    p.add_argument("--pop", required=True)
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--moments-output", default=None, help="write the solution moment JSON here")

    p = add("pipeline", "solve/ingest, certify, extract, assemble")
    p.add_argument("--pop", required=True)
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--solution", default=None,
                   help="moment JSON or whitespace primal vector file (default: bundled solver)")
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--tol", type=float, default=1e-7)
    return parser


def _run_rip(args, report):
    cover = io.load_cover(args.input)
    problems = validate_cover(cover)
    if problems:
        report["cover_violations"] = problems
        return EXIT_ERROR
    order, reordered = tuple(range(1, cover.m + 1)), False
    try:
        wit = check_rip(cover)
    except RipFailsAt as exc:
        report["fails_at"] = exc.index
        report["overlap"] = list(exc.overlap)
        try:
            order, reordered = find_rip_order(cover), True
        except NoOrderExists as exc:
            report["no_order_exists"] = True
            report["detail"] = str(exc)
            return EXIT_NEGATIVE
        wit = check_rip(cover.reorder(order))
    report["order"] = list(order)
    report["witnesses"] = {str(i): sorted(js) for i, js in wit.witness.items()}
    report["reordered"] = reordered
    return EXIT_OK


def _load_constraints(args, cover):
    if getattr(args, "constraints", None):
        pop = io.load_pop(args.constraints)
        if pop.cover != cover:
            raise SmkError("constraints file cover does not match the moment file cover")
        return pop.constraints
    return tuple(() for _ in range(cover.m))


def _moments(args):
    return io.load_moment_vector(args.input, allow_missing_as_zero=args.allow_missing_as_zero)


def _prepared(args, y):
    """``y`` rounded as the policy asks, its problem's constraints and the
    witnesses of its clique order."""
    constraints = _load_constraints(args, y.cover)
    if args.policy.round_decimals is not None:
        y = y.rounded(args.policy.round_decimals)
    return y, constraints, check_rip(y.cover)


def _run_certify(args, report):
    y, constraints, witnesses = _prepared(args, _moments(args))
    cert = certify(y, constraints, witnesses, args.policy)
    report["certificate"] = cert.to_dict()
    report["zero_propagation"] = zero_propagation_check(y, args.policy).value
    if not cert.verdict:
        return EXIT_NEGATIVE
    measures = extract_clique_measures(cert, args.policy, args.seed)
    report["clique_measures"] = [io.measure_to_dict(mu) for mu in measures]
    return EXIT_OK


def _certify_chain(args, y, report):
    """The exit code and, after a true verdict, the glued measure (else None)."""
    y, constraints, witnesses = _prepared(args, y)
    glued = glue_certified(y, constraints, witnesses, args.policy, args.seed)
    report["certificate"] = glued.certificate.to_dict()
    report["zero_propagation"] = zero_propagation_check(y, args.policy).value
    if not glued.certificate.verdict:
        return EXIT_NEGATIVE, None
    report["clique_measures"] = [io.measure_to_dict(mu) for mu in glued.clique_measures]
    report["measure"] = io.measure_to_dict(glued.measure)
    report["global_residual"] = glued.global_residual
    support = maximal_support_set(glued.clique_measures, y.cover, args.policy)
    report["maximal_support"] = [[float(v) for v in p] for p in support]
    report["feasibility_clean"] = glued.feasibility_clean
    return EXIT_OK, glued.measure


def _run_extract_assemble(args, report):
    code, mu = _certify_chain(args, _moments(args), report)
    if code == EXIT_OK and args.measure_output:
        io.save_measure(mu, args.measure_output)
    return code


def _run_altmeasure(args, report):
    y = _moments(args)
    if args.measure:
        mu, variables = io.load_measure(args.measure), tuple(range(1, y.cover.n + 1))
        if mu.variables != variables:
            raise MalformedInput(f"measure variables {mu.variables} are not the moment file's {variables}")
        atoms = mu.atoms
    else:
        code, mu = _certify_chain(args, y, report)
        if code != EXIT_OK:
            return code
        atoms = mu.atoms
    atoms = atoms[lex_order_rows(atoms)]
    report["atoms"] = [[float(v) for v in a] for a in atoms]
    if isinstance(args.cost, int):
        solutions = enumerate_extreme_measures(atoms, y, args.cost, args.seed, args.policy)
        report["weights"] = [[float(w) for w in s] for s in solutions]
    else:
        cost = args.cost
        if cost.shape[0] != atoms.shape[0]:
            raise SmkError(f"cost has {cost.shape[0]} entries for {atoms.shape[0]} atoms")
        w = solve_weight_lp(atoms, y, cost, args.policy)
        report["weights"] = [[float(v) for v in w]]
    return EXIT_OK


def _run_relax(args, report):
    pop = io.load_pop(args.pop)
    instance = build_relaxation(pop, args.omega)
    text = emit_sdpa(instance)
    report.update(num_vars=instance.num_vars, block_sizes=[b.size for b in instance.blocks], sdpa=text)
    if args.sdpa_output:
        with open(args.sdpa_output, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _run_solve(args, report):
    pop = io.load_pop(args.pop)
    instance = build_relaxation(pop, args.omega)
    sol = solve_sdp_bundled(instance, max_iters=args.max_iters, tol=args.tol)
    report.update(
        objective=sol.objective, iterations=sol.iterations, primal_residual=sol.primal_residual,
        dual_residual=sol.dual_residual, min_block_eig=sol.min_block_eig, converged=sol.converged,
    )
    if args.moments_output:
        io.save_moment_vector(sol.y, args.moments_output)
    return EXIT_OK  # non-convergence is reported in the JSON, not an error


def _run_pipeline(args, report):
    pop = io.load_pop(args.pop)
    solution, solver = None, "bundled"
    if args.solution:
        solution, solver = io.load_solution(args.solution, args.allow_missing_as_zero), "file"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = pipeline(
            pop, args.omega, args.policy, solver=solver, solution=solution,
            seed=args.seed, max_iters=args.max_iters, solve_tol=args.tol,
        )
    report["warnings"] = [str(w.message) for w in caught]
    report["clique_order"] = list(result.clique_order)
    report["objective_bound"] = result.objective
    report["certificate"] = result.certificate.to_dict()
    if result.solve_report is not None:
        report["solver"] = {
            "iterations": result.solve_report.iterations,
            "primal_residual": result.solve_report.primal_residual,
            "converged": result.solve_report.converged,
        }
    if result.measure is None:
        return EXIT_NEGATIVE
    report["measure"] = io.measure_to_dict(result.measure)
    report["minimizers"] = [[float(v) for v in a] for a in result.minimizers]
    report["global_residual"] = result.global_residual
    report["feasibility_clean"] = result.feasibility_clean
    return EXIT_OK


_RUNNERS = {
    "rip": _run_rip,
    "certify": _run_certify,
    "extract-assemble": _run_extract_assemble,
    "altmeasure": _run_altmeasure,
    "relax": _run_relax,
    "solve": _run_solve,
    "pipeline": _run_pipeline,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and emit the JSON report; returns the exit
    code rather than raising SystemExit."""
    level = os.environ.get("SMK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--cost" in argv[:-1]:  # argparse would read a value like "-1,0,1" as an option
        k = argv.index("--cost")
        argv[k : k + 2] = [f"--cost={argv[k + 1]}"]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.policy = RankPolicy(rel_tol=args.rel_tol, round_decimals=args.round)
        if getattr(args, "max_iters", 1) < 1:
            raise _UsageError(f"--max-iters must be at least 1, got {args.max_iters}")
        if not 0 <= getattr(args, "tol", 0.0) < np.inf:
            raise _UsageError(f"--tol must be a finite non-negative number, got {args.tol}")
        if args.seed < 0:
            raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {"command": args.command, "seed": args.seed}
    log.info("running %s", args.command)
    try:
        code = _RUNNERS[args.command](args, report)
    except (SmkError, OSError) as exc:
        code = _failed(report, exc)
    report["exit_code"] = code
    try:  # written before the report is printed, so that the printed report can say it failed
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        del report["exit_code"]
        report["exit_code"] = code = _failed(report, exc)
    print(json.dumps(report, indent=2))
    return code


def _failed(report, exc) -> int:
    """Name the error ``exc`` in the report; returns the error exit code."""
    report["error"] = "OSError" if isinstance(exc, OSError) else type(exc).__name__
    report["detail"] = str(exc)
    return EXIT_ERROR


def entry_point():
    raise SystemExit(run())
