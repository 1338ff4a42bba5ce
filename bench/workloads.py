"""The three benchmark workloads: input generation, one instance run
through the program, its traced stage-by-stage replay, and output checks.

Each workload makes a *pass*: a fixed number of instances drawn from the run
seed. A run repeats whole passes, so the work per run does not depend on how
far through the seed set it got. Inputs come from numpy code in this
directory (``checks``); ``smk`` receives them only as its public types or as
moment JSON files, and its outputs are judged against the seeded truth.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import smk
from smk import io

import checks


def _span(tr, name):
    return nullcontext() if tr is None else tr.span(name)


def _count(tr, name, value):
    if tr is not None:
        tr.count(name, value)


def _chain(n: int, width: int, step: int):
    """Cliques {1..width}, {1+step..width+step}, ... covering 1..n."""
    return tuple(tuple(range(s, s + width)) for s in range(1, n - width + 2, step))


def _separated(rng, n: int, base: np.ndarray, gap: float) -> np.ndarray:
    """Uniform point in [-1, 1]^n differing from ``base`` by at least
    ``gap`` in every coordinate."""
    out = rng.uniform(-1.0, 1.0, n)
    bad = np.abs(out - base) < gap
    while bad.any():
        out[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        bad = np.abs(out - base) < gap
    return out


def _write_moments(path: Path, n, cliques, omega, exponents, values) -> int:
    """Moment JSON in the documented input format; returns its size in bytes."""
    text = json.dumps(
        {
            "n": n,
            "cliques": [list(c) for c in cliques],
            "omega": omega,
            "entries": [
                {"alpha": a, "value": v} for a, v in zip(exponents.tolist(), values.tolist())
            ],
        }
    )
    path.write_text(text)
    return len(text)


def _objective_terms(pop: smk.PopProblem):
    """Per clique: 0-based columns, local exponent rows and coefficients."""
    out = []
    for clique, obj in zip(pop.cover.cliques, pop.objectives):
        exps = np.array(list(obj), dtype=np.int64).reshape(len(obj), len(clique))
        out.append((np.asarray(clique) - 1, exps, np.array(list(obj.values()))))
    return out


def objective_at(pop: smk.PopProblem, atoms: np.ndarray) -> np.ndarray:
    """The problem's objective at each atom, evaluated in numpy."""
    total = np.zeros(atoms.shape[0])
    for cols, exps, coefs in _objective_terms(pop):
        total += coefs @ checks.monomial_matrix(exps, atoms[:, cols])
    return total


def _solver_probe(tr, instance, iters):
    """The bundled solver on a relaxation the workload does not solve with
    it, stopped after one iteration and after ``1 + iters``. Both calls pay
    the set-up (the dense normal matrix), so the second call's extra time is
    the cost of ``iters`` iterations."""
    with _span(tr, "relax.solve_sdp_bundled.first"):
        smk.solve_sdp_bundled(instance, max_iters=1)
    with _span(tr, "relax.solve_sdp_bundled"):
        report = smk.solve_sdp_bundled(instance, max_iters=1 + iters)
    _count(tr, "relax.admm_iterations", report.iterations)


def _glue(tr, y, constraints, witnesses, seed):
    """certify, per-clique extraction and gluing, in the order ``pipeline``
    and the CLI use; returns (certificate, clique measures, glued measure)."""
    with _span(tr, "certify.certify"):
        cert = smk.certify(y, constraints, witnesses)
    if not cert.verdict:
        return cert, None, None
    measures = []
    for i in range(1, y.cover.m + 1):
        with _span(tr, "core.clique_subvector"):
            sub = smk.clique_subvector(y, i)
        with _span(tr, "matrices.moment_matrix"):
            M = smk.moment_matrix(sub, y.omega)
        with _span(tr, "extract.extract_atoms"):
            measures.append(
                smk.extract_atoms(M, cert.cliques[i - 1].rank_full, seed=seed + i)
            )
    with _span(tr, "assemble.assemble"):
        mu = smk.assemble(measures, witnesses, chosen=cert.witness_choice())
    return cert, measures, mu


def _support_and_weights(tr, measures, y, budget, seed):
    with _span(tr, "assemble.maximal_support_set"):
        support = smk.maximal_support_set(measures, y.cover)
    with _span(tr, "altmeasure.enumerate_extreme_measures"):
        weights = smk.enumerate_extreme_measures(support, y, budget, seed=seed)
    _count(tr, "altmeasure.lp_solves", budget)
    return support, weights


# ---------------------------------------------------------------------------
# long-chain: SDPA write side, moment JSON read side, pipeline(solver="file")


@dataclass
class LongChainInstance:
    pop: smk.PopProblem
    path: Path
    json_bytes: int
    atoms: np.ndarray
    weights: np.ndarray
    bound: float


class LongChain:
    """``m`` (100 in the benchmark) width-3 cliques overlapping in one
    variable, omega = 2.

    The moment vector is that of 2 or 3 seeded atoms (instances alternate).
    Three atoms are arranged so that every overlap marginal has at most two
    points: atoms 2 and 3 agree left of a seeded branch clique and atoms 1
    and 2 agree right of it, so clique ranks are 2 except 3 at the branch and
    gluing recovers exactly the three seeded atoms.
    """

    name = "long-chain"
    width = 3
    omega = 2
    pass_size = 2
    solver_probe_iters = 10

    def __init__(self, m: int = 100):
        self.m = m
        self.n = 2 * m + 1
        self.cliques = _chain(self.n, self.width, self.width - 1)

    def make(self, seed: int, workdir: Path) -> list[LongChainInstance]:
        rng = np.random.default_rng([seed, 1])
        n, cliques = self.n, self.cliques
        cover = smk.CliqueCover(n, cliques)
        exponents = checks.sparse_index_set(n, cliques, 2 * self.omega)
        quartic = [tuple(e) for e in checks.local_exponents(self.width, 4).tolist()]
        ball = {e: -1.0 for e in quartic if sum(e) == 2 and max(e) == 2}
        ball[(0,) * self.width] = float(self.width + 1)
        out = []
        for k in range(self.pass_size):
            a2 = rng.uniform(-1.0, 1.0, n)
            a1 = _separated(rng, n, a2, 0.3)
            if k % 2 == 0:
                atoms = np.array([a1, a2])
                weights = np.array([1.0, 1.0]) + rng.uniform(0.0, 1.0, 2)
            else:
                branch = int(rng.integers(self.m // 4, 3 * self.m // 4)) + 1
                mid = 2 * branch - 1  # 0-based column of the branch clique's middle variable
                a3 = _separated(rng, n, a2, 0.3)
                a3[:mid] = a2[:mid]
                a1[mid + 1:] = a2[mid + 1:]
                while min(abs(a1[mid] - a2[mid]), abs(a1[mid] - a3[mid]),
                          abs(a2[mid] - a3[mid])) < 0.3:
                    a1[mid], a3[mid] = rng.uniform(-1.0, 1.0, 2)
                atoms = np.array([a1, a2, a3])
                weights = np.ones(3) + rng.uniform(0.0, 1.0, 3)
            weights /= weights.sum()
            objectives = []
            for _ in cliques:
                picks = rng.choice(len(quartic), size=4, replace=False)
                objectives.append({quartic[p]: float(rng.uniform(-1.0, 1.0)) for p in picks})
            constraints = tuple(
                (smk.ConstraintPolynomial(c, ball),) for c in cliques
            )
            pop = smk.PopProblem(cover, tuple(objectives), constraints)
            values = checks.moments(exponents, atoms, weights)
            path = workdir / f"long-chain-{k}.json"
            size = _write_moments(path, n, cliques, self.omega, exponents, values)
            bound = float(weights @ objective_at(pop, atoms))
            out.append(LongChainInstance(pop, path, size, atoms, weights, bound))
        return out

    def run(self, inst: LongChainInstance, tr=None) -> dict:
        with _span(tr, "relax.build_relaxation"):
            relaxation = smk.build_relaxation(inst.pop, self.omega)
        with _span(tr, "relax.emit_sdpa"):
            sdpa = smk.emit_sdpa(relaxation)
        _count(tr, "relax.sdpa_mb", len(sdpa) / 1e6)
        with _span(tr, "io.load_moment_vector"):
            y = io.load_moment_vector(inst.path)
        _count(tr, "io.json_mb", inst.json_bytes / 1e6)
        out = {"num_vars": relaxation.num_vars, "sdpa": sdpa}
        if tr is None:
            result = smk.pipeline(inst.pop, self.omega, solver="file", solution=y)
            out.update(verdict=result.certificate.verdict, bound=result.objective)
            if result.measure is not None:
                out.update(atoms=result.measure.atoms, weights=result.measure.weights)
            return out
        # pipeline(solver="file"), stage by stage
        with _span(tr, "rip.check_rip"):
            witnesses = smk.check_rip(inst.pop.cover)
        with _span(tr, "relax.build_relaxation"):
            relaxation = smk.build_relaxation(inst.pop, self.omega)
        with _span(tr, "relax.ingest_solution"):
            y = smk.ingest_solution(relaxation, y)
        cert, measures, mu = _glue(tr, y, inst.pop.constraints, witnesses, 42)
        values = np.array([y.entries[a] for a in relaxation.exponents])
        out.update(verdict=cert.verdict, bound=float(relaxation.objective @ values))
        if mu is None:
            return out
        with _span(tr, "assemble.verify_global"):
            smk.verify_global(mu, y)
        with _span(tr, "extract.constraint_feasibility_check"):
            smk.constraint_feasibility_check(
                mu, [g for gs in inst.pop.constraints for g in gs], tol=1e-6
            )
        out.update(atoms=mu.atoms, weights=mu.weights)
        with tr.span("probe"):
            with _span(tr, "core.sparse_exponents"):
                smk.sparse_exponents(y.cover, 2 * self.omega)
            _support_and_weights(tr, measures, y, 2, 0)
            if self.solver_probe_iters:
                _solver_probe(tr, relaxation, self.solver_probe_iters)
        return out

    def check(self, inst: LongChainInstance, out: dict) -> list[str]:
        problems = []
        expected = checks.chain_count(self.m, self.width, 1, 2 * self.omega)
        if out["num_vars"] != expected:
            problems.append(f"relaxation has {out['num_vars']} variables, expected {expected}")
        free, sizes = checks.sdpa_header(out["sdpa"])
        if free != expected - 1:
            problems.append(f"SDPA has {free} free variables, expected {expected - 1}")
        block = checks.chain_count(1, self.width, 0, self.omega)
        local = checks.chain_count(1, self.width, 0, self.omega - 1)
        if sorted(sizes) != sorted([block] * self.m + [local] * self.m):
            problems.append(f"SDPA block sizes {sorted(set(sizes))} are not {block} and {local}")
        if not out["verdict"]:
            return problems + ["certificate verdict is false"]
        problems += checks.measure_problems(
            out["atoms"], out["weights"], inst.atoms, inst.weights, checks.ATOM_TOL, "glued measure"
        )
        if abs(out["bound"] - inst.bound) > checks.BOUND_TOL * max(1.0, abs(inst.bound)):
            problems.append(f"bound {out['bound']!r} differs from {inst.bound!r}")
        return problems


# ---------------------------------------------------------------------------
# admm-chain: pipeline(pop, 2) with the bundled solver


@dataclass
class AdmmChainInstance:
    pop: smk.PopProblem
    a: float


class AdmmChain:
    """16 width-2 cliques; objective (x1^2 - a^2)^2 + sum b_k x_{k+1}^2
    under 3 - x_i^2 - x_j^2 >= 0 per clique; minimizers (+-a, 0, ..., 0).

    ADMM iterations grow with ``a`` (about 75 at a = 0.85, 250 at 1.37) and
    hardly with ``b``. A pass is three instances with ``a`` within 0.5 % of
    0.95, 1.1 and 1.25, so every seed asks for nearly the same work and the
    run median falls on the middle instance; the ``b_k`` are drawn freely.
    """

    name = "admm-chain"
    m = 16
    omega = 2
    a_levels = (0.95, 1.1, 1.25)

    def make(self, seed: int, workdir: Path) -> list[AdmmChainInstance]:
        rng = np.random.default_rng([seed, 2])
        n = self.m + 1
        cover = smk.CliqueCover(n, _chain(n, 2, 1))
        ball = {(0, 0): 3.0, (2, 0): -1.0, (0, 2): -1.0}
        out = []
        for level in self.a_levels:
            a = level * (1.0 + 0.005 * rng.uniform(-1.0, 1.0))
            b = rng.uniform(0.5, 2.0, self.m)
            objectives = [{(0, 2): float(bk)} for bk in b]
            objectives[0].update({(4, 0): 1.0, (2, 0): -2.0 * a * a, (0, 0): a**4})
            constraints = tuple((smk.ConstraintPolynomial(c, ball),) for c in cover.cliques)
            out.append(AdmmChainInstance(smk.PopProblem(cover, tuple(objectives), constraints), a))
        return out

    def run(self, inst: AdmmChainInstance, tr=None) -> dict:
        if tr is None:
            result = smk.pipeline(inst.pop, self.omega)
            report = result.solve_report
            return {
                "converged": report.converged,
                "verdict": result.certificate.verdict,
                "bound": result.objective,
                "atoms": None if result.measure is None else result.measure.atoms,
            }
        # pipeline(solver="bundled"), stage by stage
        with _span(tr, "rip.check_rip"):
            witnesses = smk.check_rip(inst.pop.cover)
        with _span(tr, "relax.build_relaxation"):
            relaxation = smk.build_relaxation(inst.pop, self.omega)
        with _span(tr, "relax.solve_sdp_bundled"):
            report = smk.solve_sdp_bundled(relaxation)
        tr.count("relax.admm_iterations", report.iterations)
        y = report.y
        cert, measures, mu = _glue(tr, y, inst.pop.constraints, witnesses, 42)
        values = np.array([y.entries[a] for a in relaxation.exponents])
        out = {
            "converged": report.converged,
            "verdict": cert.verdict,
            "bound": float(relaxation.objective @ values),
            "atoms": None if mu is None else mu.atoms,
        }
        if mu is None:
            return out
        with _span(tr, "assemble.verify_global"):
            smk.verify_global(mu, y)
        with _span(tr, "extract.constraint_feasibility_check"):
            smk.constraint_feasibility_check(
                mu, [g for gs in inst.pop.constraints for g in gs], tol=1e-6
            )
        with tr.span("probe"):
            # the external-solver path on the same relaxation and solution
            with _span(tr, "core.sparse_exponents"):
                smk.sparse_exponents(y.cover, 2 * self.omega)
            with _span(tr, "relax.emit_sdpa"):
                sdpa = smk.emit_sdpa(relaxation)
            tr.count("relax.sdpa_mb", len(sdpa) / 1e6)
            path = tr.workdir / "admm-solution.json"
            exps = np.array(relaxation.exponents)
            size = _write_moments(path, y.cover.n, y.cover.cliques, self.omega, exps, values)
            with _span(tr, "io.load_moment_vector"):
                loaded = io.load_moment_vector(path)
            tr.count("io.json_mb", size / 1e6)
            with _span(tr, "relax.ingest_solution"):
                smk.ingest_solution(relaxation, loaded)
            with _span(tr, "assemble.maximal_support_set"):
                smk.maximal_support_set(measures, y.cover)
            # the weight LP needs atoms and moments consistent to ~1e-9 (see
            # CHANGES.md), so it runs on the known minimizers, equally weighted
            truth = np.zeros((2, y.cover.n))
            truth[:, 0] = (-inst.a, inst.a)
            exact = checks.moments(exps, truth, np.array([0.5, 0.5]))
            y_exact = smk.SparseMomentVector(
                y.cover, self.omega, dict(zip(relaxation.exponents, exact.tolist()))
            )
            with _span(tr, "altmeasure.enumerate_extreme_measures"):
                smk.enumerate_extreme_measures(truth, y_exact, 2, seed=0)
            tr.count("altmeasure.lp_solves", 2)
        return out

    def check(self, inst: AdmmChainInstance, out: dict) -> list[str]:
        problems = []
        if not out["converged"]:
            problems.append("bundled solver did not converge")
        if not out["verdict"]:
            return problems + ["certificate verdict is false"]
        if abs(out["bound"]) > checks.ADMM_BOUND_TOL:
            problems.append(f"bound {out['bound']:.3e} is not the optimum 0")
        atoms = np.asarray(out["atoms"], dtype=float)
        truth = np.zeros((2, self.m + 1))
        truth[:, 0] = (-inst.a, inst.a)
        if atoms.shape != truth.shape:
            return problems + [f"{atoms.shape[0]} minimizers, expected 2"]
        err = float(np.abs(atoms[np.argsort(atoms[:, 0])] - truth).max())
        if err > checks.ADMM_ATOM_TOL:
            problems.append(f"minimizers off (+-a, 0, ..., 0) by {err:.3e}")
        slack = 3.0 - atoms[:, :-1] ** 2 - atoms[:, 1:] ** 2
        if slack.min() < -checks.ADMM_ATOM_TOL:
            problems.append(f"constraint violated at an atom by {-slack.min():.3e}")
        return problems


# ---------------------------------------------------------------------------
# wide-gluing: the altmeasure path, few cliques and 2^n atoms


@dataclass
class WideGluingInstance:
    path: Path
    json_bytes: int
    grid: np.ndarray
    weights: np.ndarray
    exponents: np.ndarray
    values: np.ndarray


class WideGluing:
    """Width-2 chain cliques over 10 variables at omega = 3. The measure is
    a product of seeded two-point laws, so each clique has rank 4 and the
    glued measure has 2^10 = 1024 atoms, while the moment vector has only
    196 entries."""

    name = "wide-gluing"
    n = 10
    omega = 3
    pass_size = 3
    lp_budget = 2

    def make(self, seed: int, workdir: Path) -> list[WideGluingInstance]:
        rng = np.random.default_rng([seed, 3])
        n = self.n
        cliques = _chain(n, 2, 1)
        bits = (np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1
        exponents = checks.sparse_index_set(n, cliques, 2 * self.omega)
        out = []
        for k in range(self.pass_size):
            low = rng.uniform(-1.2, -0.4, n)
            high = rng.uniform(0.4, 1.2, n)
            p = rng.uniform(0.3, 0.7, n)
            grid = np.where(bits == 1, high, low)
            weights = np.prod(np.where(bits == 1, p, 1.0 - p), axis=1)
            values = checks.moments(exponents, grid, weights)
            path = workdir / f"wide-gluing-{k}.json"
            size = _write_moments(path, n, cliques, self.omega, exponents, values)
            out.append(WideGluingInstance(path, size, grid, weights, exponents, values))
        return out

    def run(self, inst: WideGluingInstance, tr=None) -> dict:
        with _span(tr, "io.load_moment_vector"):
            y = io.load_moment_vector(inst.path)
        _count(tr, "io.json_mb", inst.json_bytes / 1e6)
        with _span(tr, "rip.check_rip"):
            witnesses = smk.check_rip(y.cover)
        cert, measures, mu = _glue(tr, y, [()] * y.cover.m, witnesses, 42)
        out = {"verdict": cert.verdict}
        if mu is None:
            return out
        with _span(tr, "assemble.verify_global"):
            smk.verify_global(mu, y)
        support, weight_sets = _support_and_weights(tr, measures, y, self.lp_budget, 42)
        out.update(atoms=mu.atoms, weights=mu.weights, support=support, extreme=weight_sets)
        if tr is not None:
            with tr.span("probe"):
                # a relaxation on the same cover and order as this moment
                # vector, with a double-well objective on every clique, which
                # the bundled solver solves in about 90 iterations
                with _span(tr, "core.sparse_exponents"):
                    smk.sparse_exponents(y.cover, 2 * self.omega)
                well = {(4, 0): 1.0, (0, 4): 1.0, (2, 0): -1.0, (0, 2): -1.0}
                pop = smk.PopProblem(y.cover, (well,) * y.cover.m, ((),) * y.cover.m)
                with _span(tr, "relax.build_relaxation"):
                    relaxation = smk.build_relaxation(pop, self.omega)
                with _span(tr, "relax.emit_sdpa"):
                    sdpa = smk.emit_sdpa(relaxation)
                tr.count("relax.sdpa_mb", len(sdpa) / 1e6)
                with _span(tr, "relax.ingest_solution"):
                    smk.ingest_solution(relaxation, y)
                with _span(tr, "relax.solve_sdp_bundled"):
                    report = smk.solve_sdp_bundled(relaxation)
                tr.count("relax.admm_iterations", report.iterations)
        return out

    def check(self, inst: WideGluingInstance, out: dict) -> list[str]:
        if not out["verdict"]:
            return ["certificate verdict is false"]
        problems = checks.measure_problems(
            out["atoms"], out["weights"], inst.grid, inst.weights, checks.ATOM_TOL, "glued measure"
        )
        support = np.asarray(out["support"], dtype=float)
        problems += checks.measure_problems(
            support, None, inst.grid, None, checks.ATOM_TOL, "maximal support"
        )
        if support.shape == inst.grid.shape:
            matrix = checks.monomial_matrix(inst.exponents, support)
            problems += checks.extreme_weight_problems(out["extreme"], matrix, inst.values)
        return problems


WORKLOADS = {w.name: w for w in (LongChain(), AdmmChain(), WideGluing())}
