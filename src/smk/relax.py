"""Sparse moment relaxation: construction, SDPA export, solving, pipeline.

The relaxation of a cliquewise polynomial minimization problem has one free
scalar per sparse multi-index (with the constant entry pinned to one), one
PSD moment block per clique, and one PSD localizing block per constraint
polynomial. Each block is compiled by ``matrices.block_operator`` once per
clique shape, shared as read-only arrays by every clique of that shape, and
mapped to global positions by the clique's index table. The instance
stacks the blocks into one operator from the moment values to the
concatenated row-major block matrices, held as numpy term arrays; the SDPA
export, the PSD checks and the bundled solver all read it. The bundled
solver factors its normal matrix with numpy alone (see :mod:`smk.factor`),
so no part of smk needs scipy. The supported high-accuracy path is
exporting the instance in SDPA sparse format, solving externally, and
ingesting the solution; the bundled first-order solver is a best-effort
fallback whose non-convergence is always reported, never silent.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .assemble import assemble, verify_global
from .certify import FlatnessCertificate, RankPolicy, certify
from .core import CliqueCover, IndexMap, MultiIndex, SparseMomentVector, grlex_position, index_map_of
from .errors import (
    BlockNotPsdWarning, DegreeTooLow, DimensionMismatch, NonFiniteMoment, SolverDiverged,
)
from .extract import AtomicMeasure, constraint_feasibility_check, extract_clique_measures
from .factor import inverse_factor
from .matrices import ConstraintPolynomial, block_operator, exponent_tuple
from .rip import RipFailsAt, RipWitnesses, check_rip, find_rip_order

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PopProblem:
    """Cliquewise polynomial minimization problem.

    ``objectives[i]`` is the coefficient map (local exponents) of the
    objective summand on clique i+1; ``constraints[i]`` that clique's
    inequality constraint polynomials. A NaN or infinite objective
    coefficient raises ``ValueError``, as does an exponent that is not a
    nonnegative integer.
    """

    cover: CliqueCover
    objectives: tuple[dict[MultiIndex, float], ...]
    constraints: tuple[tuple[ConstraintPolynomial, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "objectives",
            tuple({exponent_tuple(a): float(c) for a, c in obj.items()} for obj in self.objectives),
        )
        object.__setattr__(self, "constraints", tuple(tuple(gs) for gs in self.constraints))
        if len(self.objectives) != self.cover.m or len(self.constraints) != self.cover.m:
            raise ValueError("need one objective map and one constraint list per clique")
        for i, (obj, gs) in enumerate(zip(self.objectives, self.constraints), start=1):
            width = len(self.cover.clique(i))
            for a, c in obj.items():
                if len(a) != width:
                    raise ValueError(f"objective exponent {a} has wrong arity for clique {i}")
                if not math.isfinite(c):
                    raise ValueError(
                        f"objective coefficient {c!r} at exponent {a} on clique {i} is not a finite number"
                    )
            for g in gs:
                if g.variables != self.cover.clique(i):
                    raise ValueError(f"constraint {g.variables} does not live on clique {i}")

    @cached_property
    def max_degree(self) -> int:
        objective = (sum(a) for obj in self.objectives for a, c in obj.items() if c != 0.0)
        return max([1, *objective, *(g.degree for gs in self.constraints for g in gs)])

    def reorder(self, order: Sequence[int]) -> "PopProblem":
        return PopProblem(
            self.cover.reorder(order),
            tuple(self.objectives[i - 1] for i in order),
            tuple(self.constraints[i - 1] for i in order),
        )


@dataclass(frozen=True, eq=False)
class SdpBlock:
    """One PSD block as flat terms: entry ``entry[t]`` (row-major in the
    ``size`` x ``size`` matrix, both triangles) gains ``coefficient[t]`` times
    the moment at ``position[t]`` of the instance's exponent list."""

    clique: int
    kind: str  # "moment" | "localizing"
    constraint: int | None
    size: int
    entry: np.ndarray
    position: np.ndarray
    coefficient: np.ndarray


@dataclass(frozen=True)
class SdpInstance:
    """Sparse moment relaxation ready for export or solving. ``exponents``
    are the moments' dense multi-indices in canonical order; from
    :func:`build_relaxation` they are the index map's own sequence, whose
    tuples are built on first read."""

    cover: CliqueCover
    omega: int
    exponents: Sequence[MultiIndex]
    objective: np.ndarray  # aligned with exponents; position 0 is the constant
    blocks: tuple[SdpBlock, ...]

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    @cached_property
    def index_map(self) -> IndexMap:
        return index_map_of(self.cover, 2 * self.omega)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each block's rows start in :attr:`operator`, then the total."""
        return np.cumsum([0] + [blk.size**2 for blk in self.blocks])

    @cached_property
    def operator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stacked block operator as terms ``(row, column, coefficient)``:
        row r of the concatenation of every block's row-major matrix gains
        ``coefficient`` times ``values[column]``. A relaxation repeats no
        (row, column) pair; the terms are sorted by row, then column, the
        order in which a CSR matrix stores and sums them."""
        row = np.concatenate([lo + np.asarray(blk.entry) for lo, blk in zip(self.offsets, self.blocks)])
        column = np.concatenate([blk.position for blk in self.blocks])
        order = np.argsort(row * self.num_vars + column, kind="stable")
        coefficient = np.concatenate([blk.coefficient for blk in self.blocks])
        return row[order], column[order], coefficient[order]

    def block_entries(self, values: np.ndarray) -> np.ndarray:
        """Every block's row-major matrix at moment ``values``, concatenated."""
        row, column, coefficient = self.operator
        return np.bincount(row, coefficient * values[column], minlength=self.offsets[-1])

    def block_eig_range(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest eigenvalue of every block's matrix at
        ``values`` (0 for an empty block), one ``eigvalsh`` per block size."""
        flat = self.block_entries(values)
        lo, hi = np.zeros(len(self.blocks)), np.zeros(len(self.blocks))
        for blocks, index in size_groups([blk.size for blk in self.blocks]):
            eigs = np.linalg.eigvalsh(flat[index])
            lo[blocks], hi[blocks] = eigs[:, 0], eigs[:, -1]
        return lo, hi

    def moment_vector(self, values: np.ndarray) -> SparseMomentVector:
        return SparseMomentVector.on_index_map(self.cover, self.omega, self.index_map, values)


def size_groups(sizes: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each distinct nonzero size s, ascending: the numbers (0-based) of
    the blocks of that size, and a (k, s, s) index of their entries in the
    concatenation of the blocks' row-major matrices. ``flat[index]`` stacks
    those k matrices; empty blocks have no entries and no group."""
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.cumsum(np.concatenate([[0], sizes**2]))
    out = []
    for s in sorted({s for s in sizes.tolist() if s > 0}):
        blocks = np.flatnonzero(sizes == s)
        out.append((blocks, offsets[blocks, None, None] + np.arange(s * s).reshape(s, s)))
    return out


def project_psd(flat: np.ndarray, groups: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Project every block of ``flat`` (the concatenated row-major blocks
    that ``groups`` covers) onto the PSD cone: symmetrize, and keep the
    positive part of one batched eigendecomposition per block size."""
    out = np.empty_like(flat)
    for _, index in groups:
        W = flat[index]
        evals, evecs = np.linalg.eigh(0.5 * (W + W.transpose(0, 2, 1)))
        out[index] = (evecs * np.maximum(evals, 0.0)[:, None, :]) @ evecs.transpose(0, 2, 1)
    return out


def build_relaxation(pop: PopProblem, omega: int) -> SdpInstance:
    """Moment relaxation of order ``omega``: one moment block per clique and
    one localizing block per constraint polynomial, over the shared sparse
    moment variables with the constant entry pinned to one."""
    if 2 * omega < pop.max_degree:
        raise DegreeTooLow(
            f"2*omega = {2*omega} is below the problem degree {pop.max_degree}"
        )
    index_map = index_map_of(pop.cover, 2 * omega)
    # per clique: global position of each local exponent of degree <= 2*omega
    tables = [index_map.positions(cl, 2 * omega) for cl in pop.cover.cliques]
    widths = [len(cl) for cl in pop.cover.cliques]
    specs = [(i, "moment", None, None) for i in range(1, pop.cover.m + 1)] + [
        (i, "localizing", gi, g)
        for i, gs in enumerate(pop.constraints, start=1)
        for gi, g in enumerate(gs, start=1)
    ]
    shapes: dict[tuple, list[int]] = {}
    for b, (i, _, _, g) in enumerate(specs):
        shape = (widths[i - 1], None if g is None else tuple(g.coefficients.items()))
        shapes.setdefault(shape, []).append(b)
    blocks = [None] * len(specs)
    for (width, _), members in shapes.items():
        labels, entry, position, coefficient = block_operator(width, omega, specs[members[0]][3])
        rows = np.stack([tables[specs[b][0] - 1] for b in members])[:, position]
        for b, row in zip(members, rows):
            blocks[b] = SdpBlock(*specs[b][:3], len(labels), entry, row, coefficient)
    # objective terms in clique order, then map order (a zero adds nothing to +0.0)
    terms = [[(a, c) for a, c in obj.items() if c != 0.0] for obj in pop.objectives]
    owner = np.repeat(np.arange(pop.cover.m), [len(t) for t in terms])
    local = np.zeros(len(owner), dtype=np.int64)
    for width in set(widths):
        exps = [a for w, t in zip(widths, terms) if w == width for a, _ in t]
        local[np.take(widths, owner) == width] = grlex_position(np.reshape(exps, (-1, width)))
    objective = np.zeros(len(index_map.exponents))
    place = np.concatenate(tables)[np.cumsum([0, *map(len, tables)])[owner] + local]
    np.add.at(objective, place, np.array([c for t in terms for _, c in t], dtype=float))
    return SdpInstance(pop.cover, omega, index_map.exponents, objective, tuple(blocks))


# ---------------------------------------------------------------------------
# SDPA sparse format


@dataclass(frozen=True)
class SdpaData:
    """Plain SDPA sparse problem: min c.x s.t. sum_k x_k F_k - F_0 >= 0."""

    m: int
    block_sizes: tuple[int, ...]
    c: tuple[float, ...]
    entries: tuple[tuple[int, int, int, int, float], ...]  # (matno, block, i, j, value), 1-based i,j


def sdpa_text(data: SdpaData) -> str:
    table = np.array(data.entries, dtype=float).reshape(-1, 5).T
    return _format_sdpa(data.m, data.block_sizes, data.c, table[:4].astype(np.int64), table[4])


def _format_sdpa(m: int, sizes, c, index: np.ndarray, value: np.ndarray) -> str:
    """SDPA text of entry columns (``index`` rows: matno, block, i, j): integers
    from one table of decimal strings, floats from one ``repr`` per bit pattern."""
    names = np.array(list(map(str, range(int(index.max(initial=0)) + 1))), dtype=object)
    floats = np.concatenate([np.asarray(c, dtype=float), value])
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse].tolist()
    header = [str(m), str(len(sizes)), " ".join(map(str, sizes)), " ".join(reprs[: len(c)])]
    lines = map(" ".join, zip(*names[index].tolist(), reprs[len(c) :]))
    return "\n".join([*header, *lines]) + "\n"


def parse_sdpa(text: str) -> SdpaData:
    """Inverse of :func:`sdpa_text`; comment lines (* or ") are skipped."""
    rows = [
        ln for ln in (l.strip() for l in text.splitlines())
        if ln and not ln.startswith(("*", '"'))
    ]
    m = int(rows[0])
    nblock = int(rows[1])
    sizes = tuple(int(t) for t in rows[2].replace(",", " ").split())
    if len(sizes) != nblock:
        raise ValueError(f"expected {nblock} block sizes, got {len(sizes)}")
    c = tuple(float(t) for t in rows[3].replace(",", " ").split())
    if len(c) != m:
        raise ValueError(f"expected {m} objective coefficients, got {len(c)}")
    entries = []
    for ln in rows[4:]:
        toks = ln.split()
        entries.append((int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3]), float(toks[4])))
    return SdpaData(m, sizes, c, tuple(entries))


def _sdpa_columns(instance: SdpInstance):
    """Eliminate the pinned constant entry and lay the blocks out in order:
    ``(m, block sizes, c, index, value)`` as :func:`_format_sdpa` reads them.
    Free variable k (1-based) is the (k+1)-th sparse exponent; constant
    contributions move into F_0 with flipped sign. Column k of the operator
    holds F_k with its rows in (block, row, column) order, so reading the
    terms by column, then row, gives the entries in canonical order.
    """
    row, matno, data = instance.operator
    sizes = np.array([blk.size for blk in instance.blocks], dtype=np.int64)
    block = np.repeat(np.arange(len(sizes)), sizes**2)[row]  # 0-based, per term
    i, j = np.divmod(row - instance.offsets[block], sizes[block])
    keep = np.flatnonzero((i <= j) & (data != 0.0))
    keep = keep[np.argsort(matno[keep] * instance.offsets[-1] + row[keep], kind="stable")]
    value = np.where(matno == 0, -data, data)
    index = np.stack([matno, block + 1, i + 1, j + 1])[:, keep]
    return instance.num_vars - 1, sizes.tolist(), instance.objective[1:], index, value[keep]


def emit_sdpa(instance: SdpInstance) -> str:
    """Deterministic SDPA sparse text for the instance (canonical variable,
    block, and entry order)."""
    return _format_sdpa(*_sdpa_columns(instance))


# ---------------------------------------------------------------------------
# Solution ingestion


def ingest_solution(
    instance: SdpInstance,
    source,
    policy: RankPolicy = RankPolicy(),
) -> SparseMomentVector:
    """Reconstruct a moment vector from solver output and sanity-check it.

    ``source`` may be a sequence of free-coordinate values (length
    ``num_vars - 1``, canonical order), a full moment mapping, or an existing
    moment vector on the same cliques in any order. Blocks that fail
    :meth:`RankPolicy.psd` are reported as :class:`BlockNotPsdWarning`,
    not errors. A NaN or infinite value raises :class:`NonFiniteMoment`
    naming its entry: its canonical position (for a vector of free
    coordinates, the 1-based coordinate) and multi-index. A total mass that
    is not 1 within ``policy.tol()`` raises :class:`DimensionMismatch`.
    """
    if isinstance(source, SparseMomentVector):
        same_cliques = set(source.cover.cliques) == set(instance.cover.cliques)
        if source.cover.n != instance.cover.n or not same_cliques or source.omega != instance.omega:
            raise DimensionMismatch("moment vector does not match the instance pattern")
        # same index set, so the same canonical order: only the clique order may differ
        y = SparseMomentVector.on_index_map(
            instance.cover, source.omega, instance.index_map, source.values
        )
    elif isinstance(source, Mapping):
        y = SparseMomentVector.build(instance.cover, instance.omega, source)
    else:
        free = np.asarray(list(source), dtype=float)
        if free.shape != (instance.num_vars - 1,):
            raise DimensionMismatch(
                f"expected {instance.num_vars - 1} free coordinates, got {free.shape[0]}"
            )
        values = np.concatenate([[1.0], free])
        y = instance.moment_vector(values)

    bad = np.flatnonzero(~np.isfinite(y.values))
    if bad.size:  # checked before any eigenvalue call, which would fail untyped
        p = int(bad[0])
        raise NonFiniteMoment(
            f"solution entry {p} (the moment at {y.index_map.exponents[p]}) is {y.values[p]}"
        )
    if abs(y.mass - 1.0) > policy.tol():  # the relaxation pins the constant moment to 1
        raise DimensionMismatch(f"ingested mass {y.mass} != 1")
    lo, hi = instance.block_eig_range(y.values)
    for bno, (blk, low, high) in enumerate(zip(instance.blocks, lo, hi), start=1):
        if not policy.psd(low, high):
            warnings.warn(
                f"block {bno} (clique {blk.clique}, {blk.kind}) has eigenvalue {low:.3e}",
                BlockNotPsdWarning,
                stacklevel=2,
            )
    return y


# ---------------------------------------------------------------------------
# Bundled first-order solver


@dataclass(frozen=True)
class SolveReport:
    """Outcome of the bundled solver; ``converged`` may be False, in which
    case the returned point is best-effort and flagged as such."""

    y: SparseMomentVector
    objective: float
    iterations: int
    primal_residual: float
    dual_residual: float
    min_block_eig: float
    converged: bool


ANDERSON_MEMORY = 20  # differences kept for the mixing weights; 5 and 10 need more sweeps


def solve_sdp_bundled(
    instance: SdpInstance, max_iters: int = 20000, tol: float = 1e-7
) -> SolveReport:
    """Best-effort solve by operator splitting (consensus ADMM).

    Each block keeps a local PSD copy of its matrix; one sweep alternates
    (a) projection of every block copy onto the PSD cone by eigendecomposition,
    (b) least-squares restoration of consistency with the shared moment
    variables (constant pinned to one) together with an objective step, and
    (c) the dual update. Convergence is not guaranteed; the report flags it.
    The normal matrix of the least-squares step is factored once, along the
    clique tree (:func:`smk.factor.inverse_factor`), and each sweep applies
    its inverse by two products with the sparse inverse factor; the operator
    and its transpose act by ``np.bincount`` over its terms. The projection
    runs one batched eigendecomposition per block size.

    The sweep is a fixed-point map T on the state x = (free moments y, U),
    sped up by type-II Anderson acceleration (Walker & Ni 2011): least-squares
    weights on the last :data:`ANDERSON_MEMORY` differences of the residual
    T(x) - x mix the stored values of T. The residual is measured as
    (A dy, dU), the norm in which a plain sweep never increases it at a fixed
    ``rho`` (He & Yuan 2015). An accelerated point whose residual exceeds that
    of the point it came from is refused for the plain iterate T(x); a refusal
    and every change of ``rho`` clear the memory.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol}")
    nfree = instance.num_vars - 1
    nrows = instance.offsets[-1]
    row, column, coefficient = instance.operator

    def apply(yfree):  # A y + const: the operator at the moments (1, yfree)
        return instance.block_entries(np.concatenate([[1.0], yfree]))

    def adjoint(v):  # Aᵀ v over the free moments
        return np.bincount(column, coefficient * v[row], minlength=instance.num_vars)[1:]

    const = apply(np.zeros(nfree))  # the pinned constant moment's part of A y + const
    AT_const = adjoint(const)  # its part of every right-hand side, taken once
    groups = size_groups([blk.size for blk in instance.blocks])
    factor = inverse_factor(instance)
    f_free = instance.objective[1:]
    scale = max(1.0, float(np.abs(instance.objective).max()))

    x = np.zeros(nfree + nrows)  # the state: free moments, then U
    X = np.zeros(nrows)
    yfree = x[:nfree]
    dG = np.zeros((ANDERSON_MEMORY, 2 * nrows))  # ring buffers of residual and T differences
    dT = np.zeros((ANDERSON_MEMORY, x.size))
    count, last = 0, None  # differences stored; (residual, T) at the last kept point
    trial = None  # (residual to beat, plain iterate, its X) while an accelerated point is on trial
    accepted = refused = 0
    rho = 1.0
    primal = dual = np.inf
    it = 0
    # a residual that overflows raises SolverDiverged below, before the
    # mixing weights' least-squares solve would fail on it untyped
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            U = x[nfree:]
            Ay = apply(x[:nfree])  # with const, as is Aynew
            Xnew = project_psd(Ay + U, groups)
            step = Xnew - X
            X = Xnew
            yfree = factor.solve(-f_free / rho + (adjoint(X - U) - AT_const))
            Aynew = apply(yfree)
            resid = Aynew - X
            primal = float(np.sqrt(resid @ resid))
            dual = float(rho * np.sqrt(step @ step))
            if primal <= tol and dual <= tol * scale:
                break
            Tx = np.concatenate([yfree, U + resid])
            g = np.concatenate([Aynew - Ay, resid])
            gnorm = float(np.sqrt(g @ g))
            if not gnorm + dual < np.inf:  # NaN or infinite; gnorm >= primal, as g holds the residual
                raise SolverDiverged(f"the bundled solver's residual is not finite at iteration {it}")
            if trial is not None and gnorm > trial[0]:
                refused += 1
                x, X, count, last = trial[1], trial[2], 0, None
            else:
                accepted += trial is not None
                if last is not None:
                    dG[count % ANDERSON_MEMORY], dT[count % ANDERSON_MEMORY] = g - last[0], Tx - last[1]
                    count += 1
                x, last = Tx, (g, Tx)
            trial = None
            if it % 100 == 0 and primal > 10 * dual and rho < 1e6:
                rho *= 2.0
                x[nfree:] /= 2.0
                count, last = 0, None
            elif it % 100 == 0 and dual > 10 * primal and rho > 1e-6:
                rho /= 2.0
                x[nfree:] *= 2.0
                count, last = 0, None
            elif count:
                k = min(count, ANDERSON_MEMORY)
                gamma = np.linalg.lstsq(dG[:k] @ dG[:k].T, dG[:k] @ g, rcond=None)[0]
                trial, x = (gnorm, x, X), x - gamma @ dT[:k]

    values = np.concatenate([[1.0], yfree])
    y = instance.moment_vector(values)
    min_eig = float(instance.block_eig_range(values)[0].min(initial=0.0))
    converged = primal <= tol and dual <= tol * scale
    log.info(
        "bundled solve: %d iterations, primal %.2e, dual %.2e, converged=%s, "
        "accelerated steps accepted %d, refused %d",
        it, primal, dual, converged, accepted, refused,
    )
    return SolveReport(
        y=y,
        objective=float(instance.objective @ values),
        iterations=it,
        primal_residual=primal,
        dual_residual=dual,
        min_block_eig=min_eig,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass(frozen=True)
class GluedChain:
    """What :func:`glue_certified` gives: the certificate and, after a true
    verdict only, the clique measures, the glued measure sorted by atoms, its
    global residual and whether its atoms pass every constraint."""

    certificate: FlatnessCertificate
    clique_measures: tuple[AtomicMeasure, ...] | None = None
    measure: AtomicMeasure | None = None
    global_residual: float | None = None
    feasibility_clean: bool | None = None


def glue_certified(
    y: SparseMomentVector, constraints: Sequence[Sequence[ConstraintPolynomial]],
    witnesses: RipWitnesses, policy: RankPolicy = RankPolicy(), seed: int = 42,
) -> GluedChain:
    """Certify ``y`` along the witnesses' clique order and, on a true verdict,
    extract each clique's atoms, glue them through the certificate's
    witnesses, and check the sorted glued measure against ``y`` and the
    constraints. A false verdict is a normal outcome and stops the chain."""
    certificate = certify(y, constraints, witnesses, policy)
    if not certificate.verdict:
        return GluedChain(certificate)
    measures = tuple(extract_clique_measures(certificate, policy, seed))
    measure = assemble(measures, witnesses, policy, chosen=certificate.witness_choice()).sorted_by_atoms()
    feas = constraint_feasibility_check(measure, [g for gs in constraints for g in gs], tol=policy.tol())
    return GluedChain(certificate, measures, measure, verify_global(measure, y), feas.clean)


@dataclass(frozen=True, kw_only=True)
class PipelineResult(GluedChain):
    """The chain of one :func:`pipeline` run, with the clique order it took,
    the relaxation's objective and the bundled solver's report, if any."""

    clique_order: tuple[int, ...]
    objective: float
    solve_report: SolveReport | None

    @property
    def minimizers(self) -> np.ndarray | None:
        return None if self.measure is None else self.measure.atoms


def pipeline(
    pop: PopProblem,
    omega: int,
    policy: RankPolicy = RankPolicy(),
    solver: str = "bundled",
    solution=None,
    seed: int = 42,
    max_iters: int = 20000,
    solve_tol: float = 1e-7,
) -> PipelineResult:
    """Solve (or ingest), then :func:`glue_certified` the moment vector on a
    clique order with running intersection.

    ``solver="file"`` needs a ``solution`` and ``"bundled"`` takes none, else
    ``ValueError``. A false verdict is a normal outcome: the result then
    carries the certificate and the relaxation bound only.
    """
    if solver not in ("bundled", "file"):
        raise ValueError(f"unknown solver {solver!r}")
    if (solver == "file") != (solution is not None):
        raise ValueError(f"solver {solver!r} {'needs a' if solution is None else 'takes no'} solution")
    order, pop_o = tuple(range(1, pop.cover.m + 1)), pop
    try:
        witnesses = check_rip(pop.cover)
    except RipFailsAt:
        order = find_rip_order(pop.cover)
        pop_o = pop.reorder(order)
        witnesses = check_rip(pop_o.cover)

    instance = build_relaxation(pop_o, omega)
    report = None if solver == "file" else solve_sdp_bundled(instance, max_iters=max_iters, tol=solve_tol)
    y = ingest_solution(instance, solution, policy) if report is None else report.y
    if policy.round_decimals is not None:
        y = y.rounded(policy.round_decimals)

    glued = glue_certified(y, pop_o.constraints, witnesses, policy, seed)
    objective = float(instance.objective @ y.values)
    return PipelineResult(**vars(glued), clique_order=order, objective=objective, solve_report=report)
