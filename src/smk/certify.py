"""Numerical rank decisions and verification of the flatness certificate.

A moment vector passes certification when, per clique, the moment and
localizing matrices are PSD, the moment matrix rank is flat with respect to
the shifted order, and each clique after the first has a witness whose
overlap moment matrix is also rank-flat. Such a vector is represented by an
atomic measure whose atoms can be recovered clique by clique.

The checks run once per clique shape, not once per clique: cliques of one
width and constraint coefficients are gathered as one stack of matrices
with one read of the moment values, and each rank and PSD decision is one
batched SVD or ``eigvalsh`` over the stack; overlaps are stacked by width.
A batched LAPACK call gives each matrix bit for bit what a call on it alone
gives, so certificates do not depend on how the cliques were stacked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import SparseMomentVector, clique_subvector, local_exponents
from .errors import NonFiniteMoment, OrderTooHigh, ZeroVector
from .matrices import (
    ConstraintPolynomial,
    LabeledSymMatrix,
    block_diagonal,
    block_operator,
    gather,
    localizing_operator,
)
from .rip import RipWitnesses


@dataclass(frozen=True)
class RankPolicy:
    """The one tolerance model: ``rel_tol`` is the relative singular-value /
    eigenvalue threshold of the rank cut and the PSD tests; ``round_decimals``,
    when set, rounds matrix entries before any decomposition (mirrors rounding
    solver output). Every other numerical decision compares against
    :meth:`tol` at the scale of the numbers it compares."""

    rel_tol: float = 1e-6
    round_decimals: int | None = None

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.round_decimals is not None and self.round_decimals < 0:
            raise ValueError("round_decimals must be nonnegative")

    def prepare(self, data: np.ndarray) -> np.ndarray:
        if self.round_decimals is None:
            return data
        return np.round(data, self.round_decimals)

    def tol(self, scale: float = 1.0) -> float:
        """``rel_tol``, or the rounding unit if coarser, times ``max(1, |scale|)``."""
        unit = 0.0 if self.round_decimals is None else 10.0 ** -self.round_decimals
        return max(self.rel_tol, unit) * max(1.0, abs(scale))


def _ranks_and_gaps(data: np.ndarray, policy: RankPolicy) -> list[tuple[int, tuple[float, float]]]:
    """Per matrix of a stack of shape (k, s, s): numerical rank plus the
    singular values straddling the cut, from one batched SVD."""
    if data.shape[-1] == 0:
        return [(0, (0.0, 0.0))] * len(data)
    sv = np.linalg.svd(policy.prepare(data), compute_uv=False)
    ranks = np.count_nonzero(sv > policy.rel_tol * sv[:, :1], axis=1)
    # sv[r - 1] and sv[r], 0.0 past either end; all 0.0 for the zero matrix
    padded = np.zeros((len(sv), sv.shape[1] + 2))
    padded[:, 1:-1] = sv
    rows = np.arange(len(sv))
    kept, dropped = padded[rows, ranks], padded[rows, ranks + 1]
    dropped[sv[:, 0] == 0.0] = 0.0
    return [(r, gap) for r, gap in zip(ranks.tolist(), zip(kept.tolist(), dropped.tolist()))]


def _eig_ranges(data: np.ndarray, policy: RankPolicy) -> list[tuple[float, float]]:
    """Extreme eigenvalues per matrix of a stack, from one batched ``eigvalsh``."""
    if data.shape[-1] == 0:
        return [(0.0, 0.0)] * len(data)
    eigs = np.linalg.eigvalsh(policy.prepare(data))
    return list(zip(eigs[:, 0].tolist(), eigs[:, -1].tolist()))


def _psd(lo: float, hi: float, policy: RankPolicy) -> bool:
    return lo >= -policy.rel_tol * max(1.0, hi)


def _leading_size(width: int, d: int, omega: int) -> int:
    """Size of the order-``d`` moment matrix inside the order-``omega`` one
    on ``width`` variables: the labels are graded, so it is the leading
    principal block of that size."""
    if d < 0:
        raise OrderTooHigh(f"moment matrix of order {d} needs degrees up to {2*d} > {2*omega}")
    return len(local_exponents(width, d))


def _moment_stack(y: SparseMomentVector, variable_sets: list[tuple[int, ...]], d: int):
    """Labels and the order-``d`` moment matrices of ``y`` on variable sets
    of one width, as a (k, s, s) stack read from ``y.values`` at once."""
    block = block_operator(len(variable_sets[0]), d)
    positions = np.stack([y.index_map.positions(v, 2 * y.omega) for v in variable_sets])
    moments = y.values[positions]
    return block[0], moments, gather(block, moments)


def d_half(constraints: Sequence[ConstraintPolynomial]) -> int:
    """Half-degree of a clique's constraint set; 1 when the set is empty."""
    return max((g.d_half for g in constraints), default=1)


@dataclass(frozen=True)
class CliqueCheck:
    """Per-clique certificate record."""

    clique: int
    psd_moment: bool
    psd_localizing: bool
    rank_full: int
    rank_shifted: int
    d_i: int
    gap_full: tuple[float, float]
    gap_shifted: tuple[float, float]
    eig_range: tuple[float, float]  # extreme eigenvalues of the full moment matrix
    # the full moment matrix itself, for extraction; not part of the record
    moment: LabeledSymMatrix = field(compare=False, repr=False)

    @property
    def flat(self) -> bool:
        return self.rank_full == self.rank_shifted

    @property
    def ok(self) -> bool:
        return self.psd_moment and self.psd_localizing and self.flat


@dataclass(frozen=True)
class OverlapCheck:
    """Witness choice and overlap ranks for one clique position i >= 2."""

    position: int
    witness_j: int | None
    rank_full: int
    rank_shifted: int
    gap_full: tuple[float, float]
    gap_shifted: tuple[float, float]
    candidates: tuple[int, ...]

    @property
    def flat(self) -> bool:
        return self.witness_j is not None and self.rank_full == self.rank_shifted


@dataclass(frozen=True)
class FlatnessCertificate:
    """Outcome of all PSD and rank-flatness checks for one moment vector."""

    cliques: tuple[CliqueCheck, ...]
    overlaps: tuple[OverlapCheck, ...]
    verdict: bool
    rank_lower_bound_r: int

    def overlap_at(self, position: int) -> OverlapCheck:
        for oc in self.overlaps:
            if oc.position == position:
                return oc
        raise KeyError(position)

    def witness_choice(self) -> dict[int, int]:
        """Chosen witness per position, for measure assembly."""
        return {oc.position: oc.witness_j for oc in self.overlaps if oc.witness_j is not None}

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rank_lower_bound_r": self.rank_lower_bound_r,
            "cliques": [
                {
                    "clique": c.clique,
                    "psd_moment": c.psd_moment,
                    "psd_localizing": c.psd_localizing,
                    "rank_full": c.rank_full,
                    "rank_shifted": c.rank_shifted,
                    "flat": c.flat,
                    "d_i": c.d_i,
                    "gap_full": list(c.gap_full),
                    "gap_shifted": list(c.gap_shifted),
                    "eig_min": c.eig_range[0],
                    "eig_max": c.eig_range[1],
                }
                for c in self.cliques
            ],
            "overlaps": [
                {
                    "position": o.position,
                    "witness_j": o.witness_j,
                    "rank_full": o.rank_full,
                    "rank_shifted": o.rank_shifted,
                    "flat": o.flat,
                    "gap_full": list(o.gap_full),
                    "gap_shifted": list(o.gap_shifted),
                    "candidates": list(o.candidates),
                }
                for o in self.overlaps
            ],
        }


def certify(
    y: SparseMomentVector,
    constraints: Sequence[Sequence[ConstraintPolynomial]],
    witnesses: RipWitnesses,
    policy: RankPolicy = RankPolicy(),
) -> FlatnessCertificate:
    """Run every PSD and rank-flatness check and aggregate the verdict.

    ``constraints`` lists, per clique, that clique's constraint polynomials
    (empty list = unconstrained clique, half-degree 1, no localizing check).
    ``witnesses`` must come from a successful property check on the cover's
    own clique order. Every admissible witness j of a position i >= 2 has
    the same overlap with clique i, so the overlap moment matrix is checked
    once, and the smallest j is recorded when it is rank-flat. A NaN or
    infinite moment raises :class:`NonFiniteMoment`, naming the first clique
    that holds one.
    """
    if y.is_zero():
        raise ZeroVector("certification assumes a nonzero moment vector")
    m = y.cover.m
    if len(constraints) != m:
        raise ValueError(f"need one constraint list per clique ({m}), got {len(constraints)}")
    if witnesses.order != tuple(range(1, m + 1)):
        raise ValueError("witnesses must be computed for the cover's own clique order")

    omega = y.omega
    # cliques of one shape (width and constraint coefficients) are decided
    # as one stack; every shape is checked, in clique order, before any
    # decision, so an order or constraint error names the first bad clique
    stacks: dict[tuple, list[int]] = {}
    for i in range(1, m + 1):
        clique, gs = y.cover.clique(i), constraints[i - 1]
        _leading_size(len(clique), omega - d_half(gs), omega)
        for g in gs:
            localizing_operator(clique, omega, g, omega)
        shape = (len(clique), tuple(tuple(g.coefficients.items()) for g in gs))
        stacks.setdefault(shape, []).append(i)
    if not np.isfinite(y.values).all():  # every sparse index lies in some clique
        for i in range(1, m + 1):
            positions = y.index_map.positions(y.cover.clique(i), 2 * omega)
            bad = positions[~np.isfinite(y.values[positions])]
            if bad.size:
                alpha, value = y.index_map.exponents[bad[0]], float(y.values[bad[0]])
                raise NonFiniteMoment(f"clique {i}: the moment at {alpha} is {value}")
    clique_checks: dict[int, CliqueCheck] = {}
    for members in stacks.values():
        checks = _clique_stack(y, members, constraints[members[0] - 1], policy)
        clique_checks.update(zip(members, checks))

    # for every witness j of position i, C_i & C_j is all that C_i shares
    # with the earlier cliques, so the candidates give one overlap matrix:
    # the first one's, stacked by overlap width. A position where it is not
    # flat keeps its ranks for diagnostics but has no witness.
    candidates = {i: tuple(sorted(witnesses.witness[i])) for i in range(2, m + 1)}
    shared = {i: _shared(y, i, candidates[i][0]) for i in candidates}
    by_width: dict[int, list[int]] = {}
    for i in candidates:
        by_width.setdefault(len(shared[i]), []).append(i)
    overlaps: dict[int, OverlapCheck] = {}
    for positions in by_width.values():
        ranks = _overlap_stack(y, [shared[i] for i in positions], policy)
        for i, r in zip(positions, ranks):
            record = OverlapCheck(i, candidates[i][0], *r, candidates[i])
            overlaps[i] = record if record.flat else replace(record, witness_j=None)
    overlap_checks = [overlaps[i] for i in candidates]

    cliques = tuple(clique_checks[i] for i in range(1, m + 1))
    verdict = all(c.ok for c in cliques) and all(o.flat for o in overlap_checks)
    r_bound = max(c.rank_full for c in cliques)
    return FlatnessCertificate(cliques, tuple(overlap_checks), verdict, r_bound)


def _clique_stack(
    y: SparseMomentVector,
    members: list[int],
    gs: Sequence[ConstraintPolynomial],
    policy: RankPolicy,
) -> list[CliqueCheck]:
    """The checks of cliques of one shape with constraints like ``gs``:
    one gather per matrix kind, one SVD per rank decision and one
    ``eigvalsh`` per PSD range over the whole stack."""
    omega, di = y.omega, d_half(gs)
    cliques = [y.cover.clique(i) for i in members]
    labels, moments, full = _moment_stack(y, cliques, omega)
    size = _leading_size(len(cliques[0]), omega - di, omega)
    ranks_full = _ranks_and_gaps(full, policy)
    ranks_shifted = _ranks_and_gaps(full[:, :size, :size], policy)
    eig_ranges = _eig_ranges(full, policy)
    psd_loc = [True] * len(members)
    if gs:
        operators = [localizing_operator(cliques[0], omega, g, omega) for g in gs]
        loc = block_diagonal([gather(op, moments) for op in operators], len(members))
        psd_loc = [_psd(*e, policy) for e in _eig_ranges(loc, policy)]
    return [
        CliqueCheck(
            clique=i,
            psd_moment=_psd(*eig_range, policy),
            psd_localizing=loc_ok,
            rank_full=rank_full,
            rank_shifted=rank_shifted,
            d_i=di,
            gap_full=gap_full,
            gap_shifted=gap_shifted,
            eig_range=eig_range,
            moment=LabeledSymMatrix(clique, labels, data),
        )
        for i, clique, data, (rank_full, gap_full), (rank_shifted, gap_shifted), eig_range, loc_ok
        in zip(members, cliques, full, ranks_full, ranks_shifted, eig_ranges, psd_loc)
    ]


def _shared(y: SparseMomentVector, i: int, j: int) -> tuple[int, ...]:
    return tuple(sorted(set(y.cover.clique(i)) & set(y.cover.clique(j))))


def _overlap_stack(y: SparseMomentVector, shared: list[tuple[int, ...]], policy: RankPolicy):
    """(rank_full, rank_shifted, gap_full, gap_shifted) of the overlap
    moment matrix on each variable set of one width."""
    _, _, full = _moment_stack(y, shared, y.omega)
    size = _leading_size(len(shared[0]), y.omega - 1, y.omega)
    return [
        (rank_full, rank_shifted, gap_full, gap_shifted)
        for (rank_full, gap_full), (rank_shifted, gap_shifted)
        in zip(_ranks_and_gaps(full, policy), _ranks_and_gaps(full[:, :size, :size], policy))
    ]


class ZeroPropagation(enum.Enum):
    """Outcome of the zero-subvector consistency diagnostic."""

    ALL_ZERO = "AllZero"
    ALL_NONZERO = "AllNonzero"
    INCONSISTENT = "Inconsistent"


def zero_propagation_check(
    y: SparseMomentVector, policy: RankPolicy = RankPolicy()
) -> ZeroPropagation:
    """Under the flatness rank conditions a single zero clique subvector
    forces the whole vector to zero; a mixed outcome therefore flags a
    rank-policy (tolerance) failure."""
    tol = policy.tol(np.abs(y.values).max(initial=0.0))
    zero_flags = [clique_subvector(y, i).max_abs() <= tol for i in range(1, y.cover.m + 1)]
    if all(zero_flags):
        return ZeroPropagation.ALL_ZERO
    if not any(zero_flags):
        return ZeroPropagation.ALL_NONZERO
    return ZeroPropagation.INCONSISTENT
