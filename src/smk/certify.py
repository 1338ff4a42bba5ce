"""Numerical rank decisions and verification of the flatness certificate.

A moment vector passes certification when, per clique, the moment and
localizing matrices are PSD, the moment matrix rank is flat with respect to
the shifted order, and each clique after the first has a witness whose
overlap moment matrix is also rank-flat. Such a vector is represented by an
atomic measure whose atoms can be recovered clique by clique.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import SparseMomentVector, clique_subvector, local_exponents
from .errors import OrderTooHigh, ZeroVector
from .matrices import (
    ConstraintPolynomial,
    LabeledSymMatrix,
    localizing_block,
    moment_matrix,
    overlap_moment_matrix,
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


def _rank_and_gap(data: np.ndarray, policy: RankPolicy) -> tuple[int, tuple[float, float]]:
    """Numerical rank plus the singular values straddling the cut."""
    if data.size == 0:
        return 0, (0.0, 0.0)
    sv = np.linalg.svd(policy.prepare(data), compute_uv=False)
    if sv[0] == 0.0:
        return 0, (0.0, 0.0)
    r = int(np.count_nonzero(sv > policy.rel_tol * sv[0]))
    kept = float(sv[r - 1]) if r > 0 else 0.0
    dropped = float(sv[r]) if r < len(sv) else 0.0
    return r, (kept, dropped)


def _eig_range(data: np.ndarray, policy: RankPolicy) -> tuple[float, float]:
    if data.size == 0:
        return (0.0, 0.0)
    eigs = np.linalg.eigvalsh(policy.prepare(data))
    return float(eigs[0]), float(eigs[-1])


def _psd(lo: float, hi: float, policy: RankPolicy) -> bool:
    return lo >= -policy.rel_tol * max(1.0, hi)


def psd_check(M: LabeledSymMatrix, policy: RankPolicy = RankPolicy()) -> bool:
    """True iff the smallest eigenvalue is above ``-rel_tol * max(1, lmax)``.

    The empty matrix is PSD by convention.
    """
    return _psd(*_eig_range(M.data, policy), policy)


def _leading(M: LabeledSymMatrix, d: int, omega: int) -> np.ndarray:
    """The order-``d`` moment matrix inside the order-``omega`` one ``M``:
    the labels are graded, so it is the leading principal block."""
    if d < 0:
        raise OrderTooHigh(f"moment matrix of order {d} needs degrees up to {2*d} > {2*omega}")
    k = len(local_exponents(len(M.variables), d))
    return M.data[:k, :k]


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
    own clique order; for each position i >= 2 the admissible witnesses are
    searched in ascending order and the first one whose overlap moment matrix
    is rank-flat is recorded.
    """
    if y.is_zero():
        raise ZeroVector("certification assumes a nonzero moment vector")
    m = y.cover.m
    if len(constraints) != m:
        raise ValueError(f"need one constraint list per clique ({m}), got {len(constraints)}")
    if witnesses.order != tuple(range(1, m + 1)):
        raise ValueError("witnesses must be computed for the cover's own clique order")

    omega = y.omega
    clique_checks = []
    for i in range(1, m + 1):
        sub = clique_subvector(y, i)
        di = d_half(constraints[i - 1])
        full = moment_matrix(sub, omega)
        rank_full, gap_full = _rank_and_gap(full.data, policy)
        rank_shifted, gap_shifted = _rank_and_gap(_leading(full, omega - di, omega), policy)
        eig_range = _eig_range(full.data, policy)
        gs = constraints[i - 1]
        psd_loc = not gs or psd_check(localizing_block(sub, gs, omega), policy)
        clique_checks.append(
            CliqueCheck(
                clique=i,
                psd_moment=_psd(*eig_range, policy),
                psd_localizing=psd_loc,
                rank_full=rank_full,
                rank_shifted=rank_shifted,
                d_i=di,
                gap_full=gap_full,
                gap_shifted=gap_shifted,
                eig_range=eig_range,
                moment=full,
            )
        )

    overlap_checks = []
    for i in range(2, m + 1):
        candidates = tuple(sorted(witnesses.witness[i]))
        first = None
        for j in candidates:
            full = overlap_moment_matrix(y, i, j, omega)
            rank_full, gap_full = _rank_and_gap(full.data, policy)
            rank_shifted, gap_shifted = _rank_and_gap(_leading(full, omega - 1, omega), policy)
            record = OverlapCheck(i, j, rank_full, rank_shifted, gap_full, gap_shifted, candidates)
            first = first or record
            if record.flat:
                break
        # with no flat candidate, keep the first one's ranks for diagnostics but mark no witness
        overlap_checks.append(record if record.flat else replace(first, witness_j=None))

    verdict = all(c.ok for c in clique_checks) and all(o.flat for o in overlap_checks)
    r_bound = max(c.rank_full for c in clique_checks)
    return FlatnessCertificate(tuple(clique_checks), tuple(overlap_checks), verdict, r_bound)


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
