"""Numerical rank decisions and verification of the flatness certificate.

A moment vector passes certification when, per clique, the moment and
localizing matrices are PSD, the moment matrix rank is flat with respect to
the shifted order, and each clique after the first has a witness whose
overlap moment matrix is also rank-flat. Such a vector is represented by an
atomic measure whose atoms can be recovered clique by clique.

Clique and overlap moment matrices go through one path. They are stacked
by width, with one read of the moment values per stack: one batched SVD
gives the full ranks, one per (width, shifted order) the shifted ranks, and
one ``eigvalsh`` per width the cliques' eigenvalue ranges. Localizing
matrices are stacked per (width, constraint coefficients), one ``eigvalsh``
each. A batched LAPACK call gives each matrix bit for bit what a call on it
alone gives, so certificates do not depend on how the matrices were stacked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import SparseMomentVector, local_exponents
from .errors import NonFiniteMoment, OrderTooHigh, ZeroVector
from .matrices import ConstraintPolynomial, LabeledSymMatrix, block_operator, gather
from .rip import RipWitnesses


@dataclass(frozen=True)
class RankPolicy:
    """The one tolerance model: ``rel_tol``, in (0, 1), is the relative
    threshold of the rank cut and of the PSD test :meth:`psd`; ``round_decimals``,
    when set, rounds matrix entries before any decomposition (mirrors rounding
    solver output). Every other numerical decision compares against
    :meth:`tol` at the scale of the numbers it compares."""

    rel_tol: float = 1e-6
    round_decimals: int | None = None

    def __post_init__(self):
        if not 0 < self.rel_tol < 1:  # a cut at or above the top singular value makes every rank 0
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.round_decimals is not None and self.round_decimals < 0:
            raise ValueError(f"round_decimals must be nonnegative, got {self.round_decimals}")

    def prepare(self, data: np.ndarray) -> np.ndarray:
        if self.round_decimals is None:
            return data
        return np.round(data, self.round_decimals)

    def tol(self, scale: float | np.ndarray = 1.0) -> float | np.ndarray:
        """``rel_tol``, or the rounding unit if coarser, times ``max(1, |scale|)``
        at each entry of ``scale``, a number or an array; a NaN scale counts as 1."""
        unit = 0.0 if self.round_decimals is None else 10.0 ** -self.round_decimals
        return max(self.rel_tol, unit) * np.fmax(1.0, np.abs(scale))

    def psd(self, lo: float, hi: float) -> bool:
        """Whether a matrix with eigenvalues from ``lo`` to ``hi`` passes as PSD."""
        return lo >= -self.rel_tol * max(1.0, hi)


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
    if data.size == 0:
        return [(0.0, 0.0)] * len(data)
    eigs = np.linalg.eigvalsh(policy.prepare(data))
    return list(zip(eigs[:, 0].tolist(), eigs[:, -1].tolist()))


def _stack(y: SparseMomentVector, variable_sets: list[tuple[int, ...]], g=None):
    """Labels and the order-omega moment matrices of ``y`` on variable sets
    of one width, or with ``g`` its localizing matrices, as a (k, s, s)
    stack read from ``y.values`` at once."""
    block = block_operator(len(variable_sets[0]), y.omega, g)
    positions = np.stack([y.index_map.positions(v, 2 * y.omega) for v in variable_sets])
    return block[0], gather(block, y.values[positions])


def _grouped(keys) -> dict:
    """The places of each distinct key, in order of first appearance."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return groups


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
    m, omega = y.cover.m, y.omega
    if len(constraints) != m:
        raise ValueError(f"need one constraint list per clique ({m}), got {len(constraints)}")
    if witnesses.order != tuple(range(1, m + 1)):
        raise ValueError("witnesses must be computed for the cover's own clique order")
    # every clique is checked, in clique order, before any decision, so an
    # order or constraint error names the first bad clique
    di = [d_half(gs) for gs in constraints]
    for clique, gs, d_i in zip(y.cover.cliques, constraints, di):
        if d_i > omega:
            d = omega - d_i
            raise OrderTooHigh(f"moment matrix of order {d} needs degrees up to {2*d} > {2*omega}")
        for g in gs:
            if g.variables != clique:
                raise ValueError(f"constraint on {g.variables} does not match clique {clique}")
    if not np.isfinite(y.values).all():  # every sparse index lies in some clique
        for i in range(1, m + 1):
            positions = y.index_map.positions(y.cover.clique(i), 2 * omega)
            bad = positions[~np.isfinite(y.values[positions])]
            if bad.size:
                alpha, value = y.index_map.exponents[bad[0]], float(y.values[bad[0]])
                raise NonFiniteMoment(f"clique {i}: the moment at {alpha} is {value}")

    # for every witness j of position i, C_i & C_j is all that C_i shares
    # with the earlier cliques, so the candidates give one overlap matrix:
    # the first one's. The cliques and then the overlaps are one list of
    # variable sets, stacked by width, each flat against its shifted order.
    candidates = {i: tuple(sorted(witnesses.witness[i])) for i in range(2, m + 1)}
    shared = [sorted(set(y.cover.clique(i)) & set(y.cover.clique(js[0]))) for i, js in candidates.items()]
    sets = [*y.cover.cliques, *map(tuple, shared)]
    orders = [omega - d_i for d_i in di] + [omega - 1] * len(candidates)
    full, shifted, eig_range, moment = {}, {}, {}, {}
    for width, members in _grouped(len(v) for v in sets).items():
        labels, data = _stack(y, [sets[k] for k in members])
        full.update(zip(members, _ranks_and_gaps(data, policy)))
        for d, rows in _grouped(orders[k] for k in members).items():
            size = len(local_exponents(width, d))  # the labels are graded
            ranks = _ranks_and_gaps(data[rows, :size, :size], policy)
            shifted.update(zip([members[r] for r in rows], ranks))
        on_cliques = data[: sum(k < m for k in members)]  # the cliques come first
        eig_range.update(zip(members, _eig_ranges(on_cliques, policy)))
        moment.update({k: LabeledSymMatrix(sets[k], labels, M) for k, M in zip(members, on_cliques)})

    # localizing blocks are stacked per (width, constraint coefficients), as
    # the relaxation compiles them; a clique's range spans its blocks'
    blocks = [(k, g) for k, gs in enumerate(constraints) for g in gs]
    loc_range: dict[int, tuple[float, float]] = {}
    for places in _grouped((len(g.variables), tuple(g.coefficients.items())) for _, g in blocks).values():
        owners = [blocks[p][0] for p in places]
        _, data = _stack(y, [sets[k] for k in owners], blocks[places[0]][1])
        for k, (lo, hi) in zip(owners, _eig_ranges(data, policy)):
            lo_k, hi_k = loc_range.get(k, (lo, hi))
            loc_range[k] = min(lo, lo_k), max(hi, hi_k)

    cliques = tuple(
        CliqueCheck(
            k + 1, policy.psd(*eig_range[k]), k not in loc_range or policy.psd(*loc_range[k]),
            full[k][0], shifted[k][0], di[k], full[k][1], shifted[k][1],
            eig_range[k], moment[k],
        )
        for k in range(m)
    )
    # a position whose overlap is not flat keeps its ranks but has no witness
    overlaps = []
    for k, (i, js) in enumerate(candidates.items(), start=m):
        record = OverlapCheck(i, js[0], full[k][0], shifted[k][0], full[k][1], shifted[k][1], js)
        overlaps.append(record if record.flat else replace(record, witness_j=None))
    verdict = all(c.ok for c in cliques) and all(o.flat for o in overlaps)
    r_bound = max(c.rank_full for c in cliques)
    return FlatnessCertificate(cliques, tuple(overlaps), verdict, r_bound)


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
    size, bound = np.abs(y.values), 2 * y.omega
    tol = policy.tol(size.max(initial=0.0))
    zero_flags = [size[y.index_map.positions(c, bound)].max() <= tol for c in y.cover.cliques]
    if all(zero_flags):
        return ZeroPropagation.ALL_ZERO
    if not any(zero_flags):
        return ZeroPropagation.ALL_NONZERO
    return ZeroPropagation.INCONSISTENT
