"""Running intersection property: checking, witnesses, and reordering.

The running intersection property for an ordered clique list requires, for
every clique after the first, that its intersection with the union of all
earlier cliques is contained in a single earlier clique (the witness).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import CliqueCover
from .errors import SmkError


class RipFailsAt(SmkError):
    """The given clique order violates the running intersection property."""

    def __init__(self, index: int, overlap: tuple[int, ...]):
        self.index = index
        self.overlap = overlap
        super().__init__(
            f"clique {index}: intersection {set(overlap)} with earlier cliques "
            "is not contained in any single earlier clique"
        )


class NoOrderExists(SmkError):
    """No reordering of the cliques satisfies the running intersection property."""


@dataclass(frozen=True)
class RipWitnesses:
    """Witness sets for a clique order.

    ``order`` is the permutation of 1-based clique indices that was checked;
    ``witness[i]`` lists every admissible earlier position j for position i
    (positions are relative to the order). The property holds for the order
    iff every position i >= 2 has a nonempty witness set.
    """

    order: tuple[int, ...]
    witness: dict[int, frozenset[int]]


def _witnesses(cliques: list[set]) -> tuple[dict[int, frozenset[int]], int | None, tuple]:
    """Witness map for cliques in list order; also the first failing position.
    A running union of the earlier cliques gives each overlap, and the earlier
    positions holding each variable give the witnesses: those holding all of it."""
    witness: dict[int, frozenset[int]] = {}
    earlier: set = set()
    holders: dict = {}  # variable -> earlier positions whose clique holds it
    for i, clique in enumerate(cliques, start=1):
        overlap = clique & earlier
        if i > 1:
            js = set.intersection(*(holders[v] for v in overlap)) if overlap else range(1, i)
            if not js:
                return witness, i, tuple(sorted(overlap))
            witness[i] = frozenset(js)
        for v in clique:
            holders.setdefault(v, set()).add(i)
        earlier |= clique
    return witness, None, ()


def check_rip(cover: CliqueCover) -> RipWitnesses:
    """Check the property for the cover's own clique order.

    Returns the witnesses, listing every admissible j per position; raises
    :class:`RipFailsAt` naming the first clique with no witness.
    """
    witness, fail_at, overlap = _witnesses([set(c) for c in cover.cliques])
    if fail_at is not None:
        raise RipFailsAt(fail_at, overlap)
    return RipWitnesses(tuple(range(1, cover.m + 1)), witness)


def find_rip_order(cover: CliqueCover) -> tuple[int, ...]:
    """Search for a clique order satisfying the running intersection property.

    Maximum cardinality search (Tarjan & Yannakakis 1984): place the cliques
    one at a time, next the clique holding the most variables already placed,
    ties to the lower cover position. A clique holding no placed variable
    starts a new connected part; it is the one holding the smallest variable
    not yet placed. Some order has the property iff this one has it, so the
    verified failure of this order proves no order exists.

    Returns a permutation of 1-based clique indices; raises
    :class:`NoOrderExists` if verification fails.
    """
    holders: dict = {}  # variable -> cover positions of the cliques holding it
    for k, clique in enumerate(cover.cliques):
        for v in clique:
            holders.setdefault(v, []).append(k)
    count = [0] * cover.m  # placed variables per clique; -1 once the clique is placed
    heap = [(0, min(clique, default=0), k) for k, clique in enumerate(cover.cliques)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        neg, _, k = heapq.heappop(heap)
        if -neg != count[k]:
            continue  # stale entry: the clique is placed or its count has grown
        count[k] = -1
        order.append(k + 1)
        for v in cover.cliques[k]:
            for h in holders.pop(v, ()):  # v is now placed; count it once per holder
                if count[h] >= 0:
                    count[h] += 1
                    heapq.heappush(heap, (-count[h], 0, h))
    try:
        check_rip(cover.reorder(order))
    except RipFailsAt as exc:
        raise NoOrderExists(
            f"no clique order satisfies the running intersection property "
            f"(best candidate {tuple(order)} fails at position {exc.index})"
        ) from None
    return tuple(order)
