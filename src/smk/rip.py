"""Running intersection property: checking, witnesses, and reordering.

The running intersection property for an ordered clique list requires, for
every clique after the first, that its intersection with the union of all
earlier cliques is contained in a single earlier clique (the witness).
"""

from __future__ import annotations

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


def _max_weight_spanning_forest(cliques: list[set]) -> list[set]:
    """Kruskal on the clique intersection graph, weights |intersection|,
    ties broken by lexicographic edge index. Returns adjacency sets."""
    m = len(cliques)
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            w = len(cliques[i] & cliques[j])
            if w > 0:
                edges.append((-w, i, j))
    edges.sort()
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    adj = [set() for _ in range(m)]
    for _, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            adj[i].add(j)
            adj[j].add(i)
    return adj


def find_rip_order(cover: CliqueCover) -> tuple[int, ...]:
    """Search for a clique order satisfying the running intersection property.

    Builds a maximum-weight spanning forest of the clique intersection graph
    and emits cliques in breadth-first order, rooting each tree at the clique
    containing the smallest uncovered variable. A maximum-weight spanning
    tree has the junction-tree property whenever any spanning tree does, so
    the verified failure of this order proves no order exists.

    Returns a permutation of 1-based clique indices; raises
    :class:`NoOrderExists` if verification fails.
    """
    cliques = [set(c) for c in cover.cliques]
    m = len(cliques)
    adj = _max_weight_spanning_forest(cliques)
    visited = [False] * m
    order: list[int] = []
    while len(order) < m:
        # root: clique containing the smallest variable not yet emitted
        remaining_vars = sorted(set().union(*(cliques[k] for k in range(m) if not visited[k])))
        root = min(
            (k for k in range(m) if not visited[k] and remaining_vars[0] in cliques[k]),
            default=next(k for k in range(m) if not visited[k]),
        )
        queue = [root]
        visited[root] = True
        while queue:
            k = queue.pop(0)
            order.append(k + 1)
            for nb in sorted(adj[k]):
                if not visited[nb]:
                    visited[nb] = True
                    queue.append(nb)
    try:
        check_rip(cover.reorder(order))
    except RipFailsAt as exc:
        raise NoOrderExists(
            f"no clique order satisfies the running intersection property "
            f"(best candidate {tuple(order)} fails at position {exc.index})"
        ) from None
    return tuple(order)
