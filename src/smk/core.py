"""Variable cliques, correlatively sparse multi-indices, and moment vectors.

Variables are numbered 1..n in every public interface; exponent tuples are
0-based positionally (``alpha[k]`` is the exponent of variable ``k+1``).
All values here are immutable after construction and every operation is pure.

The sparse index set of a cover and a degree bound is built once, as an
:class:`IndexMap`, which holds each multi-index as two arrays of the
variables and exponents of its nonzeros (:class:`Slots`), so building,
looking up and evaluating at points cost O(clique width) per entry rather
than O(n). Its canonical graded order (:func:`grlex_key`) is the order by
degree and then by the pairs ``(variable, -exponent)`` of the nonzeros in
variable order: at the first variable where two multi-indices differ the
larger exponent sorts first in both, and the one case where the orders could
part, one list of pairs being a prefix of the other, needs different
degrees. So one ``np.lexsort`` of every clique's lifted local exponents
orders the set. A :class:`SparseMomentVector` keeps its map and its values
in canonical order, and clique subvectors are gathered from them by position.

Maps are shared: :func:`index_map_of` gives every caller asking for the same
cliques and degree bound, in any clique order, the same read-only map, so its
per-clique position tables are computed once too.
"""

from __future__ import annotations

import math
from collections import UserDict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby, product
from typing import NamedTuple

import numpy as np

from .errors import DuplicateEntry, IndexOutOfPattern, MissingEntries

MultiIndex = tuple[int, ...]


def grlex_key(alpha: MultiIndex):
    """Sort key for the canonical order: by total degree, then
    lexicographically with earlier variables ranked higher (so x1 precedes
    x2, and x1^2 precedes x1*x2 precedes x2^2)."""
    return (sum(alpha), tuple(-a for a in alpha))


def local_exponents(num_vars: int, bound: int) -> list[MultiIndex]:
    """All exponent tuples in ``num_vars`` variables of total degree <= bound,
    in canonical order. ``num_vars = 0`` yields the single empty tuple."""
    return list(_local_exponents(num_vars, bound))


@lru_cache(maxsize=64)
def _local_exponents(num_vars: int, bound: int) -> tuple[MultiIndex, ...]:
    """Memoised :func:`local_exponents`, as an immutable tuple."""
    if bound < 0:
        return ()
    if num_vars == 0:
        return ((),)
    out = [e for e in product(range(bound + 1), repeat=num_vars) if sum(e) <= bound]
    out.sort(key=grlex_key)
    return tuple(out)


def grlex_position(exps: np.ndarray) -> np.ndarray:
    """Position of each exponent tuple (the last axis of ``exps``) in
    :func:`local_exponents` of its width, for every bound at least its degree.

    The order is graded, so the list up to any bound is a prefix of the list
    up to a higher one. A tuple b comes before a exactly when, at the first
    variable t from which their degrees on the variables t, t+1, ... differ,
    b's is the lower; for each t those b are counted by that tail alone.
    """
    exps = np.asarray(exps, dtype=np.int64)
    width = exps.shape[-1]
    tail = np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1]  # degree on variables t, t+1, ...
    top = int(tail.max(initial=0))
    # below[v, k]: tuples in v variables of degree below k
    below = np.array(
        [[math.comb(v + k - 1, v) if k else 0 for k in range(top + 1)] for v in range(width + 1)]
    )
    return below[np.arange(width, 0, -1), tail].sum(axis=-1)


class Slots(NamedTuple):
    """Multi-indices as two (rows, width) integer arrays: ``columns`` holds
    the 0-based variable of each nonzero exponent in ascending order, and
    ``exponents`` that exponent; a row with fewer nonzeros than ``width`` is
    padded with column 0 and exponent 0."""

    columns: np.ndarray
    exponents: np.ndarray


def exponent_slots(exps: np.ndarray) -> Slots:
    """The :class:`Slots` of an exponent array of shape (rows, variables)."""
    # row-major, so each row's nonzeros come in column order
    rows, cols = np.divmod(np.flatnonzero(exps != 0), max(1, exps.shape[1]))
    count = np.bincount(rows, minlength=len(exps))
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    out = Slots(*np.zeros((2, len(exps), int(count.max(initial=0))), np.intp))
    out.columns[rows, slot], out.exponents[rows, slot] = cols, exps[rows, cols]
    return out


def _uint8_slots(exponents, width: int) -> Slots:
    """The :class:`Slots` of dense exponent tuples or a (rows, ``width``)
    array, read as uint8: tuples as bytes, so an exponent outside 0..255
    raises ``ValueError``, as does a tuple whose length is not ``width``."""
    count = len(exponents)
    if not isinstance(exponents, np.ndarray):
        exponents = np.frombuffer(b"".join(bytes(tuple(e)) for e in exponents), dtype=np.uint8)
    return exponent_slots(np.asarray(exponents, dtype=np.uint8).reshape(count, width))


_CHUNK = 1 << 15  # matrix elements per slot product, so its temporary stays small


def monomial_matrix(exponents, atoms) -> np.ndarray:
    """``A[k, j] = prod_t atoms[j, t] ** exponents[k, t]`` from a table of
    powers, one nonzero of each row at a time in variable order. Each power
    is taken once per distinct coordinate value (by bit pattern, so ``-0.0``
    stays apart from ``0.0``), as atoms glued from clique atoms repeat their
    coordinates; the result is bit for bit the product of the powers.
    ``exponents`` is their :class:`Slots`, or dense exponent tuples or a
    (rows, variables) array, both read as uint8 (below 256): tuples as
    bytes, and a tuple whose length is not the atoms' raises ``ValueError``."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    columns, degrees = exponents if isinstance(exponents, Slots) else _uint8_slots(exponents, atoms.shape[1])
    top = int(degrees.max(initial=0))
    if top == 0:
        return np.ones((len(columns), atoms.shape[0]))
    codes, where = np.unique(np.ascontiguousarray(atoms).view(np.uint64), return_inverse=True)
    powers = np.stack([codes.view(float) ** float(d) for d in range(top + 1)])  # same bits in any batch
    table = powers[:, where.reshape(atoms.shape).T]  # [degree, column, atom]; degree 0 is 1.0
    out = table[degrees[:, 0], columns[:, 0]]
    step = max(1, _CHUNK // max(1, atoms.shape[0]))
    for s in range(1, degrees.shape[1]):
        for a in range(0, len(out), step):
            out[a : a + step] *= table[degrees[a : a + step, s], columns[a : a + step, s]]
    return out


@lru_cache(maxsize=64)
def _polynomial_slots(exponents: tuple[MultiIndex, ...]) -> Slots:
    """The :class:`Slots` of a polynomial's exponent tuples, read-only,
    compiled once per tuple of exponents."""
    slots = _uint8_slots(exponents, len(exponents[0]) if exponents else 0)
    for a in slots:
        a.setflags(write=False)
    return slots


def polynomial_values(coefficients: Mapping[MultiIndex, float], points) -> np.ndarray:
    """The polynomial ``{exponent tuple: coefficient}`` at each row of
    ``points``: one :func:`monomial_matrix` call, whose rows are added in the
    map's order, ``total += c * row``. A point whose length is not the
    exponents' raises ``ValueError``."""
    exponents = tuple(coefficients)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if exponents and points.shape[1] != len(exponents[0]):
        raise ValueError(f"points of {points.shape[1]} coordinates for exponents of {len(exponents[0])}")
    total = np.zeros(len(points))
    for c, row in zip(coefficients.values(), monomial_matrix(_polynomial_slots(exponents), points)):
        total += c * row
    return total


@dataclass(frozen=True)
class CliqueCover:
    """Ordered cover of {1..n} by variable cliques.

    The clique order is preserved exactly as given; reordering is an explicit
    operation (see the ``rip`` module). Use :func:`validate_cover` to check
    the cover invariants; the constructor only normalizes container types.
    """

    n: int
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cliques", tuple(tuple(c) for c in self.cliques))

    @property
    def m(self) -> int:
        return len(self.cliques)

    def clique(self, i: int) -> tuple[int, ...]:
        """1-based clique accessor."""
        return self.cliques[i - 1]

    def reorder(self, order: Iterable[int]) -> "CliqueCover":
        """New cover with cliques permuted; ``order`` lists 1-based positions."""
        return CliqueCover(self.n, tuple(self.cliques[i - 1] for i in order))


def validate_cover(cover: CliqueCover) -> list[str]:
    """Check all cover invariants and return a list of violations (empty = ok)."""
    report = list(_cover_violations(cover))
    sets = [set(c) for c in cover.cliques]
    holding: dict[int, list[int]] = {}  # variable -> the cliques that hold it, ascending
    for j, cj in enumerate(sets, start=1):
        for v in cj:
            holding.setdefault(v, []).append(j)
    # a clique that contains clique i holds its first variable; the empty clique is in all
    for i, ci in enumerate(cover.cliques, start=1):
        for j in holding[ci[0]] if ci else range(1, len(sets) + 1):
            if i != j and sets[i - 1] <= sets[j - 1]:
                report.append(f"clique {i} ⊆ clique {j}")
    return report


def _cover_violations(cover: CliqueCover):
    """The violations of every cover invariant but nesting, in the order of
    :func:`validate_cover`, one at a time; finding each is linear in the
    size of the cover."""
    if cover.n < 1:
        yield f"ambient dimension n = {cover.n} must be positive"
    if not cover.cliques:
        yield "cover has no cliques"
    for i, cl in enumerate(cover.cliques, start=1):
        if not cl:
            yield f"clique {i} is empty"
            continue
        if list(cl) != sorted(set(cl)):
            yield f"clique {i} = {cl} is not strictly increasing"
        if cl[0] < 1 or cl[-1] > cover.n:
            yield f"clique {i} = {cl} has variables outside 1..{cover.n}"
    covered = {v for cl in cover.cliques for v in cl if 1 <= v <= cover.n}
    if len(covered) < cover.n:  # the first uncovered variable is at most len(covered) + 1
        yield f"variable {next(v for v in range(1, cover.n + 1) if v not in covered)} uncovered"
    if len(covered) + 1 < cover.n:
        yield f"{cover.n - len(covered) - 1} more variables uncovered"


class IndexMap:
    """The sparse index set of ``(cover, degree_bound)``, built once.

    :attr:`slots` holds its multi-indices in canonical order, so no part of
    the map grows with n per entry, and :meth:`places` finds rows among
    them. ``exponents`` is the sequence of dense multi-indices of length n
    in that order: its length is known at once, and the tuples are built on
    its first read. Treat all of them as read-only.
    """

    def __init__(self, cover: CliqueCover, degree_bound: int):
        if degree_bound < 0 or not cover.cliques:
            raise ValueError("degree_bound must be nonnegative and the cover must have cliques")
        cliques = sorted(cover.cliques, key=len)  # lifted a width at a time
        lifted = [_lift(np.array(list(cls), dtype=np.intp), degree_bound) for _, cls in groupby(cliques, len)]
        width = max(s.columns.shape[1] for s in lifted)
        columns, exponents = (
            np.concatenate([np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in arrays])
            for arrays in zip(*lifted)
        )
        keys = columns * (degree_bound + 1) + degree_bound - exponents  # (variable, -exponent) pairs
        order = np.lexsort((*keys.T[::-1], exponents.sum(axis=1)))
        new = np.r_[True, np.diff(keys[order], axis=0).any(axis=1)]
        place = (np.cumsum(new) - 1)[np.argsort(order)]  # of each lifted row
        self.slots = Slots(columns[order[new]], exponents[order[new]])
        for a in (place, *self.slots):
            a.setflags(write=False)
        self.n, self.exponents = cover.n, _DenseExponents(self.slots, cover.n)
        ends = np.cumsum([len(_local_exponents(len(cl), degree_bound)) for cl in cliques]).tolist()
        self._positions = {(cl, degree_bound): place[s:e] for cl, s, e in zip(cliques, [0, *ends], ends)}

    @cached_property
    def _sorted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_row_keys` of :attr:`slots`, sorted, and the position of each."""
        keys = _row_keys(self.slots, self.slots.columns.shape[1])
        order = np.argsort(keys)
        return keys[order], order

    def places(self, slots: Slots) -> np.ndarray:
        """The position of each multi-index of ``slots`` in canonical order,
        -1 for one outside the set. Rows are matched on their exact
        (variable, exponent) pairs."""
        width = self.slots.columns.shape[1]
        keys = _row_keys(slots, width)
        known, order = self._sorted_rows
        at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        found = (known[at] == keys) & ~slots.exponents[:, width:].any(axis=1)
        return np.where(found, order[at], -1)

    def positions(self, variables: tuple[int, ...], bound: int) -> np.ndarray:
        """Global position of each local exponent tuple of degree <= ``bound``
        on ``variables`` (in the order of :func:`local_exponents`), as a
        read-only array computed once per ``(variables, bound)``: a clique's
        at the map's bound come with the build, and any other lift of the
        local table is found by :meth:`places`. A tuple outside the set
        raises :class:`IndexOutOfPattern` naming its lift."""
        key = tuple(variables), bound
        if key not in self._positions:
            lifted = _lift(np.array([key[0]], dtype=np.intp), bound)
            table = self.places(lifted)
            if (table < 0).any():  # name the first lift outside the set
                raise IndexOutOfPattern(_DenseExponents(Slots(*(a[table < 0] for a in lifted)), self.n)[0])
            table.setflags(write=False)
            self._positions[key] = table
        return self._positions[key]


def _lift(variables: np.ndarray, bound: int) -> Slots:
    """The :class:`Slots` of ``local_exponents(width, bound)`` on each row of
    ``variables``, a (cliques, width) array of 1-based variables in any
    order, clique after clique."""
    cliques, width = variables.shape
    local = _local_exponents(width, bound)
    order = np.argsort(variables, axis=1, kind="stable")
    table = np.array(local, dtype=np.intp).reshape(len(local), width)[:, order]  # by ascending variable
    slots = exponent_slots(table.swapaxes(0, 1).reshape(cliques * len(local), width))
    clique = np.repeat(np.arange(cliques), len(local))[:, None]
    columns = np.sort(variables, axis=1)[clique, slots.columns] - 1
    return Slots(np.where(slots.exponents > 0, columns, 0), slots.exponents)


def _row_keys(slots: Slots, width: int) -> np.ndarray:
    """Each row of ``slots``, cut or padded with zeros to ``width`` slots
    (at least one), as one bytes scalar: two rows' scalars are equal exactly
    when their (variable, exponent) pairs are."""
    width = max(1, width)
    keys = np.zeros((len(slots.columns), 2, width), np.int64)
    w = min(width, slots.columns.shape[1])
    keys[:, 0, :w], keys[:, 1, :w] = slots.columns[:, :w], slots.exponents[:, :w]
    return keys.reshape(len(keys), 2 * width).view(np.dtype((np.void, 16 * width)))[:, 0]


class _DenseExponents(Sequence):
    """The multi-indices of ``slots`` (in their order) as dense tuples of
    length ``n``; the tuples are built on the first read of an item, so
    what only takes the length never builds them."""

    def __init__(self, slots: Slots, n: int):
        self._slots, self._n = slots, n

    def __len__(self) -> int:
        return len(self._slots.columns)

    @cached_property
    def _tuples(self) -> tuple[MultiIndex, ...]:
        out, step = [], max(1, _CHUNK // max(1, self._n))  # rows per scatter, so it stays small
        for a in range(0, len(self), step):
            columns, exponents = (x[a : a + step] for x in self._slots)
            rows, slot = np.nonzero(exponents)
            dense = np.zeros((len(columns), self._n), np.intp)
            dense[rows, columns[rows, slot]] = exponents[rows, slot]
            out += map(tuple, dense.tolist())
        return tuple(out)

    def __getitem__(self, k):
        return self._tuples[k]

    def __iter__(self):
        return iter(self._tuples)


def index_map_of(cover: CliqueCover, degree_bound: int) -> IndexMap:
    """The :class:`IndexMap` of ``(cover, degree_bound)``, shared by every
    caller and by every order of the same cliques. The last two maps asked
    for are kept, so a long-lived process does not hold the maps of covers
    it has finished with."""
    return _index_map(cover.n, frozenset(cover.cliques), degree_bound)


@lru_cache(maxsize=2)
def _index_map(n: int, cliques: frozenset, degree_bound: int) -> IndexMap:
    return IndexMap(CliqueCover(n, sorted(cliques)), degree_bound)


def sparse_exponents(cover: CliqueCover, degree_bound: int) -> list[MultiIndex]:
    """Union over cliques of all multi-indices supported on that clique with
    total degree <= ``degree_bound``, deduplicated, in canonical order."""
    return list(index_map_of(cover, degree_bound).exponents)


class _LazyEntries(UserDict):
    """``keys[k]: values[k]`` for a float array ``values``, as a dict built on
    first read, so what is only read by position never hashes its keys."""

    def __init__(self, keys: tuple, values: np.ndarray):
        self._keys, self._values = keys, values

    @cached_property
    def data(self) -> dict:
        return dict(zip(self._keys, self._values.tolist()))


class _Unhashable(tuple):
    """An alpha that holds a list, a mapping or a bool, hashed by identity
    so that it can wait in the supplied entries to be named as out of
    pattern (``True == 1``, but a bool is no exponent)."""

    __hash__ = object.__hash__


def _canonical_values(
    index_map: IndexMap, supplied: dict, allow_missing_as_zero: bool = False
) -> list:
    """The values of ``supplied`` (which is emptied) in the canonical order
    of ``index_map``. A key outside the sparse index set raises
    :class:`IndexOutOfPattern`, naming the first one in ``supplied``; then a
    missing key raises :class:`MissingEntries`, or reads 0.0 if allowed."""
    found = [supplied.pop(a, None) for a in index_map.exponents]
    if supplied:
        raise IndexOutOfPattern(next(iter(supplied)))
    missing = [a for a, v in zip(index_map.exponents, found) if v is None]
    if missing and not allow_missing_as_zero:
        raise MissingEntries(
            f"{len(missing)} sparse indices missing, first {missing[0]}; "
            "pass allow_missing_as_zero to default them to 0"
        )
    return [0.0 if v is None else v for v in found]


@dataclass(frozen=True)
class SparseMomentVector:
    """Moment vector keyed exactly by the sparse index set of (cover, omega).

    ``entries`` maps each multi-index of ``sparse_exponents(cover, 2*omega)``
    to a real value; the entry at the zero index is the total mass.
    ``values`` holds them as a read-only array in canonical order, aligned
    with ``index_map.exponents``. The constructor reads ``entries`` by key,
    in any order, and a key set other than the sparse index set raises
    :class:`MissingEntries` or :class:`IndexOutOfPattern` as :meth:`build`
    does. :meth:`on_index_map` carries the map and the values over from the
    call that made the vector instead, and ``entries`` is then built from
    them on first read.
    """

    cover: CliqueCover
    omega: int
    entries: Mapping[MultiIndex, float]

    def __post_init__(self):
        values = np.array(_canonical_values(self.index_map, dict(self.entries)), dtype=float)
        values.setflags(write=False)
        vars(self)["values"] = values

    @classmethod
    def build(
        cls,
        cover: CliqueCover,
        omega: int,
        values: Mapping[MultiIndex, float] | Iterable[tuple[MultiIndex, float]],
        allow_missing_as_zero: bool = False,
    ) -> "SparseMomentVector":
        if omega < 1:
            raise ValueError("relaxation order omega must be >= 1")
        items = values.items() if isinstance(values, Mapping) else values
        pairs = [(tuple(a), float(v)) for a, v in items]
        supplied: dict[MultiIndex, float] = {}
        for alpha, v in pairs:
            try:
                if any(isinstance(e, (bool, np.bool_)) for e in alpha):
                    raise TypeError(alpha)
                duplicate = alpha in supplied
            except TypeError:  # a list, a mapping or a bool in alpha: outside the pattern
                alpha, duplicate = _Unhashable(alpha), False
            if duplicate:
                raise DuplicateEntry(f"multi-index {alpha} supplied twice")
            supplied[alpha] = v
        index_map = index_map_of(cover, 2 * omega)
        values = _canonical_values(index_map, supplied, allow_missing_as_zero)
        return cls.on_index_map(cover, omega, index_map, values)

    @classmethod
    def on_index_map(
        cls, cover: CliqueCover, omega: int, index_map: IndexMap, values
    ) -> "SparseMomentVector":
        """Vector whose values are given in the canonical order of
        ``index_map``, which must be the map of ``(cover, 2*omega)``; the
        vector keeps the map and the values, so neither is rebuilt."""
        values = np.array(values, dtype=float)
        if values.shape != (len(index_map.exponents),):
            raise ValueError(f"{values.shape} values for {len(index_map.exponents)} sparse indices")
        values.setflags(write=False)
        y = object.__new__(cls)  # its key set is the map's, so there is nothing to check
        entries = _LazyEntries(index_map.exponents, values)
        vars(y).update(cover=cover, omega=omega, entries=entries, index_map=index_map, values=values)
        return y

    @cached_property
    def index_map(self) -> IndexMap:
        return index_map_of(self.cover, 2 * self.omega)

    @property
    def mass(self) -> float:
        return float(self.values[0])

    def is_zero(self) -> bool:
        return not self.values.any()

    def rounded(self, decimals: int) -> "SparseMomentVector":
        # ``+ 0.0`` turns -0.0 into 0.0, so noise below the rounding digit
        # leaves no trace in the rounded values
        return SparseMomentVector.on_index_map(
            self.cover, self.omega, self.index_map,
            [round(v, decimals) + 0.0 for v in self.values.tolist()],
        )


@dataclass(frozen=True)
class CliqueSubvector:
    """Dense restriction of a moment vector to one clique, in local variables.

    ``moments`` holds every moment of degree <= 2*omega as a read-only float
    array in the order of ``local_exponents(width, 2*omega)``; an array of
    any other length raises ``ValueError``. Subvectors compare by ``clique``
    and ``omega`` only.
    """

    clique: tuple[int, ...]
    omega: int
    moments: np.ndarray = field(compare=False)

    def __post_init__(self):
        moments = np.array(self.moments, dtype=float)
        if moments.shape != (len(_local_exponents(len(self.clique), 2 * self.omega)),):
            raise ValueError(f"{moments.shape} moments for clique {self.clique} at order {self.omega}")
        moments.setflags(write=False)
        object.__setattr__(self, "moments", moments)


def subvector_on(y: SparseMomentVector, variables: tuple[int, ...]) -> CliqueSubvector:
    """Dense subvector of ``y`` on an arbitrary variable subset contained in
    some clique (e.g. a clique intersection)."""
    variables = tuple(variables)
    return CliqueSubvector(variables, y.omega, y.values[y.index_map.positions(variables, 2 * y.omega)])


def clique_subvector(y: SparseMomentVector, i: int) -> CliqueSubvector:
    """Subvector of ``y`` on clique ``i`` (1-based), re-indexed locally."""
    return subvector_on(y, y.cover.clique(i))
