"""Variable cliques, correlatively sparse multi-indices, and moment vectors.

Variables are numbered 1..n in every public interface; exponent tuples are
0-based positionally (``alpha[k]`` is the exponent of variable ``k+1``).
All values here are immutable after construction and every operation is pure.

The sparse index set of a cover and a degree bound is built once, as an
:class:`IndexMap`. Each multi-index is keyed inside it by its *sparse key*,
the pairs ``(variable, -exponent)`` of its nonzero exponents in variable
order, so building and looking up cost O(clique width) per entry rather than
O(n). Sorting by ``(degree, sparse key)`` is exactly the canonical graded
order of :func:`grlex_key`: at the first variable where two multi-indices
differ the larger exponent sorts first in both, and the one case where the
orders could part, one sparse key being a prefix of the other, needs
different degrees. A :class:`SparseMomentVector` keeps its map and its values
in canonical order, and clique subvectors are gathered from them by position.

Maps are shared: :func:`index_map_of` gives every caller asking for the same
cliques and degree bound, in any clique order, the same read-only map, so its
per-clique position tables are computed once too.
"""

from __future__ import annotations

import math
from collections import UserDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from .errors import DuplicateEntry, IndexOutOfPattern, MissingEntries

MultiIndex = tuple[int, ...]
SparseKey = tuple[tuple[int, int], ...]


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


def monomial_steps(exps: np.ndarray) -> list:
    """What :func:`monomial_matrix` reads of a uint8 exponent array of shape
    (monomials, variables): per variable t with a positive exponent in some
    row, (t, those rows, their exponents of x_t, the number of degrees 0..max
    they span). Worth keeping when one table meets many atom sets."""
    steps = []
    for t in range(exps.shape[1]):
        rows = exps[:, t].nonzero()[0]
        if rows.size:
            e = exps[rows, t]
            steps.append((t, rows, e, int(e.max()) + 1))
    return steps


def monomial_matrix(exponents, atoms, steps: list | None = None) -> np.ndarray:
    """``A[k, j] = prod_t atoms[j, t] ** exponents[k, t]``, one variable at a
    time from a table of powers. Each power is taken once per distinct
    coordinate value (by bit pattern, so ``-0.0`` stays apart from ``0.0``),
    as atoms glued from clique atoms repeat their coordinates; the result is
    bit for bit the product of the powers. Exponents are held as uint8
    (below 256); tuples are read as bytes. ``steps``, from
    :func:`monomial_steps` of the same exponents, saves reading them again."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    count = len(exponents)
    if steps is None:
        if not isinstance(exponents, np.ndarray):
            exponents = np.frombuffer(b"".join(bytes(tuple(e)) for e in exponents), dtype=np.uint8)
        steps = monomial_steps(np.asarray(exponents, dtype=np.uint8).reshape(count, atoms.shape[1]))
    out = np.ones((count, atoms.shape[0]))
    if not steps:
        return out
    codes, where = np.unique(np.ascontiguousarray(atoms).view(np.uint64), return_inverse=True)
    powers = codes.view(float) ** np.arange(max(step[3] for step in steps), dtype=float)[:, None]
    table = powers[:, where.reshape(atoms.shape).T].swapaxes(0, 1)  # [t, degree, atom]
    for t, rows, e, _ in steps:
        out[rows] *= table[t][e]
    return out


def polynomial_values(coefficients: Mapping[MultiIndex, float], points) -> np.ndarray:
    """The polynomial ``{exponent tuple: coefficient}`` at each row of
    ``points``: one :func:`monomial_matrix` call, whose rows are added in the
    map's order, ``total += c * row``. A point whose length is not the
    exponents' raises ``ValueError``."""
    total = np.zeros(len(points))
    for c, row in zip(coefficients.values(), monomial_matrix(list(coefficients), points)):
        total += c * row
    return total


def lift(local: MultiIndex, clique: tuple[int, ...], n: int) -> MultiIndex:
    """Embed a local exponent tuple on ``clique`` into n variables."""
    alpha = [0] * n
    for var, e in zip(clique, local):
        alpha[var - 1] = e
    return tuple(alpha)


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

    ``exponents`` holds the dense multi-indices in canonical order (each is
    lifted to length n once, here) and ``position`` maps each sparse key to
    its place in that order. Treat both as read-only.
    """

    def __init__(self, cover: CliqueCover, degree_bound: int):
        if degree_bound < 0:
            raise ValueError("degree_bound must be nonnegative")
        degrees: dict[SparseKey, int] = {}
        for cl in cover.cliques:
            for loc in _local_exponents(len(cl), degree_bound):
                degrees[tuple((var, -e) for var, e in zip(cl, loc) if e)] = sum(loc)
        order = sorted(degrees, key=lambda key: (degrees[key], key))
        self.n = cover.n
        self.position: dict[SparseKey, int] = {key: p for p, key in enumerate(order)}
        self.exponents: tuple[MultiIndex, ...] = tuple(_dense(key, cover.n) for key in order)
        self._positions: dict[tuple[tuple[int, ...], int], np.ndarray] = {}

    @cached_property
    def exponent_array(self) -> np.ndarray:
        """The exponents as one read-only uint8 array of shape (entries, n),
        column-major, so that :func:`monomial_matrix` reads each variable's
        exponents contiguously. Filled from the sparse keys."""
        by_var = np.zeros((self.n, len(self.exponents)), dtype=np.uint8)
        for key, p in self.position.items():
            for var, e in key:
                by_var[var - 1, p] = -e
        by_var.setflags(write=False)
        return by_var.T

    @cached_property
    def monomial_steps(self) -> list:
        """:func:`monomial_steps` of :attr:`exponent_array`, scanned once per map."""
        return monomial_steps(self.exponent_array)

    def positions(self, variables: tuple[int, ...], bound: int) -> np.ndarray:
        """Global position of each local exponent tuple of degree <= ``bound``
        on ``variables`` (in the order of :func:`local_exponents`), as a
        read-only array computed once per ``(variables, bound)``; a tuple
        outside the set raises :class:`IndexOutOfPattern` naming its lift."""
        variables = tuple(variables)
        cached = self._positions.get((variables, bound))
        if cached is not None:
            return cached
        var_order = sorted(range(len(variables)), key=variables.__getitem__)
        out = []
        for loc in _local_exponents(len(variables), bound):
            key = tuple((variables[t], -loc[t]) for t in var_order if loc[t])
            try:
                out.append(self.position[key])
            except KeyError:
                raise IndexOutOfPattern(lift(loc, variables, self.n)) from None
        table = np.array(out, dtype=np.int64)
        table.setflags(write=False)
        self._positions[variables, bound] = table
        return table


def index_map_of(cover: CliqueCover, degree_bound: int) -> IndexMap:
    """The :class:`IndexMap` of ``(cover, degree_bound)``, shared by every
    caller and by every order of the same cliques. The last two maps asked
    for are kept, so a long-lived process does not hold the maps of covers
    it has finished with."""
    return _index_map(cover.n, frozenset(cover.cliques), degree_bound)


@lru_cache(maxsize=2)
def _index_map(n: int, cliques: frozenset, degree_bound: int) -> IndexMap:
    return IndexMap(CliqueCover(n, sorted(cliques)), degree_bound)


def _dense(key: SparseKey, n: int) -> MultiIndex:
    alpha = [0] * n
    for var, e in key:
        alpha[var - 1] = -e
    return tuple(alpha)


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
