"""Variable cliques, correlatively sparse multi-indices, and moment vectors.

Variables are numbered 1..n in every public interface; exponent tuples are
0-based positionally (``alpha[k]`` is the exponent of variable ``k+1``).
All values here are immutable after construction and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from .errors import DuplicateEntry, IndexOutOfPattern, MissingEntries

MultiIndex = tuple[int, ...]


def degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def support(alpha: MultiIndex) -> tuple[int, ...]:
    """1-based indices of the variables appearing in ``alpha``."""
    return tuple(k + 1 for k, a in enumerate(alpha) if a > 0)


def grlex_key(alpha: MultiIndex):
    """Sort key for the canonical order: by total degree, then
    lexicographically with earlier variables ranked higher (so x1 precedes
    x2, and x1^2 precedes x1*x2 precedes x2^2)."""
    return (sum(alpha), tuple(-a for a in alpha))


def local_exponents(num_vars: int, bound: int) -> list[MultiIndex]:
    """All exponent tuples in ``num_vars`` variables of total degree <= bound,
    in canonical order. ``num_vars = 0`` yields the single empty tuple."""
    if bound < 0:
        return []
    if num_vars == 0:
        return [()]
    out = [e for e in product(range(bound + 1), repeat=num_vars) if sum(e) <= bound]
    out.sort(key=grlex_key)
    return out


def monomial_matrix(exponents, atoms) -> np.ndarray:
    """``A[k, j] = prod_t atoms[j, t] ** exponents[k, t]``, one variable at a
    time from a table of its powers, so no float temporary exceeds the result.
    Exponents are held as uint8 (below 256); tuples are read as bytes."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    count = len(exponents)
    if not isinstance(exponents, np.ndarray):
        exponents = np.frombuffer(b"".join(bytes(tuple(e)) for e in exponents), dtype=np.uint8)
    exps = np.asarray(exponents, dtype=np.uint8).reshape(count, atoms.shape[1])
    out = np.ones((exps.shape[0], atoms.shape[0]))
    for t in range(exps.shape[1]):
        rows = np.flatnonzero(exps[:, t])
        if rows.size:
            powers = atoms[:, t] ** np.arange(int(exps[rows, t].max()) + 1, dtype=float)[:, None]
            out[rows] *= powers[exps[rows, t]]
    return out


def lift(local: MultiIndex, clique: tuple[int, ...], n: int) -> MultiIndex:
    """Embed a local exponent tuple on ``clique`` into n variables."""
    alpha = [0] * n
    for var, e in zip(clique, local):
        alpha[var - 1] = e
    return tuple(alpha)


def restrict(alpha: MultiIndex, clique: tuple[int, ...]) -> MultiIndex:
    """Local exponent tuple of ``alpha`` on ``clique`` (drops other positions)."""
    return tuple(alpha[var - 1] for var in clique)


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
    report = []
    if cover.n < 1:
        report.append(f"ambient dimension n = {cover.n} must be positive")
    if not cover.cliques:
        report.append("cover has no cliques")
    for i, cl in enumerate(cover.cliques, start=1):
        if not cl:
            report.append(f"clique {i} is empty")
            continue
        if list(cl) != sorted(set(cl)):
            report.append(f"clique {i} = {cl} is not strictly increasing")
        if cl[0] < 1 or cl[-1] > cover.n:
            report.append(f"clique {i} = {cl} has variables outside 1..{cover.n}")
    covered = set()
    for cl in cover.cliques:
        covered.update(cl)
    for v in range(1, cover.n + 1):
        if v not in covered:
            report.append(f"variable {v} uncovered")
    for i, ci in enumerate(cover.cliques, start=1):
        for j, cj in enumerate(cover.cliques, start=1):
            if i != j and set(ci) <= set(cj):
                report.append(f"clique {i} ⊆ clique {j}")
    return report


def sparse_exponents(cover: CliqueCover, degree_bound: int) -> list[MultiIndex]:
    """Union over cliques of all multi-indices supported on that clique with
    total degree <= ``degree_bound``, deduplicated, in canonical order."""
    if degree_bound < 0:
        raise ValueError("degree_bound must be nonnegative")
    seen: set[MultiIndex] = set()
    for cl in cover.cliques:
        for loc in local_exponents(len(cl), degree_bound):
            seen.add(lift(loc, cl, cover.n))
    return sorted(seen, key=grlex_key)


@dataclass(frozen=True)
class SparseMomentVector:
    """Moment vector keyed exactly by the sparse index set of (cover, omega).

    ``entries`` maps each multi-index of ``sparse_exponents(cover, 2*omega)``
    to a real value, stored in canonical order. Build via :meth:`build` to
    get the key-set validation; the entry at the zero index is the total mass.
    """

    cover: CliqueCover
    omega: int
    entries: dict[MultiIndex, float]

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
        if isinstance(values, Mapping):
            pairs = [(tuple(a), float(v)) for a, v in values.items()]
        else:
            pairs = [(tuple(a), float(v)) for a, v in values]
        supplied: dict[MultiIndex, float] = {}
        for alpha, v in pairs:
            if alpha in supplied:
                raise DuplicateEntry(f"multi-index {alpha} supplied twice")
            supplied[alpha] = v
        pattern = sparse_exponents(cover, 2 * omega)
        pattern_set = set(pattern)
        extras = [a for a in supplied if a not in pattern_set]
        if extras:
            raise IndexOutOfPattern(extras[0])
        missing = [a for a in pattern if a not in supplied]
        if missing and not allow_missing_as_zero:
            raise MissingEntries(
                f"{len(missing)} sparse indices missing, first {missing[0]}; "
                "pass allow_missing_as_zero to default them to 0"
            )
        entries = {a: supplied.get(a, 0.0) for a in pattern}
        return cls(cover, omega, entries)

    @property
    def index_set(self) -> tuple[MultiIndex, ...]:
        return tuple(self.entries)

    @property
    def mass(self) -> float:
        return self.entries[(0,) * self.cover.n]

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.entries.values())

    def rounded(self, decimals: int) -> "SparseMomentVector":
        return SparseMomentVector(
            self.cover, self.omega, {a: round(v, decimals) for a, v in self.entries.items()}
        )


def riesz_eval(y: SparseMomentVector, poly: Mapping[MultiIndex, float]) -> float:
    """Apply the Riesz functional of ``y`` to a polynomial given as a
    coefficient map; linear in both arguments."""
    total = 0.0
    for alpha, c in poly.items():
        alpha = tuple(alpha)
        if c == 0.0:
            continue
        try:
            total += c * y.entries[alpha]
        except KeyError:
            raise IndexOutOfPattern(alpha) from None
    return total


@dataclass(frozen=True)
class CliqueSubvector:
    """Dense restriction of a moment vector to one clique, in local variables.

    Contains every local multi-index of degree <= 2*omega.
    """

    clique: tuple[int, ...]
    omega: int
    values: dict[MultiIndex, float]

    def max_abs(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)


def subvector_on(y: SparseMomentVector, variables: tuple[int, ...]) -> CliqueSubvector:
    """Dense subvector of ``y`` on an arbitrary variable subset contained in
    some clique (e.g. a clique intersection)."""
    variables = tuple(variables)
    values = {}
    for loc in local_exponents(len(variables), 2 * y.omega):
        alpha = lift(loc, variables, y.cover.n)
        try:
            values[loc] = y.entries[alpha]
        except KeyError:
            raise IndexOutOfPattern(alpha) from None
    return CliqueSubvector(variables, y.omega, values)


def clique_subvector(y: SparseMomentVector, i: int) -> CliqueSubvector:
    """Subvector of ``y`` on clique ``i`` (1-based), re-indexed locally."""
    return subvector_on(y, y.cover.clique(i))


@dataclass(frozen=True)
class Projection:
    """Coordinate selection from a source variable list onto a subset."""

    source: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "target", tuple(self.target))
        if not set(self.target) <= set(self.source):
            raise ValueError(f"target {self.target} is not a subset of source {self.source}")

    @property
    def positions(self) -> tuple[int, ...]:
        """0-based positions of the target variables within the source."""
        return tuple(self.source.index(v) for v in self.target)


def project_point(p: Projection, x) -> tuple[float, ...]:
    """Select the coordinates of ``x`` at the target variables, in target order."""
    x = tuple(x)
    if len(x) != len(p.source):
        raise ValueError(f"point has {len(x)} coordinates, source has {len(p.source)}")
    return tuple(x[k] for k in p.positions)
