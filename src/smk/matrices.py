"""Moment and localizing matrices, compiled once per clique shape.

Each of these matrices is a fixed linear image of one clique's moments, and
:func:`block_operator` is the one place that image is built: it compiles a
block into flat (entry, position, coefficient) terms over the canonical local
exponent list. That list is graded, so its part up to degree 2d is a prefix
of the list up to 2*omega for every omega >= d, and a compiled block does not
depend on omega. It is compiled once per shape (width, order, constraint
coefficients) and shared as read-only arrays. :func:`gather` applies it to
a stack of moment arrays at once: certification stacks the clique and
overlap moment matrices per width and the localizing matrices per (width,
constraint coefficients). :func:`moment_matrix` is the stack of one
subvector; the relaxation maps its positions to global ones and stacks the
blocks.

All matrices are dense, exactly symmetric by construction, and labeled by
local multi-indices in canonical order. A subvector holds every moment up
to its degree, so no entry can fall outside the stored moment data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .core import CliqueSubvector, MultiIndex, grlex_position, local_exponents, polynomial_values
from .errors import OrderTooHigh


@dataclass(frozen=True)
class LabeledSymMatrix:
    """Symmetric matrix with monomial row/column labels; ``variables`` are
    the global 1-based variables the local exponents refer to."""

    variables: tuple[int, ...]
    labels: tuple
    data: np.ndarray

    @property
    def size(self) -> int:
        return len(self.labels)


def exponent_tuple(alpha) -> MultiIndex:
    """``alpha`` as a tuple of ints (itself, if it is one); an exponent that
    is a bool, negative or not an integral number raises ``ValueError``
    naming it."""
    alpha = tuple(alpha)
    for e in alpha:
        integral = isinstance(e, numbers.Integral) or isinstance(e, numbers.Real) and float(e).is_integer()
        if isinstance(e, bool) or not integral or e < 0:
            raise ValueError(f"exponent {e!r} in {alpha} is not a nonnegative integer")
    return alpha if all(type(e) is int for e in alpha) else tuple(map(int, alpha))


@dataclass(frozen=True)
class ConstraintPolynomial:
    """One inequality constraint g >= 0 on the variables of a single clique.

    ``coefficients`` maps local exponent tuples (aligned with ``variables``)
    to real coefficients; a NaN or infinite one raises ``ValueError``, as
    does an exponent that is not a nonnegative integer (see
    :func:`exponent_tuple`).
    """

    variables: tuple[int, ...]
    coefficients: Mapping[MultiIndex, float]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "coefficients", {exponent_tuple(a): float(c) for a, c in self.coefficients.items()}
        )
        for a, c in self.coefficients.items():
            if len(a) != len(self.variables):
                raise ValueError(f"exponent {a} has wrong arity for variables {self.variables}")
            if not math.isfinite(c):
                raise ValueError(f"coefficient {c!r} at exponent {a} is not a finite number")

    @cached_property
    def degree(self) -> int:
        degs = [sum(a) for a, c in self.coefficients.items() if c != 0.0]
        return max(degs, default=0)

    @cached_property
    def d_half(self) -> int:
        return max(1, math.ceil(self.degree / 2))

    def __call__(self, z) -> float:
        return float(polynomial_values(self.coefficients, [tuple(z)])[0])


def block_operator(width: int, d: int, g: ConstraintPolynomial | None = None):
    """Compile the moment block of order ``d``, or with ``g`` the localizing
    block of ``g`` at order ``d``, on a clique of ``width`` variables.

    Returns ``(labels, entry, position, coefficient)``: matrix entry
    ``entry[t]`` (row-major, both triangles) gains ``coefficient[t]`` times
    the moment at ``position[t]`` of ``local_exponents(width, 2 * d)``. Entry
    (alpha, beta) is sum_gamma g_gamma * y[alpha + beta + gamma], in one run
    over all entries per nonzero coefficient of g, in g's order, with labels
    of degree <= d - d_half; the moment block is g = 1 with labels up to d.
    Cached on ``(width, d, g's nonzero terms)``, not on g's variables, so
    equal constraints on different cliques share one; arrays are read-only.
    """
    shift, terms = (0, {(0,) * width: 1.0}) if g is None else (g.d_half, g.coefficients)
    return _compile_block(width, d, shift, tuple((a, c) for a, c in terms.items() if c != 0.0))


@lru_cache(maxsize=64)
def _compile_block(width: int, d: int, shift: int, terms: tuple):
    labels = tuple(local_exponents(width, d - shift))
    size = len(labels)
    lab = np.array(labels, dtype=np.int64).reshape(size, width)
    gam = np.array([a for a, _ in terms], dtype=np.int64).reshape(len(terms), width)
    sums = gam[:, None, None, :] + (lab[:, None, :] + lab[None, :, :])
    entry = np.arange(len(terms) * size**2) % size**2
    coefficient = np.repeat(np.array([c for _, c in terms]), size**2)
    arrays = entry, grlex_position(sums).ravel(), coefficient
    for a in arrays:
        a.setflags(write=False)
    return (labels, *arrays)


def gather(block, moments: np.ndarray) -> np.ndarray:
    """A compiled ``block`` (from :func:`block_operator`) on each row of
    ``moments``, shape (k, local moments): the k matrices as one array of
    shape (k, size, size). Every entry sums its terms in the same order
    whatever k is, so a stack holds bit for bit what k single calls give."""
    labels, entry, position, coefficient = block
    size = len(labels)
    # -0.0 + x == x exactly, so a one-term entry is a plain copy of its moment
    data = np.full((len(moments), size * size), -0.0)
    np.add.at(data, (slice(None), entry), coefficient * moments[:, position])
    return data.reshape(len(moments), size, size)


def moment_matrix(y_sub: CliqueSubvector, d: int) -> LabeledSymMatrix:
    """Moment matrix of order ``d``: entry (alpha, beta) is the moment at
    alpha + beta, over all local labels of degree <= d, read by position
    from the subvector's moment array."""
    if d < 0 or 2 * d > 2 * y_sub.omega:
        raise OrderTooHigh(f"moment matrix of order {d} needs degrees up to {2*d} > {2*y_sub.omega}")
    block = block_operator(len(y_sub.clique), d)
    return LabeledSymMatrix(y_sub.clique, block[0], gather(block, y_sub.moments[None])[0])
