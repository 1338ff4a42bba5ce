"""JSON file formats: moment vectors, atomic measures, problem descriptions."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import CliqueCover, SparseMomentVector
from .extract import AtomicMeasure
from .matrices import ConstraintPolynomial
from .relax import PopProblem


def _load(source) -> dict:
    if isinstance(source, Mapping):
        return dict(source)
    return json.loads(Path(source).read_text())


def _dump(obj: dict, target=None) -> str:
    text = json.dumps(obj, indent=2)
    if target is not None:
        Path(target).write_text(text + "\n")
    return text


def cover_from_dict(data: Mapping) -> CliqueCover:
    return CliqueCover(int(data["n"]), tuple(tuple(int(v) for v in c) for c in data["cliques"]))


def load_moment_vector(source, allow_missing_as_zero: bool = False) -> SparseMomentVector:
    """Read ``{"n", "cliques", "omega", "entries": [{"alpha", "value"}]}``.

    Entries may come in any order; a repeated multi-index is an error rather
    than last-wins, and missing sparse indices are an error unless
    ``allow_missing_as_zero`` is set. Each alpha is kept as written, so
    ``1.0`` reads as ``1`` and ``1.5`` is outside the pattern.
    """
    data = _load(source)
    cover = cover_from_dict(data)
    pairs = [(tuple(item["alpha"]), item["value"]) for item in data["entries"]]
    return SparseMomentVector.build(
        cover, int(data["omega"]), pairs, allow_missing_as_zero=allow_missing_as_zero
    )


def moment_vector_to_dict(y: SparseMomentVector) -> dict:
    return {
        "n": y.cover.n,
        "cliques": [list(c) for c in y.cover.cliques],
        "omega": y.omega,
        "entries": [{"alpha": list(a), "value": v} for a, v in y.entries.items()],
    }


def save_moment_vector(y: SparseMomentVector, target=None) -> str:
    return _dump(moment_vector_to_dict(y), target)


def load_measure(source) -> AtomicMeasure:
    data = _load(source)
    variables = tuple(int(v) for v in data["variables"])
    atoms = np.asarray(data["atoms"], dtype=float).reshape(len(data["weights"]), len(variables))
    return AtomicMeasure(variables, atoms, np.asarray(data["weights"], dtype=float))


def measure_to_dict(mu: AtomicMeasure) -> dict:
    return {
        "variables": list(mu.variables),
        "atoms": [[float(v) for v in atom] for atom in mu.atoms],
        "weights": [float(w) for w in mu.weights],
    }


def save_measure(mu: AtomicMeasure, target=None) -> str:
    return _dump(measure_to_dict(mu), target)


def load_pop(source) -> PopProblem:
    """Read ``{"n", "cliques", "objectives": [{"clique", "terms"}],
    "constraints": [{"clique", "terms"}]}`` where each term is
    ``{"coef", "alpha_local"}`` in the clique's local variables."""
    data = _load(source)
    cover = cover_from_dict(data)
    objectives = [dict() for _ in range(cover.m)]
    for obj in data.get("objectives", []):
        _add_terms(objectives[int(obj["clique"]) - 1], obj["terms"])
    constraints = [[] for _ in range(cover.m)]
    for con in data.get("constraints", []):
        i = int(con["clique"])
        g = ConstraintPolynomial(cover.clique(i), _add_terms({}, con["terms"]))
        constraints[i - 1].append(g)
    return PopProblem(cover, tuple(objectives), tuple(tuple(gs) for gs in constraints))


def _add_terms(coefficients: dict, terms) -> dict:
    """Add each ``{"coef", "alpha_local"}`` term into ``coefficients``."""
    for term in terms:
        alpha = tuple(int(a) for a in term["alpha_local"])
        coefficients[alpha] = coefficients.get(alpha, 0.0) + float(term["coef"])
    return coefficients


def _terms(coefficients: Mapping) -> list[dict]:
    return [{"coef": c, "alpha_local": list(a)} for a, c in coefficients.items()]


def pop_to_dict(pop: PopProblem) -> dict:
    return {
        "n": pop.cover.n,
        "cliques": [list(c) for c in pop.cover.cliques],
        "objectives": [
            {"clique": i, "terms": _terms(obj)}
            for i, obj in enumerate(pop.objectives, start=1)
            if obj
        ],
        "constraints": [
            {"clique": i, "terms": _terms(g.coefficients)}
            for i, gs in enumerate(pop.constraints, start=1)
            for g in gs
        ],
    }


def save_pop(pop: PopProblem, target=None) -> str:
    return _dump(pop_to_dict(pop), target)
