"""JSON file formats: moment vectors, atomic measures, problem descriptions."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import CliqueCover, SparseMomentVector, _cover_violations, exponent_slots, index_map_of
from .errors import MalformedInput
from .extract import AtomicMeasure
from .matrices import ConstraintPolynomial
from .relax import PopProblem


def _read(source) -> str:
    try:
        return Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"not UTF-8 text: {exc}") from None


def _load(source) -> dict:
    if isinstance(source, Mapping):
        return dict(source)
    return _parse(_read(source))


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from None


def _dump(obj: dict, target=None) -> str:
    text = json.dumps(obj, indent=2)
    if target is not None:
        Path(target).write_text(text + "\n")
    return text


def _integer(value) -> int:
    """``value`` as an int if it is a number with an integral value; a bool,
    a string or a fraction raises ``ValueError``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(value)


def _number(value) -> float:
    """``value`` as a float if it is a JSON number, an int or a float that
    is not a bool; a bool, a string or anything else raises ``TypeError``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{value!r} is not a number")


def _list(value) -> tuple:
    """``value`` as a tuple if it is a sequence; a string, a mapping or a
    scalar raises ``TypeError``."""
    if isinstance(value, (str, bytes, Mapping)):
        raise TypeError(value)
    return tuple(value)


_KINDS = {_integer: "an integer", _number: "a number", _list: "a list"}


def _field(data, key: str, where: str = "", kind=None):
    """``data[key]``, converted by ``kind`` (``_integer``, ``_number`` or
    ``_list``) if given; a missing key, or a value ``kind`` refuses, raises
    :class:`MalformedInput` naming the field."""
    if not isinstance(data, Mapping) or key not in data:
        raise MalformedInput(f'{where}no "{key}"')
    try:
        return data[key] if kind is None else kind(data[key])
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(f"{where}{key} {data[key]!r} is not {_KINDS[kind]}") from None


def cover_from_dict(data: Mapping) -> CliqueCover:
    n = _field(data, "n", kind=_integer)
    cliques = _field(data, "cliques")
    try:
        return CliqueCover(n, tuple(tuple(map(_integer, _list(c))) for c in _list(cliques)))
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(f"cliques {cliques!r} is not a list of lists of integers") from None


def load_cover(source) -> CliqueCover:
    """The cover ``{"n", "cliques"}`` of a file or a mapping as written, even
    one that :func:`~smk.core.validate_cover` would refuse."""
    return cover_from_dict(_load(source))


def _cover(data: Mapping) -> CliqueCover:
    """:func:`cover_from_dict`, refusing with :class:`MalformedInput` the
    first violation of a cover invariant; nested cliques are accepted."""
    cover = cover_from_dict(data)
    problem = next(_cover_violations(cover), None)
    if problem is not None:
        raise MalformedInput(problem)
    return cover


def load_moment_vector(source, allow_missing_as_zero: bool = False) -> SparseMomentVector:
    """Read ``{"n", "cliques", "omega", "entries": [{"alpha", "value"}]}``.

    Entries may come in any order; a repeated multi-index is an error rather
    than last-wins, and missing sparse indices are an error unless
    ``allow_missing_as_zero`` is set. Each alpha is kept as written, so
    ``1.0`` reads as ``1`` and ``1.5`` is outside the pattern.

    A file whose exponents are one-digit integers is read as one exponent
    table (:func:`_read_table`); any other file, and a mapping, is read entry
    by entry by :meth:`SparseMomentVector.build`, which raises every error.
    Text that ``json`` refuses, a missing field, a value of the wrong kind,
    a cover that breaks a rule of :func:`~smk.core.validate_cover` other
    than nesting, and an omega below 1 raise :class:`MalformedInput` on
    either read.
    """
    if isinstance(source, Mapping):
        return _moments_from_dict(source, allow_missing_as_zero)
    return _moments_from_text(_read(source), allow_missing_as_zero)


def load_solution(source, allow_missing_as_zero: bool = False) -> SparseMomentVector | list[float]:
    """A solution file for ``pipeline``: text whose first non-blank character
    is ``{`` as by :func:`load_moment_vector`, any other as whitespace-separated
    free coordinates; a token ``float`` refuses raises :class:`MalformedInput`."""
    text = _read(source)
    if text.lstrip().startswith("{"):
        return _moments_from_text(text, allow_missing_as_zero)
    return _floats(text.split(), float).tolist()


def _moments_from_text(text: str, allow_missing_as_zero: bool) -> SparseMomentVector:
    """:func:`load_moment_vector` on the text of a moment file."""
    y = _read_table(text, allow_missing_as_zero)
    return y if y is not None else _moments_from_dict(_parse(text), allow_missing_as_zero)


def _moments_from_dict(data, allow_missing_as_zero: bool) -> SparseMomentVector:
    cover = _cover(data)
    pairs = [(_field(e, "alpha", f"entry {k}: ", _list), _field(e, "value", f"entry {k}: "))
             for k, e in enumerate(_field(data, "entries", kind=_list))]
    pairs = zip([a for a, _ in pairs], _floats(v for _, v in pairs))
    omega = _field(data, "omega", kind=_integer)
    if omega < 1:
        raise MalformedInput(f"omega {omega} is not >= 1")
    return SparseMomentVector.build(
        cover, omega, pairs, allow_missing_as_zero=allow_missing_as_zero
    )


def _floats(values, read=_number) -> np.ndarray:
    """The entries' values as a float array, each read by ``read``; one that
    it refuses raises :class:`MalformedInput` naming its entry. Under
    :func:`_number`, values that are all ints and floats (no bool) are read
    by one array conversion, unless an int overflows it."""
    values = list(values)
    if read is _number and set(map(type, values)) <= {int, float}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # the loop below names the entry
            pass
    out = []
    for k, value in enumerate(values):
        try:
            out.append(read(value))
        except (TypeError, ValueError, OverflowError):
            raise MalformedInput(f"entry {k}: value {value!r} is not a number") from None
    return np.array(out, dtype=float)


# an "alpha" key and the opening bracket of its list
_ALPHA = re.compile(r'"alpha"[ \t\n\r]*:[ \t\n\r]*\[')


def _read_table(text: str, allow_missing_as_zero: bool) -> SparseMomentVector | None:
    """The vector of a moment document whose every ``alpha`` is a list of
    n one-digit JSON integers inside the sparse pattern, with no
    multi-index twice and none missing unless allowed; None for any other
    document. The list bodies are cut from the text and the rest is parsed
    by ``json``; the bodies become one exponent table, whose rows are
    matched against the map by their nonzeros."""
    # without escapes every "alpha" key is spelled as it reads, so each one
    # is cut below and only a cut list reads as []
    starts = [m.end() for m in _ALPHA.finditer(text)] if "\\" not in text else []
    if not starts:
        return None
    # a list with no "]" after it leaves json an open list, which it refuses
    ends = [text.find("]", s) for s in starts]
    try:
        data = json.loads("".join(text[e:s] for e, s in zip([0, *ends], [*starts, len(text)])))
        entries, cover, omega = data["entries"], _cover(data), _integer(data["omega"])
    except (KeyError, TypeError, ValueError, OverflowError, MalformedInput):
        return None
    n = cover.n
    # one cut list per entry, as its alpha
    if (
        omega < 1 or not isinstance(entries, list) or len(entries) != len(starts)
        or not all(isinstance(e, dict) and e.get("alpha") == [] and "value" in e for e in entries)
    ):
        return None
    # each list holds n one-digit exponents, each followed by "," and the
    # last by "]"; as digits and separators alternate, no whitespace split
    # a token, and a list holding another list or running into the next fails
    raw = "".join([text[s : e + 1] for s, e in zip(starts, ends)]).encode()
    body = np.frombuffer(raw.translate(None, b" \t\n\r"), dtype=np.uint8)
    pattern = np.full(n, ord(","), dtype=np.uint8)
    pattern[-1] = ord("]")
    if len(body) != 2 * len(starts) * n or np.any(body[1::2].reshape(-1, n) != pattern):
        return None
    table = (body[::2] - np.uint8(ord("0"))).reshape(-1, n)
    if table.max() > 9:
        return None
    index_map = index_map_of(cover, 2 * omega)
    places = index_map.places(exponent_slots(table))
    hits = np.bincount(places + 1, minlength=len(index_map.exponents) + 1)
    if hits[0] or hits.max() > 1 or (hits[1:].min() == 0 and not allow_missing_as_zero):
        return None
    values = np.zeros(len(index_map.exponents))
    values[places] = _floats([item["value"] for item in entries])
    return SparseMomentVector.on_index_map(cover, omega, index_map, values)


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
    """Read ``{"variables", "atoms", "weights"}``, one atom per weight; a
    non-finite (or null) atom coordinate or weight raises :class:`MalformedInput`."""
    data = _load(source)
    try:
        variables = tuple(map(_integer, _list(_field(data, "variables"))))
        weights = _numbers(_field(data, "weights"))
        atoms = _numbers(_field(data, "atoms")).reshape(len(weights), len(variables))
        if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
            raise MalformedInput("not a measure: an atom coordinate or weight is not finite")
        return AtomicMeasure(variables, atoms, weights)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"not a measure: {exc}") from None


def _numbers(value) -> np.ndarray:
    """``value``, nested lists of JSON numbers, as a float array of their
    shape; a leaf that :func:`_number` refuses raises ``TypeError``."""
    leaves = np.asarray(value, dtype=object)
    return np.array([_number(v) for v in leaves.flat]).reshape(leaves.shape)


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
    ``{"coef", "alpha_local"}`` in the clique's local variables. A missing
    field, a value of the wrong kind, a cover that breaks a rule of
    :func:`~smk.core.validate_cover` other than nesting, or a clique number
    outside 1..m raises :class:`MalformedInput` naming the item."""
    data = _load(source)
    cover = _cover(data)
    objectives = [dict() for _ in range(cover.m)]
    for i, where, terms in _by_clique(data, "objectives", cover):
        _add_terms(objectives[i - 1], terms, len(cover.clique(i)), where)
    constraints = [[] for _ in range(cover.m)]
    for i, where, terms in _by_clique(data, "constraints", cover):
        g = ConstraintPolynomial(cover.clique(i), _add_terms({}, terms, len(cover.clique(i)), where))
        constraints[i - 1].append(g)
    return PopProblem(cover, tuple(objectives), tuple(tuple(gs) for gs in constraints))


def _by_clique(data: Mapping, key: str, cover: CliqueCover):
    """Clique number, place and terms of each item of the list ``data[key]``."""
    for k, item in enumerate(_field(data, key, kind=_list) if key in data else ()):
        where = f"{key[:-1]} {k}: "
        i = _field(item, "clique", where, kind=_integer)
        if not 1 <= i <= cover.m:
            raise MalformedInput(f"{where}clique {i} is not in 1..{cover.m}")
        yield i, where, _field(item, "terms", where, kind=_list)


def _add_terms(coefficients: dict, terms, width: int, where: str) -> dict:
    """Add each ``{"coef", "alpha_local"}`` term into ``coefficients``."""
    for t, term in enumerate(terms):
        at = f"{where}term {t}: "
        alpha = _field(term, "alpha_local", at, kind=_list)
        try:
            alpha = tuple(map(_integer, alpha))
        except (TypeError, ValueError, OverflowError):
            alpha = None
        if alpha is None or len(alpha) != width:
            raise MalformedInput(f"{at}alpha_local {term['alpha_local']!r} is not {width} integers")
        if min(alpha, default=0) < 0:
            raise MalformedInput(f"{at}alpha_local {term['alpha_local']!r} has a negative exponent")
        coef = _field(term, "coef", at, kind=_number)
        if not np.isfinite(coef):
            raise MalformedInput(f"{at}coef {coef!r} is not a finite number")
        coefficients[alpha] = coefficients.get(alpha, 0.0) + coef
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
