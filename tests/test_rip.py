from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smk.core import CliqueCover
from smk.rip import NoOrderExists, RipFailsAt, _witnesses, check_rip, find_rip_order

from conftest import random_rip_cover

CHAIN_TRIPLE = CliqueCover(4, ((1, 2), (2, 3), (3, 4)))
TRIANGLE = CliqueCover(3, ((1, 2), (2, 3), (1, 3)))


def rip_holds(cliques) -> bool:
    """Direct definition check, independent of the witness machinery."""
    sets = [set(c) for c in cliques]
    for i in range(1, len(sets)):
        union = set().union(*sets[:i])
        if not any(sets[i] & union <= sets[j] for j in range(i)):
            return False
    return True


def brute_force_order(cover):
    for perm in permutations(range(1, cover.m + 1)):
        if rip_holds([cover.clique(i) for i in perm]):
            return perm
    return None


def witnesses_reference(cliques):
    """``_witnesses`` as the union of every earlier clique, each earlier
    clique tested against the overlap, position by position."""
    witness = {}
    for i in range(2, len(cliques) + 1):
        overlap = cliques[i - 1] & set().union(*cliques[: i - 1])
        js = frozenset(j for j in range(1, i) if overlap <= cliques[j - 1])
        if not js:
            return witness, i, tuple(sorted(overlap))
        witness[i] = js
    return witness, None, ()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_witnesses_equal_union_loop(seed, shuffle):
    # random covers in their own order, which holds the property, or
    # shuffled, which may fail it at some position
    rng = np.random.default_rng(seed)
    cliques = [set(c) for c in random_rip_cover(rng, max_cliques=9, max_clique_size=4).cliques]
    if shuffle:
        cliques = [cliques[k] for k in rng.permutation(len(cliques))]
    assert _witnesses(cliques) == witnesses_reference(cliques)


def test_chain_witnesses():
    wit = check_rip(CHAIN_TRIPLE)
    assert wit.order == (1, 2, 3)
    assert wit.witness == {2: frozenset({1}), 3: frozenset({2})}


def test_triangle_fails_at_three():
    with pytest.raises(RipFailsAt) as exc:
        check_rip(TRIANGLE)
    assert exc.value.index == 3
    assert exc.value.overlap == (1, 3)


def test_single_clique_vacuous():
    wit = check_rip(CliqueCover(2, ((1, 2),)))
    assert wit.witness == {}


def test_all_witnesses_recorded():
    # position 3 shares {2} with both earlier cliques once 2 is in each
    cover = CliqueCover(4, ((1, 2), (2, 3), (2, 4)))
    wit = check_rip(cover)
    assert wit.witness[3] == frozenset({1, 2})


def test_find_order_for_shuffled_chain():
    cover = CliqueCover(4, ((2, 3), (1, 2), (3, 4)))
    order = find_rip_order(cover)
    check_rip(cover.reorder(order))  # must not raise
    assert brute_force_order(cover) is not None


def test_triangle_has_no_order():
    with pytest.raises(NoOrderExists, match=r"best candidate \(1, 2, 3\) fails at position 3"):
        find_rip_order(TRIANGLE)
    assert brute_force_order(TRIANGLE) is None


def test_disjoint_cliques_any_order():
    cover = CliqueCover(4, ((3, 4), (1, 2)))
    order = find_rip_order(cover)
    check_rip(cover.reorder(order))
    # every permutation works
    for perm in permutations((1, 2)):
        check_rip(cover.reorder(perm))


def random_cover(rng, n_max=6, m_max=4):
    """Random covers including ones without any admissible order."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        cliques = set()
        for _ in range(m):
            size = int(rng.integers(1, min(3, n) + 1))
            cliques.add(tuple(sorted(rng.choice(n, size=size, replace=False) + 1)))
        cliques = [c for c in cliques if not any(set(c) < set(d) for d in cliques)]
        covered = set().union(*(set(c) for c in cliques))
        missing = [v for v in range(1, n + 1) if v not in covered]
        cliques.extend((v,) for v in missing)
        cliques = [c for c in cliques if not any(set(c) < set(d) for d in cliques)]
        if cliques:
            return CliqueCover(n, tuple(sorted(cliques)))


def test_find_order_agrees_with_brute_force():
    hits = 0
    for seed in range(120):
        cover = random_cover(np.random.default_rng(seed))
        expected = brute_force_order(cover)
        try:
            order = find_rip_order(cover)
            check_rip(cover.reorder(order))
            assert expected is not None, f"false positive on {cover}"
            hits += 1
        except NoOrderExists:
            assert expected is None, f"missed order {expected} for {cover}"
    assert hits > 20  # the sample covers both outcomes


@st.composite
def covers_with_nesting(draw):
    """Covers of up to 7 cliques, some nested in or equal to another: the
    readers accept both, and ``validate_cover`` only reports them."""
    n = draw(st.integers(3, 6))
    cliques = draw(st.lists(st.sets(st.integers(1, n), min_size=2, max_size=3), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, min(2, 7 - len(cliques))))):
        parent = sorted(draw(st.sampled_from(cliques)))
        cliques.append(draw(st.sets(st.sampled_from(parent), min_size=1)))
    return CliqueCover(n, tuple(tuple(sorted(c)) for c in draw(st.permutations(cliques))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(covers_with_nesting())
def test_find_order_agrees_with_brute_force_on_nested_covers(cover):
    expected = brute_force_order(cover)
    try:
        order = find_rip_order(cover)
    except NoOrderExists:
        assert expected is None, f"missed order {expected} for {cover}"
        return
    assert sorted(order) == list(range(1, cover.m + 1))
    check_rip(cover.reorder(order))
    assert expected is not None, f"false positive on {cover}"


def shuffled_chain(m, seed):
    """Chain of ``m`` width-3 cliques in natural order, and the same chain shuffled."""
    chain = [(i, i + 1, i + 2) for i in range(1, m + 1)]
    perm = np.random.default_rng(seed).permutation(m)
    return chain, CliqueCover(m + 2, tuple(chain[k] for k in perm))


def test_shuffled_chain_comes_back_in_natural_order():
    # the tie rule: with no variable placed, the clique holding variable 1 goes first
    chain, cover = shuffled_chain(50, seed=3)
    assert [cover.clique(i) for i in find_rip_order(cover)] == chain


def test_long_shuffled_chain_gets_an_order():
    _, cover = shuffled_chain(2000, seed=5)
    order = find_rip_order(cover)
    assert sorted(order) == list(range(1, 2001))
    check_rip(cover.reorder(order))


def test_witnesses_monotone_under_removing_last_clique():
    for seed in range(60):
        cover = random_cover(np.random.default_rng(seed + 1000))
        if cover.m < 2:
            continue
        try:
            wit = check_rip(cover)
        except RipFailsAt:
            continue
        shorter = CliqueCover(cover.n, cover.cliques[:-1])
        wit_short = check_rip(shorter)
        for i, js in wit_short.witness.items():
            assert wit.witness[i] == js
