"""Maximal filters from atoms and joins from supports, against the
literal definitions in ``oracles`` and the capped subset scan.

Up to ``FILTER_SIZE_CAP`` elements the atom route must give the
inclusion-maximal members of ``all_proper_filters``: on every corpus algebra
and on seeded three-seed closures on carrier 4.  Above the cap, where no scan
runs, it must give the up-sets of the atoms read off the minus table, on
generated carrier-4 closures.  The fast join and shared-domain relation must
agree with the literal quantifiers.
"""
from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import relabelled, three_seed_closures
from drest.dra import (
    FiniteAlgebra,
    compatible,
    from_concrete,
    is_fin_compatibly_complete,
    join_if_exists,
    leq,
)
from drest.filters import FILTER_SIZE_CAP, all_proper_filters, maximal_filters
from drest.fixtures import boolean_four
from drest.pfun import Carrier, closure_generate, enumerate_all_pfs

CARRIER = Carrier(4)
POOL = enumerate_all_pfs(CARRIER)


def literal_classes(alg: FiniteAlgebra, points) -> tuple[tuple[int, ...], ...]:
    classes: list[tuple[int, ...]] = []
    for i, mu in enumerate(points):
        if not any(i in cls for cls in classes):
            classes.append(tuple(
                j
                for j, nu in enumerate(points)
                if oracles.filter_equiv(alg, mu, nu) and oracles.filter_equiv(alg, nu, mu)
            ))
    return tuple(classes)


def table_atoms(alg: FiniteAlgebra) -> list[int]:
    """Elements with nothing but the bottom strictly below them, read off the
    minus table: y <= a iff y - (y - a) = y."""
    n, m = alg.n, alg.minus.entries
    bot = m[0]
    return [
        a
        for a in range(n)
        if a != bot
        and not any(m[y * n + m[y * n + a]] == y for y in range(n) if y not in (bot, a))
    ]


def assert_matches_scan(alg: FiniteAlgebra) -> None:
    mfs = maximal_filters(alg)
    points = oracles.as_sets(mfs.points)
    filters = all_proper_filters(alg)
    assert set(points) == {f for f in filters if not any(f < g for g in filters)}
    assert list(mfs.points) == sorted(mfs.points)
    assert mfs.classes == literal_classes(alg, points)


def test_atoms_match_the_scan_on_the_corpus(closure_corpus):
    for concrete in closure_corpus:
        assert_matches_scan(from_concrete(concrete))
    assert len(closure_corpus) == 1944


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_atoms_match_the_scan_on_three_seed_closures(seed):
    for closed in three_seed_closures(random.Random(seed), 20):
        assert_matches_scan(from_concrete(closed))


@st.composite
def large_closures(draw) -> FiniteAlgebra:
    seeds = draw(st.lists(st.sampled_from(POOL), min_size=3, max_size=4, unique=True))
    closed = closure_generate(CARRIER, seeds)
    assume(len(closed) > FILTER_SIZE_CAP)
    return from_concrete(closed)


@settings(max_examples=40, deadline=None)
@given(large_closures(), st.randoms(use_true_random=False), st.data())
def test_atoms_above_the_scan_cap(alg, rng, data):
    mfs = maximal_filters(alg)
    expected = {frozenset(y for y in range(alg.n) if leq(alg, a, y)) for a in table_atoms(alg)}
    points = oracles.as_sets(mfs.points)
    assert set(points) == expected
    assert len(points) == len(expected)
    assert mfs.classes == literal_classes(alg, points)
    alg = relabelled(alg, rng)
    for _ in range(20):
        members = data.draw(st.lists(st.integers(0, alg.n - 1), max_size=4))
        assert join_if_exists(alg, members) == oracles.join_if_exists(alg, members)


def test_joins_and_completeness_match_the_literal_join(closure_corpus):
    rng = random.Random(0)
    for concrete in closure_corpus:
        if len(concrete.elements) > 7:
            continue
        alg = relabelled(from_concrete(concrete), rng)
        for size in range(4):
            for members in combinations_with_replacement(range(alg.n), size):
                assert join_if_exists(alg, members) == oracles.join_if_exists(alg, members)
        literal_complete = all(
            oracles.join_if_exists(alg, (x, y)) is not None
            for x in range(alg.n)
            for y in range(x + 1, alg.n)
            if compatible(alg, x, y)
        )
        assert is_fin_compatibly_complete(alg) == literal_complete


def test_filter_equiv_matches_the_literal_relation(closure_corpus):
    for concrete in closure_corpus:
        alg = from_concrete(concrete)
        if alg.n > 7:
            continue
        filters = all_proper_filters(alg)
        for mu in filters:
            for nu in filters:
                assert oracles.filter_equiv_by_generators(alg, mu, nu) == oracles.filter_equiv(alg, mu, nu)


def test_filter_equiv_refuses_a_set_that_is_no_filter():
    alg = boolean_four().algebra
    a, b = alg.index("{0:0}"), alg.index("{1:1}")
    with pytest.raises(ValueError):
        oracles.filter_equiv_by_generators(alg, frozenset({a, b}), frozenset({a}))
