"""Order, joins, completeness and the completion's representation read off
support masks, against the literal definitions in ``oracles``.

``join_if_exists`` looks up the union of the members' supports, and
``is_fin_compatibly_complete`` counts partial sections.  Both are compared
with the literal join and the pair scan on the corpus, on seeded three-seed
closures, on the completions of both and on non-complete fixtures.  A
completion reads its representation off its section masks; that
representation must be the one found from its tables, and no completion has
one found from its tables.  ``up_masks`` is compared with the literal order
on the corpus and on random tables.
"""
from __future__ import annotations

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import abstract, three_seed_closures
from drest import dra
from drest.dra import (
    FiniteAlgebra,
    OpTable,
    identity_map,
    is_fin_compatibly_complete,
    join_if_exists,
    leq,
    representation,
    up_masks,
)
from drest.duality import check_triangle_identities, complete, completion_report
from drest.fixtures import FIXTURES, get_fixture
from drest.pfun import Carrier, PartialFunction, closure_generate


@pytest.fixture(scope="module")
def closures(closure_corpus) -> list[FiniteAlgebra]:
    return [abstract(c) for c in closure_corpus + three_seed_closures(random.Random(11), 40)]


def member_lists(alg: FiniteAlgebra, rng: random.Random, count: int):
    """Every member list of at most two elements on a small algebra, else
    ``count`` drawn ones of at most three."""
    if alg.n <= 8:
        return [m for size in range(3) for m in combinations_with_replacement(range(alg.n), size)]
    return [rng.choices(range(alg.n), k=rng.randint(0, 3)) for _ in range(count)]


def assert_matches_the_oracles(alg: FiniteAlgebra, rng: random.Random) -> None:
    for members in member_lists(alg, rng, 12):
        assert join_if_exists(alg, members) == oracles.join_if_exists(alg, members), members
    assert is_fin_compatibly_complete(alg) == oracles.is_fin_compatibly_complete(alg)


def test_joins_and_completeness_on_closures_and_completions(closures):
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for alg in closures:
        assert_matches_the_oracles(alg, rng)
        verdicts[is_fin_compatibly_complete(alg)] += 1
        completed, _ = complete(alg)
        if completed.n <= 32 or rng.random() < 0.1:
            assert_matches_the_oracles(completed, rng)
        assert is_fin_compatibly_complete(completed)
    assert min(verdicts.values()) > 100, verdicts


def test_joins_and_completeness_on_the_fixtures():
    verdicts = set()
    for name in FIXTURES:
        if name != "broken_restriction":
            alg = get_fixture(name).algebra
            assert_matches_the_oracles(alg, random.Random(0))
            verdicts.add(is_fin_compatibly_complete(alg))
    assert verdicts == {True, False}


def test_unrepresented_algebras_raise():
    alg = get_fixture("broken_restriction").algebra
    assert representation(alg) is None
    with pytest.raises(ValueError, match="not represented"):
        join_if_exists(alg, (0, 1))
    with pytest.raises(ValueError, match="not represented"):
        is_fin_compatibly_complete(alg)
    with pytest.raises(ValueError, match="not represented"):
        completion_report(identity_map(alg))


def test_completions_carry_the_representation_their_tables_give(closures):
    orders = set()
    for alg in closures:
        completed, _ = complete(alg)
        twice, _ = complete(completed)
        for c in (completed, twice):
            fresh = FiniteAlgebra(c.elements, c.minus, c.rest)
            atoms = representation(c)[0]
            assert representation(c) == dra._represent(fresh)
            # whether the atoms keep the order of the points they come from
            orders.add(list(atoms) == sorted(atoms))
    assert orders == {True, False}


def non_identity_order_closure() -> FiniteAlgebra:
    """A closure whose completion lists its atoms out of section order."""
    carrier = Carrier(2)
    seeds = [PartialFunction.from_graph(carrier, g) for g in ([(0, 0), (1, 0)], [(0, 1)])]
    return dra.from_concrete(closure_generate(carrier, seeds))


@pytest.mark.parametrize("fixture", [None, "disjoint_pair"])
def test_only_the_input_has_its_representation_found(fixture, monkeypatch):
    found = {"_represent": [], "up_masks": []}
    for name, seen in found.items():
        original = getattr(dra, name)
        monkeypatch.setattr(
            dra, name, lambda alg, seen=seen, original=original: seen.append(alg) or original(alg)
        )
    alg = non_identity_order_closure() if fixture is None else get_fixture(fixture).algebra
    # the tables alone: a concrete algebra's representation is read off its graphs
    alg = FiniteAlgebra(alg.elements, alg.minus, alg.rest)
    completed, _ = complete(alg)
    complete(completed)
    assert check_triangle_identities(alg).ok
    # nor is the representation or order of a completion read off its tables
    assert all(len(seen) == 1 and seen[0] is alg for seen in found.values())


def literal_up(alg: FiniteAlgebra) -> tuple[int, ...]:
    return tuple(
        sum(1 << y for y in range(alg.n) if leq(alg, x, y)) for x in range(alg.n)
    )


def test_up_masks_match_the_literal_order(closures):
    for alg in closures:
        assert up_masks(alg) == literal_up(alg)


@st.composite
def minus_tables(draw) -> FiniteAlgebra:
    n = draw(st.integers(1, 7))
    minus = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    names = tuple(f"e{i}" for i in range(n))
    return FiniteAlgebra(names, OpTable("minus", 2, n, tuple(minus)), OpTable("rest", 2, n, tuple(minus)))


@settings(max_examples=300, deadline=None)
@given(minus_tables())
def test_up_masks_on_random_tables(alg):
    assert up_masks(alg) == literal_up(alg)

