"""Shared corpus: every closure of small seed sets, deduplicated.

Criterion-style tests quantify over all difference/restriction closures of at
most two partial functions on carriers of size up to three; generating that
corpus once keeps the suite fast.  Seeded three-seed closures on carrier 4
reach the sizes the two-seed corpus does not.  The operator tests share one
list of operation tables built from fixtures and corpus closures, and the
differential tests one way to shuffle an algebra's elements, every space of
at most three points, one strategy for valid spaces, one way to compare
outcomes, refusals included, and one closure whose completion is past the
old filter cap.
"""
from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import strategies as st

from drest.dra import FiniteAlgebra, OpTable, binary_table, bottom, derived_meet, from_concrete
from drest.duality import EtaleSpace
from drest.filters import FILTER_SIZE_CAP
from drest.fixtures import FIXTURES, get_fixture
from drest.operators import CATALOGUE, NOT_IMPLEMENTED, OPERATOR_ALGEBRA_CAP
from drest.pfun import Carrier, ConcretePFAlgebra, PartialFunction, closure_generate, enumerate_all_pfs


def _closure_corpus(max_carrier: int = 3) -> list[ConcretePFAlgebra]:
    algebras: list[ConcretePFAlgebra] = []
    seen: set[tuple] = set()
    for size in range(1, max_carrier + 1):
        carrier = Carrier(size)
        pool = enumerate_all_pfs(carrier)
        for seeds in combinations_with_replacement(pool, 2):
            closed = closure_generate(carrier, list(seeds))
            key = (size, tuple(f.values for f in closed.elements))
            if key in seen:
                continue
            seen.add(key)
            algebras.append(closed)
    return algebras


def relabelled(alg: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    """The same algebra, operations included, with its elements in a random
    order: the canonical order of a closure lists every least upper bound
    before the other upper bounds, which would hide a join that skips the
    leastness test."""
    order = list(range(alg.n))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}

    def table(op: OpTable) -> OpTable:
        return OpTable(op.name, op.arity, alg.n, tuple(
            new[op(*map(order.__getitem__, xs))] for xs in product(range(alg.n), repeat=op.arity)
        ))

    return FiniteAlgebra(
        tuple(alg.elements[x] for x in order),
        table(alg.minus),
        table(alg.rest),
        tuple(map(table, alg.extra_ops)),
    )


def outcome(fn, *args):
    """What the call returns, or the type and message of the ValueError it
    raises (InvalidSpace and InvalidMorphism included)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def three_seed_closures(rng: random.Random, count: int) -> list[ConcretePFAlgebra]:
    """Closures of three distinct carrier-4 functions with at most
    FILTER_SIZE_CAP elements."""
    carrier = Carrier(4)
    pool = enumerate_all_pfs(carrier)
    found = []
    while len(found) < count:
        closed = closure_generate(carrier, rng.sample(pool, 3))
        if len(closed) <= FILTER_SIZE_CAP:
            found.append(closed)
    return found


@pytest.fixture(scope="session")
def closure_corpus() -> list[ConcretePFAlgebra]:
    return _closure_corpus()


@pytest.fixture(scope="session")
def valid_fixture_algebras() -> dict[str, FiniteAlgebra]:
    out = {}
    for name in FIXTURES:
        fixture = get_fixture(name)
        if name != "broken_restriction":
            out[name] = fixture.algebra
    return out


def abstract(concrete: ConcretePFAlgebra, extra_ops=()) -> FiniteAlgebra:
    return from_concrete(concrete, extra_ops)


def operator_cases(corpus, stride: int):
    """The meet and the constant bottom on every valid fixture, and every
    catalogue operation on the closures of the concrete fixtures and of every
    stride-th corpus algebra."""
    for name in FIXTURES:
        if name != "broken_restriction":
            alg = get_fixture(name).algebra
            yield alg, binary_table("meet", alg.n, lambda x, y, alg=alg: derived_meet(alg, x, y))
            yield alg, OpTable("zero", 1, alg.n, (bottom(alg),) * alg.n)
    fixtures = [get_fixture(name).concrete for name in FIXTURES]
    for concrete in [c for c in fixtures if c is not None] + corpus[::stride]:
        for op in CATALOGUE:
            if op in NOT_IMPLEMENTED:
                continue
            try:
                closed = closure_generate(
                    concrete.carrier, concrete.elements, ops=("difference", "restrict", op)
                )
            except ValueError:
                continue
            if len(closed.elements) <= OPERATOR_ALGEBRA_CAP:
                with_op = from_concrete(closed, extra_ops=(op,))
                yield with_op.with_ops(()), with_op.op(op)


def small_spaces():
    """Every projection of n points into n base points with every set of
    subsets as basis, for n = 1..3: 6,980 spaces."""
    for n in range(1, 4):
        subsets = [frozenset(x for x in range(n) if m >> x & 1) for m in range(1 << n)]
        for projection in product(range(n), repeat=n):
            for chosen in range(1 << len(subsets)):
                basis = tuple(u for i, u in enumerate(subsets) if chosen >> i & 1)
                yield EtaleSpace(n, n, projection, basis)


@st.composite
def valid_spaces(draw) -> EtaleSpace:
    """Discrete spaces of 1-6 points, their basis the singletons plus a few
    unions of them."""
    n = draw(st.integers(1, 6))
    n_base = draw(st.integers(1, n))
    projection = list(range(n_base)) + draw(
        st.lists(st.integers(0, n_base - 1), min_size=n - n_base, max_size=n - n_base)
    )
    singletons = [frozenset({x}) for x in range(n)]
    unions = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3))
    return EtaleSpace(n, n_base, tuple(projection), tuple(singletons) + tuple(map(frozenset, unions)))


def eighteen_element_completion() -> FiniteAlgebra:
    """A closure of eight elements whose completion has 18, over the old
    16-element filter cap."""
    carrier = Carrier(3)
    seeds = [
        PartialFunction.from_graph(carrier, graph)
        for graph in ([(1, 0), (2, 0)], [(1, 2)], [(0, 2), (2, 1)])
    ]
    return from_concrete(closure_generate(carrier, seeds))
