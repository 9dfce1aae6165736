"""The graph-mask forms, closure, tables and closedness check against the
value-tuple definitions in ``oracles``.

Each mask form must decode to its tuple form's value, or fail with the same
error text.  Closures must be equal algebras or fail with the same error
text; tables and closedness verdicts must be equal.  The inputs are every
seed pair on carriers 1-3, seeded three-seed sets on carrier 4, every
catalogue operation (and ``identity``) on fixed seed sets, on closures under
it and on corpus closures, seed sets and pairs of further operations drawn
by hypothesis (up to eight seeds on carrier 4), the closure of all 625
functions on 4 points, and empty, repeated and labelled seed sets.  The
atoms the closure reads are checked against the oracle closure's minimal
members, and closedness verdicts on closures with members dropped at random.
"""
from __future__ import annotations

import random
from functools import reduce
from itertools import combinations_with_replacement
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import RAW_OPS
from drest.dra import NotClosed, from_concrete
from drest.pfun import (
    Carrier,
    ConcretePFAlgebra,
    PartialFunction,
    _atoms,
    _graphs,
    _pairs,
    closure_generate,
    enumerate_all_pfs,
)

OPS = ("difference", "restrict")
OP_NAMES = (*RAW_OPS, "identity")


def outcome(closure, carrier, seeds, ops=OPS):
    try:
        return closure(carrier, seeds, ops=ops)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_closures_agree(carrier, seeds, ops=OPS):
    got = outcome(closure_generate, carrier, seeds, ops)
    assert got == outcome(oracles.closure_generate, carrier, seeds, ops)
    if isinstance(got, ConcretePFAlgebra):
        # made without the checks, with its masks kept: the checked record
        # of the same elements passes them and encodes the same masks
        checked = ConcretePFAlgebra(
            carrier, tuple(PartialFunction(carrier, f.values) for f in got.elements)
        )
        assert checked.graph_masks() == got.graph_masks()
        for record in (got, *got.elements):
            assert all(hasattr(record, slot) for slot in type(record).__slots__)
    return got


def assert_tables_agree(closed: ConcretePFAlgebra) -> None:
    minus, rest = oracles.dr_tables(closed)
    alg = from_concrete(closed)
    assert alg.minus.entries == minus and alg.rest.entries == rest


def dropped(closed: ConcretePFAlgebra, i: int) -> ConcretePFAlgebra:
    return ConcretePFAlgebra(closed.carrier, closed.elements[:i] + closed.elements[i + 1:])


def test_every_seed_pair_on_carriers_up_to_three():
    count = 0
    for size in (1, 2, 3):
        carrier = Carrier(size)
        for seeds in combinations_with_replacement(enumerate_all_pfs(carrier), 2):
            closed = assert_closures_agree(carrier, list(seeds))
            assert_tables_agree(closed)
            count += 1
    assert count == 2128


def test_three_seed_closures_on_carrier_four():
    rng = random.Random(4)
    carrier = Carrier(4)
    pool = enumerate_all_pfs(carrier)
    for _ in range(150):
        closed = assert_closures_agree(carrier, rng.sample(pool, 3))
        assert_tables_agree(closed)
        assert closed.is_closed_under(OPS)


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_catalogue_operation(name):
    rng = random.Random(name)
    for size in (1, 2, 3, 4):
        carrier = Carrier(size)
        pool = enumerate_all_pfs(carrier)
        for k in (0, 1, 2):
            for _ in range(12 if size < 4 else 3):
                seeds = rng.sample(pool, k)
                got = assert_closures_agree(carrier, seeds, (*OPS, name))
                if isinstance(got, ConcretePFAlgebra):
                    assert got.is_closed_under((*OPS, name))


def values(size: int):
    return st.tuples(*[st.integers(min_value=-1, max_value=size - 1)] * size)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(values(n), values(n))
    ),
    st.sampled_from(OP_NAMES),
)
def test_each_mask_form_agrees_with_its_tuple_form(pair, name):
    size = len(pair[0])
    encode, decode, _, operations = _graphs(size)
    arity, op = operations[name]
    if name == "identity":
        assert decode(op()) == tuple(range(size))
        return
    args = pair[:arity]
    try:
        expected = RAW_OPS[name][1](*args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            op(*map(encode, args))
        return
    assert decode(op(*map(encode, args))) == expected


@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(values(n), values(n))))
def test_union_and_compatibility_agree_with_the_tuple_form(pair):
    carrier = Carrier(len(pair[0]))
    f, g = (PartialFunction(carrier, v) for v in pair)
    expected = oracles._union_if_compatible(*pair)
    union = oracles.pf_union_if_compatible(f, g)
    assert (None if union is None else union.values) == expected
    assert oracles.pf_compatible(f, g) == (expected is not None)


def test_converse_of_a_non_injective_seed_fails_alike():
    carrier = Carrier(2)
    constant = PartialFunction(carrier, (0, 0))
    got = assert_closures_agree(carrier, [constant], (*OPS, "converse"))
    assert got == (ValueError, "converse of a non-injective partial function")


def test_refusals_keep_their_text():
    c5 = Carrier(5)
    assert assert_closures_agree(c5, [])[1] == "closure carrier capped at size 4"
    c2 = Carrier(2)
    assert assert_closures_agree(c2, [], ("difference",))[1] == (
        "closure must include difference and restrict"
    )
    foreign = PartialFunction.empty(Carrier(3))
    assert assert_closures_agree(c2, [foreign])[1] == "seed on a foreign carrier"


def seed_sets(size: int, most: int = 3):
    values = st.integers(min_value=-1, max_value=size - 1)
    pf = st.tuples(*[values] * size).map(lambda v: PartialFunction(Carrier(size), v))
    return st.lists(pf, max_size=most)


def sized_seed_sets(most: int):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), seed_sets(n, most))
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), seed_sets(n))
    ),
    st.lists(st.sampled_from(OP_NAMES[2:]), max_size=2),
)
def test_generated_seed_sets(case, extra):
    size, seeds = case
    assert_closures_agree(Carrier(size), seeds, (*OPS, *extra))


@settings(max_examples=30, deadline=None)
@given(seed_sets(4, 8), st.lists(st.sampled_from(OP_NAMES[2:]), max_size=2))
def test_generated_seed_sets_of_up_to_eight_on_carrier_four(seeds, extra):
    assert_closures_agree(Carrier(4), seeds, (*OPS, *extra))


def test_the_closure_of_every_function_on_four_points():
    carrier = Carrier(4)
    every = enumerate_all_pfs(carrier)
    assert closure_generate(carrier, every).elements == every


def test_edge_seed_sets():
    for size in (1, 2, 3, 4):
        carrier = Carrier(size)
        empty = PartialFunction.empty(carrier)
        f, g = random.Random(size).sample(enumerate_all_pfs(carrier), 2)
        assert assert_closures_agree(carrier, []).elements == (empty,)
        assert assert_closures_agree(carrier, [empty]).elements == (empty,)
        once = assert_closures_agree(carrier, [f, g])
        for seeds in ([f, g, f, g], [empty, g, empty, f]):
            assert assert_closures_agree(carrier, seeds) == once
    labelled = Carrier(3, ("a", "b", "c"))
    seeds = [PartialFunction(labelled, (1, 2, -1)), PartialFunction(labelled, (1, -1, 0))]
    for extra in ((), ("compose",), ("identity",)):
        closed = assert_closures_agree(labelled, seeds, (*OPS, *extra))
        assert all(f.carrier == labelled for f in closed.elements)
    assert "{a:b,b:c}" in {f.render() for f in closed.elements}


@settings(max_examples=150, deadline=None)
@given(sized_seed_sets(8))
def test_the_partition_is_the_atoms_of_the_closure(case):
    """The classes :func:`drest.pfun._atoms` lists are pairwise disjoint,
    cover the union of the seeds, make up each seed, are stable, and are the
    minimal nonempty members of the oracle's closure."""
    size, seeds = case
    encode, _, dom, _ = _graphs(size)
    graphs = [encode(f.values) for f in seeds]
    inside = _atoms(size, [_pairs(f.values) for f in seeds])
    classes = {t for listed in inside for t in listed}
    union = 0
    for t in classes:
        assert t and not t & union
        union |= t
    assert union == reduce(or_, graphs, 0)
    for graph, listed in zip(graphs, inside):
        assert reduce(or_, listed, 0) == graph
    assert all(t & dom(other) in (0, t) for t in classes for other in classes)
    closure = {encode(f.values) for f in oracles.closure_generate(Carrier(size), seeds).elements}
    assert classes == {m for m in closure if m and not any(0 < o < m and o & m == o for o in closure)}


@settings(max_examples=150, deadline=None)
@given(sized_seed_sets(5), st.randoms(use_true_random=False), st.sampled_from((0.0, 0.1, 0.5)))
def test_closedness_verdicts_on_generated_families(case, rng, drop):
    """Closures with members dropped at random, and the seeds alone, under
    difference and restriction (decided on atoms) and each alone or with
    another operation (decided by the pair scan), against the pair scan."""
    size, seeds = case
    carrier = Carrier(size)
    closed = closure_generate(carrier, seeds)
    distinct = {f.values: f for f in seeds}.values()
    for elements in (
        [f for f in closed.elements if rng.random() >= drop],
        sorted(distinct, key=lambda f: f.sort_key),
    ):
        family = ConcretePFAlgebra(carrier, tuple(elements))
        for ops in (OPS, OPS[::-1], OPS[:1], OPS[1:], (*OPS, "meet"), (*OPS, "domain")):
            assert family.is_closed_under(ops) == oracles.is_closed_under(family, ops)


def test_closedness_verdicts(closure_corpus):
    for closed in closure_corpus[::7]:
        for name in OP_NAMES:
            ops = (*OPS, name)
            assert closed.is_closed_under(ops) == oracles.is_closed_under(closed, ops)
        # without the empty function, a - a is missing
        if len(closed) > 1:
            assert not dropped(closed, 0).is_closed_under(OPS)
        for i in range(1, len(closed)):
            smaller = dropped(closed, i)
            assert smaller.is_closed_under(OPS) == oracles.is_closed_under(smaller, OPS)


def table_outcome(closed: ConcretePFAlgebra, name: str):
    try:
        return from_concrete(closed, extra_ops=(name,)).op(name)
    except ValueError as exc:
        return type(exc), str(exc)


def oracle_table_outcome(closed: ConcretePFAlgebra, name: str):
    try:
        return oracles.op_table(closed, name)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", OP_NAMES)
def test_operation_tables(name, closure_corpus):
    """The table of each operation on closures under it, and on corpus
    closures, which may fail either refusal."""
    rng = random.Random(name)
    closures = [*closure_corpus[::11]]
    for size in (1, 2, 3, 4):
        carrier = Carrier(size)
        pool = enumerate_all_pfs(carrier)
        for _ in range(6 if size < 4 else 2):
            got = outcome(closure_generate, carrier, rng.sample(pool, 2), (*OPS, name))
            if isinstance(got, ConcretePFAlgebra):
                closures.append(got)
    texts = set()
    for closed in closures:
        got = table_outcome(closed, name)
        assert got == oracle_table_outcome(closed, name)
        if isinstance(got, tuple):
            texts.add(got[1])
    assert texts <= {
        "algebra not closed under requested operation",
        "converse of a non-injective partial function",
    }


def test_table_refusals_keep_their_text():
    carrier = Carrier(2)
    constant = PartialFunction(carrier, (0, 0))
    closed = closure_generate(carrier, [constant])
    assert table_outcome(closed, "converse") == (
        ValueError, "converse of a non-injective partial function"
    )
    swap = closure_generate(carrier, [PartialFunction(carrier, (1, 0))])
    for name in ("compose", "identity", "domain"):
        expected = (ValueError, "algebra not closed under requested operation")
        assert table_outcome(swap, name) == expected == oracle_table_outcome(swap, name)
    with pytest.raises(KeyError, match="no operation named 'update'"):
        from_concrete(swap, extra_ops=("update",))
    assert from_concrete(swap).extra_ops == ()


def test_closedness_of_each_operation_on_subfamilies(closure_corpus):
    rng = random.Random(5)
    for closed in closure_corpus[::5]:
        for _ in range(4):
            keep = [f for f in closed.elements[1:] if rng.random() < 0.7]
            family = ConcretePFAlgebra(closed.carrier, closed.elements[:1] + tuple(keep))
            for ops in (OPS, ("difference",), ("restrict",)):
                assert family.is_closed_under(ops) == oracles.is_closed_under(family, ops)


def test_a_missing_restriction_by_the_last_element_is_seen():
    carrier = Carrier(2)
    # {0:0, 1:0} restricted to the domain of {0:1} is missing; every
    # difference is present
    family = ConcretePFAlgebra(
        carrier,
        tuple(PartialFunction(carrier, v) for v in ((-1, -1), (0, 0), (1, -1))),
    )
    assert family.is_closed_under(("difference",))
    assert not family.is_closed_under(("restrict",))
    assert not oracles.is_closed_under(family, ("restrict",))


def test_tables_of_an_unclosed_family_are_refused():
    carrier = Carrier(2)
    closed = closure_generate(carrier, [PartialFunction(carrier, (0, 1))])
    broken = dropped(closed, 0)
    with pytest.raises(NotClosed, match="not closed under difference and restriction"):
        from_concrete(broken)
    with pytest.raises(ValueError, match="not closed"):
        oracles.dr_tables(broken)


def test_restrictions_of_one_function_beyond_the_closure_cap():
    # every restriction of one total function is closed under both
    # operations; carrier 7 takes the domain spread past four points
    carrier = Carrier(7)
    total = (3, 0, 6, 3, 1, 1, 5)
    elements = tuple(
        PartialFunction(carrier, tuple(v if bits >> x & 1 else -1 for x, v in enumerate(total)))
        for bits in range(1 << 7)
    )
    family = ConcretePFAlgebra(carrier, tuple(sorted(elements, key=lambda f: f.sort_key)))
    assert family.is_closed_under(OPS)
    alg = from_concrete(family)
    assert (alg.minus.entries, alg.rest.entries) == oracles.dr_tables(family)
    for i in (0, 1, 64, 127):
        smaller = dropped(family, i)
        assert smaller.is_closed_under(OPS) == oracles.is_closed_under(smaller, OPS)
