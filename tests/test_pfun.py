"""Concrete partial-function layer."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from oracles import RAW_OPS, pf_compatible, pf_union_if_compatible
from drest.pfun import (
    UNDEF,
    Carrier,
    CarrierMismatch,
    PartialFunction,
    closure_generate,
    enumerate_all_pfs,
    pf_difference,
    pf_meet,
    pf_override,
    pf_restrict,
)


def pf_strategy(size: int):
    values = st.integers(min_value=-1, max_value=size - 1)
    return st.tuples(*[values] * size).map(
        lambda v: PartialFunction(Carrier(size), v)
    )


sized_pairs = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(pf_strategy(n), pf_strategy(n))
)
sized_triples = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(pf_strategy(n), pf_strategy(n), pf_strategy(n))
)


def test_from_graph_rejects_conflicting_pairs():
    c = Carrier(2)
    with pytest.raises(ValueError):
        PartialFunction.from_graph(c, [(0, 0), (0, 1)])


def test_from_graph_out_of_carrier():
    with pytest.raises(ValueError):
        PartialFunction.from_graph(Carrier(2), [(5, 0)])


def test_carrier_mismatch_is_an_error():
    f = PartialFunction.empty(Carrier(2))
    g = PartialFunction.empty(Carrier(3))
    with pytest.raises(CarrierMismatch):
        pf_difference(f, g)


def test_graph_round_trip():
    c = Carrier(3)
    f = PartialFunction.from_graph(c, [(0, 2), (2, 1)])
    assert PartialFunction.from_graph(c, f.graph) == f
    assert f.domain == {0, 2}
    assert f.image == {1, 2}
    assert f(1) is None and f(0) == 2


@given(sized_pairs)
def test_difference_is_graph_difference(pair):
    f, g = pair
    expected = set(f.graph) - set(g.graph)
    assert set(pf_difference(f, g).graph) == expected


@given(sized_pairs)
def test_restrict_keeps_pairs_over_the_domain(pair):
    f, g = pair
    expected = {(x, y) for x, y in g.graph if x in f.domain}
    assert set(pf_restrict(f, g).graph) == expected


@given(sized_pairs)
def test_meet_is_graph_intersection(pair):
    f, g = pair
    assert set(pf_meet(f, g).graph) == set(f.graph) & set(g.graph)
    assert pf_meet(f, g) == pf_difference(f, pf_difference(f, g))


@given(sized_pairs)
def test_compatible_iff_union_functional(pair):
    f, g = pair
    union = pf_union_if_compatible(f, g)
    assert pf_compatible(f, g) == (union is not None)
    if union is not None:
        assert set(union.graph) == set(f.graph) | set(g.graph)
        assert pf_restrict(f, g) == pf_restrict(g, f)


@given(sized_pairs)
def test_override_prefers_the_left_argument(pair):
    f, g = pair
    h = pf_override(f, g)
    for x in range(f.carrier.size):
        assert h(x) == (f(x) if f(x) is not None else g(x))


@given(sized_triples)
def test_compose_associative(triple):
    compose = RAW_OPS["compose"][1]
    f, g, h = (p.values for p in triple)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(sized_pairs)
def test_domain_and_range_are_subidentities(pair):
    f, _ = pair
    d = PartialFunction(f.carrier, RAW_OPS["domain"][1](f.values))
    r = PartialFunction(f.carrier, RAW_OPS["range"][1](f.values))
    assert all(y == x for x, y in d.graph)
    assert d.domain == f.domain
    assert r.domain == f.image
    assert RAW_OPS["compose"][1](f.values, d.values) == f.values


def test_closure_contains_seeds_and_empty():
    c = Carrier(2)
    a = PartialFunction.from_graph(c, [(0, 0)])
    b = PartialFunction.from_graph(c, [(1, 1)])
    closed = closure_generate(c, [a, b])
    values = {f.values for f in closed.elements}
    assert a.values in values and b.values in values
    assert (UNDEF, UNDEF) in values
    assert closed.is_closed_under(("difference", "restrict"))


def test_closure_with_identity_seed():
    c = Carrier(2)
    closed = closure_generate(c, [], ops=("difference", "restrict", "identity"))
    assert PartialFunction.identity(c).values in {f.values for f in closed.elements}


def test_closure_requires_the_base_operations():
    with pytest.raises(ValueError):
        closure_generate(Carrier(2), [], ops=("difference",))


def test_closure_carrier_cap():
    with pytest.raises(ValueError):
        closure_generate(Carrier(5), [])


def test_enumerate_all_counts():
    assert len(enumerate_all_pfs(Carrier(1))) == 2
    assert len(enumerate_all_pfs(Carrier(2))) == 9
    assert len(enumerate_all_pfs(Carrier(3))) == 64


def test_a_seed_with_no_converse_is_refused_before_the_atoms(monkeypatch):
    from drest import pfun

    def refuse(*args):
        raise AssertionError("atoms computed")

    monkeypatch.setattr(pfun, "_atoms", refuse)
    carrier = Carrier(3)
    seeds = [PartialFunction(carrier, (0, 1, 2)), PartialFunction(carrier, (0, 0, UNDEF))]
    with pytest.raises(ValueError, match="^converse of a non-injective partial function$"):
        closure_generate(carrier, seeds, ("difference", "restrict", "converse"))
