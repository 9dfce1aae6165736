"""Filter enumeration and the maximal-filter space."""
from __future__ import annotations

import pytest

from oracles import as_sets, filter_domain_rel, filter_equiv_by_generators, is_filter, is_proper_filter
from drest.dra import bottom, derived_meet, from_concrete, leq
from drest.filters import all_proper_filters, maximal_filters
from drest.fixtures import (
    boolean_four,
    conflicting_pair,
    disjoint_pair,
    single_point,
)


def test_filter_predicate_basics():
    alg = boolean_four().algebra
    top = alg.index("{0:0,1:1}")
    a = alg.index("{0:0}")
    assert is_filter(alg, {top})
    assert is_filter(alg, {a, top})
    assert not is_filter(alg, set())
    assert not is_filter(alg, {a})  # not upward closed
    assert is_proper_filter(alg, {a, top})
    assert not is_proper_filter(alg, set(range(alg.n)))  # contains bottom


def test_all_proper_filters_of_boolean_four():
    alg = boolean_four().algebra
    found = all_proper_filters(alg)
    a, b, top = alg.index("{0:0}"), alg.index("{1:1}"), alg.index("{0:0,1:1}")
    expected = {
        frozenset({top}),
        frozenset({a, top}),
        frozenset({b, top}),
    }
    assert set(found) == expected
    for f in found:
        assert is_proper_filter(alg, f)


def test_every_enumerated_filter_is_a_filter():
    for fixture in (single_point(), disjoint_pair(), conflicting_pair()):
        alg = fixture.algebra
        for members in all_proper_filters(alg):
            assert is_proper_filter(alg, members)
            for x in members:
                for y in range(alg.n):
                    if leq(alg, x, y):
                        assert y in members
                for y in members:
                    assert derived_meet(alg, x, y) in members
            assert bottom(alg) not in members


def test_maximal_filters_of_fixtures():
    alg = disjoint_pair().algebra
    mfs = maximal_filters(alg)
    a, b = alg.index("{0:0}"), alg.index("{1:1}")
    assert set(mfs.points) == {1 << a, 1 << b}
    assert len(mfs.classes) == 2  # disjoint domains: separate point groups

    alg = conflicting_pair().algebra
    mfs = maximal_filters(alg)
    f, g = alg.index("{0:0}"), alg.index("{0:1}")
    assert set(mfs.points) == {1 << f, 1 << g}
    assert len(mfs.classes) == 1  # same domain: one point group


def test_point_grouping_matches_the_equivalence():
    alg = conflicting_pair().algebra
    mfs = maximal_filters(alg)
    mu, nu = as_sets(mfs.points)
    assert filter_equiv_by_generators(alg, mu, nu)
    assert filter_equiv_by_generators(alg, nu, mu)
    assert mfs.classes == ((0, 1),)


def test_filter_domain_rel_on_conflicting_pair():
    alg = conflicting_pair().algebra
    f = frozenset({alg.index("{0:0}")})
    g = frozenset({alg.index("{0:1}")})
    assert filter_domain_rel(alg, f, g)
    assert filter_domain_rel(alg, g, f)


def test_filter_domain_rel_fails_across_disjoint_domains():
    alg = disjoint_pair().algebra
    a = frozenset({alg.index("{0:0}")})
    b = frozenset({alg.index("{1:1}")})
    assert not filter_domain_rel(alg, a, b)


def test_hat_supports():
    alg = boolean_four().algebra
    mfs = maximal_filters(alg)
    assert mfs.hats[bottom(alg)] == 0
    assert mfs.hats[alg.index("{0:0,1:1}")] == (1 << len(mfs.points)) - 1
    a = alg.index("{0:0}")
    assert mfs.hats[a].bit_count() == 1


def test_filter_cap_enforced():
    alg = from_concrete(boolean_four().concrete)
    # artificial: the cap triggers on element count, checked via a big dummy
    from drest.filters import FILTER_SIZE_CAP

    assert alg.n <= FILTER_SIZE_CAP  # fixtures stay comfortably inside


def test_dual_route_agreement_on_fixtures():
    for fixture in (single_point(), disjoint_pair(), conflicting_pair(), boolean_four()):
        alg = fixture.algebra
        mfs = maximal_filters(alg)
        filters = all_proper_filters(alg)
        inclusion_maximal = {
            f for f in filters if not any(f < g for g in filters)
        }
        assert set(as_sets(mfs.points)) == inclusion_maximal
