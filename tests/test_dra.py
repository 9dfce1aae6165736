"""Abstract algebra layer: validation, derived structure, maps."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from oracles import derived_override
from drest.dra import (
    AlgebraMap,
    FiniteAlgebra,
    OpTable,
    binary_table,
    bottom,
    compatible,
    derived_meet,
    from_concrete,
    hom_check,
    identity_map,
    is_fin_compatibly_complete,
    is_proper_hom,
    is_subtraction_algebra,
    isomorphism_search,
    join_if_exists,
    leq,
    representation,
    validate_axioms,
)
from drest.fixtures import (
    FIXTURES,
    boolean_four,
    broken_restriction,
    conflicting_pair,
    disjoint_pair,
    get_fixture,
    inclusion_disjoint_into_boolean,
    map_by_names,
    single_point,
)
from drest.pfun import Carrier, PartialFunction, closure_generate

VALID = [n for n in FIXTURES if n != "broken_restriction"]


@pytest.mark.parametrize("name", VALID)
def test_fixture_algebras_validate(name):
    assert validate_axioms(get_fixture(name).algebra).ok


def test_fixture_keys_are_their_names():
    assert all(get_fixture(key).name == key for key in FIXTURES)


def test_broken_fixture_reports_only_the_fourth_law():
    report = validate_axioms(broken_restriction().algebra)
    assert not report.ok
    assert {v.axiom for v in report.violations} == {"law-4"}
    assert "violation" in report.summary()


def test_no_constant_bottom_is_reported():
    # x - x not constant: a one-element "algebra" cannot fail, so build a
    # two-element table where 1 - 1 = 1
    minus = OpTable("minus", 2, 2, (0, 0, 1, 1))
    rest = OpTable("rest", 2, 2, (0, 0, 0, 1))
    report = validate_axioms(FiniteAlgebra(("x", "y"), minus, rest))
    assert not report.ok
    assert report.violations[0].axiom == "no-constant-bottom"


@pytest.mark.parametrize(
    "arity, entries, bad",
    [(2, (0, 1, 2, 0), 2), (2, (0, -1, 1, 0), -1), (1, (0, 5), 5), (0, (2,), 2)],
)
def test_a_table_with_an_entry_out_of_range_is_refused(arity, entries, bad):
    # only the tables from_masks builds, whose entries are mask indices, skip the scan
    with pytest.raises(ValueError, match=f"table f: entry {bad} out of range"):
        OpTable("f", arity, 2, entries)
    with pytest.raises(ValueError, match="table f: wrong number of entries"):
        OpTable("f", arity, 2, entries + (0,))


def test_closure_of_random_seeds_validates(closure_corpus):
    # spot sample here; the exhaustive scan lives in the acceptance suite
    for concrete in closure_corpus[::25]:
        assert validate_axioms(from_concrete(concrete)).ok


def test_bottom_and_order_on_boolean_four():
    alg = boolean_four().algebra
    bot = bottom(alg)
    assert alg.elements[bot] == "{}"
    top = alg.index("{0:0,1:1}")
    for x in range(alg.n):
        assert leq(alg, bot, x)
        assert leq(alg, x, top)
    a = alg.index("{0:0}")
    b = alg.index("{1:1}")
    assert not leq(alg, a, b)
    assert derived_meet(alg, a, b) == bot
    assert join_if_exists(alg, (a, b)) == top


def test_domain_preorder_on_conflicting_pair():
    alg = conflicting_pair().algebra
    f = alg.index("{0:0}")
    g = alg.index("{0:1}")
    atoms, classes, _ = representation(alg)
    assert any({atoms.index(f), atoms.index(g)} <= set(cls) for cls in classes)
    assert not leq(alg, f, g)
    assert not compatible(alg, f, g)


def test_join_of_empty_family_is_bottom():
    alg = disjoint_pair().algebra
    assert join_if_exists(alg, ()) == bottom(alg)


def test_completeness_of_fixtures():
    assert not is_fin_compatibly_complete(disjoint_pair().algebra)
    assert is_fin_compatibly_complete(conflicting_pair().algebra)
    assert is_fin_compatibly_complete(boolean_four().algebra)
    assert is_fin_compatibly_complete(single_point().algebra)


def test_derived_override_on_boolean_four():
    alg = boolean_four().algebra
    a = alg.index("{0:0}")
    b = alg.index("{1:1}")
    top = alg.index("{0:0,1:1}")
    assert derived_override(alg, a, b) == top
    assert derived_override(alg, a, top) == top
    assert derived_override(alg, bottom(alg), b) == b


def test_derived_override_needs_joins():
    alg = disjoint_pair().algebra
    with pytest.raises(ValueError):
        derived_override(alg, alg.index("{0:0}"), alg.index("{1:1}"))


def test_subtraction_algebra_detection():
    assert is_subtraction_algebra(boolean_four().algebra)
    assert is_subtraction_algebra(disjoint_pair().algebra)
    assert not is_subtraction_algebra(conflicting_pair().algebra)


def test_inclusion_is_an_embedding_but_not_proper():
    mapping = inclusion_disjoint_into_boolean()
    report = hom_check(mapping)
    assert report.is_embedding
    # the top of the cube lies below no single image element
    assert not is_proper_hom(mapping)
    assert is_proper_hom(identity_map(mapping.target))


def test_non_hom_is_reported_with_witnesses():
    alg = disjoint_pair().algebra
    a = alg.index("{0:0}")
    b = alg.index("{1:1}")
    table = list(range(alg.n))
    table[a], table[b] = table[a], table[a]  # collapse b onto a
    report = hom_check(AlgebraMap(alg, alg, tuple(table)))
    assert not report.is_hom
    assert any("not preserved" in v for v in report.violations)


def test_properness_rejects_non_homs():
    alg = disjoint_pair().algebra
    bad = AlgebraMap(alg, alg, (1,) * alg.n)
    with pytest.raises(ValueError):
        is_proper_hom(bad)


def test_constant_bottom_map_is_a_non_proper_hom():
    alg = boolean_four().algebra
    mapping = AlgebraMap(alg, alg, (bottom(alg),) * alg.n)
    assert hom_check(mapping).is_hom
    assert not is_proper_hom(mapping)


def test_identity_map_is_identity():
    alg = boolean_four().algebra
    assert identity_map(alg).is_identity()
    assert hom_check(identity_map(alg)).is_embedding


def test_isomorphism_search_finds_relabelings():
    alg = disjoint_pair().algebra
    # relabel elements by permuting the two singleton functions
    perm = [0, alg.index("{0:0}"), alg.index("{1:1}")]
    perm = {i: p for i, p in enumerate(perm)}
    names = tuple(alg.elements[perm[i]] for i in range(alg.n))
    minus = binary_table("minus", alg.n, lambda x, y: _inv(perm, alg.m(perm[x], perm[y])))
    rest = binary_table("rest", alg.n, lambda x, y: _inv(perm, alg.r(perm[x], perm[y])))
    other = FiniteAlgebra(names, minus, rest)
    found = isomorphism_search(alg, other)
    assert found is not None
    assert hom_check(found).is_embedding


def _inv(perm: dict, value: int) -> int:
    return next(k for k, v in perm.items() if v == value)


def test_isomorphism_search_checks_extra_operations():
    # the same algebra with a constant operation at one atom or at the other:
    # only the bijection swapping the two atoms carries one to the other
    alg = boolean_four().algebra
    a, b = alg.index("{0:0}"), alg.index("{1:1}")
    at_a = alg.with_ops([OpTable("c", 1, alg.n, (a,) * alg.n)])
    at_b = alg.with_ops([OpTable("c", 1, alg.n, (b,) * alg.n)])
    found = isomorphism_search(at_a, at_b)
    assert found is not None and found.table[a] == b
    assert hom_check(found).is_embedding
    binary = alg.with_ops([OpTable("c", 2, alg.n, (a,) * alg.n**2)])
    assert isomorphism_search(at_a, binary) is None


def test_isomorphism_search_distinguishes_fixtures():
    assert isomorphism_search(disjoint_pair().algebra, conflicting_pair().algebra) is None
    assert isomorphism_search(disjoint_pair().algebra, boolean_four().algebra) is None


def test_extra_ops_participate_in_hom_checks():
    concrete = disjoint_pair().concrete
    with_d = from_concrete(concrete, extra_ops=("domain",))
    report = hom_check(identity_map(with_d))
    assert report.is_hom
    # a self-map ignoring the operation tables must fail on them
    swap = {0: 0, 1: with_d.index("{0:0}"), 2: with_d.index("{1:1}")}
    mapping = AlgebraMap(with_d, with_d, tuple(swap[i] for i in range(with_d.n)))
    assert hom_check(mapping).is_hom  # swapping the two atoms is symmetric


def test_from_concrete_requires_closure():
    c = Carrier(2)
    f = PartialFunction.from_graph(c, [(0, 1)])
    closed = closure_generate(c, [f])
    with pytest.raises(ValueError):
        from_concrete(closed, extra_ops=("identity",))


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_compatibility_is_symmetric_on_boolean_four(x, y):
    alg = boolean_four().algebra
    assert compatible(alg, x, y) == compatible(alg, y, x)
