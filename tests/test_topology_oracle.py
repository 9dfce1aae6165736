"""The bitmask topology against the literal definitions in ``oracles``.

Every report field, the failure messages in their order, morphism checks,
isomorphism checks, relation checks, relations applied to sections by the
operations they induce, sections and the dual's tables must agree:
exhaustively on spaces of at most three points, on generated spaces of four
to six points whose bases may be non-stable or leave points uncovered, and
on the traffic the library itself makes: the dual spaces of corpus algebras
and of three-seed closures, of their completions, and the F(unit) and
counit morphisms between them.
"""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import abstract, small_spaces, three_seed_closures, valid_spaces
from drest.duality import (
    EtaleSpace,
    F_morphism,
    G_object,
    SpaceMorphism,
    _counit,
    _topology,
    dual_of,
    is_space_isomorphism,
    opens,
    unit_eta,
    validate_etale,
    validate_morphism,
)
from drest.operators import (
    OperatorCheckError,
    SpaceRelation,
    check_relation_properties,
    operation_from_relation,
)


def members(mask: int, n: int) -> frozenset[int]:
    return frozenset(x for x in range(n) if mask >> x & 1)


@st.composite
def spaces(draw, min_points: int = 4, max_points: int = 6) -> EtaleSpace:
    n = draw(st.integers(min_points, max_points))
    n_base = draw(st.integers(1, n))
    projection = tuple(draw(st.lists(st.integers(0, n_base - 1), min_size=n, max_size=n)))
    # singletons push towards stable and valid spaces, random sets away
    singletons = draw(st.sets(st.integers(0, n - 1)))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    basis = tuple(frozenset({x}) for x in sorted(singletons)) + tuple(
        members(m, n) for m in masks
    )
    return EtaleSpace(n, n_base, projection, basis)


def assert_space_agrees(space: EtaleSpace) -> None:
    report = validate_etale(space)
    assert report == oracles.validate_etale(space), space
    assert opens(space) == oracles.opens(space)
    if report.ok:
        dual = G_object(space)
        assert list(oracles.as_sets(dual.sections)) == oracles.sections(space)
        minus, rest = oracles.dual_tables(space)
        assert dual.algebra.minus.entries == minus
        assert dual.algebra.rest.entries == rest


def test_every_space_of_at_most_three_points_agrees():
    count = 0
    for space in small_spaces():
        assert_space_agrees(space)
        count += 1
    assert count == 6980


def test_stability_and_openness_match_the_definitions():
    for space in small_spaces():
        top = _topology(space)
        unions, literal_opens = oracles.basis_unions(space), oracles.opens(space)
        assert top.stable == all(u & v in unions for u in space.basis for v in space.basis)
        for s in range(1 << space.n_points):
            assert top.is_open(s) == (members(s, space.n_points) in literal_opens), (space, s)


def assert_dual_traffic_agrees(algebra) -> int:
    """The dual space of the algebra and of its completion, F(unit) and the
    counit; returns the largest basis seen.  ``dual_of`` runs no check, as
    its spaces are valid by construction, so each is asserted valid here."""
    record = dual_of(algebra)
    completion = dual_of(record.sections.algebra)
    for space in (record.space, completion.space):
        report = validate_etale(space)
        assert report.ok and report.discrete, space
        assert report == oracles.validate_etale(space), space
    for m in (F_morphism(unit_eta(algebra)), _counit(record.sections)):
        assert validate_morphism(m) == oracles.validate_morphism(m)
    return max(len(record.space.basis), len(completion.space.basis))


def test_corpus_dual_traffic_agrees(closure_corpus):
    for concrete in closure_corpus:
        assert_dual_traffic_agrees(abstract(concrete))
    assert len(closure_corpus) == 1944


def test_three_seed_dual_traffic_agrees():
    largest = max(
        assert_dual_traffic_agrees(abstract(closed))
        for closed in three_seed_closures(random.Random(2), 40)
    )
    assert largest >= 48


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_generated_spaces_agree(space):
    assert_space_agrees(space)


def test_seeded_non_stable_spaces_agree():
    # a non-stable basis is decided on the topology it generates; plain
    # random bases of four and five points are mostly non-stable
    rng = random.Random(0)
    count = 0
    while count < 1000:
        n = rng.randint(4, 5)
        n_base = rng.randint(1, n)
        projection = tuple(rng.randrange(n_base) for _ in range(n))
        basis = tuple(members(rng.randrange(1 << n), n) for _ in range(rng.randint(2, 7)))
        space = EtaleSpace(n, n_base, projection, basis)
        if not validate_etale(space).basis_intersection_stable:
            assert_space_agrees(space)
            count += 1


@st.composite
def morphisms(draw) -> SpaceMorphism:
    source = draw(spaces(1, 4))
    target = draw(spaces(1, 4))
    mapping = draw(
        st.lists(
            st.integers(-1, target.n_points - 1),
            min_size=source.n_points,
            max_size=source.n_points,
        )
    )
    return SpaceMorphism(source, target, tuple(mapping))


def test_every_point_map_between_spaces_of_at_most_two_points_agrees():
    spaces = [space for space in small_spaces() if space.n_points <= 2]
    count = 0
    for source in spaces:
        for target in spaces:
            for mapping in product(range(-1, target.n_points), repeat=source.n_points):
                m = SpaceMorphism(source, target, mapping)
                assert validate_morphism(m) == oracles.validate_morphism(m), m
                count += 1
    assert count == 38688


@settings(max_examples=300, deadline=None)
@given(morphisms())
def test_morphism_checks_agree(m):
    assert validate_morphism(m) == oracles.validate_morphism(m)
    assert is_space_isomorphism(m) == oracles.is_space_isomorphism(m)


@settings(max_examples=200, deadline=None)
@given(spaces(1, 5), st.data())
def test_isomorphism_check_agrees_on_bijections(space, data):
    perm = data.draw(st.permutations(range(space.n_points)))
    other = data.draw(spaces(space.n_points, space.n_points))
    for target in (space, other):
        m = SpaceMorphism(space, target, tuple(perm))
        assert is_space_isomorphism(m) == oracles.is_space_isomorphism(m)


@st.composite
def relations(draw) -> SpaceRelation:
    space = draw(spaces(1, 4))
    arity = draw(st.integers(1, 2))
    point = st.integers(0, space.n_points - 1)
    tuples = draw(st.frozensets(st.tuples(*[point] * (arity + 1)), max_size=12))
    return SpaceRelation("r", space, arity, tuples)


@settings(max_examples=200, deadline=None)
@given(relations())
def test_relation_checks_agree(rel):
    assert check_relation_properties(rel) == oracles.check_relation_properties(rel)


@settings(max_examples=200, deadline=None)
@given(valid_spaces(), st.data())
def test_applying_a_relation_agrees(space, data):
    """The operation a relation induces applies it, by an OR-fold of its
    image, to every tuple of sections: each entry against the literal
    application, or a refusal when the relation induces no operation."""
    arity = data.draw(st.integers(1, 2))
    point = st.integers(0, space.n_points - 1)
    tuples = data.draw(st.frozensets(st.tuples(*[point] * (arity + 1)), max_size=8))
    rel = SpaceRelation("r", space, arity, tuples)
    report = check_relation_properties(rel)
    if not (report.compatibility_property and report.spectral):
        with pytest.raises(OperatorCheckError, match="does not induce an operation"):
            operation_from_relation(space, rel)
        return
    dual, table = operation_from_relation(space, rel)
    assert table.entries == oracles.relation_table(rel, dual)
