"""The dual record's views against the eager builders in ``oracles``.

A dual record holds masks, its points and sections among them, and builds
the space F(A) and the sections' space when they are first read; continuity
is decided on the least neighbourhoods of the target.  Each view must equal
the eagerly built value, the point and section masks read as sets the sets
built from the supports or over the space, and each morphism report the one
that asks continuity of every basis set: on the corpus, on three-seed
closures, on their completions and on generated spaces, with generated point
maps that fail each condition.  Equality compares what the views are built
from.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import oracles
from conftest import abstract, small_spaces, three_seed_closures, valid_spaces
from drest.dra import from_concrete
from drest.duality import (
    NOWHERE,
    EtaleSpace,
    F_morphism,
    F_object,
    G_object,
    SpaceMorphism,
    _topology,
    counit_lambda,
    dual_of,
    unit_eta,
    validate_morphism,
)
from drest.filters import maximal_filters


def copy(space: EtaleSpace) -> EtaleSpace:
    """The same space with no topology kept on it."""
    return EtaleSpace(space.n_points, space.n_base, space.projection, space.basis, space.point_labels)


def assert_morphisms_agree(*morphisms: SpaceMorphism) -> None:
    for m in morphisms:
        assert validate_morphism(m) == oracles.validate_morphism_on_basis(m), m


def assert_sections_agree(space: EtaleSpace) -> None:
    """G of a valid space and its counit against the eager builders."""
    dual = G_object(space)
    assert oracles.as_sets(dual.sections) == oracles.section_sets(dual)
    counit = counit_lambda(space)
    assert counit.mapping == oracles.counit(dual)
    assert_morphisms_agree(counit)


def assert_record_views_agree(algebra) -> int:
    """F(A), its points, topology, sections, counit and F(unit) against the
    eager builders, for the algebra and its completion; returns the number
    of points."""
    for alg in (algebra, dual_of(algebra).sections.algebra):
        record = dual_of(alg)
        space = F_object(alg)
        assert space == oracles.dual_space(alg)
        assert oracles.as_sets(record.mfs.points) == oracles.points_from_hats(record.mfs)
        assert maximal_filters(alg).points == record.mfs.points
        # the record's O(k) topology is the one a pass over the basis builds
        assert vars(_topology(space)) == vars(_topology(copy(space)))
        sections = record.sections
        assert sections.space is space
        assert oracles.as_sets(sections.sections) == oracles.section_sets(sections)
        assert G_object(space) == sections
        assert_sections_agree(space)
        assert_morphisms_agree(F_morphism(unit_eta(alg)))
    return space.n_points


def test_corpus_record_views_agree(closure_corpus):
    for concrete in closure_corpus:
        assert_record_views_agree(abstract(concrete))
    assert len(closure_corpus) == 1944


def test_three_seed_record_views_agree():
    largest = max(
        assert_record_views_agree(abstract(closed))
        for closed in three_seed_closures(random.Random(3), 40)
    )
    assert largest >= 7


@settings(max_examples=100, deadline=None)
@given(valid_spaces())
def test_generated_space_views_agree(space):
    assert_sections_agree(space)
    assert_record_views_agree(G_object(space).algebra)


@pytest.mark.parametrize("space_first", [True, False])
def test_the_record_and_its_sections_share_one_space(closure_corpus, space_first):
    alg = from_concrete(closure_corpus[-1])
    record = dual_of(alg)
    if space_first:
        space = record.space
        assert record.sections.space is space
    else:
        space = record.sections.space
        assert record.space is space
    assert space == oracles.dual_space(alg)


def random_space(rng: random.Random, n: int) -> EtaleSpace:
    """n points over an onto projection, with the singletons of some points
    and a few random sets as basis: often not discrete, and not always
    stable or covering."""
    n_base = rng.randint(1, n)
    projection = list(range(n_base)) + [rng.randrange(n_base) for _ in range(n - n_base)]
    rng.shuffle(projection)
    basis = [frozenset({x}) for x in range(n) if rng.random() < 0.5]
    basis += [frozenset(x for x in range(n) if rng.random() < 0.5) for _ in range(rng.randint(0, 4))]
    return EtaleSpace(n, n_base, tuple(projection), tuple(basis))


def test_generated_point_maps_agree(closure_corpus):
    """Point maps between random spaces and the dual spaces of the corpus,
    every failure among them."""
    rng = random.Random(7)
    duals = [F_object(abstract(c)) for c in closure_corpus[::40]]
    seen = {failure: 0 for failure in (
        "not continuous", "does not preserve equivalence",
        "not fibrewise injective", "not fibrewise surjective",
    )}
    valid = 0
    for _ in range(3000):
        pool = [random_space(rng, rng.randint(1, 6)), random_space(rng, rng.randint(1, 6)), rng.choice(duals)]
        source, target = rng.choice(pool), rng.choice(pool)
        if not target.n_points:
            continue
        mapping = [rng.randrange(target.n_points) if rng.random() < 0.7 else NOWHERE
                   for _ in range(source.n_points)]
        m = SpaceMorphism(source, target, tuple(mapping))
        report = validate_morphism(m)
        assert report == oracles.validate_morphism_on_basis(m), m
        for failure in report.failures:
            seen[failure] += 1
        valid += report.ok
    assert min(seen.values()) > 50 and valid > 50, (seen, valid)


def test_small_spaces_keep_the_topology_a_basis_pass_builds():
    for space in small_spaces():
        top = _topology(space)
        assert _topology(space) is top
        assert vars(top) == vars(_topology(copy(space)))


def test_equality_compares_what_the_views_are_built_from():
    # equal sections and algebras over two bases of one discrete space
    singletons = tuple(frozenset({x}) for x in range(3))
    space = EtaleSpace(3, 2, (0, 1, 1), singletons)
    wider = EtaleSpace(3, 2, (0, 1, 1), singletons + (frozenset({0, 1}),))
    assert G_object(space) == G_object(space) and hash(G_object(space)) == hash(G_object(space))
    assert G_object(space).algebra == G_object(wider).algebra
    assert G_object(space) != G_object(wider)
    alg = G_object(space).algebra
    assert maximal_filters(alg) == dual_of(alg).mfs
    apart = EtaleSpace(3, 3, (0, 1, 2), singletons)
    assert maximal_filters(alg) != maximal_filters(G_object(apart).algebra)


def test_unequal_record_sections_build_no_space():
    from drest.fixtures import get_fixture

    def sections(name):
        return dual_of(from_concrete(get_fixture(name).concrete)).sections

    def built(*views) -> list[bool]:
        return [isinstance(view._space, EtaleSpace) for view in views]

    names = ("disjoint_pair", "single_point", "conflicting_pair")
    pair, point, conflicting = map(sections, names)
    assert pair != conflicting and point != pair and conflicting != point
    assert built(pair, point, conflicting) == [False] * 3
    # equal masks and algebras: only the spaces tell them apart
    four = sections("boolean_four")
    assert (pair.sections, pair.algebra) == (four.sections, four.algebra)
    assert (pair == four) == (pair.space == four.space)
    assert built(pair, four) == [True, True]
