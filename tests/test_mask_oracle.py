"""The point-mask paths of the dual maps and the relation layer against the
frozenset definitions in ``oracles``.

Supports, the counit, F on maps, the operator relation, the lifted table and
the support equation are compared on every corpus algebra (through its unit
map), on generated valid spaces (through their counit) and on operator
algebras closed under each catalogue operation.  The back-and-forth check is
compared on generated partial maps between small spaces and relations of
arity 0-2.
"""
from __future__ import annotations

import random
from collections import Counter
from itertools import product

from hypothesis import given, settings, strategies as st

import oracles
from conftest import abstract, operator_cases, valid_spaces
from drest.dra import hom_check
from drest.duality import (
    NOWHERE,
    EtaleSpace,
    F_morphism,
    G_morphism,
    G_object,
    SpaceMorphism,
    _counit,
    counit_lambda,
    dual_of,
    space_morphism,
    unit_eta,
)
from drest.filters import maximal_filters
from drest.operators import (
    SpaceRelation,
    _relation_table,
    check_eta_preserves_operator,
    check_morphism_back_forth,
    check_relation_properties,
    classify_operator,
    relation_from_operator,
)


def assert_dual_maps_agree(algebra) -> None:
    mfs = maximal_filters(algebra)
    hats, points = oracles.as_sets(mfs.hats), oracles.as_sets(mfs.points)
    for e in range(algebra.n):
        assert hats[e] == oracles.hat(points, e)
    eta = unit_eta(algebra)
    assert F_morphism(eta).mapping == oracles.F_morphism(eta)
    sections = dual_of(algebra).sections
    assert _counit(sections).mapping == oracles.counit(sections)


def test_corpus_dual_maps_agree(closure_corpus):
    for concrete in closure_corpus:
        assert_dual_maps_agree(abstract(concrete))
    assert len(closure_corpus) == 1944


@settings(max_examples=100, deadline=None)
@given(valid_spaces(), st.data())
def test_generated_space_dual_maps_agree(space, data):
    sections = G_object(space)
    assert _counit(sections).mapping == oracles.counit(sections)
    assert_dual_maps_agree(sections.algebra)
    # F of a map between two different algebras
    back = G_morphism(counit_lambda(space))
    assert hom_check(back).is_hom
    assert F_morphism(back).mapping == oracles.F_morphism(back)
    # the identity on some whole fibres is a partial morphism; F of its dual
    # is undefined on the points whose filter misses the image
    kept = data.draw(st.sets(st.integers(0, space.n_base - 1)))
    partial = space_morphism(
        space, space, [x if b in kept else NOWHERE for x, b in enumerate(space.projection)]
    )
    restricted = G_morphism(partial)
    assert hom_check(restricted).is_hom
    assert F_morphism(restricted).mapping == oracles.F_morphism(restricted)


def test_operator_relation_layer_agrees(closure_corpus):
    seen = {"relations": 0, "lifted": 0, "eta": 0}
    for alg, table in operator_cases(closure_corpus, 40):
        rel = relation_from_operator(alg, table)
        assert rel.tuples == oracles.relation_from_operator(alg, table)
        seen["relations"] += 1
        report = check_relation_properties(rel)
        if report.compatibility_property and report.spectral:
            sections = dual_of(alg).sections
            assert _relation_table(rel, sections).entries == oracles.relation_table(rel, sections)
            seen["lifted"] += 1
        if classify_operator(alg, table).is_compat_preserving_operator:
            literal = SpaceRelation(table.name, rel.space, table.arity, oracles.relation_from_operator(alg, table))
            assert literal == rel and hash(literal) == hash(rel)
            assert check_eta_preserves_operator(alg, table) == oracles.check_eta_preserves_operator(
                alg, table, literal
            )
            seen["eta"] += 1
    assert min(seen.values()) >= 200, seen


def back_forth_case(rng: random.Random):
    """A partial map between discrete spaces of 1-4 points and two relations
    of one arity in 0-2: the source one pulled back from the target one
    through the map, and either one changed in a tuple or two, so that each
    of the four verdict pairs occurs."""
    spaces = []
    for _ in range(2):
        n = rng.randint(1, 4)
        base = rng.randint(1, n)
        projection = tuple(rng.randrange(base) if x >= base else x for x in range(n))
        spaces.append(EtaleSpace(n, base, projection, tuple(frozenset({x}) for x in range(n))))
    source, target = spaces
    arity = rng.randint(0, 2)
    phi = tuple(rng.choice([NOWHERE, *range(target.n_points)]) for _ in range(source.n_points))
    density = rng.random()
    tgt = {t for t in product(range(target.n_points), repeat=arity + 1) if rng.random() < density}
    src = {
        t
        for t in product(range(source.n_points), repeat=arity + 1)
        if NOWHERE not in (phi[x] for x in t) and tuple(phi[x] for x in t) in tgt
    }
    for tuples, space in ((src, source), (tgt, target)):
        for _ in range(rng.choice([0, 0, 1, 2])):
            tuples.symmetric_difference_update(
                {tuple(rng.randrange(space.n_points) for _ in range(arity + 1))}
            )
    return (
        SpaceMorphism(source, target, phi),
        SpaceRelation("s", source, arity, frozenset(src)),
        SpaceRelation("t", target, arity, frozenset(tgt)),
    )


def test_back_and_forth_agrees():
    rng = random.Random(17)
    seen = Counter()
    for _ in range(2000):
        case = back_forth_case(rng)
        report = check_morphism_back_forth(*case)
        assert report == oracles.check_morphism_back_forth(*case), case
        seen[report.reverse_forth, report.back] += 1
    assert len(seen) == 4 and min(seen.values()) >= 50, seen
