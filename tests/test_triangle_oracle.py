"""The triangle identities, the naturality square of the unit and the density
of a completion, decided on masks, against the composite maps and the join
scan in ``oracles``; and F on maps, which refuses a map exactly when
``hom_check`` finds it no homomorphism.

Both triangle verdicts are compared on every corpus algebra, on seeded
three-seed closures on carrier 4 and their completions, on the
eighteen-element completion and on generated valid spaces, which anchor the
space side.  The oracle checks G of each counit with ``hom_check`` on the
way.  Density is compared on the canonical embeddings of the same algebras,
on their identity maps, whose targets are often incomplete, and on
inclusions of subalgebras, which are often not dense; both verdicts occur.
The η square is compared on every corpus identity map, on one subalgebra
inclusion per corpus size and on every homomorphism among seeded maps
between corpus algebras of at most 9 elements; the maps that are not
homomorphisms are refused at the pullback or as morphisms, with no dual
space built on the way.  The λ square,
which holds by proof, is compared with its composites on the identity and
counit of every fixture's dual space and of generated valid spaces, on F of
the seeded homomorphisms, and on refused morphisms and spaces, where the
refusal and its order must agree.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings

import oracles
from conftest import abstract, eighteen_element_completion, outcome, three_seed_closures, valid_spaces
from drest import duality
from drest.dra import AlgebraMap, FiniteAlgebra, OpTable, bottom, hom_check, identity_map
from drest.duality import (
    NOWHERE,
    EtaleSpace,
    F_morphism,
    F_object,
    G_object,
    InvalidMorphism,
    InvalidSpace,
    SpaceMorphism,
    check_triangle_identities,
    complete,
    completion_report,
    counit_lambda,
    dual_of,
    eta_naturality_square,
    identity_morphism,
    lambda_naturality_square,
    unit_eta,
)
from drest.fixtures import FIXTURES, get_fixture, inclusion_disjoint_into_boolean


def assert_triangles_agree(obj) -> None:
    report = check_triangle_identities(obj)
    assert report == oracles.check_triangle_identities(obj)
    assert report.ok


def subalgebra_inclusion(alg: FiniteAlgebra, generators) -> AlgebraMap:
    """The inclusion of the closure of the generators under difference and
    restriction."""
    members = set(generators)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (alg.m(x, y), alg.m(y, x), alg.r(x, y), alg.r(y, x)):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    order = sorted(members)
    position = {x: i for i, x in enumerate(order)}
    k = len(order)

    def table(name, op) -> OpTable:
        return OpTable(name, 2, k, tuple(position[op(x, y)] for x in order for y in order))

    sub = FiniteAlgebra(
        tuple(alg.elements[x] for x in order), table("minus", alg.m), table("rest", alg.r)
    )
    return AlgebraMap(sub, alg, tuple(order))


def density_maps(alg: FiniteAlgebra, rng: random.Random):
    yield unit_eta(alg)
    yield identity_map(alg)
    yield subalgebra_inclusion(alg, rng.sample(range(alg.n), min(alg.n, rng.randint(1, 2))))


def test_corpus_verdicts_agree(closure_corpus):
    rng = random.Random(7)
    dense = {True: 0, False: 0}
    complete_target = {True: 0, False: 0}
    for concrete in closure_corpus:
        alg = abstract(concrete)
        assert_triangles_agree(alg)
        for m in density_maps(alg, rng):
            report = completion_report(m)
            assert report.image_dense == oracles.image_dense(m)
            dense[report.image_dense] += 1
            complete_target[report.target_complete] += 1
    assert len(closure_corpus) == 1944
    assert min(dense.values()) > 100 and min(complete_target.values()) > 100, (dense, complete_target)


@pytest.mark.parametrize("seed", [3, 8, 13])
def test_three_seed_closures_and_completions_agree(seed):
    rng = random.Random(seed)
    for closed in three_seed_closures(rng, 15):
        alg = abstract(closed)
        completed, _ = complete(alg)
        for obj in (alg, completed, F_object(alg)):
            assert_triangles_agree(obj)
        for target in (alg, completed):
            for m in density_maps(target, rng):
                assert completion_report(m).image_dense == oracles.image_dense(m)


def test_eighteen_element_completion_agrees():
    alg = eighteen_element_completion()
    completed, iota = complete(alg)
    for obj in (alg, completed, F_object(alg), F_object(completed)):
        assert_triangles_agree(obj)
    assert completion_report(iota).image_dense and oracles.image_dense(iota)
    for m in density_maps(completed, random.Random(1)):
        assert completion_report(m).image_dense == oracles.image_dense(m)


@settings(max_examples=60, deadline=None)
@given(valid_spaces())
def test_generated_spaces_agree(space):
    assert_triangles_agree(space)
    assert_triangles_agree(G_object(space).algebra)


def assert_eta_squares_agree(h: AlgebraMap) -> None:
    assert eta_naturality_square(h) == oracles.eta_naturality_square(h)


def test_eta_square_agrees_with_the_composite(closure_corpus):
    rng = random.Random(17)
    by_size: dict[int, list[FiniteAlgebra]] = {}
    for concrete in closure_corpus:
        alg = abstract(concrete)
        assert_eta_squares_agree(identity_map(alg))
        by_size.setdefault(alg.n, []).append(alg)
    assert_eta_squares_agree(inclusion_disjoint_into_boolean())
    proper = 0
    for n, algebras in sorted(by_size.items()):
        incl = subalgebra_inclusion(rng.choice(algebras), rng.sample(range(n), min(n, 2)))
        assert_eta_squares_agree(incl)
        proper += incl.source.n < n
    assert len(by_size) == 8 and proper > 3, (len(by_size), proper)


def test_eta_square_builds_no_completion():
    alg = eighteen_element_completion()
    assert eta_naturality_square(identity_map(alg))
    assert dual_of(alg)._sections is None


def seeded_maps(algebras: list[FiniteAlgebra], rng: random.Random, count: int):
    """Homomorphisms (identities, bottom maps, units, subalgebra inclusions)
    and maps that are not (random tables, and half of all maps with one
    entry moved)."""
    for _ in range(count):
        a, b = rng.choice(algebras), rng.choice(algebras)
        kind = rng.randrange(5)
        if kind == 0:
            h = identity_map(a)
        elif kind == 1:
            h = AlgebraMap(a, b, (bottom(b),) * a.n)
        elif kind == 2:
            h = unit_eta(a)
        elif kind == 3:
            h = subalgebra_inclusion(a, rng.sample(range(a.n), min(a.n, rng.randint(1, 3))))
        else:
            h = AlgebraMap(a, b, tuple(rng.randrange(b.n) for _ in range(a.n)))
        if rng.random() < 0.5:
            table = list(h.table)
            table[rng.randrange(a.n if kind != 3 else h.source.n)] = rng.randrange(h.target.n)
            h = AlgebraMap(h.source, h.target, tuple(table))
        yield h


def test_F_refuses_exactly_the_maps_that_are_no_homomorphisms(closure_corpus):
    small = [abstract(c) for c in closure_corpus if len(c.elements) <= 9]
    seen = Counter()
    for h in seeded_maps(small, random.Random(29), 3000):
        hom = hom_check(h).is_hom
        try:
            dual = F_morphism(h)
        except InvalidMorphism:
            seen["no morphism"] += 1
            assert not hom
        except ValueError as exc:
            seen["pullback"] += 1
            assert not hom and str(exc) == "not a homomorphism: a filter preimage is not maximal"
        else:
            seen["homomorphism"] += 1
            assert hom and dual.mapping == oracles.F_morphism(h)
            assert_eta_squares_agree(h)
    assert min(seen["homomorphism"], seen["pullback"]) > 500 and seen["no morphism"] > 5, seen


def test_eta_square_builds_no_dual_space(closure_corpus, monkeypatch):
    small = [abstract(c) for c in closure_corpus if len(c.elements) <= 9]
    maps = list(seeded_maps(small, random.Random(37), 1500))

    def refuse(*args):
        raise AssertionError("built")

    with monkeypatch.context() as patch:
        patch.setattr(duality, "_dual_space", refuse)
        got = [outcome(eta_naturality_square, h) for h in maps]
    assert got == [outcome(oracles.eta_naturality_square, h) for h in maps]
    seen = Counter(v if v is True else v[0].__name__ for v in got)
    assert [v is True for v in got] == [hom_check(h).is_hom for h in maps]
    assert min(seen[True], seen["ValueError"]) > 250 and seen["InvalidMorphism"] > 2, seen


def assert_lambda_squares_agree(m: SpaceMorphism) -> None:
    assert lambda_naturality_square(m) is oracles.lambda_naturality_square(m) is True


def test_lambda_square_agrees_on_fixture_duals():
    for name in FIXTURES:
        if name != "broken_restriction":
            space = F_object(get_fixture(name).algebra)
            assert_lambda_squares_agree(identity_morphism(space))
            assert_lambda_squares_agree(counit_lambda(space))


@settings(max_examples=60, deadline=None)
@given(valid_spaces())
def test_lambda_square_agrees_on_generated_spaces(space):
    assert_lambda_squares_agree(identity_morphism(space))
    assert_lambda_squares_agree(counit_lambda(space))


def test_lambda_square_agrees_on_duals_of_homomorphisms(closure_corpus):
    small = [abstract(c) for c in closure_corpus if len(c.elements) <= 9]
    squares = 0
    for h in seeded_maps(small, random.Random(31), 1500):
        if hom_check(h).is_hom:
            assert_lambda_squares_agree(F_morphism(h))
            squares += 1
    assert squares > 300, squares


def test_lambda_square_refuses_as_the_composite_does():
    one = EtaleSpace(1, 1, (0,), (frozenset({0}),))
    split = EtaleSpace(2, 2, (0, 1), (frozenset({0}), frozenset({1})))
    pair = EtaleSpace(2, 1, (0, 0), (frozenset({0}), frozenset({1})))
    lumped = EtaleSpace(2, 1, (0, 0), (frozenset({0, 1}),))  # not Hausdorff
    uncovered = EtaleSpace(1, 1, (0,), ())  # no open set around the point
    lumped_fails = "projection not a local homeomorphism; points not separated by disjoint opens"
    cases = [
        # one fibre sent into two: no morphism, whatever the spaces
        (SpaceMorphism(pair, split, (0, 1)), InvalidMorphism, "does not preserve equivalence"),
        (SpaceMorphism(lumped, split, (0, 1)), InvalidMorphism,
         "not continuous; does not preserve equivalence"),
        # a morphism with an invalid space, the source checked first
        (SpaceMorphism(lumped, lumped, (0, 1)), InvalidSpace, lumped_fails),
        (SpaceMorphism(lumped, uncovered, (NOWHERE, NOWHERE)), InvalidSpace, lumped_fails),
        (SpaceMorphism(one, uncovered, (0,)), InvalidSpace, "projection not a local homeomorphism"),
    ]
    for m, kind, message in cases:
        got = outcome(lambda_naturality_square, m)
        assert got == outcome(oracles.lambda_naturality_square, m) == (kind, message)
