"""The triangle identities and the density of a completion, decided on masks,
against the composite maps and the join scan in ``oracles``.

Both triangle verdicts are compared on every corpus algebra, on seeded
three-seed closures on carrier 4 and their completions, on the
eighteen-element completion and on generated valid spaces, which anchor the
space side.  The oracle checks G of each counit with ``hom_check`` on the
way.  Density is compared on the canonical embeddings of the same algebras,
on their identity maps, whose targets are often incomplete, and on
inclusions of subalgebras, which are often not dense; both verdicts occur.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import oracles
from conftest import abstract, eighteen_element_completion, three_seed_closures, valid_spaces
from drest.dra import AlgebraMap, FiniteAlgebra, OpTable, identity_map
from drest.duality import (
    F_object,
    G_object,
    check_triangle_identities,
    complete,
    completion_report,
    unit_eta,
)


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
