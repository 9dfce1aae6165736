"""The subtraction-algebra checks and the transport between completions,
decided by proof, against the scans over built completions in ``oracles``.

``stone_restriction_checks`` is compared field for field, refusals included,
on every corpus algebra, on random tables (with or without a
representation) and on generated identity-projection spaces, valid or not.
``_factoring_embedding`` is compared on every ordered pair of four
embeddings of every third corpus algebra: its unit, its identity (into an
incomplete target for most), its completion with the elements shuffled, and
its inclusion into all partial functions on its carrier, which is complete
but seldom dense.  ``unique_completion_iso`` (unit against shuffled unit)
and ``completion_characterizations`` (all four as extensions) are compared
on every second corpus algebra with the oracle transport put in its place,
and a transport between targets sharing an operation is compared once where
it keeps the operation and once where it does not.  A guard test makes every section algebra, composite and
``hom_check`` raise, and the λ square, both Stone branches and the transport
still answer.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import abstract, eighteen_element_completion, outcome, relabelled
from drest import duality
from drest.dra import AlgebraMap, FiniteAlgebra, binary_table, from_concrete, identity_map
from drest.duality import (
    EtaleSpace,
    F_object,
    G_object,
    StoneReport,
    complete,
    completion_characterizations,
    counit_lambda,
    identity_morphism,
    lambda_naturality_square,
    stone_restriction_checks,
    unique_completion_iso,
    unit_eta,
)
from drest.fixtures import FIXTURES, boolean_four, get_fixture
from drest.pfun import Carrier, closure_generate, enumerate_all_pfs

SUBTRACTION = StoneReport(applicable=True, equiv_is_equality=True, completion_gba_laws=True)
IDENTITY_PROJECTION = StoneReport(applicable=True, dual_is_subtraction=True)


def assert_stone_agrees(obj) -> object:
    got = outcome(stone_restriction_checks, obj)
    assert got == outcome(oracles.stone_restriction_checks, obj)
    return got


def test_stone_agrees_on_the_corpus_and_the_fixtures(closure_corpus):
    seen = {True: 0, False: 0}
    for alg in [abstract(c) for c in closure_corpus] + [get_fixture(n).algebra for n in FIXTURES]:
        report = assert_stone_agrees(alg)
        assert report in (SUBTRACTION, StoneReport(applicable=False))
        seen[report.applicable] += 1
    assert min(seen.values()) > 100, seen


@st.composite
def small_tables(draw) -> FiniteAlgebra:
    """Random difference tables with a constant diagonal, with restriction
    either random or the derived meet, so that the subtraction gate opens on
    some tables without a representation."""
    n = draw(st.integers(1, 4))
    minus = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    minus[:: n + 1] = [0] * n
    if draw(st.booleans()):
        rest = [minus[x * n + minus[x * n + y]] for x in range(n) for y in range(n)]
    else:
        rest = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    return FiniteAlgebra(
        tuple(f"e{i}" for i in range(n)),
        binary_table("minus", n, lambda x, y: minus[x * n + y]),
        binary_table("rest", n, lambda x, y: rest[x * n + y]),
    )


@settings(max_examples=200, deadline=None)
@given(small_tables())
def test_stone_agrees_on_random_tables(alg):
    assert_stone_agrees(alg)


def test_stone_refuses_an_unrepresented_subtraction_table():
    # every difference and every restriction is the bottom 0, so restriction
    # is the meet x - (x - y); but x - 0 = 0, so x would share the empty
    # support with the bottom, and there is no representation
    alg = FiniteAlgebra(
        ("0", "x"),
        binary_table("minus", 2, lambda x, y: 0),
        binary_table("rest", 2, lambda x, y: 0),
    )
    assert assert_stone_agrees(alg) == (
        ValueError, "algebra is not represented by partial functions, so it has no dual space"
    )


@st.composite
def identity_projection_spaces(draw) -> EtaleSpace:
    """k points over k base points, each point its own fibre; dropping a
    singleton from the basis often makes the space invalid."""
    k = draw(st.integers(1, 7))
    dropped = draw(st.sets(st.integers(0, k - 1), max_size=2))
    unions = draw(st.lists(st.sets(st.integers(0, k - 1), min_size=1), max_size=3))
    basis = [frozenset({x}) for x in range(k) if x not in dropped] + [frozenset(u) for u in unions]
    return EtaleSpace(k, k, tuple(range(k)), tuple(basis))


@settings(max_examples=100, deadline=None)
@given(identity_projection_spaces())
def test_stone_agrees_on_identity_projection_spaces(space):
    got = assert_stone_agrees(space)
    assert got == IDENTITY_PROJECTION or got[0] is duality.InvalidSpace


def test_stone_is_not_applicable_to_other_spaces():
    for space in (F_object(get_fixture("conflicting_pair").algebra), EtaleSpace(1, 2, (0,), ())):
        assert assert_stone_agrees(space) == StoneReport(applicable=False)


# ---------------------------------------------------------------------------
# the transport between completions

def all_partial_functions(size: int) -> tuple[FiniteAlgebra, dict]:
    """The algebra of every partial function on the carrier, and the element
    of each value tuple."""
    closed = closure_generate(Carrier(size), list(enumerate_all_pfs(Carrier(size))))
    return from_concrete(closed), {f.values: i for i, f in enumerate(closed.elements)}


def shuffled(iota: AlgebraMap, rng: random.Random) -> AlgebraMap:
    """iota followed by a random relabelling of its target."""
    target = relabelled(iota.target, rng)
    position = {name: i for i, name in enumerate(target.elements)}
    return AlgebraMap(iota.source, target, tuple(position[iota.target.elements[c]] for c in iota.table))


def embeddings(concrete, everything, rng: random.Random) -> list[tuple[str, AlgebraMap]]:
    alg = abstract(concrete)
    iota = unit_eta(alg)
    full, element = everything[concrete.carrier.size]
    return [
        ("unit", iota),
        ("identity", identity_map(alg)),
        ("shuffled", shuffled(iota, rng)),
        ("all", AlgebraMap(alg, full, tuple(element[f.values] for f in concrete.elements))),
    ]


def test_transport_agrees_on_every_pair_of_corpus_embeddings(closure_corpus):
    everything = {size: all_partial_functions(size) for size in (1, 2, 3)}
    rng = random.Random(11)
    found = {True: 0, False: 0}
    for concrete in closure_corpus[::3]:
        maps = embeddings(concrete, everything, rng)
        for _, via in maps:
            for _, into in maps:
                t = duality._factoring_embedding(via, into)
                assert t == oracles._factoring_embedding(via, into)
                found[t is not None] += 1
    assert min(found.values()) > 1000, found


def test_transport_checks_the_operations_both_targets_share():
    alg = get_fixture("single_point").algebra
    ident = binary_table("f", alg.n, lambda x, y: x)
    bottoms = binary_table("f", alg.n, lambda x, y: 0)
    via = AlgebraMap(alg, alg.with_ops([ident]), tuple(range(alg.n)))
    for table, kept in ((ident, True), (bottoms, False)):
        into = AlgebraMap(alg, alg.with_ops([table]), tuple(range(alg.n)))
        t = duality._factoring_embedding(via, into)
        assert t == oracles._factoring_embedding(via, into)
        assert (t is not None) == kept


def test_uniqueness_and_characterisations_agree_with_the_oracle_transport(
    closure_corpus, monkeypatch
):
    everything = {size: all_partial_functions(size) for size in (1, 2, 3)}
    cases = []
    for concrete in closure_corpus[::2]:
        maps = embeddings(concrete, everything, random.Random(len(cases)))
        cases.append((maps[0][1], maps[2][1], maps))

    def answers():
        return [
            (unique_completion_iso(iota, other), completion_characterizations(iota, maps))
            for iota, other, maps in cases
        ]

    got = answers()
    monkeypatch.setattr(duality, "_factoring_embedding", oracles._factoring_embedding)
    assert got == answers()
    entries = [e for _, found in got for e in found]
    for field in ("smallest_applicable", "smallest_factors", "largest_applicable", "largest_factors"):
        assert {getattr(e, field) for e in entries} == {True, False}, field


# ---------------------------------------------------------------------------
# what the proofs no longer build

def discrete_space(k: int) -> EtaleSpace:
    """k points, each its own fibre, with the singletons as basis: 2^k
    sections."""
    return EtaleSpace(k, k, tuple(range(k)), tuple(frozenset({x}) for x in range(k)))


def test_the_proofs_build_no_section_algebra_composite_or_hom_check(monkeypatch):
    alg = eighteen_element_completion()
    space = F_object(alg)
    squares = [identity_morphism(space), counit_lambda(space)]
    iota = unit_eta(alg)
    moved = shuffled(iota, random.Random(5))
    theta = oracles._factoring_embedding(iota, moved)
    # the eighteen-element completion does not embed in the eight-element algebra
    assert oracles._factoring_embedding(iota, identity_map(alg)) is None

    def refuse(*args):
        raise AssertionError("built")

    for name in ("_section_algebra", "hom_check", "_counit", "_G_morphism", "F_morphism",
                 "complete"):
        monkeypatch.setattr(duality, name, refuse)
    assert all(map(lambda_naturality_square, squares))
    assert stone_restriction_checks(boolean_four().algebra) == SUBTRACTION
    assert stone_restriction_checks(discrete_space(4)) == IDENTITY_PROJECTION
    assert duality._factoring_embedding(iota, moved) == theta is not None
    assert duality._factoring_embedding(iota, identity_map(alg)) is None


def eleven_disjoint_atoms() -> FiniteAlgebra:
    """The bottom and 11 atoms with disjoint domains: a subtraction algebra
    whose completion has 2^11 elements."""
    return FiniteAlgebra(
        ("0", *(f"a{i}" for i in range(11))),
        binary_table("minus", 12, lambda x, y: 0 if x == y else x),
        binary_table("rest", 12, lambda x, y: y if x == y else 0),
    )


def test_the_proofs_answer_past_the_section_cap():
    # these three were refused with "sections capped at 1024" while the
    # checks built the section algebras
    twelve = discrete_space(12)
    with pytest.raises(ValueError, match="capped at"):
        G_object(twelve)
    assert lambda_naturality_square(identity_morphism(twelve))
    atoms = eleven_disjoint_atoms()
    with pytest.raises(ValueError, match="capped at"):
        complete(atoms)
    assert stone_restriction_checks(atoms) == SUBTRACTION
    assert stone_restriction_checks(discrete_space(11)) == IDENTITY_PROJECTION
