"""The axiom validator and the representation that decides it, against the
numpy array versions kept in ``oracles``.

Whole ``ValidationReport``s are compared, so the witnesses must agree in
number and in order (law by law, then row-major), and an algebra must have a
representation exactly when its report is ok.  Every algebra compared is
also asked whether it is a subtraction algebra, row by row against the
oracle's pair loop, and so are the section algebras of generated spaces.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import abstract, valid_spaces
from drest import dra
from drest.dra import (
    FiniteAlgebra,
    OpTable,
    bits,
    bottom,
    is_subtraction_algebra,
    representation,
    up_masks,
    validate_axioms,
)
from drest.duality import G_object, dual_of
from drest.filters import maximal_filters
from drest.fixtures import FIXTURES, get_fixture


def checked_report(alg: FiniteAlgebra) -> dra.ValidationReport:
    """The report, asserted equal to the oracle's and to be ok exactly when
    the algebra has a representation."""
    report = validate_axioms(alg)
    assert report == oracles.validate_axioms(alg)
    assert (representation(alg) is not None) == report.ok
    assert is_subtraction_algebra(alg) == oracles.is_subtraction_algebra(alg)
    return report


def corrupted(alg: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    """The algebra with 1-3 entries of its minus or rest table changed."""
    tables = {"minus": list(alg.minus.entries), "rest": list(alg.rest.entries)}
    for _ in range(rng.randint(1, 3)):
        entries = tables[rng.choice(("minus", "rest"))]
        entries[rng.randrange(len(entries))] = rng.randrange(alg.n)
    return FiniteAlgebra(
        alg.elements, *(OpTable(name, 2, alg.n, tuple(e)) for name, e in tables.items())
    )


def test_corpus_reports_match_the_oracle(closure_corpus):
    for concrete in closure_corpus:
        assert checked_report(abstract(concrete)).ok


def test_fixture_reports_match_the_oracle():
    for name in FIXTURES:
        checked_report(get_fixture(name).algebra)
    assert not validate_axioms(get_fixture("broken_restriction").algebra).ok


def test_corrupted_corpus_tables_match_the_oracle(closure_corpus):
    rng = random.Random(4)
    failing = set()
    for concrete in closure_corpus:
        report = checked_report(corrupted(abstract(concrete), rng))
        failing.update(v.axiom for v in report.violations)
    # every law, and the bottom check, is seen failing
    assert failing == {"no-constant-bottom", *(f"law-{i}" for i in range(1, 6))}


@st.composite
def random_tables(draw) -> FiniteAlgebra:
    n = draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    minus, rest = draw(entries), draw(entries)
    if draw(st.booleans()):
        # a constant diagonal, so that the five laws are reached
        bot = draw(st.integers(0, n - 1))
        minus[:: n + 1] = [bot] * n
    return FiniteAlgebra(
        tuple(f"e{i}" for i in range(n)),
        OpTable("minus", 2, n, tuple(minus)),
        OpTable("rest", 2, n, tuple(rest)),
    )


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_random_tables_match_the_oracle(alg):
    checked_report(alg)


@settings(max_examples=60, deadline=None)
@given(valid_spaces())
def test_subtraction_verdicts_of_generated_section_algebras_match_the_oracle(space):
    # restriction is the meet exactly when each fibre is one point
    alg = G_object(space).algebra
    assert is_subtraction_algebra(alg) == oracles.is_subtraction_algebra(alg)
    assert is_subtraction_algebra(alg) == (space.n_points == space.n_base)


def unsound_first_draft() -> FiniteAlgebra:
    """Its one atom a has r(a, a) = x - x, not a, so a class builder that
    starts each class from a point's partners leaves a in none; it fails
    law 5."""
    return FiniteAlgebra(
        ("x", "y"), OpTable("minus", 2, 2, (0, 0, 1, 0)), OpTable("rest", 2, 2, (0, 0, 0, 0))
    )


def two_points_in_one_class() -> FiniteAlgebra:
    """The subsets of two points p, q of one class under set difference and
    restriction to the classes met.  Every condition of the representation
    holds but one: the support of {p, q} meets the class twice, and law 5
    fails."""
    masks = range(4)
    minus = tuple(x & ~y for x in masks for y in masks)
    rest = tuple(y if x else 0 for x in masks for y in masks)
    return FiniteAlgebra(
        ("0", "p", "q", "pq"), OpTable("minus", 2, 4, minus), OpTable("rest", 2, 4, rest)
    )


@pytest.mark.parametrize("alg", [unsound_first_draft(), two_points_in_one_class()])
def test_pinned_tables_without_a_representation(alg):
    assert representation(alg) is None
    assert {v.axiom for v in checked_report(alg).violations} == {"law-5"}


@pytest.mark.parametrize("alg", [unsound_first_draft(), get_fixture("broken_restriction").algebra])
def test_no_dual_without_a_representation(alg):
    with pytest.raises(ValueError, match="not represented"):
        maximal_filters(alg)
    with pytest.raises(ValueError, match="not represented"):
        dual_of(alg)


def test_represented_algebras_never_walk_the_laws(closure_corpus, monkeypatch):
    calls = []
    original = dra.picker
    monkeypatch.setattr(dra, "picker", lambda positions: calls.append(1) or original(positions))
    for concrete in closure_corpus:
        assert validate_axioms(abstract(concrete)).ok
    assert not calls
    assert not validate_axioms(get_fixture("broken_restriction").algebra).ok
    assert calls


def test_every_maximal_filter_passes_the_dichotomy_oracle(closure_corpus):
    # the up-sets of the elements other than the bottom are the proper
    # filters; the oracle's predicate holds on exactly the maximal ones
    verdicts = {True: 0, False: 0}
    for concrete in closure_corpus:
        alg = abstract(concrete)
        minus = oracles.as_array(alg.minus)
        points = set(maximal_filters(alg).points)
        for e, up in enumerate(up_masks(alg)):
            if e != bottom(alg):
                verdict = oracles._is_maximal_by_dichotomy(minus, frozenset(bits(up)))
                assert verdict == (up in points)
                verdicts[verdict] += 1
    assert min(verdicts.values()) > 1000
