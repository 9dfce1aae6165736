"""The row-wise axiom validator and dichotomy predicate against the numpy
array versions kept in ``oracles``.

Whole ``ValidationReport``s are compared, so the witnesses must agree in
number and in order (law by law, then row-major).
"""
from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import oracles
from conftest import abstract
from drest.dra import FiniteAlgebra, OpTable, up_masks, validate_axioms
from drest.filters import dichotomy, from_mask
from drest.fixtures import FIXTURES, get_fixture


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
        alg = abstract(concrete)
        report = validate_axioms(alg)
        assert report.ok
        assert report == oracles.validate_axioms(alg)


def test_fixture_reports_match_the_oracle():
    for name in FIXTURES:
        alg = get_fixture(name).algebra
        assert validate_axioms(alg) == oracles.validate_axioms(alg)
    assert not validate_axioms(get_fixture("broken_restriction").algebra).ok


def test_corrupted_corpus_tables_match_the_oracle(closure_corpus):
    rng = random.Random(4)
    failing = set()
    for concrete in closure_corpus:
        alg = corrupted(abstract(concrete), rng)
        report = validate_axioms(alg)
        assert report == oracles.validate_axioms(alg)
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
    assert validate_axioms(alg) == oracles.validate_axioms(alg)


def test_dichotomy_matches_the_oracle_on_up_sets_and_random_sets(closure_corpus):
    # each member set is one point of the columns table; the library decides
    # them all in one pass and the oracle one at a time
    rng = random.Random(9)
    verdicts = {True: 0, False: 0}
    for concrete in closure_corpus:
        alg = abstract(concrete)
        n = alg.n
        minus = oracles.as_array(alg.minus)
        member_sets = [from_mask(up, n) for up in up_masks(alg)]
        member_sets += [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(5)]
        columns = [
            sum(1 << p for p, members in enumerate(member_sets) if e in members)
            for e in range(n)
        ]
        fails = dichotomy(alg, columns)
        for p, members in enumerate(member_sets):
            verdict = not fails >> p & 1
            assert verdict == oracles._is_maximal_by_dichotomy(minus, members)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 1000
