"""The table decisions of compatibility preservation and additivity against
the literal double scans in ``oracles``.

Verdicts, first witnesses and whole ``classify_operator`` reports are compared
on the operator fixtures, on every catalogue operation over a stride of the
closure corpus, on corruptions of those tables, and on generated tables of
arity 0-3 over small corpus algebras.  Each comparison counts the failures it
saw, so a corpus on which one side never fails cannot pass for agreement.
"""
from __future__ import annotations

import random
from collections import Counter
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

import oracles
from conftest import abstract, operator_cases
from drest import operators
from drest.dra import OpTable
from drest.operators import check_additive, check_compat_preserving, classify_operator


def assert_agree(algebra, table, seen: Counter) -> None:
    compat = oracles.check_compat_preserving(algebra, table)
    additive = oracles.check_additive(algebra, table)
    assert check_compat_preserving(algebra, table) == compat
    assert check_additive(algebra, table) == additive
    # the report the literal scans give, rendered by the same classifier
    with patch.multiple(
        operators,
        check_compat_preserving=lambda *_: compat,
        check_additive=lambda *_: additive,
    ):
        literal = classify_operator(algebra, table)
    assert classify_operator(algebra, table) == literal
    seen["tables"] += 1
    seen["compat fails"] += not compat[0]
    seen["additive fails"] += not additive[0]
    seen["both hold"] += compat[0] and additive[0]


def corrupted(table: OpTable, rng: random.Random) -> OpTable:
    """The table with one to three entries set to random elements."""
    entries = list(table.entries)
    for _ in range(rng.randint(1, 3)):
        entries[rng.randrange(len(entries))] = rng.randrange(table.size)
    return OpTable(table.name, table.arity, table.size, tuple(entries))


def test_catalogue_tables_and_their_corruptions_agree(closure_corpus):
    rng = random.Random(6)
    seen, broken = Counter(), Counter()
    for algebra, table in operator_cases(closure_corpus, 12):
        assert_agree(algebra, table, seen)
        assert_agree(algebra, corrupted(table, rng), broken)
    assert seen["tables"] >= 800, seen
    for counts in (seen, broken):
        assert min(counts["compat fails"], counts["additive fails"], counts["both hold"]) >= 50, counts


@st.composite
def small_tables(draw, algebras):
    """A corpus algebra of at most 6 elements and a table of arity 0-3 on it
    whose entries come from a few drawn elements, so that both verdicts
    occur."""
    algebra = draw(st.sampled_from(algebras))
    arity = draw(st.integers(0, 3))
    values = draw(st.lists(st.integers(0, algebra.n - 1), min_size=1, max_size=4))
    entries = draw(
        st.lists(st.sampled_from(values), min_size=algebra.n**arity, max_size=algebra.n**arity)
    )
    return algebra, OpTable("t", arity, algebra.n, tuple(entries))


def test_generated_tables_agree(closure_corpus):
    algebras = [abstract(c) for c in closure_corpus[::7]]
    algebras = [a for a in algebras if a.n <= 6]
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_tables(algebras))
    def check(case):
        assert_agree(*case, seen)

    check()
    assert seen["tables"] >= 300, seen
    assert min(seen["compat fails"], seen["additive fails"], seen["both hold"]) >= 20, seen
