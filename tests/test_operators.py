"""Operator checks, dual relations, and the concrete catalogue."""
from __future__ import annotations

import random
import time
from collections import Counter
from itertools import product
from math import prod
from unittest.mock import patch

import pytest

import oracles
from conftest import operator_cases
from drest import operators
from drest.dra import OpTable, binary_table, bottom, from_concrete, derived_meet
from drest.duality import SPACE_SIZE_CAP, EtaleSpace, F_object, counit_lambda, identity_morphism
from drest.filters import maximal_filters
from drest.fixtures import (
    boolean_four,
    conflicting_pair,
    disjoint_pair,
    single_point,
)
from drest.operators import (
    OPERATOR_ALGEBRA_CAP,
    OPERATOR_ARITY_CAP,
    OperatorCheckError,
    SpaceRelation,
    check_additive,
    check_compat_preserving,
    check_eta_preserves_operator,
    check_morphism_back_forth,
    check_normal,
    check_relation_properties,
    classify_concrete_ops,
    classify_operator,
    complete_with_operators,
    operation_from_relation,
    relation_from_operator,
)
from drest.pfun import (
    UNDEF,
    Carrier,
    ConcretePFAlgebra,
    PartialFunction,
    closure_generate,
    enumerate_all_pfs,
)


def meet_table(algebra) -> OpTable:
    return binary_table("meet", algebra.n, lambda x, y: derived_meet(algebra, x, y))


def domain_algebra(fixture):
    alg = from_concrete(fixture.concrete, extra_ops=("domain",))
    return alg.with_ops(()), alg.op("domain")


# ---------------------------------------------------------------------------
# the three defining properties

def test_meet_is_a_compat_preserving_operator_everywhere():
    for fixture in (single_point(), disjoint_pair(), conflicting_pair(), boolean_four()):
        alg = fixture.algebra
        report = classify_operator(alg, meet_table(alg))
        assert report.is_compat_preserving_operator, report.witnesses


def test_domain_is_a_compat_preserving_operator():
    for fixture in (disjoint_pair(), conflicting_pair(), boolean_four()):
        alg, d = domain_algebra(fixture)
        report = classify_operator(alg, d)
        assert report.is_compat_preserving_operator, report.witnesses


def test_constant_bottom_operator():
    alg = disjoint_pair().algebra
    table = OpTable("zero", 1, alg.n, (bottom(alg),) * alg.n)
    report = classify_operator(alg, table)
    assert report.is_compat_preserving_operator


def test_normality_mutant_is_caught():
    alg = disjoint_pair().algebra
    a = alg.index("{0:0}")
    entries = list(range(alg.n))
    entries[bottom(alg)] = a
    ok, witness = check_normal(alg, OpTable("bad", 1, alg.n, tuple(entries)))
    assert not ok and witness == (bottom(alg),)


def test_override_table_fails_the_checks():
    alg = from_concrete(conflicting_pair().concrete, extra_ops=("override",))
    report = classify_operator(alg.with_ops(()), alg.op("override"))
    assert not report.compat_preserving
    assert not report.normal
    assert report.witnesses


def test_additivity_skips_missing_joins():
    # on an incomplete algebra the additivity scan must not demand joins
    alg = disjoint_pair().algebra
    ok, _ = check_additive(alg, meet_table(alg))
    assert ok


def test_caps_are_enforced():
    alg = disjoint_pair().algebra
    with pytest.raises(OperatorCheckError):
        check_compat_preserving(alg, OpTable("big", 4, alg.n, (0,) * alg.n**4))


# ---------------------------------------------------------------------------
# relations

def test_relation_from_domain_operator_is_diagonal_on_points():
    alg, d = domain_algebra(disjoint_pair())
    rel = relation_from_operator(alg, d)
    assert rel.tuples == frozenset({(0, 0), (1, 1)})


def test_relation_from_constant_bottom_is_empty():
    alg = disjoint_pair().algebra
    table = OpTable("zero", 1, alg.n, (bottom(alg),) * alg.n)
    rel = relation_from_operator(alg, table)
    assert rel.tuples == frozenset()


def test_relation_from_identity_operation_is_the_diagonal():
    alg = conflicting_pair().algebra
    table = OpTable("same", 1, alg.n, tuple(range(alg.n)))
    rel = relation_from_operator(alg, table)
    n = rel.space.n_points
    assert rel.tuples == frozenset((i, i) for i in range(n))


def test_relation_properties_for_operator_relations():
    for fixture in (disjoint_pair(), conflicting_pair(), boolean_four()):
        alg, d = domain_algebra(fixture)
        rel = relation_from_operator(alg, d)
        report = check_relation_properties(rel)
        assert report.ok, report.failures
        assert oracles.check_union_commutation(rel)


def test_full_relation_on_a_doubled_fibre_fails_compatibility():
    space = F_object(conflicting_pair().algebra)  # two points, one fibre
    full = SpaceRelation(
        "full", space, 1, frozenset((x, y) for x in range(2) for y in range(2))
    )
    report = check_relation_properties(full)
    assert not report.compatibility_property


def test_operation_from_relation_requires_the_preconditions():
    space = F_object(conflicting_pair().algebra)
    full = SpaceRelation(
        "full", space, 1, frozenset((x, y) for x in range(2) for y in range(2))
    )
    with pytest.raises(OperatorCheckError):
        operation_from_relation(space, full)


def test_diagonal_relation_induces_the_identity_operation():
    space = F_object(disjoint_pair().algebra)
    diag = SpaceRelation(
        "same", space, 1, frozenset((i, i) for i in range(space.n_points))
    )
    dual, table = operation_from_relation(space, diag)
    assert table.entries == tuple(range(len(dual.sections)))


def test_empty_relation_induces_the_constant_empty_operation():
    space = F_object(disjoint_pair().algebra)
    empty = SpaceRelation("none", space, 1, frozenset())
    dual, table = operation_from_relation(space, empty)
    bot = dual.sections.index(0)
    assert set(table.entries) == {bot}


def test_negative_relation_arity_is_rejected():
    space = F_object(disjoint_pair().algebra)
    with pytest.raises(ValueError, match="arity must be nonnegative"):
        SpaceRelation("r", space, -1, frozenset({()}))


def test_relation_arity_is_capped_before_the_image_is_built():
    space = F_object(disjoint_pair().algebra)
    arity = OPERATOR_ARITY_CAP + 1
    with pytest.raises(ValueError, match="capped at"):
        SpaceRelation("r", space, arity, frozenset({(0,) * (arity + 1)}))


def test_relation_checks_at_the_space_cap_are_fast():
    # two points per fibre, every singleton open, about 30 % of the tuples
    k = SPACE_SIZE_CAP
    singletons = tuple(frozenset({x}) for x in range(k))
    space = EtaleSpace(k, k // 2, tuple(x // 2 for x in range(k)), singletons)
    rng = random.Random(0)
    tuples = frozenset(t for t in product(range(k), repeat=4) if rng.random() < 0.3)
    rel = SpaceRelation("r", space, 3, tuples)
    start = time.perf_counter()
    report = check_relation_properties(rel)
    assert time.perf_counter() - start < 1.0
    # on a discrete space every image is open and N(x) = {x}; two tuples
    # whose inputs agree and whose outputs share a fibre are incompatible
    assert report.failures == ("compatibility property fails",)


def test_hat_equality_for_operators():
    for fixture in (disjoint_pair(), conflicting_pair(), boolean_four()):
        alg, d = domain_algebra(fixture)
        assert check_eta_preserves_operator(alg, d)
        assert check_eta_preserves_operator(alg, meet_table(alg))


def test_hat_equality_refuses_non_operators():
    alg = from_concrete(conflicting_pair().concrete, extra_ops=("override",))
    with pytest.raises(OperatorCheckError):
        check_eta_preserves_operator(alg.with_ops(()), alg.op("override"))


def test_tightness_recovery_is_unique_on_two_point_spaces():
    # brute force: the operator relation is the only relation inducing the
    # same operation and passing the tightness check
    alg, d = domain_algebra(disjoint_pair())
    rel = relation_from_operator(alg, d)
    space = rel.space
    points = range(space.n_points)
    matches = []
    all_pairs = list(product(points, repeat=2))
    for mask in range(1 << len(all_pairs)):
        tuples = frozenset(p for i, p in enumerate(all_pairs) if mask >> i & 1)
        candidate = SpaceRelation("r", space, 1, tuples)
        report = check_relation_properties(candidate)
        if not (report.compatibility_property and report.spectral and report.tight):
            continue
        _, table = operation_from_relation(space, candidate)
        _, wanted = operation_from_relation(space, rel)
        if table.entries == wanted.entries:
            matches.append(tuples)
    assert matches == [rel.tuples]


# ---------------------------------------------------------------------------
# morphisms against relations

def test_identity_morphism_satisfies_back_and_forth():
    alg, d = domain_algebra(disjoint_pair())
    rel = relation_from_operator(alg, d)
    report = check_morphism_back_forth(identity_morphism(rel.space), rel, rel)
    assert report.ok


def test_counit_satisfies_back_and_forth():
    alg, d = domain_algebra(disjoint_pair())
    rel = relation_from_operator(alg, d)
    space = rel.space
    lam = counit_lambda(space)
    dual, lifted = operation_from_relation(space, rel)
    lifted_rel = relation_from_operator(dual.algebra, lifted)
    report = check_morphism_back_forth(lam, rel, lifted_rel)
    assert report.ok


def test_mismatched_relations_are_rejected():
    alg, d = domain_algebra(disjoint_pair())
    rel = relation_from_operator(alg, d)
    other = relation_from_operator(*domain_algebra(conflicting_pair()))
    with pytest.raises(OperatorCheckError):
        check_morphism_back_forth(identity_morphism(rel.space), rel, other)


# ---------------------------------------------------------------------------
# completion with operators

def test_completion_carries_domain_to_the_cube():
    alg, d = domain_algebra(disjoint_pair())
    equipped, embedding, lifted = complete_with_operators(alg, [d])
    assert equipped.n == 4
    assert equipped.op_names() == ("domain",)
    # the carried operation is the domain operator of the completion: every
    # section maps to the fibre-saturated subidentity with the same base
    (table,) = lifted
    report = classify_operator(equipped.with_ops(()), table)
    assert report.is_compat_preserving_operator
    for a in range(alg.n):
        assert embedding.table[d(a)] == table(embedding.table[a])


def test_completion_with_no_operators_is_plain_completion():
    alg = disjoint_pair().algebra
    equipped, embedding, lifted = complete_with_operators(alg, [])
    assert lifted == ()
    assert equipped.n == 4


def test_complete_algebras_keep_their_operators():
    alg, d = domain_algebra(conflicting_pair())
    equipped, embedding, (table,) = complete_with_operators(alg, [d])
    assert equipped.n == alg.n
    reordered = [table(embedding.table[a]) for a in range(alg.n)]
    assert reordered == [embedding.table[d(a)] for a in range(alg.n)]


def test_carried_operators_pass_the_operator_checks(closure_corpus):
    # the carried tables are compatibility-preserving operators by
    # construction; the classifier, its cap raised to each completion, agrees
    # on completions within the operator cap and above it
    seen = Counter()
    for alg, table in operator_cases(closure_corpus, 40):
        if not classify_operator(alg, table).is_compat_preserving_operator:
            continue
        assert check_relation_properties(relation_from_operator(alg, table)).ok
        equipped, _, (lifted,) = complete_with_operators(alg, [table])
        assert equipped.n == prod(len(cls) + 1 for cls in maximal_filters(alg).classes)
        with patch.object(operators, "OPERATOR_ALGEBRA_CAP", equipped.n):
            report = classify_operator(equipped.with_ops(()), lifted)
        assert report.is_compat_preserving_operator, report.witnesses
        seen["above" if equipped.n > OPERATOR_ALGEBRA_CAP else "within"] += 1
    assert min(seen["above"], seen["within"]) >= 20, seen


def test_a_carried_table_that_misses_its_input_is_an_internal_error(monkeypatch):
    alg, d = domain_algebra(disjoint_pair())
    original = operators._relation_table

    def shifted(rel, dual):
        table = original(rel, dual)
        entries = tuple((e + 1) % table.size for e in table.entries)
        return OpTable(table.name, table.arity, table.size, entries)

    monkeypatch.setattr(operators, "_relation_table", shifted)
    with pytest.raises(AssertionError, match="carried domain does not extend its input"):
        complete_with_operators(alg, [d])


def test_completion_rejects_non_operators():
    alg = from_concrete(conflicting_pair().concrete, extra_ops=("override",))
    with pytest.raises(OperatorCheckError):
        complete_with_operators(alg.with_ops(()), [alg.op("override")])


# ---------------------------------------------------------------------------
# the concrete catalogue

POSITIVE = ("compose", "domain", "range", "fixset", "identity", "range_restrict")


def test_catalogue_positives_on_conflicting_pair():
    entries = {
        e.operation: e for e in classify_concrete_ops(conflicting_pair().concrete)
    }
    for name in POSITIVE:
        entry = entries[name]
        assert entry.implemented, entry.note
        assert entry.report.is_compat_preserving_operator, (name, entry.report)


def test_catalogue_negatives():
    entries = {
        e.operation: e for e in classify_concrete_ops(conflicting_pair().concrete)
    }
    override = entries["override"].report
    assert not override.compat_preserving
    antidomain = entries["antidomain"].report
    assert not antidomain.is_compat_preserving_operator
    assert not antidomain.normal  # identity on an empty domain is not bottom
    assert entries["update"].implemented is False


def test_converse_is_an_operator_but_not_compat_preserving():
    carrier = Carrier(2)
    seeds = [
        PartialFunction.from_graph(carrier, [(0, 0)]),
        PartialFunction.from_graph(carrier, [(1, 0)]),
    ]
    witness = closure_generate(carrier, seeds)
    entries = {e.operation: e for e in classify_concrete_ops(witness, ("converse",))}
    report = entries["converse"].report
    assert report.is_operator
    assert not report.compat_preserving
    assert report.witnesses


def test_converse_closure_fails_gracefully_on_non_injective_elements():
    carrier = Carrier(2)
    non_injective = PartialFunction.from_graph(carrier, [(0, 0), (1, 0)])
    base = closure_generate(carrier, [non_injective])
    entries = {e.operation: e for e in classify_concrete_ops(base, ("converse",))}
    entry = entries["converse"]
    assert not entry.implemented
    assert "injective" in entry.note


def test_an_input_over_the_cap_is_refused_without_a_closure(monkeypatch):
    closures = []
    original = operators.closure_generate

    def counted(carrier, seeds, ops):
        closures.append(ops[-1])
        return original(carrier, seeds, ops)

    monkeypatch.setattr(operators, "closure_generate", counted)
    carrier = Carrier(3)
    every = ConcretePFAlgebra(carrier, enumerate_all_pfs(carrier))
    entries = {e.operation: e for e in classify_concrete_ops(every)}
    # only converse is closed, and its first round meets a non-injective seed
    assert closures == ["converse"]
    assert entries["converse"].note == "converse of a non-injective partial function"
    assert entries.pop("update").note == "no definition adopted"
    for name, entry in entries.items():
        if name != "converse":
            assert (entry.implemented, entry.closed_size) == (False, None)
            assert entry.note == "closure exceeds the operator check cap"
    # with injective seeds converse is refused unclosed too
    injective = ConcretePFAlgebra(carrier, tuple(f for f in every.elements if f.is_injective()))
    closures.clear()
    (entry,) = classify_concrete_ops(injective, ("converse",))
    assert closures == [] and entry.note == "closure exceeds the operator check cap"
    # an oversized carrier keeps the closure's own refusal
    big = Carrier(5)
    wide = [PartialFunction(big, (v,) + (UNDEF,) * 4) for v in range(5)]
    wide += [PartialFunction(big, (UNDEF, v) + (UNDEF,) * 3) for v in range(5)]
    wide += [PartialFunction(big, (UNDEF,) * 5), PartialFunction(big, (0, 0) + (UNDEF,) * 3)]
    (entry,) = classify_concrete_ops(
        ConcretePFAlgebra(big, tuple(sorted(wide, key=lambda f: f.sort_key))), ("domain",)
    )
    assert entry.note.startswith("closure carrier capped")
    # an input of exactly the cap, closed under domain, is still classified
    seeds = [PartialFunction(carrier, (UNDEF, 0, 0)), PartialFunction(carrier, (0, UNDEF, 0))]
    at_cap = original(carrier, seeds, ("difference", "restrict", "domain"))
    (entry,) = classify_concrete_ops(at_cap, ("domain",))
    assert len(at_cap) == entry.closed_size == OPERATOR_ALGEBRA_CAP and entry.implemented
    # ten functions other than the empty one exceed the cap together with it
    ten = [f for f in at_cap.elements if set(f.values) != {UNDEF}] + [PartialFunction(carrier, (1, 1, 1))]
    closures.clear()
    (entry,) = classify_concrete_ops(
        ConcretePFAlgebra(carrier, tuple(sorted(ten, key=lambda f: f.sort_key))), ("domain",)
    )
    assert len(ten) == OPERATOR_ALGEBRA_CAP and closures == [] and entry.closed_size is None
