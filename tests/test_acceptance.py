"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every check is exact (integer/set equality); the only tolerances are the
documented wall-clock budgets, asserted per criterion.
"""
from __future__ import annotations

import time
from functools import partial

import oracles
from drest.dra import (
    OpTable,
    binary_table,
    derived_meet,
    from_concrete,
    hom_check,
    identity_map,
    is_fin_compatibly_complete,
    is_subtraction_algebra,
    isomorphism_search,
    join_if_exists,
    validate_axioms,
)
from drest.duality import (
    F_object,
    G_object,
    check_triangle_identities,
    complete,
    counit_lambda,
    eta_naturality_square,
    identity_morphism,
    is_space_isomorphism,
    lambda_naturality_square,
    stone_restriction_checks,
    unit_eta,
)
from drest.filters import all_proper_filters, maximal_filters
from drest.fixtures import (
    FIXTURES,
    boolean_four,
    conflicting_pair,
    disjoint_pair,
    get_fixture,
    inclusion_disjoint_into_boolean,
)
from drest.operators import (
    check_eta_preserves_operator,
    check_relation_properties,
    classify_concrete_ops,
    classify_operator,
    complete_with_operators,
    relation_from_operator,
)
from drest.pfun import Carrier, PartialFunction, closure_generate

VALID = [n for n in FIXTURES if n != "broken_restriction"]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def timed(budget: float):
    start = time.monotonic()

    def check() -> tuple[bool, str]:
        elapsed = time.monotonic() - start
        return elapsed < budget, f"{elapsed:.2f}s of {budget:.0f}s budget"

    return check


def test_criterion_1_axiom_soundness(closure_corpus):
    clock = timed(10.0)
    count = 0
    for concrete in closure_corpus:
        assert validate_axioms(from_concrete(concrete)).ok
        count += 1
    in_budget, detail = clock()
    report(1, "axiom soundness", count > 1000 and in_budget,
           f"{count} closures validated, {detail}")


def test_criterion_2_representation():
    clock = timed(1.0)
    ok = True
    for name in VALID:
        alg = get_fixture(name).algebra
        eta = unit_eta(alg)
        ok &= hom_check(eta).is_embedding
        hat = oracles.as_sets(maximal_filters(alg).hats)
        saturate = partial(oracles.project_preimage, F_object(alg))
        project = partial(oracles.project, F_object(alg))
        for a in range(alg.n):
            for b in range(alg.n):
                ok &= hat[alg.m(a, b)] == hat[a] - hat[b]
                ok &= hat[alg.r(a, b)] == saturate(project(hat[a])) & hat[b]
                ok &= hat[derived_meet(alg, a, b)] == hat[a] & hat[b]
    in_budget, detail = clock()
    report(2, "representation", ok and in_budget, detail)


def test_criterion_3_completion():
    clock = timed(1.0)
    completed, _ = complete(disjoint_pair().algebra)
    ok = isomorphism_search(completed, boolean_four().algebra) is not None

    same, iota = complete(conflicting_pair().algebra)
    ok &= isomorphism_search(same, conflicting_pair().algebra) is not None

    for name in VALID:
        once, _ = complete(get_fixture(name).algebra)
        twice, _ = complete(once)
        ok &= isomorphism_search(once, twice) is not None
    in_budget, detail = clock()
    report(3, "completion", ok and in_budget, detail)


def test_criterion_4_adjunction_laws():
    clock = timed(1.0)
    ok = True
    for name in VALID:
        alg = get_fixture(name).algebra
        triangles = check_triangle_identities(alg)
        ok &= triangles.space_side and triangles.algebra_side
        space = F_object(alg)
        ok &= check_triangle_identities(space).ok
        ok &= eta_naturality_square(identity_map(alg))
        ok &= lambda_naturality_square(identity_morphism(space))
        ok &= lambda_naturality_square(counit_lambda(space))
    ok &= eta_naturality_square(inclusion_disjoint_into_boolean())
    in_budget, detail = clock()
    report(4, "adjunction laws", ok and in_budget, detail)


def test_criterion_5_duality_fixed_points():
    clock = timed(1.0)
    ok = True
    for name in VALID:
        alg = get_fixture(name).algebra
        eta = unit_eta(alg)
        eta_iso = len(set(eta.table)) == eta.target.n  # embeddings: iso = onto
        ok &= eta_iso == is_fin_compatibly_complete(alg)
        ok &= is_space_isomorphism(counit_lambda(F_object(alg)))
    in_budget, detail = clock()
    report(5, "duality fixed points", ok and in_budget, detail)


def test_criterion_6_maximal_filter_oracles(closure_corpus):
    clock = timed(30.0)
    ok = True
    checked = 0
    for concrete in closure_corpus:
        if len(concrete.elements) > 8:
            continue
        alg = from_concrete(concrete)
        filters = all_proper_filters(alg)
        inclusion_maximal = {f for f in filters if not any(f < g for g in filters)}
        predicate = set(oracles.as_sets(maximal_filters(alg).points))
        ok &= predicate == inclusion_maximal
        checked += 1
    in_budget, detail = clock()
    report(6, "maximal-filter oracle agreement", ok and checked > 100 and in_budget,
           f"{checked} algebras, {detail}")


def test_criterion_7_operator_layer():
    clock = timed(5.0)
    ok = True
    for fixture in (disjoint_pair(), conflicting_pair(), boolean_four()):
        with_ops = from_concrete(fixture.concrete, extra_ops=("domain",))
        alg = with_ops.with_ops(())
        meet = binary_table("meet", alg.n, lambda x, y: derived_meet(alg, x, y))
        # left composition by each element, on composition-closed fixtures
        sections = []
        if fixture.concrete.is_closed_under(("compose",)):
            comp = from_concrete(fixture.concrete, extra_ops=("compose",)).op("compose")
            for c in range(alg.n):
                sections.append(
                    OpTable(
                        f"compose_by_{c}", 1, alg.n,
                        tuple(comp(c, x) for x in range(alg.n)),
                    )
                )
        for table in (with_ops.op("domain"), meet, *sections):
            rep = classify_operator(alg, table)
            ok &= rep.is_compat_preserving_operator
            rel = relation_from_operator(alg, table)
            rel_rep = check_relation_properties(rel)
            ok &= rel_rep.compatibility_property and rel_rep.spectral and rel_rep.tight
            ok &= check_eta_preserves_operator(alg, table)
            _, embedding, lifted = complete_with_operators(alg, [table])
            (lifted_table,) = lifted
            for a in range(alg.n):
                args = (a,) * table.arity
                ok &= embedding.table[table(*args)] == lifted_table(
                    *(embedding.table[x] for x in args)
                )
    in_budget, detail = clock()
    report(7, "operator layer", ok and in_budget, detail)


def test_criterion_8_concrete_classification():
    clock = timed(5.0)
    witnesses: list[str] = []
    ok = True
    entries = {
        e.operation: e for e in classify_concrete_ops(conflicting_pair().concrete)
    }
    for name in ("compose", "domain", "range", "fixset", "identity", "range_restrict"):
        rep = entries[name].report
        ok &= rep is not None and rep.is_compat_preserving_operator
    anti = entries["antidomain"].report
    # antidomain is not an operator at all: normality already fails, so it
    # cannot be a compatibility-preserving operator
    ok &= not anti.is_compat_preserving_operator
    witnesses.extend(anti.witnesses)

    carrier = Carrier(2)
    injective_witness = closure_generate(
        carrier,
        [
            PartialFunction.from_graph(carrier, [(0, 0)]),
            PartialFunction.from_graph(carrier, [(1, 0)]),
        ],
    )
    conv = {
        e.operation: e for e in classify_concrete_ops(injective_witness, ("converse",))
    }["converse"].report
    ok &= not conv.compat_preserving
    ok &= conv.normal and conv.additive
    witnesses.extend(conv.witnesses)
    in_budget, detail = clock()
    report(8, "concrete classification", ok and bool(witnesses) and in_budget,
           f"witnesses: {'; '.join(witnesses)}; {detail}")


def test_criterion_9_subtraction_specialization():
    clock = timed(1.0)
    ok = True
    found = 0
    for name in VALID:
        alg = get_fixture(name).algebra
        if not is_subtraction_algebra(alg):
            continue
        found += 1
        rep = stone_restriction_checks(alg)
        ok &= rep.applicable and rep.equiv_is_equality and rep.completion_gba_laws
    in_budget, detail = clock()
    report(9, "subtraction-algebra specialization", ok and found >= 3 and in_budget,
           f"{found} subtraction fixtures, {detail}")


def test_criterion_10_override_coherence():
    clock = timed(1.0)
    ok = True
    for name in VALID:
        alg = get_fixture(name).algebra
        completed, _ = complete(alg)
        dual = G_object(F_object(alg))
        space, sections = dual.space, oracles.as_sets(dual.sections)
        for i, u in enumerate(sections):
            for j, v in enumerate(sections):
                # concrete override of sections: u plus the part of v lying
                # over base points u misses
                concrete = u | (v - oracles.project_preimage(space, oracles.project(space, u)))
                got = sections[oracles.derived_override(completed, i, j)]
                ok &= got == concrete
                # the join formula spelled out
                formula = join_if_exists(
                    completed,
                    (i, completed.m(j, completed.r(i, j))),
                )
                ok &= formula is not None and sections[formula] == concrete
    in_budget, detail = clock()
    report(10, "override coherence", ok and in_budget, detail)
