"""Spaces, the two dual constructions, and the completion."""
from __future__ import annotations

import time
import tracemalloc

import pytest

import oracles
from conftest import eighteen_element_completion
from drest import duality, filters
from drest.dra import (
    AlgebraMap,
    FiniteAlgebra,
    binary_table,
    bottom,
    derived_meet,
    hom_check,
    is_fin_compatibly_complete,
    isomorphism_search,
    join_if_exists,
    leq,
    validate_axioms,
)
from drest.duality import (
    SECTION_CAP,
    SPACE_SIZE_CAP,
    EtaleSpace,
    F_morphism,
    F_object,
    G_morphism,
    G_object,
    InvalidMorphism,
    InvalidSpace,
    SpaceMorphism,
    check_triangle_identities,
    complete,
    completion_characterizations,
    completion_report,
    counit_lambda,
    eta_naturality_square,
    identity_morphism,
    is_space_isomorphism,
    lambda_naturality_square,
    opens,
    space_morphism,
    stone_restriction_checks,
    unique_completion_iso,
    dual_of,
    unit_eta,
    validate_etale,
    _preimage,
)
from drest.filters import maximal_filters
from drest.fixtures import (
    FIXTURES,
    boolean_four,
    conflicting_pair,
    disjoint_pair,
    get_fixture,
    inclusion_disjoint_into_boolean,
    single_point,
)

VALID = [n for n in FIXTURES if n != "broken_restriction"]


# ---------------------------------------------------------------------------
# spaces

def two_fibre_space() -> EtaleSpace:
    # two points over one base point, one point over another
    return EtaleSpace(
        n_points=3,
        n_base=2,
        projection=(0, 0, 1),
        basis=(frozenset(), frozenset({0}), frozenset({1}), frozenset({2})),
    )


def test_two_fibre_space_is_valid_and_discrete():
    report = validate_etale(two_fibre_space())
    assert report.ok
    assert report.discrete


def test_opens_are_all_unions():
    space = two_fibre_space()
    assert opens(space) == frozenset(
        frozenset(s)
        for s in [
            [], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2],
        ]
    )


def test_non_surjective_projection_fails():
    space = EtaleSpace(1, 2, (0,), (frozenset({0}),))
    report = validate_etale(space)
    assert not report.ok
    assert "not surjective" in "; ".join(report.failures)


def test_indiscrete_space_fails_separation():
    # two points in one fibre with no separating opens
    space = EtaleSpace(2, 1, (0, 0), (frozenset({0, 1}),))
    report = validate_etale(space)
    assert not report.ok
    assert not report.hausdorff
    assert not report.local_homeo


def test_g_object_rejects_invalid_spaces():
    space = EtaleSpace(2, 1, (0, 0), (frozenset({0, 1}),))
    with pytest.raises(InvalidSpace):
        G_object(space)


def test_f_object_spaces_validate():
    for name in VALID:
        space = F_object(get_fixture(name).algebra)
        report = validate_etale(space)
        assert report.ok and report.discrete


def space_at_the_cap(projection, basis) -> EtaleSpace:
    n = SPACE_SIZE_CAP
    rest = tuple(frozenset({x}) for x in range(n) if not any(x in u for u in basis))
    return EtaleSpace(n, max(projection) + 1, tuple(projection), tuple(basis) + rest)


def test_discrete_space_at_the_size_cap():
    space = space_at_the_cap([x // 2 for x in range(SPACE_SIZE_CAP)], [])
    report = validate_etale(space)
    assert report.ok and report.discrete
    assert identity_morphism(space).is_identity()


def test_unseparated_pair_at_the_size_cap():
    # points 0 and 1 share a fibre and only ever appear together
    space = space_at_the_cap([0, 0, *range(1, SPACE_SIZE_CAP - 1)], [frozenset({0, 1})])
    report = validate_etale(space)
    assert report.basis_intersection_stable and report.zero_dimensional
    assert report.failures == (
        "projection not a local homeomorphism",
        "points not separated by disjoint opens",
    )
    assert identity_morphism(space).is_identity()


def test_non_stable_basis_at_the_size_cap():
    # {0, 1} and {1, 2} meet in {1}, which is no union of basis sets
    space = space_at_the_cap(range(SPACE_SIZE_CAP), [frozenset({0, 1}), frozenset({1, 2})])
    report = validate_etale(space)
    assert report.local_homeo and not report.discrete
    assert report.failures == (
        "basis not intersection-stable",
        "points not separated by disjoint opens",
        "no clopen neighbourhood basis",
    )
    assert identity_morphism(space).is_identity()


# edge cases of the least-neighbourhood proofs in ``validate_etale``
PINNED = [
    # stable, but point 2 lies in no basis set
    (
        EtaleSpace(3, 3, (0, 1, 2), (frozenset({0}), frozenset({1}))),
        True,
        (
            "projection not a local homeomorphism",
            "points not separated by disjoint opens",
            "no clopen neighbourhood basis",
        ),
    ),
    # one uncovered point is still Hausdorff
    (EtaleSpace(1, 1, (0,), ()), True, ("projection not a local homeomorphism",)),
    # stable and injective on N(1) = N(2) = {1, 2}, but {0} projects onto
    # base point 0, whose preimage {0, 1} is not open
    (
        EtaleSpace(3, 2, (0, 0, 1), (frozenset({0}), frozenset({1, 2}))),
        True,
        (
            "projection not an open map",
            "projection not a local homeomorphism",
            "points not separated by disjoint opens",
        ),
    ),
    # {0, 1} and {1, 2} meet in {1}, which is no union of basis sets; the
    # generated topology has N(0) = {0, 1}, so 0 and 1 are not separated
    (
        EtaleSpace(3, 3, (0, 1, 2), (frozenset({0, 1}), frozenset({1, 2}))),
        False,
        (
            "basis not intersection-stable",
            "points not separated by disjoint opens",
            "no clopen neighbourhood basis",
        ),
    ),
    # the pairs meet in singletons, which are no unions of basis sets, but
    # they generate the discrete topology
    (
        EtaleSpace(3, 3, (0, 1, 2), (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))),
        False,
        ("basis not intersection-stable",),
    ),
]


@pytest.mark.parametrize("space, stable, failures", PINNED)
def test_pinned_edge_cases(space, stable, failures):
    report = validate_etale(space)
    assert report == oracles.validate_etale(space)
    assert report.basis_intersection_stable == stable
    assert report.failures == failures


def test_validation_lists_no_opens(monkeypatch):
    calls = []
    listed = duality.opens
    monkeypatch.setattr(duality, "opens", lambda space: calls.append(space) or listed(space))
    spaces = [space for space, _, _ in PINNED] + [
        two_fibre_space(),
        space_at_the_cap([x // 2 for x in range(SPACE_SIZE_CAP)], []),
        space_at_the_cap(range(SPACE_SIZE_CAP), [frozenset({0, 1}), frozenset({1, 2})]),
        *(F_object(get_fixture(name).algebra) for name in VALID),
    ]
    assert {validate_etale(space).basis_intersection_stable for space in spaces} == {True, False}
    assert calls == []
    duality.opens(spaces[0])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# sections

def test_sections_cap_refuses_before_building_tables():
    # one point per fibre: 2^16 sections
    space = space_at_the_cap(range(SPACE_SIZE_CAP), [])
    assert validate_etale(space).ok
    start = time.perf_counter()
    with pytest.raises(ValueError, match="capped at"):
        G_object(space)
    assert time.perf_counter() - start < 1.0
    assert 2**SPACE_SIZE_CAP > SECTION_CAP >= 256


def test_axioms_of_a_128_element_dual_algebra_fit_in_little_memory():
    # seven points, one per fibre: 2^7 sections; n³ int64 arrays took 130 MB
    space = EtaleSpace(7, 7, tuple(range(7)), tuple(frozenset({x}) for x in range(7)))
    algebra = G_object(space).algebra
    assert algebra.n == 128
    tracemalloc.start()
    try:
        report = validate_axioms(algebra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 32 * 2**20


def test_sections_of_two_fibre_space():
    dual = G_object(two_fibre_space())
    # injective over the base: never both points of the doubled fibre
    assert 0b011 not in dual.sections
    assert 0b101 in dual.sections
    assert validate_axioms(dual.algebra).ok


def test_dual_algebra_operations_are_set_theoretic():
    dual = G_object(two_fibre_space())
    alg = dual.algebra
    sections = oracles.as_sets(dual.sections)
    for i, u in enumerate(sections):
        for j, v in enumerate(sections):
            assert sections[alg.m(i, j)] == u - v
            expected = oracles.project_preimage(dual.space, oracles.project(dual.space, u)) & v
            assert sections[alg.r(i, j)] == expected


# ---------------------------------------------------------------------------
# morphisms

def test_identity_and_composition():
    space = two_fibre_space()
    ident = identity_morphism(space)
    assert ident.is_identity()
    assert oracles.compose_morphisms(ident, ident).is_identity()


def test_fibre_collapse_is_rejected():
    # mapping both points of a doubled fibre onto one point breaks
    # fibrewise injectivity
    src = two_fibre_space()
    tgt = EtaleSpace(2, 2, (0, 1), (frozenset({0}), frozenset({1})))
    with pytest.raises(InvalidMorphism):
        space_morphism(src, tgt, (0, 0, 1))


@pytest.mark.parametrize("mapping", [(0,), (0, 1, 0), (0, 5), (0, 2), (-2, 0)])
def test_malformed_point_maps_are_refused(mapping):
    space = EtaleSpace(2, 2, (0, 1), (frozenset({0}), frozenset({1})))
    with pytest.raises(ValueError, match="mapping"):
        SpaceMorphism(space, space, mapping)


def test_partial_morphism_on_open_domain():
    src = two_fibre_space()
    tgt = EtaleSpace(1, 1, (0,), (frozenset({0}),))
    m = space_morphism(src, tgt, (-1, -1, 0))
    assert oracles.defined_on(m) == {2}
    assert oracles.preimage(m, {0}) == {2}
    assert _preimage(m.mapping, 0b1) == 0b100


def test_space_isomorphism_check():
    space = two_fibre_space()
    swapped = EtaleSpace(3, 2, (1, 0, 0), (frozenset(), frozenset({0}), frozenset({1}), frozenset({2})))
    m = space_morphism(space, swapped, (1, 2, 0))
    assert is_space_isomorphism(m)
    ident = identity_morphism(space)
    assert is_space_isomorphism(ident)


# ---------------------------------------------------------------------------
# unit, counit, functors on maps

def test_unit_is_an_embedding_matching_supports():
    for name in VALID:
        alg = get_fixture(name).algebra
        eta = unit_eta(alg)
        assert hom_check(eta).is_embedding
        mfs = maximal_filters(alg)
        dual = G_object(F_object(alg))
        for a in range(alg.n):
            assert dual.sections[eta.table[a]] == mfs.hats[a]


def test_counit_is_an_isomorphism_on_dual_spaces():
    for name in VALID:
        space = F_object(get_fixture(name).algebra)
        lam = counit_lambda(space)
        assert is_space_isomorphism(lam)


def test_f_morphism_of_the_inclusion():
    incl = inclusion_disjoint_into_boolean()
    dual = F_morphism(incl)
    # boolean_four has two maximal filters, both meeting the image
    assert dual.source.n_points == 2
    assert oracles.defined_on(dual) == {0, 1}
    assert len(set(dual.mapping)) == 2


def test_g_morphism_dualises_back_to_an_algebra_map():
    incl = inclusion_disjoint_into_boolean()
    dual = F_morphism(incl)
    back = G_morphism(dual)
    assert hom_check(back).is_hom


def test_triangle_identities_on_all_fixtures():
    for name in VALID:
        assert check_triangle_identities(get_fixture(name).algebra).ok
        assert check_triangle_identities(F_object(get_fixture(name).algebra)).ok


def test_naturality_squares():
    incl = inclusion_disjoint_into_boolean()
    assert eta_naturality_square(incl)
    # G builds no check of its own, so it is checked here on each square's input
    assert hom_check(G_morphism(F_morphism(incl))).is_hom
    for name in VALID:
        space = F_object(get_fixture(name).algebra)
        for m in (identity_morphism(space), counit_lambda(space)):
            assert hom_check(G_morphism(m)).is_hom
            assert lambda_naturality_square(m)


def test_g_morphism_refuses_an_invalid_morphism():
    # two points over one base point sent to the two separate fibres of the
    # target: no fibre kept, so the preimages of sections are not sections
    source = EtaleSpace(2, 1, (0, 0), (frozenset({0}), frozenset({1})))
    target = EtaleSpace(2, 2, (0, 1), (frozenset({0}), frozenset({1})))
    m = SpaceMorphism(source, target, (0, 1))
    with pytest.raises(InvalidMorphism, match="does not preserve equivalence"):
        G_morphism(m)
    with pytest.raises(InvalidMorphism):
        lambda_naturality_square(m)


# ---------------------------------------------------------------------------
# completion

def test_completion_of_disjoint_pair_is_the_boolean_cube():
    completed, iota = complete(disjoint_pair().algebra)
    assert completed.n == 4
    assert completion_report(iota).ok
    iso = isomorphism_search(completed, boolean_four().algebra)
    assert iso is not None


def test_completion_fixes_complete_algebras():
    for fixture in (conflicting_pair(), boolean_four(), single_point()):
        completed, iota = complete(fixture.algebra)
        assert completed.n == fixture.algebra.n
        assert len(set(iota.table)) == completed.n  # embedding onto


def test_completion_is_idempotent():
    for name in VALID:
        completed, _ = complete(get_fixture(name).algebra)
        again, iota = complete(completed)
        assert again.n == completed.n
        assert len(set(iota.table)) == again.n


def test_unit_iso_iff_complete():
    for name in VALID:
        alg = get_fixture(name).algebra
        eta = unit_eta(alg)
        onto = len(set(eta.table)) == eta.target.n
        assert onto == is_fin_compatibly_complete(alg)


def test_unique_completion_iso_commutes():
    alg = disjoint_pair().algebra
    iota1 = complete(alg)[1]
    # a second completion: embed into boolean_four by names
    iota2 = inclusion_disjoint_into_boolean()
    assert completion_report(iota2).ok
    theta = unique_completion_iso(iota1, iota2)
    assert len(set(theta.table)) == iota2.target.n
    for a in range(alg.n):
        assert theta.table[iota1.table[a]] == iota2.table[a]


def test_unique_completion_iso_rejects_non_completions():
    alg = disjoint_pair().algebra
    iota = complete(alg)[1]
    identity = AlgebraMap(alg, alg, tuple(range(alg.n)))
    with pytest.raises(ValueError):  # the identity target is not complete
        unique_completion_iso(iota, identity)


def test_unique_completion_iso_refuses_targets_that_differ_on_an_operation():
    alg = single_point().algebra
    target, iota = complete(alg)
    first = binary_table("f", target.n, lambda x, y: x)
    zero = binary_table("f", target.n, lambda x, y: bottom(target))
    iota1 = AlgebraMap(alg, target.with_ops([first]), iota.table)
    iota2 = AlgebraMap(alg, target.with_ops([zero]), iota.table)
    with pytest.raises(ValueError, match="differ on a shared operation"):
        unique_completion_iso(iota1, iota2)
    assert unique_completion_iso(iota1, iota1).is_identity()


def test_completion_characterizations(monkeypatch):
    alg = disjoint_pair().algebra
    iota = complete(alg)[1]
    extensions = [
        ("names-into-boolean", inclusion_disjoint_into_boolean()),
        ("identity", AlgebraMap(alg, alg, tuple(range(alg.n)))),
    ]
    checked = []
    original = duality.hom_check
    monkeypatch.setattr(duality, "hom_check", lambda m: checked.append(m) or original(m))
    entries = completion_characterizations(iota, extensions)
    # each extension is checked to be an embedding once
    assert all(sum(m is kappa for m in checked) == 1 for _, kappa in extensions)
    by_name = {e.extension: e for e in entries}
    cube = by_name["names-into-boolean"]
    assert cube.smallest_applicable and cube.smallest_factors
    assert cube.largest_applicable and cube.largest_factors
    ident = by_name["identity"]
    assert not ident.smallest_applicable  # the identity target is incomplete
    assert ident.largest_applicable and ident.largest_factors


def test_completion_characterizations_check_the_base_map_unless_it_is_the_unit(monkeypatch):
    alg = disjoint_pair().algebra
    iota = complete(alg)[1]
    extensions = [("names-into-boolean", inclusion_disjoint_into_boolean())]
    expected = completion_characterizations(iota, extensions)
    checked = []
    original = duality.hom_check
    monkeypatch.setattr(duality, "hom_check", lambda m: checked.append(m) or original(m))
    # the unit is an embedding by construction: only the extension is checked
    assert completion_characterizations(iota, extensions) == expected
    assert checked == [extensions[0][1]]
    # the same table into an equal target built apart is checked
    target = iota.target
    apart = AlgebraMap(alg, FiniteAlgebra(target.elements, target.minus, target.rest), iota.table)
    checked.clear()
    assert completion_characterizations(apart, extensions) == expected
    assert checked == [apart, extensions[0][1]]
    # and a map into the completion that is not the unit is refused
    flat = AlgebraMap(alg, target, (bottom(target),) * alg.n)
    with pytest.raises(ValueError, match="base map must be an embedding"):
        completion_characterizations(flat, extensions)


def test_stone_restriction_checks():
    report = stone_restriction_checks(boolean_four().algebra)
    assert report.applicable and report.ok
    assert report.equiv_is_equality and report.completion_gba_laws
    assert not stone_restriction_checks(conflicting_pair().algebra).applicable

    # an identity-projection space dualises to a subtraction algebra
    space = EtaleSpace(2, 2, (0, 1), (frozenset({0}), frozenset({1})))
    report = stone_restriction_checks(space)
    assert report.applicable and report.dual_is_subtraction
    assert not stone_restriction_checks(two_fibre_space()).applicable


def test_completion_satisfies_gba_laws_for_subtraction_fixtures():
    for fixture in (single_point(), disjoint_pair(), boolean_four()):
        completed, _ = complete(fixture.algebra)
        bot = bottom(completed)
        for a in range(completed.n):
            for b in range(completed.n):
                rel = completed.m(b, a)
                assert derived_meet(completed, a, rel) == bot
                assert join_if_exists(completed, (a, rel)) == join_if_exists(
                    completed, (a, b)
                )


# ---------------------------------------------------------------------------
# one dual record per algebra

def test_triangle_identities_beyond_the_old_filter_cap():
    alg = eighteen_element_completion()
    completed, _ = complete(alg)
    assert alg.n == 8 and completed.n == 18
    report = check_triangle_identities(alg)
    assert report.space_side and report.algebra_side
    assert check_triangle_identities(completed).ok


def test_each_dual_is_built_and_validated_once(monkeypatch):
    calls = {"maximal_filters": 0, "validate_etale": 0, "hom_check": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(filters, "maximal_filters")
    counted(duality, "validate_etale")
    counted(duality, "hom_check")
    alg = eighteen_element_completion()
    check_triangle_identities(alg)
    complete(alg)
    completed, _ = complete(alg)
    complete(completed)
    # one dual for the algebra and one for its completion, each valid by
    # construction with an embedding for its unit; the triangle identities
    # are decided on masks, and G of a valid morphism is a homomorphism by
    # construction, so no map is checked (G of the counit was, once)
    assert calls == {"maximal_filters": 2, "validate_etale": 0, "hom_check": 0}
    assert dual_of(alg) is dual_of(alg)
    fresh = eighteen_element_completion()
    assert alg == fresh and hash(alg) == hash(fresh)


def test_one_triangle_check_builds_each_counit_once(monkeypatch):
    calls = {"_counit": 0, "_counit_map": 0, "validate_morphism": 0, "_morphism_report": 0}
    for name in calls:
        original = getattr(duality, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(duality, name, counted)
    alg = boolean_four().algebra
    assert check_triangle_identities(alg).ok
    # the identities are decided on masks: the counit of the sections is the
    # one point map built, checked once on the topologies of its two spaces,
    # and no space morphism is made; F(unit) and the composites are not built
    once = {"_counit": 0, "_counit_map": 1, "validate_morphism": 0, "_morphism_report": 1}
    assert calls == once
    calls.update(dict.fromkeys(calls, 0))
    # anchored at a space, the left identity reads the support table alone,
    # so the counit of the dual's sections is not built either
    assert check_triangle_identities(F_object(alg)).ok
    assert calls == once


def test_triangle_check_builds_no_completion_of_the_completion():
    alg = eighteen_element_completion()
    assert check_triangle_identities(alg).ok
    assert dual_of(dual_of(alg).sections.algebra)._sections is None
