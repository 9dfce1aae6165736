"""Facts decided once and kept: the representation an algebra built from
masks reads off them, the facts ``with_ops`` shares, the operator store, and
dual records that hold no reference cycle.

An algebra built from masks, a concrete algebra's graphs or a space's
sections, derives no representation until one is read, then derives it once
from its masks, with neither ``_represent`` nor ``up_masks`` run; it must be
the one ``_represent`` finds from the tables alone, on the corpus, seeded
three-seed closures, catalogue-operation closures, the fixtures, hypothesis
seed sets and the section algebras of every valid space of at most three
points and of hypothesis spaces.  An operator is classified, and its
relation built, once per (algebra, table), with the reports a fresh algebra
gives.  A dual record holds masks, its points and sections among them: the
completion and the triangle check build no space of it.  A space keeps its
validation report, so it is validated once.  A roundtrip and an operator
completion, dropped, leave nothing for the cyclic collector.
"""
from __future__ import annotations

import gc
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from conftest import operator_cases, small_spaces, three_seed_closures, valid_spaces
from drest import dra, duality, filters, operators
from drest.documents import emit_document, parse_document
from drest.dra import FiniteAlgebra, from_concrete
from drest.duality import EtaleSpace, G_object, dual_of, validate_etale
from drest.fixtures import FIXTURES, get_fixture
from drest.operators import CATALOGUE, NOT_IMPLEMENTED, OPERATOR_ALGEBRA_CAP
from drest.pfun import Carrier, ConcretePFAlgebra, PartialFunction, closure_generate, enumerate_all_pfs


def tables_alone(alg: FiniteAlgebra) -> FiniteAlgebra:
    return FiniteAlgebra(alg.elements, alg.minus, alg.rest)


FINDERS = ("_represent", "up_masks", "_mask_representation")


@contextmanager
def finder_calls():
    """The number of calls to each way of finding a representation."""
    calls = dict.fromkeys(FINDERS, 0)
    with pytest.MonkeyPatch.context() as patch:
        for name in FINDERS:
            original = getattr(dra, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            patch.setattr(dra, name, counted)
        yield calls


def assert_read_off_the_masks(build) -> FiniteAlgebra:
    """The algebra build() makes reads its representation off its masks on
    first use, once, and it is the one its tables give."""
    with finder_calls() as calls:
        alg = build()
        assert calls == dict.fromkeys(FINDERS, 0)
        rep = dra.representation(alg)
        assert dra.representation(alg) is rep
        assert calls == {"_represent": 0, "up_masks": 0, "_mask_representation": 1}
    assert rep == dra._represent(tables_alone(alg))
    return alg


def assert_read_off_the_graphs(concrete, extra_ops=()) -> FiniteAlgebra:
    return assert_read_off_the_masks(lambda: from_concrete(concrete, extra_ops))


def catalogue_closures(concretes):
    for concrete in concretes:
        for op in CATALOGUE:
            if op in NOT_IMPLEMENTED:
                continue
            try:
                closed = closure_generate(
                    concrete.carrier, concrete.elements, ops=("difference", "restrict", op)
                )
            except ValueError:
                continue
            if len(closed) <= 2 * OPERATOR_ALGEBRA_CAP:
                yield closed, op


def test_the_corpus_reads_its_representation_off_the_graphs(closure_corpus):
    assert len(closure_corpus) == 1944
    for concrete in closure_corpus:
        assert_read_off_the_graphs(concrete)


def test_three_seed_closures_read_their_representation_off_the_graphs():
    for concrete in three_seed_closures(random.Random(20), 60):
        assert_read_off_the_graphs(concrete)


def test_catalogue_closures_read_their_representation_off_the_graphs(closure_corpus):
    fixtures = [get_fixture(name).concrete for name in FIXTURES]
    concretes = [c for c in fixtures if c is not None] + closure_corpus[::25]
    ops = set()
    for closed, op in catalogue_closures(concretes):
        assert_read_off_the_graphs(closed, (op,))
        ops.add(op)
    assert ops == set(CATALOGUE) - set(NOT_IMPLEMENTED)


def test_pfalgebra_fixtures_read_their_representation_off_the_graphs():
    for name in FIXTURES:
        concrete = get_fixture(name).concrete
        if concrete is not None:
            kind, parsed = parse_document(emit_document(concrete))
            assert kind == "pfalgebra" and parsed == concrete
            assert_read_off_the_graphs(parsed)


def test_one_atom_may_hold_several_pairs():
    # the points are the atoms, not the graph pairs: {(0,0),(1,1)} is one
    # atom with two pairs, so the closure has one point
    carrier = Carrier(2)
    closed = closure_generate(carrier, [PartialFunction.from_graph(carrier, [(0, 0), (1, 1)])])
    assert dra.representation(assert_read_off_the_graphs(closed)) == ((1,), ((0,),), (0, 1))


def test_the_restrictions_of_a_function_on_seven_points():
    # 128 elements and 7 points, past the closure cap
    carrier = Carrier(7)
    total = (3, 0, 6, 3, 1, 1, 5)
    elements = sorted(
        (PartialFunction(carrier, tuple(v if s >> x & 1 else -1 for x, v in enumerate(total)))
         for s in range(1 << 7)),
        key=lambda f: f.sort_key,
    )
    family = ConcretePFAlgebra(carrier, tuple(elements))
    assert len(dra.representation(assert_read_off_the_graphs(family))[0]) == 7


@st.composite
def seed_sets(draw):
    size = draw(st.integers(1, 3))
    carrier = Carrier(size)
    pool = enumerate_all_pfs(carrier)
    seeds = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=4))
    return carrier, seeds


@settings(max_examples=150, deadline=None)
@given(seed_sets())
def test_seed_sets_read_their_representation_off_the_graphs(drawn):
    carrier, seeds = drawn
    assert_read_off_the_graphs(closure_generate(carrier, seeds))


def test_section_algebras_of_small_spaces_read_their_representation_off_the_masks():
    valid = [space for space in small_spaces() if validate_etale(space).ok]
    assert len(valid) > 100
    for space in valid:
        assert_read_off_the_masks(lambda: G_object(space).algebra)


@settings(max_examples=100, deadline=None)
@given(valid_spaces())
def test_section_algebras_of_generated_spaces_read_their_representation_off_the_masks(space):
    assert_read_off_the_masks(lambda: G_object(space).algebra)


def test_completions_read_their_representation_off_the_masks(closure_corpus):
    for concrete in closure_corpus[::20]:
        alg = from_concrete(concrete)
        dual = duality.dual_of(alg)
        completed = assert_read_off_the_masks(lambda: dual.sections.algebra)
        assert duality.complete(alg)[0] is completed
        dual = duality.dual_of(completed)
        assert_read_off_the_masks(lambda: dual.sections.algebra)


def test_concrete_input_has_no_representation_searched_for():
    spaces = [
        EtaleSpace(n, len(set(p)), p, tuple(frozenset({x}) for x in range(n)))
        for p in ((0,), (0, 0), (0, 1), (0, 0, 1), (0, 1, 0, 1), (0, 1, 2, 0, 1))
        for n in [len(p)]
    ]
    with finder_calls() as calls:
        for name in FIXTURES:
            concrete = get_fixture(name).concrete
            if concrete is None:
                continue
            alg = from_concrete(concrete)
            assert dra.validate_axioms(alg).ok
            completed, _ = duality.complete(alg)
            duality.complete(completed)
            assert duality.check_triangle_identities(alg).ok
            operators.classify_concrete_ops(concrete)
        for space in spaces:
            sections = G_object(space).algebra
            assert dra.validate_axioms(sections).ok and filters.maximal_filters(sections)
            duality.complete(sections)
            assert duality.check_triangle_identities(space).ok
    assert calls["_represent"] == calls["up_masks"] == 0 < calls["_mask_representation"]


def test_with_ops_keeps_every_fact():
    concrete = get_fixture("boolean_four").concrete
    alg = from_concrete(concrete, extra_ops=("domain",))
    duality.complete(alg)
    dra.supports(alg)
    bare = alg.with_ops(())
    assert bare.extra_ops == () and bare == tables_alone(alg)
    for name in dra._KEPT:
        assert getattr(bare, name) is getattr(alg, name) is not None
    # the operator store is shared, so a fact found on either serves both
    operators.classify_operator(bare, alg.op("domain"))
    assert alg._operators is bare._operators and len(alg._operators) == 1


def test_max_filter_space_holds_the_element_count():
    alg = get_fixture("disjoint_pair").algebra
    mfs = filters.maximal_filters(alg)
    assert mfs.n == alg.n and not hasattr(mfs, "algebra")


def test_maximal_filters_are_built_once_and_shared_with_the_dual_record(monkeypatch):
    built = []
    original = filters.MaxFilterSpace.__init__
    monkeypatch.setattr(
        filters.MaxFilterSpace,
        "__init__",
        lambda self, *args: built.append(self) or original(self, *args),
    )
    concrete = get_fixture("boolean_four").concrete
    for filters_first in (True, False):
        alg = from_concrete(concrete)
        if filters_first:
            mfs = filters.maximal_filters(alg)
            assert dual_of(alg).mfs is mfs
        else:
            mfs = dual_of(alg).mfs
        assert filters.maximal_filters(alg) is mfs
        assert filters.maximal_filters(alg.with_ops(())) is mfs
        assert built == [mfs]
        built.clear()
    # an algebra equal to it but built apart has its own
    assert filters.maximal_filters(from_concrete(concrete)) == mfs and len(built) == 1


@pytest.fixture
def check_calls(monkeypatch):
    """(check, store, table) for every operator check and relation built:
    the algebra's operator store, kept alive so that its id is not reused."""
    calls = []
    for name in ("check_compat_preserving", "check_normal", "check_additive", "_relation"):
        original = getattr(operators, name)

        def counted(alg, table, name=name, original=original):
            calls.append((name, alg._operators, table))
            return original(alg, table)

        monkeypatch.setattr(operators, name, counted)
    return calls


def test_each_operator_is_classified_once(closure_corpus, check_calls):
    cases = list(operator_cases(closure_corpus, 40))
    carried = 0
    for alg, table in cases:
        fresh = tables_alone(alg)
        report = operators.classify_operator(alg, table)
        assert operators.classify_operator(alg, table) is report
        assert report == operators._classify(fresh, table)
        if not report.is_compat_preserving_operator:
            continue
        rel = operators.relation_from_operator(alg, table)
        assert operators.relation_from_operator(alg.with_ops([table]), table) is rel
        fresh_rel = operators._relation(fresh, table)
        assert rel == fresh_rel and rel.image == fresh_rel.image
        assert operators.check_eta_preserves_operator(alg, table)
        try:
            operators.complete_with_operators(alg, [table])
            carried += 1
        except ValueError:
            pass
    assert carried > 50
    # each fresh algebra above is checked once too, so every (check, store,
    # table) appears once, and two stores per case
    keys = [(name, id(store), table) for name, store, table in check_calls]
    assert len(keys) == len(set(keys))
    assert len({key[1:] for key in keys}) == 2 * len(cases)


def drest_garbage() -> list:
    """The types of the drest objects only the cyclic collector would free;
    they are freed afterwards."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [type(o) for o in gc.garbage if type(o).__module__.startswith("drest")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


def test_completion_and_triangle_check_build_no_view(closure_corpus, monkeypatch):
    def refuse(*args):
        raise AssertionError("built")

    monkeypatch.setattr(EtaleSpace, "__init__", refuse)
    for concrete in closure_corpus[::97]:
        alg = from_concrete(concrete)
        completed, _ = duality.complete(alg)
        assert duality.check_triangle_identities(alg).ok
        duality.complete(completed)
        for record in (dual_of(alg), dual_of(completed)):
            assert record._space is None
            assert not isinstance(record._sections._space, EtaleSpace)
    monkeypatch.undo()
    assert dual_of(alg).space.n_points == len(dual_of(alg).mfs.points)


def test_a_space_is_validated_once(monkeypatch):
    validated = []
    original = duality._etale_report
    monkeypatch.setattr(
        duality, "_etale_report", lambda space, top: validated.append(space) or original(space, top)
    )
    space = EtaleSpace(3, 2, (0, 1, 1), tuple(frozenset({x}) for x in range(3)))
    report = validate_etale(space)
    assert report.ok and duality._topology(space).report is report
    G_object(space)
    counit = duality.counit_lambda(space)
    for _ in range(2):  # the square validates both spaces of the counit
        assert duality.lambda_naturality_square(counit)
    assert validate_etale(space) is report
    assert len(validated) == 2 and validated[0] is space and validated[1] is counit.target


def test_dropped_results_leave_no_cyclic_garbage(closure_corpus):
    gc.collect()
    gc.disable()  # so that no automatic collection frees a cycle first
    try:
        for concrete in closure_corpus[::50]:
            alg = from_concrete(concrete)
            completed, _ = duality.complete(alg)
            duality.check_triangle_identities(alg)
            duality.complete(completed)
        for alg, table in operator_cases(closure_corpus, 80):
            if operators.classify_operator(alg, table).is_compat_preserving_operator:
                operators.check_relation_properties(operators.relation_from_operator(alg, table))
                try:
                    operators.complete_with_operators(alg, [table])
                except ValueError:
                    pass
        del alg, completed, table
        assert drest_garbage() == []
    finally:
        gc.enable()
