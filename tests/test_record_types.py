"""The library's record types: 14 named tuples and 12 plain classes, none of
them generated at run time.

Every type compares and hashes by its fields and has a repr built from
them, the same on every build and with no memory address.  A plain class
keeps facts built on first use (a representation, a topology, a view);
they change neither equality, hashing nor the repr.  A named tuple's fields
cannot be assigned, and no named tuple is taken by ``emit_document`` for the
(name, table) pair of an operator document.
"""
from __future__ import annotations

import pytest

from drest.documents import emit_document
from drest.dra import (
    AlgebraMap,
    FiniteAlgebra,
    OpTable,
    from_concrete,
    hom_check,
    representation,
    supports,
    validate_axioms,
)
from drest.duality import (
    DualAlgebra,
    DualRecord,
    EtaleSpace,
    G_object,
    SpaceMorphism,
    check_triangle_identities,
    completion_characterizations,
    completion_report,
    dual_of,
    identity_morphism,
    stone_restriction_checks,
    unit_eta,
    validate_etale,
    validate_morphism,
)
from drest.filters import MaxFilterSpace
from drest.fixtures import get_fixture
from drest.operators import (
    SpaceRelation,
    check_morphism_back_forth,
    check_relation_properties,
    classify_concrete_ops,
    classify_operator,
    relation_from_operator,
)
from drest.pfun import Carrier, ConcretePFAlgebra, PartialFunction, closure_generate

NAMED_TUPLES = (
    "AxiomViolation", "ValidationReport", "HomReport",
    "EtaleReport", "MorphismReport", "TriangleReport", "CompletionReport",
    "CharacterizationEntry", "StoneReport",
    "OperatorReport", "RelationReport", "BackForthReport", "CatalogueEntry",
    "Fixture",
)

# each plain class, the fields its constructor takes, and what builds its
# kept facts
PLAIN = {
    OpTable: (("name", "arity", "size", "entries"), lambda x: None),
    FiniteAlgebra: (
        ("elements", "minus", "rest", "extra_ops"),
        lambda x: (representation(x), supports(x), dual_of(x).sections.space),
    ),
    AlgebraMap: (("source", "target", "table"), lambda x: None),
    EtaleSpace: (
        ("n_points", "n_base", "projection", "basis", "point_labels"), validate_etale
    ),
    SpaceMorphism: (("source", "target", "mapping"), lambda x: None),
    DualAlgebra: (
        ("algebra", "masks", "index", "topology", "_space"), lambda x: (x.sections, x.space)
    ),
    DualRecord: (("mfs", "names"), lambda x: (x.space, x.sections)),
    MaxFilterSpace: (("n", "atoms", "classes", "hats"), lambda x: x.points),
    SpaceRelation: (("name", "space", "arity", "tuples"), lambda x: x.tuples),
    Carrier: (("size", "labels"), lambda x: None),
    PartialFunction: (("carrier", "values"), lambda x: None),
    ConcretePFAlgebra: (("carrier", "elements"), lambda x: x.index(x.elements[0])),
}


def build() -> dict[str, object]:
    """One instance of each of the 26 types, every one built afresh."""
    fixture = get_fixture("disjoint_pair")
    alg, concrete = fixture.algebra, fixture.concrete
    broken = get_fixture("broken_restriction").algebra
    iota = unit_eta(alg)
    record = dual_of(alg)
    space = EtaleSpace(3, 2, (0, 1, 1), tuple(frozenset({x}) for x in range(3)))
    morphism = identity_morphism(space)
    closed = closure_generate(concrete.carrier, concrete.elements, ("difference", "restrict", "domain"))
    with_op = from_concrete(closed, ("domain",))
    bare, table = with_op.with_ops(()), with_op.op("domain")
    relation = relation_from_operator(bare, table)
    return {
        "OpTable": table,
        "FiniteAlgebra": with_op,
        "AlgebraMap": iota,
        "AxiomViolation": validate_axioms(broken).violations[0],
        "ValidationReport": validate_axioms(broken),
        "HomReport": hom_check(iota),
        "EtaleSpace": space,
        "SpaceMorphism": morphism,
        "DualAlgebra": G_object(space),
        "DualRecord": record,
        "EtaleReport": validate_etale(space),
        "MorphismReport": validate_morphism(morphism),
        "TriangleReport": check_triangle_identities(alg),
        "CompletionReport": completion_report(iota),
        "CharacterizationEntry": completion_characterizations(iota, [("unit", iota)])[0],
        "StoneReport": stone_restriction_checks(space),
        "MaxFilterSpace": record.mfs,
        "SpaceRelation": relation,
        "OperatorReport": classify_operator(bare, table),
        "RelationReport": check_relation_properties(relation),
        "BackForthReport": check_morphism_back_forth(
            identity_morphism(relation.space), relation, relation
        ),
        "CatalogueEntry": classify_concrete_ops(concrete, ("domain",))[0],
        "Carrier": concrete.carrier,
        "PartialFunction": concrete.elements[1],
        "ConcretePFAlgebra": concrete,
        "Fixture": fixture,
    }


def test_there_are_26_types_14_of_them_named_tuples():
    values = build()
    assert len(values) == 26 and {type(v).__name__ for v in values.values()} == set(values)
    tuples = {name for name, v in values.items() if isinstance(v, tuple)}
    assert tuples == set(NAMED_TUPLES)
    assert {type(v) for name, v in values.items() if name not in tuples} == set(PLAIN)


@pytest.mark.parametrize("name", sorted(build()))
def test_equal_fields_give_equal_values_hashes_and_reprs(name):
    first, second = build()[name], build()[name]
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == repr(first)
    assert "0x" not in repr(first) and repr(first).startswith(name + "(")


@pytest.mark.parametrize("cls", list(PLAIN), ids=[cls.__name__ for cls in PLAIN])
def test_kept_facts_change_neither_equality_nor_repr(cls):
    value = build()[cls.__name__]
    fields, keep = PLAIN[cls]
    bare = cls(*(getattr(value, f) for f in fields))
    before = repr(value)
    keep(value)
    assert value == bare and hash(value) == hash(bare)
    assert repr(value) == repr(bare) == before


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_named_tuple_fields_cannot_be_assigned(name):
    value = build()[name]
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_no_named_tuple_is_emitted_as_an_operator(name):
    with pytest.raises(TypeError, match=f"cannot emit {name}"):
        emit_document(build()[name])
