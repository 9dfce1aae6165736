"""The library's record types: 14 named tuples and 12 plain classes, none of
them generated at run time.

Every type compares and hashes by its fields and has a repr built from
them, the same on every build and with no memory address.  Each field a
plain class compares counts: changing it alone makes the values unequal,
and changes the repr when the repr shows it.  A plain class keeps facts
built on first use (a representation, a topology, a view); they change
neither equality, hashing nor the repr.  A named tuple's fields
cannot be assigned, and no named tuple is taken by ``emit_document`` for the
(name, table) pair of an operator document.
"""
from __future__ import annotations

import copy

import pytest

from drest.documents import emit_document
from drest.dra import (
    AlgebraMap,
    FiniteAlgebra,
    OpTable,
    from_concrete,
    hom_check,
    identity_map,
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
from drest.pfun import UNDEF, Carrier, ConcretePFAlgebra, PartialFunction, closure_generate

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
        ("algebra", "sections", "index", "topology", "_space"), lambda x: x.space
    ),
    DualRecord: (("mfs", "names"), lambda x: (x.space, x.sections)),
    MaxFilterSpace: (("n", "atoms", "classes", "hats"), lambda x: None),
    SpaceRelation: (("name", "space", "arity", "tuples"), lambda x: x.tuples),
    Carrier: (("size", "labels"), lambda x: None),
    PartialFunction: (("carrier", "values"), lambda x: None),
    ConcretePFAlgebra: (("carrier", "elements"), lambda x: x.index(x.elements[0])),
}

# the fields equality compares, where they are not the constructor's, and
# those the repr leaves out
COMPARED = {
    DualAlgebra: ("sections", "algebra", "space"),
    SpaceRelation: ("name", "space", "arity", "image"),
}
UNSHOWN = {
    DualAlgebra: ("sections", "space"),
    DualRecord: ("names",),
    MaxFilterSpace: ("hats",),
    SpaceRelation: ("image",),
}
FIELDS = [
    (cls, field) for cls in PLAIN for field in COMPARED.get(cls, PLAIN[cls][0])
]

# the repr text of each small instance
REPRS = {
    "OpTable": "OpTable(name='minus', arity=2, size=2, entries=(0, 0, 1, 0))",
    "FiniteAlgebra": (
        "FiniteAlgebra(elements=('{}', '{0}'), "
        "minus=OpTable(name='minus', arity=2, size=2, entries=(0, 0, 1, 0)), "
        "rest=OpTable(name='rest', arity=2, size=2, entries=(0, 0, 0, 1)), extra_ops=())"
    ),
    "AlgebraMap": (
        "AlgebraMap(source=FiniteAlgebra(elements=('{}', '{0}'), "
        "minus=OpTable(name='minus', arity=2, size=2, entries=(0, 0, 1, 0)), "
        "rest=OpTable(name='rest', arity=2, size=2, entries=(0, 0, 0, 1)), extra_ops=()), "
        "target=FiniteAlgebra(elements=('{}', '{0}'), "
        "minus=OpTable(name='minus', arity=2, size=2, entries=(0, 0, 1, 0)), "
        "rest=OpTable(name='rest', arity=2, size=2, entries=(0, 0, 0, 1)), extra_ops=()), "
        "table=(0, 1))"
    ),
    "EtaleSpace": (
        "EtaleSpace(n_points=1, n_base=1, projection=(0,), basis=(frozenset({0}),), "
        "point_labels=None)"
    ),
    "SpaceMorphism": (
        "SpaceMorphism(source=EtaleSpace(n_points=1, n_base=1, projection=(0,), "
        "basis=(frozenset({0}),), point_labels=None), target=EtaleSpace(n_points=1, "
        "n_base=1, projection=(0,), basis=(frozenset({0}),), point_labels=None), "
        "mapping=(0,))"
    ),
    "DualAlgebra": (
        "DualAlgebra(algebra=FiniteAlgebra(elements=('{}', '{0}'), "
        "minus=OpTable(name='minus', arity=2, size=2, entries=(0, 0, 1, 0)), "
        "rest=OpTable(name='rest', arity=2, size=2, entries=(0, 0, 0, 1)), extra_ops=()))"
    ),
    "DualRecord": "DualRecord(mfs=MaxFilterSpace(n=2, atoms=(1,), classes=((0,),)))",
    "MaxFilterSpace": "MaxFilterSpace(n=2, atoms=(1,), classes=((0,),))",
    "SpaceRelation": (
        "SpaceRelation(name='r', space=EtaleSpace(n_points=1, n_base=1, projection=(0,), "
        "basis=(frozenset({0}),), point_labels=None), arity=1)"
    ),
    "Carrier": "Carrier(size=2, labels=None)",
    "PartialFunction": "PartialFunction({0:1})",
    "ConcretePFAlgebra": (
        "ConcretePFAlgebra(carrier=Carrier(size=1, labels=None), "
        "elements=(PartialFunction({}), PartialFunction({0:0})))"
    ),
}


class Other:
    """A value equal only to itself, with a fixed repr."""

    def __repr__(self) -> str:
        return "Other()"


# where a field is read through a view, the slot set in its place and a
# value of the kind the view reads (it builds a space, or renders a graph)
OTHERS = {
    (DualAlgebra, "space"): ("_space", EtaleSpace(0, 0, (), ())),
    (PartialFunction, "carrier"): ("carrier", Carrier(2, ("a", "b"))),
    (PartialFunction, "values"): ("values", (UNDEF, UNDEF)),
}


def small() -> dict[str, object]:
    """One small instance of each plain class, over the one-point space."""
    point = EtaleSpace(1, 1, (0,), (frozenset({0}),))
    sections = G_object(point)
    alg, carrier, one = sections.algebra, Carrier(2), Carrier(1)
    return {
        "OpTable": alg.minus,
        "FiniteAlgebra": alg,
        "AlgebraMap": identity_map(alg),
        "EtaleSpace": point,
        "SpaceMorphism": identity_morphism(point),
        "DualAlgebra": sections,
        "DualRecord": dual_of(alg),
        "MaxFilterSpace": dual_of(alg).mfs,
        "SpaceRelation": SpaceRelation("r", point, 1, {(0, 0)}),
        "Carrier": carrier,
        "PartialFunction": PartialFunction(carrier, (1, -1)),
        "ConcretePFAlgebra": ConcretePFAlgebra(
            one, (PartialFunction.empty(one), PartialFunction.identity(one))
        ),
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


@pytest.mark.parametrize(
    "cls,field", FIELDS, ids=[f"{cls.__name__}.{field}" for cls, field in FIELDS]
)
def test_every_compared_field_counts(cls, field):
    value = build()[cls.__name__]
    slot, other = OTHERS.get((cls, field), (field, Other()))
    twin = copy.copy(value)
    setattr(twin, slot, other)
    assert value != twin and twin != value
    if field not in UNSHOWN.get(cls, ()):
        assert repr(value) != repr(twin)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_the_repr_text_is_pinned(name):
    assert repr(small()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_named_tuple_fields_cannot_be_assigned(name):
    value = build()[name]
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_no_named_tuple_is_emitted_as_an_operator(name):
    with pytest.raises(TypeError, match=f"cannot emit {name}"):
        emit_document(build()[name])
