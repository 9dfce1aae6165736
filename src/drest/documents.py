"""JSON document formats for every object the command line handles.

Each document carries a "kind" and a "version".  Tables are written with
element names rather than indices so files stay reviewable; parsing resolves
the names and reports failures with a JSON-path position.
"""
from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Any, Optional, Union

from .dra import SECTION_CAP, AlgebraMap, FiniteAlgebra, OpTable

if TYPE_CHECKING:
    from .duality import EtaleSpace
    from .operators import SpaceRelation
    from .pfun import ConcretePFAlgebra

FORMAT_VERSION = 1
# a pfalgebra document spells out every element, but each one is stored over
# the whole carrier, so the carrier size is the only number in it that
# multiplies memory; the closure and catalogue checks stop at 4 points
PFALGEBRA_CARRIER_CAP = 64

KINDS = ("algebra", "pfalgebra", "space", "morphism", "operator", "relation")


class DocumentError(ValueError):
    """A schema problem, located by a JSON path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _expect(value: Any, kind: type, path: str) -> Any:
    if kind is int and isinstance(value, bool):
        raise DocumentError(path, "expected an integer, got a boolean")
    if not isinstance(value, kind):
        raise DocumentError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _field(obj: dict, name: str, kind: type, path: str) -> Any:
    if name not in obj:
        raise DocumentError(f"{path}.{name}", "missing field")
    return _expect(obj[name], kind, f"{path}.{name}")


def _labels(doc: dict, path: str) -> Optional[tuple[str, ...]]:
    """The optional "labels" field: a list of strings, or absent or null."""
    labels = doc.get("labels")
    if labels is None:
        return None
    _expect(labels, list, f"{path}.labels")
    return tuple(_expect(l, str, f"{path}.labels[{i}]") for i, l in enumerate(labels))


def _resolve(name: Any, index: dict[str, int], path: str) -> int:
    _expect(name, str, path)
    if name not in index:
        raise DocumentError(path, f"unknown element {name!r}")
    return index[name]


def _op_table(doc: Any, index: dict[str, int], path: str) -> OpTable:
    """An operation: a name, an arity and n ** arity entries named by index."""
    _expect(doc, dict, path)
    name = _field(doc, "name", str, path)
    arity = _field(doc, "arity", int, path)
    if arity < 0:
        raise DocumentError(f"{path}.arity", "arity must be nonnegative")
    entries = _field(doc, "entries", list, path)
    n = len(index)
    # for n >= 2, n ** arity passes the entry count once arity exceeds its
    # bit length, so a huge arity is refused before the power is taken
    if n > 1 and arity > len(entries).bit_length() or len(entries) != n**arity:
        raise DocumentError(
            f"{path}.entries", f"operation {name!r} of arity {arity} needs {n}^{arity} entries"
        )
    return OpTable(
        name,
        arity,
        n,
        tuple(_resolve(e, index, f"{path}.entries[{i}]") for i, e in enumerate(entries)),
    )


# ---------------------------------------------------------------------------
# algebra

def algebra_to_dict(algebra: FiniteAlgebra) -> dict:
    n = algebra.n
    names = algebra.elements

    def rows(table: OpTable) -> list[list[str]]:
        return [
            [names[table(x, y)] for y in range(n)] for x in range(n)
        ]

    doc = {
        "kind": "algebra",
        "version": FORMAT_VERSION,
        "elements": list(names),
        "minus": rows(algebra.minus),
        "rest": rows(algebra.rest),
        "ops": [
            {
                "name": t.name,
                "arity": t.arity,
                "entries": [names[e] for e in t.entries],
            }
            for t in algebra.extra_ops
        ],
    }
    return doc


def algebra_from_dict(doc: dict, path: str = "$") -> FiniteAlgebra:
    elements = _field(doc, "elements", list, path)
    names: list[str] = []
    for i, e in enumerate(elements):
        names.append(_expect(e, str, f"{path}.elements[{i}]"))
    if len(set(names)) != len(names):
        raise DocumentError(f"{path}.elements", "element names must be distinct")
    n = len(names)
    if n == 0:
        raise DocumentError(f"{path}.elements", "an algebra needs at least one element")
    index = {name: i for i, name in enumerate(names)}

    def table(field_name: str) -> OpTable:
        rows = _field(doc, field_name, list, path)
        if len(rows) != n:
            raise DocumentError(f"{path}.{field_name}", f"expected {n} rows")
        entries: list[int] = []
        for i, row in enumerate(rows):
            _expect(row, list, f"{path}.{field_name}[{i}]")
            if len(row) != n:
                raise DocumentError(f"{path}.{field_name}[{i}]", f"expected {n} entries")
            for j, cell in enumerate(row):
                entries.append(_resolve(cell, index, f"{path}.{field_name}[{i}][{j}]"))
        return OpTable(field_name, 2, n, tuple(entries))

    ops = _expect(doc.get("ops", []), list, f"{path}.ops")
    extras = [_op_table(op, index, f"{path}.ops[{k}]") for k, op in enumerate(ops)]
    return FiniteAlgebra(tuple(names), table("minus"), table("rest"), tuple(extras))


# ---------------------------------------------------------------------------
# concrete partial-function algebra

def pfalgebra_to_dict(algebra: ConcretePFAlgebra) -> dict:
    return {
        "kind": "pfalgebra",
        "version": FORMAT_VERSION,
        "carrier": algebra.carrier.size,
        "labels": list(algebra.carrier.labels) if algebra.carrier.labels else None,
        "elements": [[list(p) for p in f.graph] for f in algebra.elements],
    }


def pfalgebra_from_dict(doc: dict, path: str = "$") -> ConcretePFAlgebra:
    from .pfun import Carrier, ConcretePFAlgebra, PartialFunction

    size = _field(doc, "carrier", int, path)
    if size < 1:
        raise DocumentError(f"{path}.carrier", "carrier size must be positive")
    if size > PFALGEBRA_CARRIER_CAP:
        raise DocumentError(f"{path}.carrier", f"carrier capped at {PFALGEBRA_CARRIER_CAP} points")
    labels = _labels(doc, path)
    try:
        carrier = Carrier(size, labels)
    except ValueError as exc:
        raise DocumentError(f"{path}.labels", str(exc)) from None
    graphs = _field(doc, "elements", list, path)
    # closure checks take n^2 operations; no larger algebra could be completed
    if len(graphs) > SECTION_CAP:
        raise DocumentError(f"{path}.elements", f"elements capped at {SECTION_CAP}")
    functions = []
    for i, graph in enumerate(graphs):
        g_path = f"{path}.elements[{i}]"
        _expect(graph, list, g_path)
        pairs = []
        for j, pair in enumerate(graph):
            _expect(pair, list, f"{g_path}[{j}]")
            if len(pair) != 2:
                raise DocumentError(f"{g_path}[{j}]", "expected a [point, value] pair")
            x = _expect(pair[0], int, f"{g_path}[{j}][0]")
            y = _expect(pair[1], int, f"{g_path}[{j}][1]")
            pairs.append((x, y))
        try:
            functions.append(PartialFunction.from_graph(carrier, pairs))
        except ValueError as exc:
            raise DocumentError(g_path, str(exc)) from None
    seen = set()
    for i, f in enumerate(functions):
        if f.values in seen:
            raise DocumentError(f"{path}.elements[{i}]", "duplicate element")
        seen.add(f.values)
    # normalization: canonical element order, empty function always present
    ordered = sorted(
        {f.values for f in functions} | {(-1,) * size},
        key=lambda v: tuple(x + 1 for x in v),
    )
    return ConcretePFAlgebra(
        carrier, tuple(PartialFunction(carrier, v) for v in ordered)
    )


# ---------------------------------------------------------------------------
# space

def space_to_dict(space: EtaleSpace) -> dict:
    return {
        "kind": "space",
        "version": FORMAT_VERSION,
        "points": space.n_points,
        "base": space.n_base,
        "labels": list(space.point_labels) if space.point_labels else None,
        "projection": list(space.projection),
        "basis": sorted(sorted(u) for u in space.basis),
    }


def space_from_dict(doc: dict, path: str = "$") -> EtaleSpace:
    n_points = _field(doc, "points", int, path)
    n_base = _field(doc, "base", int, path)
    projection = _field(doc, "projection", list, path)
    proj = tuple(
        _expect(p, int, f"{path}.projection[{i}]") for i, p in enumerate(projection)
    )
    labels = _labels(doc, path)
    basis_doc = _field(doc, "basis", list, path)
    basis = []
    for i, u in enumerate(basis_doc):
        _expect(u, list, f"{path}.basis[{i}]")
        basis.append(
            frozenset(
                _expect(x, int, f"{path}.basis[{i}][{j}]") for j, x in enumerate(u)
            )
        )
    from .duality import EtaleSpace

    try:
        return EtaleSpace(n_points, n_base, proj, tuple(basis), labels)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# maps, operators, relations

def morphism_to_dict(mapping: AlgebraMap) -> dict:
    return {
        "kind": "morphism",
        "version": FORMAT_VERSION,
        "source": algebra_to_dict(mapping.source),
        "target": algebra_to_dict(mapping.target),
        "map": [mapping.target.elements[t] for t in mapping.table],
    }


def morphism_from_dict(doc: dict, path: str = "$") -> AlgebraMap:
    source = algebra_from_dict(
        _field(doc, "source", dict, path), f"{path}.source"
    )
    target = algebra_from_dict(
        _field(doc, "target", dict, path), f"{path}.target"
    )
    images = _field(doc, "map", list, path)
    if len(images) != source.n:
        raise DocumentError(f"{path}.map", "one image per source element required")
    index = {name: i for i, name in enumerate(target.elements)}
    table = tuple(
        _resolve(img, index, f"{path}.map[{i}]") for i, img in enumerate(images)
    )
    return AlgebraMap(source, target, table)


def operator_to_dict(algebra: FiniteAlgebra, table: OpTable) -> dict:
    return {
        "kind": "operator",
        "version": FORMAT_VERSION,
        "algebra": algebra_to_dict(algebra),
        "name": table.name,
        "arity": table.arity,
        "entries": [algebra.elements[e] for e in table.entries],
    }


def operator_from_dict(doc: dict, path: str = "$") -> tuple[FiniteAlgebra, OpTable]:
    algebra = algebra_from_dict(
        _field(doc, "algebra", dict, path), f"{path}.algebra"
    )
    table = _op_table(doc, {name: i for i, name in enumerate(algebra.elements)}, path)
    return algebra, table


def relation_to_dict(rel: SpaceRelation) -> dict:
    return {
        "kind": "relation",
        "version": FORMAT_VERSION,
        "space": space_to_dict(rel.space),
        "name": rel.name,
        "arity": rel.arity,
        "tuples": sorted(list(t) for t in rel.tuples),
    }


def relation_from_dict(doc: dict, path: str = "$") -> SpaceRelation:
    space = space_from_dict(_field(doc, "space", dict, path), f"{path}.space")
    name = _field(doc, "name", str, path)
    arity = _field(doc, "arity", int, path)
    from .operators import OPERATOR_ARITY_CAP, SpaceRelation

    if arity < 0:
        raise DocumentError(f"{path}.arity", "arity must be nonnegative")
    if arity > OPERATOR_ARITY_CAP:
        raise DocumentError(f"{path}.arity", f"relation arity capped at {OPERATOR_ARITY_CAP}")
    tuples_doc = _field(doc, "tuples", list, path)
    tuples = []
    for i, t in enumerate(tuples_doc):
        _expect(t, list, f"{path}.tuples[{i}]")
        tuples.append(
            tuple(
                _expect(x, int, f"{path}.tuples[{i}][{j}]") for j, x in enumerate(t)
            )
        )
    try:
        return SpaceRelation(name, space, arity, frozenset(tuples))
    except ValueError as exc:
        raise DocumentError(f"{path}.tuples", str(exc)) from None


# ---------------------------------------------------------------------------
# front door

_PARSERS = {
    "algebra": algebra_from_dict,
    "pfalgebra": pfalgebra_from_dict,
    "space": space_from_dict,
    "morphism": morphism_from_dict,
    "operator": operator_from_dict,
    "relation": relation_from_dict,
}

# (defining module, class, emitter): a value's class is loaded once the value
# exists, so a module not yet imported holds no class to test against
_EMITTERS = (
    ("drest.dra", "FiniteAlgebra", algebra_to_dict),
    ("drest.pfun", "ConcretePFAlgebra", pfalgebra_to_dict),
    ("drest.duality", "EtaleSpace", space_to_dict),
    ("drest.dra", "AlgebraMap", morphism_to_dict),
    ("drest.operators", "SpaceRelation", relation_to_dict),
)


def parse_document(text: str, expect_kind: Union[str, tuple[str, ...], None] = None):
    """Parse a JSON document into its value; returns (kind, value).  The
    kind may be required to be one kind or one of a tuple of them, a
    refusal naming the first."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"not valid JSON: {exc}") from None
    _expect(doc, dict, "$")
    kind = _field(doc, "kind", str, "$")
    if kind not in KINDS:
        raise DocumentError("$.kind", f"unknown kind {kind!r}")
    version = _field(doc, "version", int, "$")
    if version != FORMAT_VERSION:
        raise DocumentError("$.version", f"unsupported version {version}")
    if isinstance(expect_kind, str):
        expect_kind = (expect_kind,)
    if expect_kind is not None and kind not in expect_kind:
        expected = expect_kind[0]
        article = "an" if expected[0] in "aeiou" else "a"
        raise DocumentError("$.kind", f"expected {article} {expected} document, got {kind}")
    return kind, _PARSERS[kind](doc)


def emit_document(value) -> str:
    """Serialize a supported value to normalized JSON text."""
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], OpTable):
        doc = operator_to_dict(*value)
    else:
        for module, cls, emitter in _EMITTERS:
            home = sys.modules.get(module)
            if home is not None and isinstance(value, getattr(home, cls)):
                doc = emitter(value)
                break
        else:
            raise TypeError(f"cannot emit {type(value).__name__}")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
