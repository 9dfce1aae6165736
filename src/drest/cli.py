"""Command-line front end.

Exit codes: 0 when the input is valid and every requested check passes,
1 when a checked property fails (an input algebra or space that is not valid
among them), 2 for unusable input, 3 when an internal invariant breaks or any
other exception escapes (a bug in drest, reported as JSON on stderr).

Each subcommand imports the library modules it runs, after its input has
been parsed and validated, so a process loads only what its command needs.
Every command that reads an algebra also reads a ``pfalgebra`` document,
its tables and representation read off the partial functions; one not
closed under difference and restriction fails validation.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .documents import (
    algebra_to_dict,
    emit_document,
    parse_document,
    pfalgebra_to_dict,
    space_to_dict,
)
from .dra import NotClosed, from_concrete, hom_check, is_proper_hom, representation, validate_axioms

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3
# an algebra comes as tables or as its partial functions
ALGEBRA_KINDS = ("algebra", "pfalgebra")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load(path: str, expect_kind: Optional[str] = None):
    return parse_document(_read(path), expect_kind)


def _fail(message: str, code: int = USAGE) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


class _Invalid(Exception):
    """An input algebra or space fails its defining laws: exit 1."""


def _valid(algebra, side: str = "input"):
    """The algebra itself, once its representation shows the laws hold."""
    if representation(algebra) is None:
        raise _Invalid(f"{side} algebra fails validation")
    return algebra


def _algebra(kind: str, value):
    """An algebra document's value; a pfalgebra's tables read off its partial
    functions, which fail validation when they are not closed under
    difference and restriction."""
    if kind != "pfalgebra":
        return value
    try:
        return from_concrete(value)
    except NotClosed:
        raise _Invalid("input algebra fails validation") from None


def _bare(path: str, names: Sequence[str]):
    """The document's algebra without operations, once valid, and the tables
    of those named.  A pfalgebra is decided closed under difference and
    restriction first, then its names are looked up and held to the operator
    checks' caps at each one's arity, and only then are its tables built:
    one costs n**arity mask operations."""
    kind, value = _load(path, ALGEBRA_KINDS)
    if kind == "pfalgebra":
        from .pfun import BASE_OPS, graph_operations

        if not value.is_closed_under(BASE_OPS):
            raise _Invalid("input algebra fails validation")
        operations = graph_operations(value.carrier.size)
        for name in names:
            if name not in operations:
                raise ValueError(f"no operation named {name!r}")
        if names:
            from .operators import _check_arity_and_size

            for name in names:
                _check_arity_and_size(len(value), operations[name][0])
        value = from_concrete(value, names)
    bare = _valid(value.with_ops(()))
    try:
        return bare, [value.op(name) for name in names]
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    kind, value = _load(args.file)
    if kind == "pfalgebra":
        closed = value.is_closed_under(("difference", "restrict"))
        print(json.dumps({"kind": kind, "closed": closed}))
        return OK if closed else FAIL
    if kind == "algebra":
        report = validate_axioms(value)
        print(
            json.dumps(
                {
                    "kind": kind,
                    "valid": report.ok,
                    "violations": [
                        {"law": v.axiom, "witnesses": list(v.witnesses)}
                        for v in report.violations
                    ],
                },
                sort_keys=True,
            )
        )
        return OK if report.ok else FAIL
    if kind == "space":
        from .duality import validate_etale

        report = validate_etale(value)
        print(
            json.dumps(
                {
                    "kind": kind,
                    "valid": report.ok,
                    "discrete": report.discrete,
                    "failures": list(report.failures),
                },
                sort_keys=True,
            )
        )
        return OK if report.ok else FAIL
    return _fail(f"validate does not handle {kind} documents")


def cmd_filters(args) -> int:
    algebra = _valid(_algebra(*_load(args.file, ALGEBRA_KINDS)))
    from .dra import bits
    from .duality import dual_of

    mfs = dual_of(algebra).mfs
    out = {
        "maximal_filters": [
            sorted(algebra.elements[a] for a in bits(mu)) for mu in mfs.points
        ],
        "classes": [list(cls) for cls in mfs.classes],
        "supports": {
            algebra.elements[a]: list(bits(h)) for a, h in enumerate(mfs.hats)
        },
    }
    print(json.dumps(out, sort_keys=True))
    return OK


def cmd_dualize(args) -> int:
    kind, value = _load(args.file)
    if kind in ALGEBRA_KINDS:
        algebra = _valid(_algebra(kind, value))
        from .duality import F_object

        sys.stdout.write(emit_document(F_object(algebra)))
        return OK
    if kind == "space":
        from .duality import G_object, InvalidSpace

        try:
            dual = G_object(value)
        except InvalidSpace as exc:
            raise _Invalid(str(exc)) from None
        sys.stdout.write(emit_document(dual.algebra))
        return OK
    return _fail(f"dualize does not handle {kind} documents")


def cmd_complete(args) -> int:
    bare, tables = _bare(args.file, args.with_op)
    if tables:  # an operator is refused before the completion is built
        from .operators import _carry, _require_carriable

        _require_carriable(bare, tables)
    from .duality import canonical_completion

    iota, report = canonical_completion(bare)
    sys.stdout.write(emit_document(_carry(bare, tables, iota)[1] if tables else iota))
    print(
        json.dumps(
            {
                "embedding": report.embedding,
                "target_complete": report.target_complete,
                "image_dense": report.image_dense,
                "source_size": iota.source.n,
                "target_size": iota.target.n,
            }
        ),
        file=sys.stderr,
    )
    return OK


def cmd_roundtrip(args) -> int:
    kind, value = _load(args.file)
    if kind in ALGEBRA_KINDS:
        value, kind = _valid(_algebra(kind, value).with_ops(())), "algebra"
    elif kind != "space":
        return _fail(f"roundtrip does not handle {kind} documents")
    from .duality import (
        InvalidSpace,
        check_triangle_identities,
        complete,
        counit_lambda,
        lambda_naturality_square,
    )

    try:  # only a space can be invalid: an algebra's dual space is valid
        triangles = check_triangle_identities(value)
    except InvalidSpace as exc:
        raise _Invalid(str(exc)) from None
    results = {
        "triangle_space_side": triangles.space_side,
        "triangle_algebra_side": triangles.algebra_side,
    }
    if kind == "algebra":
        # a complete algebra is its own completion, and complete refuses a
        # completion whose report does not find it complete
        complete(value)
        results["completion_idempotent"] = True
    else:
        results["counit_naturality"] = lambda_naturality_square(counit_lambda(value))
    print(json.dumps(results, sort_keys=True))
    return OK if all(results.values()) else FAIL


def cmd_check_hom(args) -> int:
    _, mapping = _load(args.file, "morphism")
    _valid(mapping.source, "source")
    _valid(mapping.target, "target")
    report = hom_check(mapping)
    out = {
        "hom": report.is_hom,
        "injective": report.injective,
        "embedding": report.is_embedding,
        "proper": is_proper_hom(mapping) if report.is_hom else None,
        "violations": list(report.violations),
    }
    print(json.dumps(out, sort_keys=True))
    if args.dualize:
        if not report.is_hom:
            return _fail("cannot dualize a non-homomorphism", FAIL)
        from .duality import F_morphism

        dual = F_morphism(mapping)
        print(
            json.dumps(
                {
                    "source": space_to_dict(dual.source),
                    "target": space_to_dict(dual.target),
                    "map": list(dual.mapping),
                },
                sort_keys=True,
            )
        )
    return OK if report.is_hom else FAIL


def cmd_check_op(args) -> int:
    bare, (table,) = _bare(args.file, [args.op])
    from .operators import classify_operator, relation_from_operator

    report = classify_operator(bare, table)
    out = {
        "name": report.name,
        "arity": report.arity,
        "compat_preserving": report.compat_preserving,
        "normal": report.normal,
        "additive": report.additive,
        "operator": report.is_operator,
        "compat_preserving_operator": report.is_compat_preserving_operator,
        "witnesses": list(report.witnesses),
    }
    print(json.dumps(out, sort_keys=True))
    if args.relation:
        rel = relation_from_operator(bare, table)
        sys.stdout.write(emit_document(rel))
    return OK if report.is_compat_preserving_operator else FAIL


def cmd_classify_op(args) -> int:
    _, algebra = _load(args.file, "pfalgebra")
    from .operators import classify_concrete_ops

    entries = classify_concrete_ops(algebra)
    out = []
    for entry in entries:
        row = {"operation": entry.operation, "implemented": entry.implemented}
        if entry.note:
            row["note"] = entry.note
        if entry.report is not None:
            row.update(
                compat_preserving=entry.report.compat_preserving,
                normal=entry.report.normal,
                additive=entry.report.additive,
                compat_preserving_operator=entry.report.is_compat_preserving_operator,
            )
        out.append(row)
    print(json.dumps(out, sort_keys=True))
    return OK


def cmd_catalog(args) -> int:
    from .fixtures import FIXTURES, get_fixture

    out = {}
    for name in sorted(FIXTURES):
        fixture = get_fixture(name)
        out[name] = {
            "description": fixture.description,
            "algebra": algebra_to_dict(fixture.algebra),
            "pfalgebra": (
                pfalgebra_to_dict(fixture.concrete) if fixture.concrete else None
            ),
        }
    print(json.dumps(out, indent=2, sort_keys=True))
    return OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drest",
        description="finite difference-restriction algebras and their dual spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the defining laws of a document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("filters", help="maximal filters and element supports")
    p.add_argument("file")
    p.set_defaults(fn=cmd_filters)

    p = sub.add_parser("dualize", help="algebra to space, or space to algebra")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dualize)

    p = sub.add_parser("complete", help="finite compatible completion")
    p.add_argument("file")
    p.add_argument("--with-op", action="append", default=[], metavar="NAME")
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("roundtrip", help="triangle identities and idempotence")
    p.add_argument("file")
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("check-hom", help="homomorphism and embedding report")
    p.add_argument("file")
    p.add_argument("--dualize", action="store_true")
    p.set_defaults(fn=cmd_check_hom)

    p = sub.add_parser("check-op", help="operator classification")
    p.add_argument("file")
    p.add_argument("op")
    p.add_argument("--relation", action="store_true")
    p.set_defaults(fn=cmd_check_op)

    p = sub.add_parser("classify-op", help="classify concrete operations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify_op)

    p = sub.add_parser("catalog", help="emit the built-in fixtures")
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _Invalid as exc:
        return _fail(str(exc), FAIL)
    except (OSError, ValueError) as exc:  # documents and caps among them
        return _fail(str(exc))
    except AssertionError as exc:
        return _fail(str(exc), INTERNAL)
    except Exception as exc:  # any other escape is a bug, not a verdict
        return _fail(f"internal error: {type(exc).__name__}: {exc}", INTERNAL)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
