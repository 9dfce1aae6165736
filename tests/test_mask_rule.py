"""Point and element sets are int masks inside the library.

A frozenset may appear only where a set crosses the library's boundary: the
JSON documents, a space's basis as its caller gives it, the frozenset basis
of the dual space F(A), the relation tuples, and ``opens`` and
``all_proper_filters``, which the benchmark reads by name.  Every other
point, filter, section and preimage is a mask, with no frozenset copy, and a
partial function has no frozenset domain or image (those forms are
oracles).  The source of ``src/drest`` is scanned,
so a new frozenset form of mask data fails here.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drest"

ALLOWED = {
    ("documents", "relation_from_dict"),
    ("documents", "space_from_dict"),
    ("duality", "EtaleSpace.__init__"),
    ("duality", "_dual_space"),
    ("duality", "opens"),
    ("filters", "all_proper_filters"),
    ("operators", "SpaceRelation.__init__"),
    ("operators", "SpaceRelation.tuples"),
}


def mentions(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "frozenset" for sub in ast.walk(node))


def frozenset_users() -> set[tuple[str, str]]:
    """(module, name) of each top-level statement that mentions frozenset,
    a class named by its member that does."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                found |= {
                    (path.stem, f"{node.name}.{getattr(member, 'name', type(member).__name__)}")
                    for member in node.body
                    if mentions(member)
                }
            elif mentions(node):
                found.add((path.stem, getattr(node, "name", type(node).__name__)))
    return found


def test_only_the_boundary_mentions_frozenset():
    assert frozenset_users() == ALLOWED
