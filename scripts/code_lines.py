#!/usr/bin/env python
"""Count the code, docstring, comment and blank lines of each Python module
in a directory, and their totals.

A docstring line is a line of the string that opens a module, class or
function body, blank lines inside it included.  Of the other lines, a blank
line holds only whitespace, a comment line only a comment, and every other
line is code, a string that is not a docstring among them.

    python scripts/code_lines.py            # src/drest of this tree
    python scripts/code_lines.py path/to/package --json
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DEFAULT = Path(__file__).resolve().parent.parent / "src" / "drest"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docs = docstring_lines(ast.parse(source))
    # lines holding a token other than a comment or a line end
    coded: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.ENDMARKER):
            coded.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in coded:
            counts["code"] += 1
        elif line.strip():
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def count_tree(root: Path) -> dict[str, dict[str, int]]:
    """The counts of every module under root, by relative path, and their
    sum under "total"."""
    modules = {
        str(path.relative_to(root)): count(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }
    modules["total"] = {kind: sum(c[kind] for c in modules.values()) for kind in KINDS}
    return modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=DEFAULT)
    parser.add_argument("--json", action="store_true", help="print the counts as JSON")
    args = parser.parse_args(argv)
    counts = count_tree(args.root)
    if args.json:
        print(json.dumps(counts, indent=2))
        return 0
    width = max(map(len, counts))
    print(f"{'module':<{width}} " + " ".join(f"{kind:>9}" for kind in KINDS))
    for name, c in counts.items():
        print(f"{name:<{width}} " + " ".join(f"{c[kind]:>9}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
