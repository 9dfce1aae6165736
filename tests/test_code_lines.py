"""The line kinds ``scripts/code_lines.py`` counts, on a synthetic module."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = sys.modules["code_lines"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring

over three lines."""
import os  # a trailing comment makes no comment line

# a comment line
    # an indented one


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """not a docstring,
# nor a comment"""
        return (text,
                os.sep)


def bare():
    pass
'''


def test_each_line_has_one_kind():
    counts = code_lines.count(MODULE)
    assert counts == {"code": 9, "docstring": 6, "comment": 2, "blank": 6}
    assert sum(counts.values()) == len(MODULE.splitlines())


def test_a_tree_is_counted_by_module_with_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path), "--json"]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert list(counts) == ["pkg/a.py", "pkg/b.py", "total"]
    assert counts["pkg/b.py"] == {"code": 1, "docstring": 0, "comment": 1, "blank": 1}
    assert counts["total"] == {"code": 10, "docstring": 6, "comment": 3, "blank": 7}
    assert code_lines.main([str(tmp_path)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["module", *code_lines.KINDS]
    assert table[-1].split() == ["total", "10", "6", "3", "7"]
