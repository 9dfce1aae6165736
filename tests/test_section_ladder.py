"""``scripts/section_ladder.py`` at tiny sizes: one JSON row per size."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("section_ladder", ROOT / "scripts" / "section_ladder.py")
section_ladder = sys.modules["section_ladder"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(section_ladder)


def test_tiny_ladder_prints_one_row_per_size(capsys):
    assert section_ladder.main(["--max-sections", "32", "--repeat", "1"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["family"], r["points"], r["fibres"], r["sections"]) for r in rows] == [
        ("discrete", 4, 4, 16),
        ("discrete", 5, 5, 32),
        ("mixed", 6, 3, 24),
    ]
    for r in rows:
        assert all(r[key] > 0 for key in ("G_object_s", "complete_s", "triangle_s"))


def test_the_full_ladder_reaches_the_section_cap():
    sizes = [
        (family, section_ladder.space_of(fibres).n_points)
        for family, fibres in section_ladder.ladder(1024)
    ]
    assert sizes[0] == ("discrete", 4) and ("discrete", 10) in sizes
    assert [f for f, _ in sizes].count("mixed") == 4
