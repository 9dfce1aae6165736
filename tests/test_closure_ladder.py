"""``scripts/closure_ladder.py`` at tiny sizes: one JSON row per carrier and
operation, one per scaling seed count with its ``from_concrete`` time, and
the classification row."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "closure_ladder", ROOT / "scripts" / "closure_ladder.py"
)
closure_ladder = sys.modules["closure_ladder"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(closure_ladder)


def test_tiny_ladder_prints_one_row_per_carrier_and_operation(capsys):
    argv = ["--max-carrier", "2", "--sets", "3", "--repeat", "1"]
    assert closure_ladder.main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    operations = [None, "compose", "domain", "range", "fixset", "identity",
                  "range_restrict", "antidomain", "override", "converse"]
    assert [(r["carrier"], r["operation"], r["seeds"]) for r in rows] == [
        *((size, name, 2) for size in (1, 2) for name in operations),
        *((2, None, seeds) for seeds in (2, 3, 4, 6, 8)),
    ]
    for r in rows:
        assert r["sets"] == 3 and 0 <= r["refused"] <= 3 and r["closure_s"] > 0
        assert (r["mean_elements"] is None) == (r["refused"] == 3)
    # the empty function and its closures: at most 2 on one point
    assert all(r["mean_elements"] <= 2 for r in rows if r["carrier"] == 1)
    # difference and restriction refuse nothing, and on 2 points the
    # closure of any seeds has at most the 9 functions there are
    scaling = rows[-5:]
    assert all(r["refused"] == 0 and 1 <= r["mean_elements"] <= 9 for r in scaling)
    # only the scaling rows time from_concrete on their closures
    assert all(r["from_concrete_s"] > 0 for r in scaling)
    assert not any("from_concrete_s" in r for r in rows[:-5])


def test_the_classification_row():
    row = closure_ladder.classify_row(1)
    assert (row["carrier"], row["functions"]) == (4, 625) and row["classify_s"] > 0
