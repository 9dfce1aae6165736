"""``scripts/cli_startup.py`` on ``drest --help``: one JSON row per bytecode
mode, and the import chain read off ``-X importtime``."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_startup", ROOT / "scripts" / "cli_startup.py")
cli_startup = sys.modules["cli_startup"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_startup)


def test_help_prints_one_row_per_bytecode_mode(capsys):
    assert cli_startup.main(["--case", "help", "--repeat", "1"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["case"], r["argv"], r["bytecode"]) for r in rows] == [
        ("help", ["--help"], "uncached"),
        ("help", ["--help"], "cached"),
    ]
    for r in rows:
        assert r["wall_ms"] > 0 and r["drest_self_ms"] > 0
        assert r["dataclasses_chain"] == []


def test_the_chain_runs_from_the_outermost_importer():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       inspect",
        "import time:       300 |        400 |     dataclasses",
        "import time:      2000 |       2400 |   drest.dra",
        "import time:       500 |        500 |   json",
        "import time:      1000 |       3900 | drest.cli",
    ])
    self_ms, chain = cli_startup.import_profile(stderr)
    assert self_ms == 3.0
    assert chain == ["drest.cli", "drest.dra", "dataclasses"]
    assert cli_startup.import_profile(stderr.replace("dataclasses", "typing"))[1] == []
