#!/usr/bin/env python
"""Time each ``drest`` command's start-up as a child process.

For each case, a subcommand on one kind of document, runs
``python -m drest.cli ARGS`` ``--repeat`` times and once more for each
repeat with ``-X importtime``, and prints one JSON row per bytecode mode:

* ``wall_ms``: the median wall time of the plain runs;
* ``drest_self_ms``: the median, over the ``-X importtime`` runs, of the
  summed self time of the ``drest`` modules;
* ``dataclasses_chain``: the import chain that loads ``dataclasses``, the
  outermost module first, or ``[]`` when no module imports it.

``uncached`` runs a copy of the package with no ``__pycache__`` under
``PYTHONDONTWRITEBYTECODE=1``, so every ``drest`` module is compiled on
each run while the standard library is read as installed.  ``cached``
runs the same copy with bytecode written to, and read from, a temporary
``PYTHONPYCACHEPREFIX`` after one untimed warm-up run.  For example::

    {"case": "validate-algebra", "argv": ["validate", "algebra.json"],
     "bytecode": "uncached", "wall_ms": 61.2, "drest_self_ms": 19.4,
     "dataclasses_chain": []}

The documents are written from the built-in fixtures.  ``--tree`` measures
the package of another source tree, so two trees can be compared with one
set of documents; ``--case`` may be repeated to pick cases.  Run from the
repository root::

    PYTHONPATH=src python scripts/cli_startup.py --repeat 11
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# case -> the command's arguments, documents named by kind
CASES = {
    "help": ("--help",),
    "validate-algebra": ("validate", "algebra"),
    "validate-pfalgebra": ("validate", "pfalgebra"),
    "validate-space": ("validate", "space"),
    "filters-algebra": ("filters", "algebra"),
    "dualize-algebra": ("dualize", "algebra"),
    "dualize-space": ("dualize", "space"),
    "complete-algebra": ("complete", "algebra"),
    "complete-with-op": ("complete", "with-op", "--with-op", "domain"),
    "roundtrip-algebra": ("roundtrip", "algebra"),
    "roundtrip-space": ("roundtrip", "space"),
    "check-hom": ("check-hom", "morphism"),
    "check-hom-dualize": ("check-hom", "morphism", "--dualize"),
    "check-op": ("check-op", "with-op", "domain"),
    "check-op-relation": ("check-op", "with-op", "domain", "--relation"),
    "classify-op": ("classify-op", "pfalgebra"),
    "catalog": ("catalog",),
}

# "import time: self [us] | cumulative | imported package", the name
# indented by two spaces per level of nesting
IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)")


def write_documents(folder: Path) -> dict[str, str]:
    """The path of each document kind, written from the fixtures."""
    from drest.documents import emit_document
    from drest.dra import from_concrete
    from drest.duality import F_object
    from drest.fixtures import get_fixture, inclusion_disjoint_into_boolean

    fixture = get_fixture("disjoint_pair")
    values = {
        "algebra": fixture.algebra,
        "pfalgebra": fixture.concrete,
        "space": F_object(fixture.algebra),
        "morphism": inclusion_disjoint_into_boolean(),
        "with-op": from_concrete(fixture.concrete, ("domain",)),
    }
    paths = {}
    for kind, value in values.items():
        path = folder / f"{kind}.json"
        path.write_text(emit_document(value), encoding="utf-8")
        paths[kind] = str(path)
    return paths


def import_profile(stderr: str) -> tuple[float, list[str]]:
    """The summed self time of the drest modules, in ms, and the chain of
    modules that imports dataclasses, outermost first.

    ``-X importtime`` prints a module after the modules it imports, one
    level deeper, so a module's importer is the next line one level up."""
    rows = [
        (int(us), len(indent) // 2, name)
        for us, indent, name in IMPORT_LINE.findall(stderr)
    ]
    self_ms = sum(us for us, _, name in rows if name.split(".")[0] == "drest") / 1000
    chain: list[str] = []
    for i, (_, depth, name) in enumerate(rows):
        if name == "dataclasses":
            chain = [name]
            for _, outer, importer in rows[i + 1:]:
                if outer < depth:
                    chain.append(importer)
                    depth = outer
            break
    return self_ms, chain[::-1]


def measure(argv: list[str], env: dict[str, str], repeat: int) -> tuple[float, float, list[str]]:
    """Median wall time in ms, median drest self time in ms, and the
    dataclasses chain of one command."""
    command = [sys.executable, "-m", "drest.cli", *argv]
    walls, selfs, chain = [], [], []
    for _ in range(repeat):
        start = time.perf_counter()
        subprocess.run(command, env=env, capture_output=True, check=False)
        walls.append((time.perf_counter() - start) * 1000)
        profiled = subprocess.run(
            [sys.executable, "-X", "importtime", *command[1:]],
            env=env, capture_output=True, text=True, check=False,
        )
        self_ms, chain = import_profile(profiled.stderr)
        selfs.append(self_ms)
    return statistics.median(walls), statistics.median(selfs), chain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="runs per time, the median kept")
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree whose src/drest runs")
    parser.add_argument("--case", action="append", choices=sorted(CASES), help="a case to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(
            args.tree / "src" / "drest", work / "src" / "drest",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        paths = write_documents(work)
        base = dict(os.environ, PYTHONPATH=str(work / "src"))
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            base.pop(name, None)
        modes = {
            "uncached": dict(base, PYTHONDONTWRITEBYTECODE="1"),
            "cached": dict(base, PYTHONPYCACHEPREFIX=str(work / "pycache")),
        }
        for case in args.case or CASES:
            command = [paths.get(a, a) for a in CASES[case]]
            for mode, env in modes.items():
                if mode == "cached":  # writes the bytecode the timed runs read
                    subprocess.run([sys.executable, "-m", "drest.cli", *command],
                                   env=env, capture_output=True, check=False)
                wall, self_ms, chain = measure(command, env, args.repeat)
                print(json.dumps({
                    "case": case,
                    "argv": [Path(a).name if a in paths.values() else a for a in command],
                    "bytecode": mode,
                    "wall_ms": round(wall, 1),
                    "drest_self_ms": round(self_ms, 1),
                    "dataclasses_chain": chain,
                }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
