"""Every ``drest`` name the benchmark in ``perfbench/`` imports, reads or
rebinds still exists in the library.

The benchmark is kept apart from the library and reaches into it by name:
imports, attributes of imported modules, ``importlib.import_module`` results
and the traced functions listed in ``LAYERS``.  A library change that drops
one of those names would break the benchmark silently, so each is resolved
here from the benchmark's source text, and the record attributes it reads
off results are pinned to the values it expects.
"""
from __future__ import annotations

import ast
import importlib
from math import prod
from pathlib import Path

from drest.dra import bottom, from_concrete, leq
from drest.duality import EtaleSpace, G_object
from drest.filters import maximal_filters

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_drest(name: str) -> bool:
    return name == "drest" or name.startswith("drest.")


def referenced_names(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, attribute) pairs the source reads from drest modules."""
    found: set[tuple[str, str]] = set()
    aliases: dict[str, str] = {}  # local name -> drest module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and _is_drest(node.module):
            for alias in node.names:
                found.add((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(full)
                except ImportError:
                    continue
                aliases[alias.asname or alias.name] = full
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_drest(alias.name):
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            found.add((aliases[value.id], node.attr))
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "import_module"
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and _is_drest(str(value.args[0].value))
        ):
            found.add((value.args[0].value, node.attr))
    return found


def traced_names(tree: ast.AST) -> set[tuple[str, str]]:
    """The (module, function) pairs of the ``LAYERS`` table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            layers = ast.literal_eval(node.value)
            return {(f"drest.{layer}", name) for layer, names in layers.items() for name in names}
    raise AssertionError("perfbench/tracing.py defines no LAYERS table")


def test_every_drest_name_the_benchmark_uses_exists():
    wanted: set[tuple[str, str]] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wanted |= referenced_names(tree)
        if path.name == "tracing.py":
            wanted |= traced_names(tree)
    # the names the benchmark is known to need, so the scan cannot go blind
    assert {
        ("drest.filters", "all_proper_filters"),
        ("drest.filters", "FILTER_SIZE_CAP"),
        ("drest.operators", "OPERATOR_ALGEBRA_CAP"),
        ("drest.duality", "opens"),
        ("drest.filters", "maximal_filters"),
    } <= wanted
    missing = sorted(
        f"{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, missing


def test_the_record_attributes_the_benchmark_reads(closure_corpus):
    """``perfbench/workloads.py`` reads ``len(maximal_filters(a).points)``,
    ``len(G_object(s).sections)`` and a space's ``basis`` as its caller gave
    it; the name check above does not see attributes of results."""
    for concrete in closure_corpus[::25]:
        alg = from_concrete(concrete)
        bot = bottom(alg)
        atoms = [
            a for a in range(alg.n)
            if a != bot and all(b in (bot, a) for b in range(alg.n) if leq(alg, b, a))
        ]
        assert len(maximal_filters(alg).points) == len(atoms)
    for projection in ((0,), (0, 1, 1), (0, 1, 1, 2, 2, 2), (0, 0, 0, 0, 1)):
        n = len(projection)
        # the singletons, out of order and with a repeat and a larger set
        basis = (frozenset({n - 1}), *(frozenset({x}) for x in range(n)), frozenset(range(n)))
        space = EtaleSpace(n, max(projection) + 1, projection, basis)
        fibres = [projection.count(b) for b in range(space.n_base)]
        assert len(G_object(space).sections) == prod(size + 1 for size in fibres)
        assert space.basis is basis
        assert all(frozenset({x}) in set(space.basis) for x in range(n))
