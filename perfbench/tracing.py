"""Spans around calls into the library, recorded from outside it.

The tracer replaces each traced public function by a wrapper at its module
attribute, in every ``drest`` module that binds the name (``opens`` is also
bound in ``drest.operators``, ``validate_etale`` in ``drest.cli``, and most
names in the ``drest`` package itself).  Calls made inside the library go
through those bindings too, so nested calls become child spans.  Spans stay
in memory and are written out once the run ends.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable

from perfbench.checks import is_refusal

# layer (the module under drest) -> public functions that get a span
LAYERS: dict[str, tuple[str, ...]] = {
    "pfun": ("closure_generate",),
    "dra": ("validate_axioms", "hom_check", "join_if_exists", "is_fin_compatibly_complete"),
    "filters": ("maximal_filters",),
    "duality": (
        "validate_etale",
        "opens",
        "G_object",
        "unit_eta",
        "counit_lambda",
        "complete",
        "check_triangle_identities",
    ),
    "operators": (
        "classify_operator",
        "relation_from_operator",
        "check_relation_properties",
        "complete_with_operators",
    ),
    "documents": ("parse_document", "emit_document"),
}

# size of a result, recorded on the span
SIZES: dict[str, Callable[[object], int]] = {
    "duality.opens": len,
}

SETUP_ITEM = "setup"


class Tracer:
    """Records one span per traced call: name, start, end, parent, item id,
    outcome and result size."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, item, "ok"|"refused"|"error", size]
        self.spans: list[list] = []
        self.item: object = SETUP_ITEM
        self.masks_scanned = 0
        self.proper_filters = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"drest.{layer}")
            for name in names:
                original = getattr(home, name)
                self._rebind(original, self._spanned(f"{layer}.{name}", original))
        # the filter scan itself gets a counter, not a span, so that its time
        # stays in the self time of maximal_filters
        scan = importlib.import_module("drest.filters").all_proper_filters
        self._rebind(scan, self._counted_scan(scan))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "drest" or name.startswith("drest.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size = SIZES.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, "ok", None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = "refused" if is_refusal(exc) else "error"
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if size is not None:
                record[6] = size(result)
            return result

        return wrapper

    def _counted_scan(self, fn):
        @wraps(fn)
        def wrapper(algebra):
            found = fn(algebra)
            self.masks_scanned += (1 << algebra.n) - 1
            self.proper_filters += len(found)
            return found

        return wrapper

    # -- reading ------------------------------------------------------------

    def layer_metrics(self, items: int) -> dict[str, float]:
        """Calls and self time per traced function, plus the work counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run has one thread.
        """
        covered: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter[str] = Counter()
        item_calls: Counter[str] = Counter()
        refused: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        sizes: Counter[str] = Counter()
        for index, (name, start, end, _, item, status, size) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[index]
            if item != SETUP_ITEM:
                item_calls[name] += 1
            if status == "refused":
                refused[name] += 1
            if size is not None:
                sizes[name] += size

        metrics: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for fn in names:
                key = f"{layer}.{fn}"
                metrics[f"{key}.calls"] = calls[key]
                metrics[f"{key}.self_s"] = self_s[key]
        for key in ("filters.maximal_filters", "duality.validate_etale", "duality.opens", "duality.G_object"):
            metrics[f"{key}.calls_per_item"] = item_calls[key] / items
        metrics["filters.masks_scanned"] = self.masks_scanned
        metrics["filters.useful_frac"] = (
            self.proper_filters / self.masks_scanned if self.masks_scanned else 0.0
        )
        metrics["duality.opens.sets_listed"] = sizes["duality.opens"]
        metrics["operators.complete_with_operators.refused"] = refused[
            "operators.complete_with_operators"
        ]
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
