#!/usr/bin/env python
"""Compare two source trees on benchmark workloads in alternating pairs.

For each workload, runs ``perfbench/run.py --trace 0`` in each tree, once per
pair, alternating which tree runs first, with seed ``base_seed + i`` for pair
i.  Each workload gets its own table: for every end-to-end metric that
``BENCHMARK.json`` declares, each side's median and quartiles, the number of
pairs the second tree (the change) wins, ties counting for neither, and a
verdict:

* ``gain``: the change wins at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile distance;
* ``worse beyond bound``: the change's median is worse than the parent's by
  more than the metric's bound, as a fraction of the parent's median;
* ``unresolved``: the quartile distance of either side, over its median, is
  wider than the bound, and not every run of the change beats every run of
  the parent;
* ``within bound``: none of these.

Names, units, directions, bounds, the run length and the default workloads
(every one declared) come from the ``BENCHMARK.json`` of the parent tree;
``--workload`` may be repeated to pick some.  The script edits no file.

    python scripts/bench_pairs.py PARENT CHANGE --workload space-dualize \\
        --pairs 10 --seed 1301
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    higher_is_better: bool
    bound: float


def load_metrics(tree: Path) -> tuple[list[Metric], float]:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    metrics = [
        Metric(m["name"], m["unit"], m["better"] == "higher", float(m["bound"]))
        for m in spec["end_to_end"]
    ]
    return metrics, float(spec["run_seconds"])


def load_workloads(tree: Path) -> list[str]:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(metric: Metric, parent: list[float], change: list[float]) -> int:
    """Pairs in which the change reads strictly better."""
    sign = 1 if metric.higher_is_better else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(metric: Metric, parent: list[float], change: list[float]) -> str:
    """Classify one metric over paired runs (see the module docstring)."""
    sign = 1 if metric.higher_is_better else -1
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (c_med - p_med)  # positive when the change is better
    if wins(metric, parent, change) >= 0.9 * len(parent) and gain > p3 - p1:
        return "gain"
    if -gain > metric.bound * abs(p_med):
        return "worse beyond bound"
    spread = max((p3 - p1) / abs(p_med) if p_med else 0.0, (c3 - c1) / abs(c_med) if c_med else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > metric.bound and not all_better:
        return "unresolved"
    return "within bound"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    # each tree imports its own sources
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        command, cwd=tree, env=env, capture_output=True, text=True, timeout=20 * seconds + 600
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run failed (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1])


def compare(args, workload: str, metrics: list[Metric], seconds: float) -> None:
    """Run the pairs of one workload and print its table."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), workload, args.seed + i, seconds)
            runs[side].append(result)
            print(f"{workload} pair {i + 1} seed {args.seed + i} {side}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    print(f"{workload}: {args.pairs} pairs of {seconds:g} s runs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, median [quartiles]")
    print("| metric | parent | change | change wins | verdict |")
    print("|---|---|---|---|---|")
    for metric in metrics:
        parent = [r["metrics"][metric.name]["value"] for r in runs["parent"]]
        change = [r["metrics"][metric.name]["value"] for r in runs["change"]]
        cells = []
        for values in (parent, change):
            q1, med, q3 = quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}-{q3:.4g}] {metric.unit}")
        print(f"| {metric.name} | {cells[0]} | {cells[1]} | "
              f"{wins(metric, parent, change)}/{args.pairs} | {verdict(metric, parent, change)} |")
    failed = {
        side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        for side, rs in runs.items()
    }
    print(f"| failed_frac | {failed['parent']:.4g} | {failed['change']:.4g} | | |", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="a workload to compare; repeatable, every declared one by default")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)

    metrics, seconds = load_metrics(args.parent)
    for i, workload in enumerate(args.workload or load_workloads(args.parent)):
        if i:
            print()
        compare(args, workload, metrics, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
