"""The verdicts of ``scripts/bench_pairs.py`` on synthetic paired runs."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = sys.modules["bench_pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LATENCY = bench_pairs.Metric("item_ms_p50", "ms", higher_is_better=False, bound=0.24)
THROUGHPUT = bench_pairs.Metric("ok_items_per_s", "1/s", higher_is_better=True, bound=0.24)


def test_nine_wins_beyond_the_parent_spread_is_a_gain():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [p - 2 for p in parent]
    change[3] = 12.0  # one lost pair of ten
    assert bench_pairs.wins(LATENCY, parent, change) == 9
    assert bench_pairs.verdict(LATENCY, parent, change) == "gain"
    assert bench_pairs.verdict(THROUGHPUT, change, parent) == "gain"


def test_eight_wins_is_no_gain():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [p - 2 for p in parent]
    change[3] = change[4] = 12.0
    assert bench_pairs.verdict(LATENCY, parent, change) == "within bound"


def test_a_win_inside_the_parent_spread_is_no_gain():
    parent = [8.0, 12.0] * 5  # quartile distance 4
    change = [p - 1 for p in parent]
    assert bench_pairs.wins(LATENCY, parent, change) == 10
    assert bench_pairs.verdict(LATENCY, parent, change) != "gain"


def test_ties_count_for_neither_side():
    assert bench_pairs.wins(LATENCY, [1.0, 2.0, 3.0], [1.0, 1.0, 4.0]) == 1


def test_worse_beyond_the_bound():
    parent = [10.0] * 10
    assert bench_pairs.verdict(LATENCY, parent, [12.5] * 10) == "worse beyond bound"
    assert bench_pairs.verdict(LATENCY, parent, [12.3] * 10) == "within bound"
    assert bench_pairs.verdict(THROUGHPUT, parent, [7.5] * 10) == "worse beyond bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [10.0, 14.0] * 5  # quartile distance 4 over a median of 12
    change = [10.5, 14.5] * 5
    assert bench_pairs.verdict(LATENCY, parent, change) == "unresolved"
    # unless every run of the change beats every run of the parent
    assert bench_pairs.verdict(LATENCY, [20.0, 30.0] * 5, [19.0, 19.5] * 5) == "within bound"


def test_metrics_come_from_the_benchmark_definition():
    metrics, seconds = bench_pairs.load_metrics(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m.name for m in metrics] == [m["name"] for m in spec["end_to_end"]]
    assert seconds == spec["run_seconds"]


def fake_run(tree, workload, seed, seconds):
    """A run whose every declared metric reads the seed, with 1 of 4 items
    failed."""
    metrics, _ = bench_pairs.load_metrics(ROOT)
    return {"metrics": {m.name: {"value": float(seed)} for m in metrics}, "failed": 1, "attempted": 4}


def test_every_declared_workload_gets_its_own_table(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(
        bench_pairs, "run_once", lambda *a: seen.append((a[1], a[2])) or fake_run(*a)
    )
    assert bench_pairs.main([str(ROOT), str(ROOT), "--pairs", "2", "--seed", "7"]) == 0
    workloads = bench_pairs.load_workloads(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workloads == [w["name"] for w in spec["workloads"]]
    # two runs per pair, seeds 7 and 8, one workload after another
    assert seen == [(w, s) for w in workloads for s in (7, 7, 8, 8)]
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if line.endswith("median [quartiles]")]
    assert [h.split(":")[0] for h in headers] == workloads
    assert out.count("| failed_frac | 0.25 | 0.25 | | |") == len(workloads)


def test_workload_may_be_repeated(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: seen.append(a[1]) or fake_run(*a))
    picked = ["--workload", "cli-documents", "--workload", "space-dualize"]
    assert bench_pairs.main([str(ROOT), str(ROOT), "--pairs", "1", *picked]) == 0
    assert seen == ["cli-documents"] * 2 + ["space-dualize"] * 2
    assert capsys.readouterr().out.count("| metric |") == 2
