#!/usr/bin/env python3
"""Benchmark of the drest library: four seeded workloads, each a closed loop
with one client in one process.

    python3 perfbench/run.py --workload algebra-roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1      # every workload in turn

With ``--trace 0`` a run sets up its inputs several times (the median is
``setup_s``), then runs whole batches of items until ``--seconds`` have
passed and reports the end-to-end metrics.  With ``--trace 1`` it runs a
fixed number of batches once untraced and once traced, and reports the
per-layer metrics; the spans go to ``perfbench/out/``.  Every answer is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
0 only when every answer was right.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
IMPORT_PROBES = 5
SHOWN_FAILURES = 5
REFERENCE_S = 0.0017  # time of reference_work() at the reference speed
CALIBRATE_EVERY_S = 0.25

END_TO_END_UNITS = {
    "ok_items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        (".calls_per_item", "calls/item"),
        (".self_s", "s"),
        ("_ms", "ms"),
        ("_frac", "frac"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def reference_work() -> int:
    """Interpreter-bound integer and list work.  It allocates no containers,
    so it never triggers a garbage collection whose cost would depend on the
    benchmark's own heap."""
    table = [0] * 97
    total = 0
    for i in range(15000):
        j = i % 97
        table[j] += i & 7
        total ^= table[(j * 31) % 97]
    return total


class Clock:
    """Wall time scaled to a reference CPU speed.

    On a shared host the CPU speed drifts by tens of percent within seconds,
    more than the changes the benchmark must resolve.  The clock times
    reference_work() at least every CALIBRATE_EVERY_S; each interval between
    two calibrations is divided by the mean speed factor at its two ends,
    where a factor is the reference time over REFERENCE_S.  Intervals are
    recorded with their segment number and scaled once the segment closes.
    """

    def __init__(self) -> None:
        self.factors = [self._factor()]
        self.walls: list[float] = []  # raw wall time of each closed segment
        self._start = perf_counter()

    @staticmethod
    def _factor() -> float:
        times = []
        for _ in range(5):
            start = perf_counter()
            reference_work()
            times.append(perf_counter() - start)
        return statistics.median(times) / REFERENCE_S

    @property
    def segment(self) -> int:
        return len(self.factors) - 1

    def tick(self, force: bool = False) -> None:
        """Close the current segment once it is long enough, or when forced."""
        now = perf_counter()
        if force or now - self._start >= CALIBRATE_EVERY_S:
            self.walls.append(now - self._start)
            self.factors.append(self._factor())
            self._start = perf_counter()

    def scale(self, seconds: float, segment: int) -> float:
        return seconds * 2 / (self.factors[segment] + self.factors[segment + 1])


class Tally:
    """Latency and outcome of every attempted item."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.segments: list[int] = []  # Clock segment of each item
        self.outcomes: Counter[str] = Counter()
        self.failures: list[str] = []

    def add(self, seconds: float, status: str, reason: str, segment: int) -> None:
        self.seconds.append(seconds)
        self.segments.append(segment)
        self.outcomes[status] += 1
        if status == "failed" and len(self.failures) < SHOWN_FAILURES:
            self.failures.append(reason)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def merge(self, other: "Tally") -> None:
        self.seconds += other.seconds
        self.segments += other.segments
        self.outcomes += other.outcomes
        self.failures += other.failures[: SHOWN_FAILURES - len(self.failures)]

    def frac(self, status: str) -> float:
        return self.outcomes[status] / self.attempted


def attempt(workload, run, item) -> tuple[float, str, str]:
    out: dict = {}
    error = None
    start = perf_counter()
    try:
        run(item, out)
    except Exception as exc:  # judged below: one bad item must not end the run
        error = exc
    elapsed = perf_counter() - start
    status, reason = workload.judge(item, out, error)
    return elapsed, status, reason


def set_up(workload, seed: int, clock: Clock) -> tuple[list, list[float], bool]:
    """Generate the inputs and warm up, SETUP_REPEATS times; the inputs must
    come out the same every time.  Returns the scaled set-up times."""
    times, prints = [], set()
    for _ in range(SETUP_REPEATS):
        segment, start = clock.segment, perf_counter()
        strata = workload.generate(random.Random(seed))
        workload.warm_up(strata)
        elapsed = perf_counter() - start
        clock.tick(force=True)
        times.append(clock.scale(elapsed, segment))
        prints.add(hashlib.sha256(repr(strata).encode()).hexdigest())
    return strata, times, len(prints) == 1


def tail(seconds: list[float]) -> tuple[float, float]:
    """The latency with ten samples beyond it, and its percentile."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def end_to_end(workload, args, import_s: float, clock: Clock) -> tuple[dict, Tally, bool]:
    """Times are scaled to the reference speed; import_s is already scaled."""
    from perfbench.workloads import batch

    strata, setup_times, deterministic = set_up(workload, args.seed, clock)
    tally = Tally()
    first = clock.segment
    start = perf_counter()
    batches = 0
    while True:
        for item in batch(strata, batches):
            tally.add(*attempt(workload, workload.run, item), clock.segment)
            clock.tick()
        batches += 1
        if perf_counter() - start >= args.seconds:
            break
    clock.tick(force=True)
    raw_wall = sum(clock.walls[first:])
    wall = sum(clock.scale(w, first + i) for i, w in enumerate(clock.walls[first:]))
    seconds = [clock.scale(s, seg) for s, seg in zip(tally.seconds, tally.segments)]

    tail_s, tail_pct = tail(seconds)
    metrics = {
        "ok_items_per_s": tally.outcomes["ok"] / wall,
        "item_ms_p50": statistics.median(seconds) * 1000,
        "item_ms_tail": tail_s * 1000,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(workload.spawns),
    }
    factors = clock.factors[first:]
    print(
        f"{workload.name} seed={args.seed}: {tally.attempted} items in {batches} batches, "
        f"{raw_wall:.2f} s; ok {tally.outcomes['ok']}, refused {tally.outcomes['refused']}, "
        f"failed {tally.outcomes['failed']}; times scaled to the reference speed "
        f"(speed factor median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}-{max(factors):.3f})"
    )
    notes = {
        "ok_items_per_s": f"raw {tally.outcomes['ok'] / raw_wall:.4f}",
        "item_ms_p50": f"raw {statistics.median(tally.seconds) * 1000:.4f}",
        "item_ms_tail": f"p{tail_pct:.2f} of {tally.attempted} samples; raw {tail(tally.seconds)[0] * 1000:.4f}",
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups "
        + ", ".join(f"{t:.3f}" for t in setup_times),
        "peak_rss_mb": "child processes" if workload.spawns else "benchmark process",
    }
    shown = dict(metrics, failed_frac=tally.frac("failed"), refused_frac=tally.frac("refused"))
    for name, value in shown.items():
        unit = END_TO_END_UNITS.get(name, "frac")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<16} {value:12.4f} {unit}{note}")
    if not deterministic:
        print("  set-ups generated different inputs for one seed", file=sys.stderr)
    return metrics, tally, deterministic


def import_ms() -> float:
    """Median wall time of a process that only imports drest.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import drest.cli"], check=True, env=env, cwd=ROOT, timeout=60
        )
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def timed_pass(workload, run, items, clock: Clock, tracer=None) -> tuple[Tally, list[float]]:
    """Run the items once; returns their outcomes and scaled times."""
    tally = Tally()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        tally.add(*attempt(workload, run, item), clock.segment)
        clock.tick()
    clock.tick(force=True)
    return tally, [clock.scale(s, seg) for s, seg in zip(tally.seconds, tally.segments)]


def traced(workload, args, clock: Clock) -> tuple[dict, Tally, bool]:
    from perfbench.tracing import Tracer
    from perfbench.workloads import batch

    strata = workload.generate(random.Random(args.seed))
    workload.warm_up(strata)
    items = [item for b in range(workload.trace_batches) for item in batch(strata, b)]
    every = Tally()

    process_s: list[float] = []
    if workload.spawns:
        spawned, process_s = timed_pass(workload, workload.run, items, clock)
        every.merge(spawned)
    plain, plain_s = timed_pass(workload, workload.run_in_process, items, clock)
    every.merge(plain)

    tracer = Tracer()
    tracer.install()
    try:
        again = workload.generate(random.Random(args.seed))  # set-up spans: closure_generate
        tally, traced_s = timed_pass(workload, workload.run_in_process, items, clock, tracer)
    finally:
        tracer.uninstall()
    every.merge(tally)

    metrics = tracer.layer_metrics(len(items))
    metrics["cli.import_ms"] = import_ms()
    metrics["cli.process_overhead_ms"] = (
        statistics.median(p - q for p, q in zip(process_s, plain_s)) * 1000 if process_s else 0.0
    )
    metrics["trace_overhead_frac"] = (sum(traced_s) - sum(plain_s)) / sum(plain_s)
    metrics["failed_frac"] = tally.frac("failed")
    metrics["refused_frac"] = tally.frac("refused")

    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(
        f"{workload.name} seed={args.seed} traced: {len(items)} items in "
        f"{workload.trace_batches} batches, {len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}"
    )
    for name, value in metrics.items():
        print(f"  {name:<52} {value:14.6g} {unit_of(name)}")
    return metrics, every, repr(again) == repr(strata)


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    start = perf_counter()
    import drest  # timed: importing the library is part of set-up

    import_s = perf_counter() - start
    clock = Clock()
    import_s /= clock.factors[0]
    if Path(drest.__file__).resolve().parent != SRC / "drest":
        print(f"error: drest imported from {drest.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import make

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"docs-{args.workload}-", dir=OUT))
    try:
        try:
            workload = make(args.workload, ROOT, workdir)
        except KeyError:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, tally, deterministic = traced(workload, args, clock)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, tally, deterministic = end_to_end(workload, args, import_s, clock)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in tally.failures:
        print(f"  wrong answer: {reason}", file=sys.stderr)
    failed = tally.outcomes["failed"]
    correct = failed == 0 and deterministic
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so set-up and memory stay apart."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import NAMES

    ok = True
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        ok &= proc.returncode == 0
    print("all answers correct" if ok else "some answers wrong or a run failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; every workload when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drest" / "__init__.py").is_file():
        print(f"error: no drest sources in {SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
