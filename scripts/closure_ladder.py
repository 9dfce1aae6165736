#!/usr/bin/env python
"""Time the partial-function closure over a ladder of carrier sizes.

For each carrier of 1 to 4 points and each operation of the catalogue,
times ``closure_generate`` under difference, restriction and that operation
(``null``: the two alone) on the same ``--sets`` seed sets of ``SEEDS``
functions each, drawn with ``random.Random(SEED)`` once per carrier.  Each
time is the best of ``--repeat`` passes over all the sets.  A closure that
fails (the converse of a non-injective function) counts as refused.  Then,
on the largest carrier, the scaling curve of the closure under difference
and restriction alone: ``--sets`` sets of each of ``SCALING`` functions.
Last, ``classify_concrete_ops`` is timed on the algebra of all 625 partial
functions on 4 points, where every operation but converse is refused at
once and converse fails on the seeds, before the atoms.

One JSON row per (carrier, operation), one per scaling seed count, then one
for the classification, to stdout, for example::

    {"carrier": 3, "operation": "compose", "seeds": 2, "sets": 40,
     "mean_elements": 15.6, "refused": 0, "closure_s": 0.01234}
    {"carrier": 4, "operation": null, "seeds": 8, "sets": 40,
     "mean_elements": 62.0, "refused": 0, "closure_s": 0.00263}
    {"carrier": 4, "functions": 625, "classify_s": 0.04321}

``--max-carrier`` stops the ladder early, and the scaling rows are then on
that carrier; the classification row needs 4.
Run from the repository root::

    PYTHONPATH=src python scripts/closure_ladder.py --repeat 5
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time

from drest.operators import CATALOGUE, NOT_IMPLEMENTED, classify_concrete_ops
from drest.pfun import Carrier, ConcretePFAlgebra, closure_generate, enumerate_all_pfs

BASE = ("difference", "restrict")
OPERATIONS = (None, *(name for name in CATALOGUE if name not in NOT_IMPLEMENTED))
SEEDS, SEED = 2, 1  # functions per seed set, and the seed of their draw
SCALING = (2, 3, 4, 6, 8)  # functions per seed set of the scaling rows


def best(repeat: int, run) -> float:
    """The least time of run() over repeat calls, to four significant digits."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return float(f"{min(times):.4g}")


def seed_sets(size: int, sets: int, seeds: int) -> list:
    pool = enumerate_all_pfs(Carrier(size))
    rng = random.Random(SEED)
    return [rng.choices(pool, k=seeds) for _ in range(sets)]


def closure_row(size: int, chosen_sets: list, name, repeat: int) -> dict:
    """The best time of the closures of the seed sets under difference,
    restriction and the named operation, if any."""
    carrier = Carrier(size)
    ops = BASE if name is None else (*BASE, name)
    sizes: list[int] = []

    def run() -> None:
        sizes.clear()
        for chosen in chosen_sets:
            try:
                sizes.append(len(closure_generate(carrier, chosen, ops)))
            except ValueError:
                pass

    elapsed = best(repeat, run)
    return {
        "carrier": size,
        "operation": name,
        "seeds": len(chosen_sets[0]),
        "sets": len(chosen_sets),
        "mean_elements": round(sum(sizes) / len(sizes), 1) if sizes else None,
        "refused": len(chosen_sets) - len(sizes),
        "closure_s": elapsed,
    }


def closure_rows(size: int, sets: int, repeat: int):
    chosen_sets = seed_sets(size, sets, SEEDS)
    for name in OPERATIONS:
        yield closure_row(size, chosen_sets, name, repeat)


def scaling_rows(size: int, sets: int, repeat: int):
    for seeds in SCALING:
        yield closure_row(size, seed_sets(size, sets, seeds), None, repeat)


def classify_row(repeat: int) -> dict:
    carrier = Carrier(4)
    every = ConcretePFAlgebra(carrier, enumerate_all_pfs(carrier))
    return {
        "carrier": 4,
        "functions": len(every),
        "classify_s": best(repeat, lambda: classify_concrete_ops(every)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="passes per time, the least kept")
    parser.add_argument("--sets", type=int, default=40, help="seed sets per carrier")
    parser.add_argument("--max-carrier", type=int, default=4, choices=(1, 2, 3, 4))
    args = parser.parse_args(argv)
    for size in range(1, args.max_carrier + 1):
        for row in closure_rows(size, args.sets, args.repeat):
            print(json.dumps(row), flush=True)
    for row in scaling_rows(args.max_carrier, args.sets, args.repeat):
        print(json.dumps(row), flush=True)
    if args.max_carrier == 4:
        print(json.dumps(classify_row(args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
