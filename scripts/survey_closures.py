#!/usr/bin/env python
"""Survey every closure of small seed sets and report the dual landscape.

For each carrier size up to 3 and every seed set of at most two partial
functions, generate the closure under difference and restriction, validate
the defining laws, and bucket the results by size and completeness.  Every
closure that is not complete is completed; a completion over the sections cap
is counted as refused.
"""
from __future__ import annotations

import argparse
from collections import Counter
from itertools import combinations_with_replacement

from drest.dra import from_concrete, is_fin_compatibly_complete, validate_axioms
from drest.duality import complete
from drest.pfun import Carrier, closure_generate, enumerate_all_pfs


def survey(max_carrier: int, max_seeds: int) -> None:
    sizes: Counter[int] = Counter()
    complete_count = 0
    refused = 0
    growth: Counter[int] = Counter()
    total = 0
    for size in range(1, max_carrier + 1):
        carrier = Carrier(size)
        pool = enumerate_all_pfs(carrier)
        for seeds in combinations_with_replacement(pool, max_seeds):
            closed = closure_generate(carrier, list(seeds))
            algebra = from_concrete(closed)
            report = validate_axioms(algebra)
            assert report.ok, report.summary()
            total += 1
            sizes[algebra.n] += 1
            if is_fin_compatibly_complete(algebra):
                complete_count += 1
                continue
            try:
                completed, _ = complete(algebra)
            except ValueError as exc:
                if "capped at" not in str(exc):
                    raise
                refused += 1
                continue
            growth[completed.n - algebra.n] += 1
    print(f"closures generated and validated: {total}")
    print(f"already complete: {complete_count}")
    print(f"completions refused at the sections cap: {refused}")
    print("closure sizes:", dict(sorted(sizes.items())))
    print("completion growth (extra elements):", dict(sorted(growth.items())))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-carrier", type=int, default=2)
    parser.add_argument("--max-seeds", type=int, default=2)
    args = parser.parse_args()
    survey(args.max_carrier, args.max_seeds)


if __name__ == "__main__":
    main()
