#!/usr/bin/env python
"""Time the section-algebra builder over a ladder of sizes.

For each space of the ladder, times ``G_object`` on the space, ``complete``
on its section algebra and ``check_triangle_identities`` on that algebra.
Each time is the best of ``--repeat`` calls, each on an algebra built afresh
by ``G_object`` outside the timed call, so that no dual record, completion or
representation is reused.  ``complete`` and the triangle check each build the
section algebra of the algebra's dual, which has as many sections again.

Two families, with the singletons as basis:

* ``discrete``: one point per fibre, k = 4..10 points, n = 2^k = 16..1,024
  sections;
* ``mixed``: fibres of 3, 1, 2, 3, 1, 2, ... points, n = prod(|fibre| + 1)
  = 24, 96, 192, 576 sections.

One JSON row per size goes to stdout, for example::

    {"family": "discrete", "points": 8, "fibres": 8, "sections": 256,
     "G_object_s": 0.005162, "complete_s": 0.005033, "triangle_s": 0.005436}

``--max-sections`` stops both ladders early.  Run from the repository root::

    PYTHONPATH=src python scripts/section_ladder.py --repeat 5
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import cycle, islice
from math import prod

from drest.dra import SECTION_CAP
from drest.duality import EtaleSpace, G_object, check_triangle_identities, complete


def space_of(fibre_sizes: list[int]) -> EtaleSpace:
    projection = tuple(b for b, size in enumerate(fibre_sizes) for _ in range(size))
    k = len(projection)
    return EtaleSpace(k, len(fibre_sizes), projection, tuple(frozenset({x}) for x in range(k)))


def ladder(max_sections: int):
    """(family, fibre sizes) for every size of both families up to the bound."""
    for k in range(4, 11):
        if 2**k <= max_sections:
            yield "discrete", [1] * k
    for count in range(1, 7):
        sizes = list(islice(cycle((3, 1, 2)), count))
        sections = prod(size + 1 for size in sizes)
        if 16 <= sections <= max_sections:
            yield "mixed", sizes


def best(repeat: int, build, run) -> float:
    """The least time of run(build()) over repeat calls, build untimed, to
    four significant digits."""
    times = []
    for _ in range(repeat):
        arg = build()
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return float(f"{min(times):.4g}")


def row(family: str, sizes: list[int], repeat: int) -> dict:
    space = space_of(sizes)

    def algebra():
        return G_object(space).algebra

    return {
        "family": family,
        "points": space.n_points,
        "fibres": len(sizes),
        "sections": prod(size + 1 for size in sizes),
        "G_object_s": best(repeat, lambda: space, G_object),
        "complete_s": best(repeat, algebra, complete),
        "triangle_s": best(repeat, algebra, check_triangle_identities),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="calls per time, the least kept")
    parser.add_argument("--max-sections", type=int, default=SECTION_CAP)
    args = parser.parse_args(argv)
    for family, sizes in ladder(args.max_sections):
        print(json.dumps(row(family, sizes, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
