"""Filters and maximal filters of a finite algebra.

Element and point sets are int bitmasks.  In a finite algebra every filter
holds the meet of its members, so it is the up-set of that member: the
maximal filters are the up-sets of the atoms.  A point is the position of
its atom, held as the mask of its members, and the support of an element is
the mask of the points holding it; the support table is the algebra's
:func:`drest.dra.representation`, and an algebra without one has no dual
space.  The subset scan ``all_proper_filters`` is kept, capped, as the
oracle the tests compare against; the literal filter predicates and the
shared-domain relation of filters are in the tests' oracles.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .dra import FiniteAlgebra, Record, bits, bottom, derived_meet, leq, representation

FILTER_SIZE_CAP = 16


def to_mask(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def all_proper_filters(algebra: FiniteAlgebra) -> tuple[frozenset[int], ...]:
    """Raw subset scan, ascending bit-mask order."""
    n = algebra.n
    if n > FILTER_SIZE_CAP:
        raise ValueError(f"filter enumeration capped at {FILTER_SIZE_CAP} elements")
    up = [[y for y in range(n) if leq(algebra, x, y)] for x in range(n)]
    meet = [[derived_meet(algebra, x, y) for y in range(n)] for x in range(n)]
    bot = bottom(algebra)
    found = []
    for mask in range(1, 1 << n):
        if mask >> bot & 1:
            continue
        ok = True
        for x in range(n):
            if not mask >> x & 1:
                continue
            for y in up[x]:
                if not mask >> y & 1:
                    ok = False
                    break
            if not ok:
                break
            for y in range(x, n):
                if mask >> y & 1 and not mask >> meet[x][y] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(mask)
    return tuple(frozenset(bits(mask)) for mask in found)


class MaxFilterSpace(Record):
    """The points of the dual space of an n-element algebra: maximal filters
    plus their grouping by the shared-domain equivalence.  Point i is the
    up-set of atoms[i]; hats[e] is the support of element e, the mask of the
    points holding it.  The points are read off the supports: the up-set of
    atoms[i] holds e exactly when hats[e] holds i, and ``points`` keeps that
    element mask for each point.  Equality compares the supports it is
    derived from, and the repr leaves both out.  It holds no reference to
    the algebra, which keeps it, so that neither waits for the cyclic
    collector."""

    _fields = ("n", "atoms", "classes", "hats")
    _shown = ("n", "atoms", "classes")
    __slots__ = (*_fields, "points", "_index")

    def __init__(
        self,
        n: int,
        atoms: tuple[int, ...],
        classes: tuple[tuple[int, ...], ...],
        hats: tuple[int, ...],
    ) -> None:
        self.n, self.atoms, self.classes, self.hats = n, atoms, classes, hats
        points = [0] * len(atoms)
        for e, h in enumerate(hats):
            for i in bits(h):
                points[i] |= 1 << e
        self.points = tuple(points)
        self._index = {m: i for i, m in enumerate(points)}

    def point_index(self, members: int) -> Optional[int]:
        """Position of the maximal filter with the member mask, or None when
        it is not one."""
        return self._index.get(members)


def maximal_filters(algebra: FiniteAlgebra) -> MaxFilterSpace:
    """All maximal proper filters, the up-sets of the atoms, canonically
    ordered, with their grouping and the support table: the algebra's
    representation, built once and kept on the algebra, whose dual record
    shares it.  An algebra without a representation fails the defining laws
    and raises ValueError.
    """
    if algebra._filters is None:
        rep = representation(algebra)
        if rep is None:
            raise ValueError(
                "algebra is not represented by partial functions, so it has no dual space"
            )
        atoms, classes, hats = rep
        algebra._filters = MaxFilterSpace(algebra.n, atoms, classes, hats)
    return algebra._filters
