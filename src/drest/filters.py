"""Filters and maximal filters of a finite algebra.

Element subsets are handled as bit-masks internally and exposed as frozensets.
Maximal filters are computed along two independent routes (inclusion-maximal
scan and the meet/difference dichotomy predicate) that must agree.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .dra import FiniteAlgebra, bottom, derived_meet, leq

FILTER_SIZE_CAP = 16


def to_mask(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def from_mask(mask: int, n: int) -> frozenset[int]:
    return frozenset(x for x in range(n) if mask >> x & 1)


def is_filter(algebra: FiniteAlgebra, members: Iterable[int]) -> bool:
    """Nonempty, upward closed, and closed under binary meets."""
    s = set(members)
    if not s:
        return False
    n = algebra.n
    for x in s:
        for y in range(n):
            if leq(algebra, x, y) and y not in s:
                return False
        for y in s:
            if derived_meet(algebra, x, y) not in s:
                return False
    return True


def is_proper_filter(algebra: FiniteAlgebra, members: Iterable[int]) -> bool:
    s = set(members)
    return is_filter(algebra, s) and bottom(algebra) not in s


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
    return tuple(from_mask(m, n) for m in found)


def _is_maximal_by_dichotomy(algebra: FiniteAlgebra, members: frozenset[int]) -> bool:
    # a proper filter is maximal iff for every member a and every b, exactly
    # one of a.b and a-b belongs to it
    for a in members:
        for b in range(algebra.n):
            in_meet = derived_meet(algebra, a, b) in members
            in_diff = algebra.m(a, b) in members
            if in_meet == in_diff:
                return False
    return True


@dataclass(frozen=True)
class MaxFilterSpace:
    """The points of the dual space: maximal filters plus their grouping by
    the shared-domain equivalence."""

    algebra: FiniteAlgebra
    points: tuple[frozenset[int], ...]
    classes: tuple[tuple[int, ...], ...]
    _index: dict[frozenset[int], int] = field(init=False, repr=False, compare=False)
    _class: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {mu: i for i, mu in enumerate(self.points)})
        object.__setattr__(
            self, "_class", {x: i for i, cls in enumerate(self.classes) for x in cls}
        )

    def point_index(self, members: frozenset[int]) -> Optional[int]:
        """Position of the maximal filter, or None when members is not one."""
        return self._index.get(members)

    def class_of(self, point: int) -> int:
        if point not in self._class:
            raise ValueError(f"unknown point {point}")
        return self._class[point]


def filter_equiv(
    algebra: FiniteAlgebra, mu: frozenset[int], nu: frozenset[int]
) -> bool:
    """Shared-domain equivalence of maximal filters: every a | b with a from
    the first and b from the second lands in the second."""
    return all(algebra.r(a, b) in nu for a in mu for b in nu)


def filter_domain_rel(
    algebra: FiniteAlgebra, f: frozenset[int], g: frozenset[int]
) -> bool:
    """Domain-inclusion preorder on filters: restricting members of g by
    members of f never escapes f."""
    # the element-wise restriction set, upward closed, is contained in the
    # upward-closed f iff each generator already is
    return all(algebra.r(b, a) in f for b in g for a in f)


def maximal_filters(algebra: FiniteAlgebra) -> MaxFilterSpace:
    """All maximal proper filters, canonically ordered, with their grouping.

    Dual route: the inclusion-maximal members of the full proper-filter scan
    must coincide with the dichotomy-predicate filters; disagreement means a
    bug and raises.
    """
    filters = all_proper_filters(algebra)
    by_predicate = [f for f in filters if _is_maximal_by_dichotomy(algebra, f)]

    predicate_set = set(by_predicate)
    for f in filters:
        supersets = [g for g in predicate_set if f < g]
        if f in predicate_set:
            if any(f < g for g in filters):
                raise AssertionError(
                    "internal error: dichotomy-maximal filter has a proper extension"
                )
        elif not supersets:
            raise AssertionError(
                "internal error: inclusion-maximal filter missed by the dichotomy predicate"
            )

    n = algebra.n
    points = tuple(sorted(by_predicate, key=to_mask))
    seen: set[int] = set()
    classes: list[tuple[int, ...]] = []
    for i in range(len(points)):
        if i in seen:
            continue
        cls = tuple(
            j
            for j in range(len(points))
            if filter_equiv(algebra, points[i], points[j])
            and filter_equiv(algebra, points[j], points[i])
        )
        seen.update(cls)
        classes.append(cls)
    return MaxFilterSpace(algebra, points, tuple(classes))


def hat(space: MaxFilterSpace, element: int) -> frozenset[int]:
    """Point set of the maximal filters containing the element."""
    return frozenset(i for i, mu in enumerate(space.points) if element in mu)
