"""Filters and maximal filters of a finite algebra.

Element and point sets are int bitmasks internally and are exposed as
frozensets.  In a finite algebra every filter holds the meet of its members,
so it is the up-set of that member: the maximal filters are the up-sets of
the atoms, found from the order.  A point is the position of its atom, and
the support of an element is the mask of the points holding it; the support
table is built once, by :func:`maximal_filters`, and the independent
meet/difference dichotomy predicate checks every point at once on it,
combining whole table rows through ``itemgetter``.  The subset scan
``all_proper_filters`` is kept, capped, as the oracle the tests compare
against.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, xor
from typing import Iterable, Optional, Sequence

from .dra import FiniteAlgebra, bits, bottom, derived_meet, leq, picker, up_masks

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


def dichotomy(algebra: FiniteAlgebra, columns: Sequence[int]) -> int:
    """The points, as a mask, that fail the dichotomy predicate.

    columns[e] is the mask of the points holding element e.  A proper filter
    is maximal iff for every member a and every b exactly one of
    a.b = a - (a - b) and a - b belongs to it, so a point passes iff it lies
    in columns[a.b] ^ columns[a - b] for every b and every member a.  One
    pass over the rows decides every point at once.
    """
    fails = 0
    for a, row in enumerate(algebra.minus.rows()):
        pick = picker(row)  # pick(s) = (s[a - b] for every b)
        exact = reduce(and_, map(xor, picker(pick(row))(columns), pick(columns)))
        fails |= columns[a] & ~exact
    return fails


@dataclass(frozen=True)
class MaxFilterSpace:
    """The points of the dual space: maximal filters plus their grouping by
    the shared-domain equivalence.  Point i is the up-set of atoms[i];
    hats[e] is the support of element e, the mask of the points holding it."""

    algebra: FiniteAlgebra
    atoms: tuple[int, ...]
    points: tuple[frozenset[int], ...]
    classes: tuple[tuple[int, ...], ...]
    hats: tuple[int, ...] = field(repr=False, compare=False)
    _index: dict[int, int] = field(init=False, repr=False, compare=False)
    _class: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        up = up_masks(self.algebra)
        object.__setattr__(self, "_index", {up[a]: i for i, a in enumerate(self.atoms)})
        object.__setattr__(
            self, "_class", {x: i for i, cls in enumerate(self.classes) for x in cls}
        )

    def point_index(self, members: int) -> Optional[int]:
        """Position of the maximal filter with the member mask, or None when
        it is not one."""
        return self._index.get(members)

    def class_of(self, point: int) -> int:
        if point not in self._class:
            raise ValueError(f"unknown point {point}")
        return self._class[point]


def _generator(algebra: FiniteAlgebra, members: frozenset[int]) -> int:
    mask, up = to_mask(members), up_masks(algebra)
    for x in members:
        if up[x] == mask:
            return x
    raise ValueError("not the up-set of one of its members, so not a filter")


def filter_equiv(
    algebra: FiniteAlgebra, mu: frozenset[int], nu: frozenset[int]
) -> bool:
    """Shared-domain equivalence of filters: every a | b with a from the
    first and b from the second lands in the second.

    A finite filter is the up-set of its least member.  Restriction is
    monotone and p | q lies below q, so for the up-sets of p and q this holds
    iff p | q = q; a set that is no such up-set raises.
    """
    q = _generator(algebra, nu)
    return algebra.r(_generator(algebra, mu), q) == q


def filter_domain_rel(
    algebra: FiniteAlgebra, f: frozenset[int], g: frozenset[int]
) -> bool:
    """Domain-inclusion preorder on filters: restricting members of g by
    members of f never escapes f."""
    # the element-wise restriction set, upward closed, is contained in the
    # upward-closed f iff each generator already is
    return all(algebra.r(b, a) in f for b in g for a in f)


def maximal_filters(algebra: FiniteAlgebra) -> MaxFilterSpace:
    """All maximal proper filters, canonically ordered, with their grouping
    and the support table.

    The maximal filters are the up-sets of the atoms, the elements with
    nothing but the bottom strictly below them.  Second route: each must
    satisfy the dichotomy predicate; disagreement means a bug and raises.
    """
    n, up, bot = algebra.n, up_masks(algebra), bottom(algebra)

    def is_atom(a: int) -> bool:
        return a != bot and not any(up[x] >> a & 1 for x in range(n) if x not in (a, bot))

    atoms = sorted(filter(is_atom, range(n)), key=up.__getitem__)
    hats = [0] * n
    for i, a in enumerate(atoms):
        for e in bits(up[a]):
            hats[e] |= 1 << i
    if dichotomy(algebra, hats):
        raise AssertionError("internal error: up-set of an atom fails the dichotomy predicate")

    r = algebra.r
    classes: list[tuple[int, ...]] = []
    for i, p in enumerate(atoms):
        # filter_equiv both ways on the up-sets of p and q
        if not any(i in cls for cls in classes):
            classes.append(tuple(j for j, q in enumerate(atoms) if r(p, q) == q and r(q, p) == p))
    points = tuple(from_mask(up[a], n) for a in atoms)
    return MaxFilterSpace(algebra, tuple(atoms), points, tuple(classes), tuple(hats))


def hat(space: MaxFilterSpace, element: int) -> frozenset[int]:
    """Point set of the maximal filters containing the element."""
    return from_mask(space.hats[element], len(space.points))
