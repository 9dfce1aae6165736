"""Abstract finite algebras of difference and restriction, given by tables.

An algebra is a list of element names plus total operation tables.  It is
valid exactly when it has a :func:`representation`, its support table checked
in O(n²) to be an isomorphism onto partial functions.  Only an invalid one has
the five defining equations walked, a whole table row at a time, to list the
witnesses: rows are tuples, and composing or transposing them with
``itemgetter`` and ``zip`` keeps the inner loops in C without n³ arrays.
The representation, built on first use and stored on the algebra with an
index from each support back to its element, carries the order and the
joins: x <= y is inclusion of supports, a join is the element whose support
is the union of the members', and the algebra is finitely compatibly
complete when every partial section is a support.  Compatibility and
homomorphisms read the two tables.  The isomorphism search reads the
representations: it assigns points, not elements, and matches supports.

An algebra built from a family of masks (:func:`from_masks`: the graphs of
partial functions, or the sections of a space) keeps them, and its
representation is read off them on first use instead of searched for in its
tables (:func:`_mask_representation`).
"""
from __future__ import annotations

from functools import reduce
from itertools import chain, compress, product, repeat
from math import prod
from operator import and_, attrgetter, itemgetter, or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .pfun import ConcretePFAlgebra

# points of a space, and of an algebra in the isomorphism search
SPACE_SIZE_CAP = 16
# sections of one space, prod(|fibre| + 1); the dual tables grow with its
# square, and completing a 1,024-element algebra takes seconds
SECTION_CAP = 1024


class Record:
    """A value record: equality, hashing and the repr read the fields named
    by the class's ``_fields`` (as on a named tuple), and the repr shows
    those named by ``_shown``, all of them when a class names none.  Only
    two instances of one class compare; any other comparison is
    NotImplemented.  Each class keeps its own ``__init__`` and checks.

    Fields are not reassigned after construction.  A record keeps facts
    built on first use (a representation, a topology, a view, a dual
    record, an operator store), outside equality, hashing and the repr, and
    nothing invalidates them: assigning a field leaves them stale."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)
        cls._shown = cls.__dict__.get("_shown", cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__name__}({shown})"


class OpTable(Record):
    """A total n-ary operation on element indices, stored row-major."""

    _fields = ("name", "arity", "size", "entries")
    __slots__ = _fields

    def __init__(self, name: str, arity: int, size: int, entries: tuple[int, ...]) -> None:
        if len(entries) != size**arity:
            raise ValueError(f"table {name}: wrong number of entries")
        if entries and not 0 <= min(entries) <= max(entries) < size:
            e = next(e for e in entries if not 0 <= e < size)
            raise ValueError(f"table {name}: entry {e} out of range")
        self.name, self.arity, self.size, self.entries = name, arity, size, entries

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"table {self.name} expects {self.arity} arguments")
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.entries[idx]

    def rows(self) -> list[tuple[int, ...]]:
        """A binary table as rows: rows()[x][y] is the entry at (x, y)."""
        n = self.size
        return [self.entries[x * n:(x + 1) * n] for x in range(n)]


def picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The function seq -> tuple(seq[i] for i in positions), looping in C."""
    if len(positions) == 1:
        # itemgetter with one index returns the item, not a 1-tuple
        (i,) = positions
        return lambda seq: (seq[i],)
    return itemgetter(*positions)


# the facts an algebra keeps, in neither its equality nor its repr
_KEPT = ("_masks", "_rep", "_support_index", "_filters", "_dual", "_operators")


class FiniteAlgebra(Record):
    _fields = ("elements", "minus", "rest", "extra_ops")
    __slots__ = (*_fields, *_KEPT)

    def __init__(
        self,
        elements: tuple[str, ...],
        minus: OpTable,
        rest: OpTable,
        extra_ops: tuple[OpTable, ...] = (),
    ) -> None:
        n = len(elements)
        if len(set(elements)) != n:
            raise ValueError("element names must be distinct")
        for table in (minus, rest, *extra_ops):
            if table.size != n:
                raise ValueError(f"table {table.name} sized for a different algebra")
        if minus.arity != 2 or rest.arity != 2:
            raise ValueError("difference and restriction must be binary")
        self.elements, self.minus, self.rest, self.extra_ops = elements, minus, rest, extra_ops
        # dropped with the algebra: the masks and domain masks the algebra was
        # built from (from_masks), and, built on first use, the
        # representation (() for none), the element of each support, the
        # maximal filters (drest.filters.maximal_filters), the dual record
        # (drest.duality.dual_of), which shares them, and the operator facts,
        # keyed by what built them and the table (drest.operators); each
        # depends on the elements and the two tables alone, so with_ops
        # keeps them
        self._masks = self._rep = self._support_index = self._filters = self._dual = None
        self._operators: dict = {}

    @property
    def n(self) -> int:
        return len(self.elements)

    def m(self, x: int, y: int) -> int:
        return self.minus.entries[x * self.n + y]

    def r(self, x: int, y: int) -> int:
        return self.rest.entries[x * self.n + y]

    def op(self, name: str) -> OpTable:
        for table in self.extra_ops:
            if table.name == name:
                return table
        raise KeyError(f"no operation named {name!r}")

    def op_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.extra_ops)

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def with_ops(self, ops: Iterable[OpTable]) -> "FiniteAlgebra":
        """The same elements and tables with other operations, sharing the
        facts built so far."""
        other = FiniteAlgebra(self.elements, self.minus, self.rest, tuple(ops))
        for name in _KEPT:
            setattr(other, name, getattr(self, name))
        return other


def binary_table(name: str, n: int, fn) -> OpTable:
    return OpTable(name, 2, n, tuple(fn(x, y) for x in range(n) for y in range(n)))


class NotClosed(ValueError):
    """A family of masks not closed under difference and restriction."""


def from_masks(
    names: Iterable[str],
    masks: Sequence[int],
    doms: Sequence[int],
) -> tuple[FiniteAlgebra, dict[int, int]]:
    """The algebra of a family of distinct masks under difference a & ~b and
    restriction b & doms[a], with the index of each mask; NotClosed when a
    result is no member.  The names are read only after both tables are
    built, so an unclosed family is refused first.

    The masks must be partial sections of a partition of the bit positions
    into blocks, each meeting a block at most once, with doms[a] the union
    of the blocks a meets: graphs of partial functions, their blocks the
    rows, or sections of a discrete space, their blocks the fibres.  They
    are kept on the algebra, and :func:`representation` reads them
    (:func:`_mask_representation`).  Every table entry is a value of the
    index, so the tables skip the range scan of :class:`OpTable`.
    """
    index = {m: i for i, m in enumerate(masks)}
    complements = [~b for b in masks]
    try:
        minus = tuple([index[a & c] for a in masks for c in complements])
        rest = tuple([index[b & d] for d in doms for b in masks])
    except KeyError:
        raise NotClosed("family not closed under difference and restriction") from None
    n = len(masks)
    algebra = FiniteAlgebra(
        tuple(names), _index_table("minus", n, minus), _index_table("rest", n, rest)
    )
    algebra._masks = (masks, doms)
    return algebra, index


def _index_table(name: str, n: int, entries: tuple[int, ...], arity: int = 2) -> OpTable:
    """A table of n**arity values of a mask index, so in range by
    construction: made without the range scan of :class:`OpTable`."""
    table = object.__new__(OpTable)
    table.name, table.arity, table.size, table.entries = name, arity, n, entries
    return table


def from_concrete(
    algebra: ConcretePFAlgebra, extra_ops: Iterable[str] = ()
) -> FiniteAlgebra:
    """The algebra of a concrete partial-function algebra, built from its
    graph masks (:func:`from_masks`), with the tables of the named
    operations.

    Each table applies the operation's one form on graph masks
    (:func:`drest.pfun.graph_operations`) to every argument tuple of masks
    (:func:`drest.pfun.graph_results`, which prepares each mask once per
    side) and looks the result up in the mask index, once both tables are
    built; with no named operation nothing more is done.  The value-tuple
    forms are test oracles.  NotClosed when the family is not closed under
    difference and restriction, decided first; ValueError when it is not
    closed under a named operation (or holds a non-injective function and
    "converse" is named); "identity" requires the identity function to be a
    member, and a name with no concrete operation raises KeyError.
    """
    masks, doms = algebra.graph_masks()
    built, index = from_masks((f.render() for f in algebra.elements), masks, doms)
    names = tuple(extra_ops)
    if not names:
        return built
    from .pfun import graph_operations, graph_results

    operations = graph_operations(algebra.carrier.size)

    def table(name: str) -> OpTable:
        if name not in operations:
            raise KeyError(f"no operation named {name!r}")
        results = chain.from_iterable(graph_results(*operations[name], masks))
        try:
            entries = tuple(map(index.__getitem__, results))
        except KeyError:
            raise ValueError("algebra not closed under requested operation") from None
        return _index_table(name, len(masks), entries, operations[name][0])

    return built.with_ops(map(table, names))


# ---------------------------------------------------------------------------
# axiom validation

class AxiomViolation(NamedTuple):
    axiom: str
    witnesses: tuple[str, ...]


class ValidationReport(NamedTuple):
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "valid: all five defining equations hold"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {v.axiom} at ({', '.join(v.witnesses)})" for v in self.violations]
        return "\n".join(lines)


def validate_axioms(algebra: FiniteAlgebra) -> ValidationReport:
    """Check the five defining equations on every element tuple.

    An algebra with a :func:`representation` passes.  Otherwise a non-constant
    x - x (no common bottom) is reported alone, as every law presupposes a
    bottom, and witnesses are listed law by law, each in row-major order.
    """
    if representation(algebra) is not None:
        return ValidationReport(())
    n, names = algebra.n, algebra.elements
    diag = algebra.minus.entries[:: n + 1]
    if diag.count(diag[0]) != n:
        bad = tuple(names[i] for i in range(n) if diag[i] != diag[0])
        return ValidationReport((AxiomViolation("no-constant-bottom", bad),))

    # each law is first decided a row (or column) at a time; only the rows
    # that fail are walked element by element to list the witnesses
    M, R = algebra.minus.rows(), algebra.rest.rows()
    M_col, R_col = list(zip(*M)), list(zip(*R))
    M_pick = list(map(picker, M))
    meet = [pick(row) for pick, row in zip(M_pick, M)]  # meet[x][y] = x - (x - y)
    meet_T = list(zip(*meet))
    R_flat = picker(algebra.rest.entries)
    N = range(n)

    def law_4_holds(c: int) -> bool:
        # both sides for every (a, b) at this c, flattened row-major
        Rc = picker(R_col[c])
        return tuple(chain.from_iterable(map(Rc, Rc(meet)))) == R_flat(R_col[c])

    checks = (
        # a - (b - a) = a
        ("law-1", product([a for a in N if picker(M_col[a])(M[a]) != (a,) * n], N),
         lambda a, b: M[a][M[b][a]] != a),
        # a . b = b . a
        ("law-2", product([a for a in N if meet[a] != meet_T[a]], N),
         lambda a, b: meet[a][b] != meet[b][a]),
        # (a - b) - c = (a - c) - b: the rows M[a - b] over b are symmetric
        ("law-3", product([a for a in N if (T := M_pick[a](M)) != tuple(zip(*T))], N, N),
         lambda a, b, c: M[M[a][b]][c] != M[M[a][c]][b]),
        # (a | c) . (b | c) = (a | b) | c
        ("law-4", product(N, N, [c for c in N if not law_4_holds(c)]),
         lambda a, b, c: meet[R[a][c]][R[b][c]] != R[R[a][b]][c]),
        # (a . b) | a = a . b
        ("law-5", product([a for a in N if picker(meet[a])(R_col[a]) != meet[a]], N),
         lambda a, b: R[meet[a][b]][a] != meet[a][b]),
    )
    return ValidationReport(tuple(
        AxiomViolation(axiom, tuple(names[i] for i in idx))
        for axiom, candidates, fails in checks
        for idx in candidates
        if fails(*idx)
    ))


# ---------------------------------------------------------------------------
# derived structure

def bottom(algebra: FiniteAlgebra) -> int:
    return algebra.m(0, 0)


def derived_meet(algebra: FiniteAlgebra, x: int, y: int) -> int:
    return algebra.m(x, algebra.m(x, y))


def leq(algebra: FiniteAlgebra, x: int, y: int) -> bool:
    return derived_meet(algebra, x, y) == x


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def up_masks(algebra: FiniteAlgebra) -> tuple[int, ...]:
    """up[x]: the elements y with x <= y, as a bitmask."""
    # x <= y iff x - (x - y) = x, so row x of the meet is the minus row
    # composed with itself; each row is compared and summed in C.  One
    # position more keeps itemgetter returning a tuple at n = 1, and
    # compress stops at the end of powers.
    powers = [1 << y for y in range(algebra.n)]
    return tuple(
        sum(compress(powers, map(x.__eq__, itemgetter(*row, 0)(row))))
        for x, row in enumerate(algebra.minus.rows())
    )


Representation = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]


def representation(algebra: FiniteAlgebra) -> Optional[Representation]:
    """``(atoms, classes, hats)`` when the support table is an isomorphism
    onto partial functions from classes to points, else None; kept on the
    algebra, and read off its masks when it was built from some
    (:func:`_mask_representation`).  Point i is atoms[i], which has only the
    bottom strictly below; hats[e] is the mask of the points below e, and
    the classes group points p, q with r(p, q) = q and r(q, p) = p.  It is a
    representation when (1) the classes partition the points, each in its
    own class, (2) each hats[x] meets each class at most once, (3) hats is
    injective, and for all x, y (4) hats[x - y] = hats[x] & ~hats[y] and
    (5) hats[r(x, y)] = hats[y] & sat(hats[x]), sat(h) being the union of
    the classes h meets.

    Soundness: by (1) and (2), hats[x] is the graph of a partial function
    f_x from classes to points, as a point names its class.  Graph difference
    is then hats[x] & ~hats[y], and f_y restricted to the domain of f_x is
    hats[y] & sat(hats[x]); so by (3)-(5), x -> f_x is an isomorphism onto
    partial functions closed under both operations, where x - x is the empty
    function and the five defining equations hold.  Completeness is the
    finite representation theorem: this table, of the maximal filters over
    their classes, represents every valid algebra.
    """
    if algebra._rep is None:
        masks = algebra._masks
        rep = _mask_representation(*masks) if masks else _represent(algebra)
        algebra._rep = rep or ()
    return algebra._rep or None


def _represent(algebra: FiniteAlgebra) -> Optional[Representation]:
    n, up, bot = algebra.n, up_masks(algebra), bottom(algebra)
    above = reduce(or_, (up[x] & ~(1 << x) for x in range(n) if x != bot), 0)
    atoms = sorted((a for a in range(n) if a != bot and not above >> a & 1), key=up.__getitem__)
    hats = [sum(1 << i for i, a in enumerate(atoms) if up[a] >> e & 1) for e in range(n)]

    r = algebra.r
    classes: list[tuple[int, ...]] = []
    class_of = [0] * len(atoms)  # the class mask of each point
    for i, p in enumerate(atoms):
        if not class_of[i]:
            cls = tuple(j for j, q in enumerate(atoms) if r(p, q) == q and r(q, p) == p)
            if i not in cls or any(class_of[j] for j in cls):
                return None
            classes.append(cls)
            mask = sum(1 << j for j in cls)
            for j in cls:
                class_of[j] = mask
    if len(set(hats)) != n or any(h & class_of[i] != 1 << i for h in hats for i in bits(h)):
        return None

    sat = [reduce(or_, (class_of[i] for i in bits(h)), 0) for h in hats]
    inverse, at = [~h for h in hats], hats.__getitem__
    for x, (m_row, r_row) in enumerate(zip(algebra.minus.rows(), algebra.rest.rows())):
        if list(map(at, m_row)) != list(map(and_, repeat(hats[x]), inverse)):
            return None
        if list(map(at, r_row)) != list(map(and_, hats, repeat(sat[x]))):
            return None
    return tuple(atoms), tuple(classes), tuple(hats)


def _mask_representation(masks: Sequence[int], doms: Sequence[int]) -> Representation:
    """``(atoms, classes, hats)`` of a family built by :func:`from_masks`, in
    the order :func:`_represent` lists them.

    The order is inclusion (x - (x - y) is x & y).  Let c be an element,
    minimal under inclusion, below an element e and holding a bit of e: a
    nonempty d below c without the bit would leave c - d, below e with the
    bit, smaller than c.  So c is an atom, a minimal nonempty mask; an atom a
    meets e only when a & e, itself an element, is a; and two atoms are
    disjoint.  Every mask is therefore the disjoint union of the atoms inside
    it, the atoms it meets, and hats[e], the mask of those atoms, is
    injective and satisfies conditions (4) and (5).  Scanned by popcount, a
    nonempty mask is an atom iff it is disjoint from every atom found before
    it: a non-atom holds a smaller atom, and atoms are disjoint.

    The up-set of an atom is the elements that meet it, and the atoms are
    sorted by that mask, as :func:`_represent` sorts them.  Two atoms p, q
    have r(p, q) = q and r(q, p) = p exactly when each lies in the other's
    doms, the blocks they meet being the same: the classes group atoms by
    doms, each listed in point order and ordered by its first point, as
    :func:`_represent` builds them.  Two atoms of one class meet the same
    blocks, and a mask meets each block at most once, so no mask holds both:
    condition (2).  An atom a lies in doms[x] iff x holds an atom b of a's
    class: then x & doms[a] is a nonempty element, holding an atom b that
    meets only blocks of a, and a & doms[b], nonempty, is a.  That is
    condition (5).  When atom i is the bit i the supports are the masks.
    That is not so for every family of sections: on the fibres {0, 2} and
    {1} the atoms {0}, {1}, {2} are sorted by their up-sets as {0}, {2},
    {1}, so the atoms are the elements (1, 3, 2) and the support of {1} is
    the point mask 0b100.
    """
    count = list(map(int.bit_count, masks))
    atoms, covered = [], 0
    for e in sorted(range(len(masks)), key=count.__getitem__):
        if masks[e] and not masks[e] & covered:
            atoms.append(e)
            covered |= masks[e]
    # the set bits picked by nonzero meets, summed in C; there are no more
    # atoms than elements, so powers covers both
    powers = [1 << e for e in range(len(masks))]
    up = {a: sum(compress(powers, map(masks[a].__and__, masks))) for a in atoms}
    atoms.sort(key=up.__getitem__)
    classes: dict[int, list[int]] = {}  # doms -> its points
    for i, a in enumerate(atoms):
        classes.setdefault(doms[a], []).append(i)
    graphs = [masks[a] for a in atoms]
    if graphs == powers[:len(atoms)]:
        hats = tuple(masks)
    else:
        hats = tuple(sum(compress(powers, map(m.__and__, graphs))) for m in masks)
    return tuple(atoms), tuple(map(tuple, classes.values())), hats


def compatible(algebra: FiniteAlgebra, x: int, y: int) -> bool:
    return algebra.r(x, y) == algebra.r(y, x)


def _represented(algebra: FiniteAlgebra) -> Representation:
    rep = representation(algebra)
    if rep is None:
        raise ValueError("algebra is not represented by partial functions")
    return rep


def join_if_exists(algebra: FiniteAlgebra, members: Iterable[int]) -> Optional[int]:
    """Least upper bound of the set in the intrinsic order, if it exists: the
    element whose support is the union of the members' supports.  An algebra
    without a :func:`representation` raises ValueError.

    The order is inclusion of supports: hats[x - (x - y)] = hats[x] & hats[y]
    by condition (4), and hats is injective, so x <= y iff hats[x] <= hats[y].
    The upper bounds of the members are therefore the elements whose support
    holds the union U, and an element with support U is the least of them.
    One exists as soon as any upper bound z does: by (4),
    z - ((z - x1) - ... - xk) has support hats[z] & (hats[x1] | ... | hats[xk]),
    which is U.  The empty union is 0, the support of the bottom.
    """
    hats, element = supports(algebra)
    return element.get(reduce(or_, map(hats.__getitem__, members), 0))


def supports(algebra: FiniteAlgebra) -> tuple[tuple[int, ...], dict[int, int]]:
    """The support of each element, and the element of each support; kept on
    the algebra.  An algebra without a :func:`representation` raises
    ValueError."""
    hats = _represented(algebra)[2]
    if algebra._support_index is None:
        algebra._support_index = {h: e for e, h in enumerate(hats)}
    return hats, algebra._support_index


def is_fin_compatibly_complete(algebra: FiniteAlgebra) -> bool:
    """Every compatible pair has a join (pairs suffice for finite families):
    every partial section is a support, so n = prod(|class| + 1).  An algebra
    without a :func:`representation` raises ValueError.

    hats is injective into the partial sections, the point masks meeting each
    class at most once (condition (2)), of which there are prod(|class| + 1);
    so n is that product exactly when every partial section is a support.
    Then a compatible pair x, y has a join: r(x, y) = r(y, x) says by (5)
    that f_x and f_y agree where both are defined, so hats[x] | hats[y] is a
    partial section, a support, and its element is the join
    (:func:`join_if_exists`).  Conversely let every compatible pair have a
    join.  Each singleton {i} is hats[atoms[i]], and two elements whose
    supports meet disjoint sets of classes are compatible, both restrictions
    having empty support by (5).  So a partial section is reached from the
    bottom one point at a time, each step the join of a compatible pair,
    whose support is the union: every partial section is a support.
    """
    return algebra.n == prod(len(cls) + 1 for cls in _represented(algebra)[1])


def is_subtraction_algebra(algebra: FiniteAlgebra) -> bool:
    """Restriction is the meet x - (x - y): each rest row equals the minus
    row composed with itself, as in :func:`validate_axioms`."""
    return all(picker(m)(m) == r for m, r in zip(algebra.minus.rows(), algebra.rest.rows()))


# ---------------------------------------------------------------------------
# maps between algebras

class AlgebraMap(Record):
    _fields = ("source", "target", "table")
    __slots__ = _fields

    def __init__(self, source: FiniteAlgebra, target: FiniteAlgebra, table: tuple[int, ...]) -> None:
        if len(table) != source.n:
            raise ValueError("map table must cover every source element")
        for t in table:
            if not 0 <= t < target.n:
                raise ValueError("map table value outside target")
        self.source, self.target, self.table = source, target, table

    def __call__(self, x: int) -> int:
        return self.table[x]

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("maps do not compose")
        return AlgebraMap(
            other.source, self.target, tuple(self.table[t] for t in other.table)
        )

    def is_identity(self) -> bool:
        return self.source == self.target and self.table == tuple(range(self.source.n))


def identity_map(algebra: FiniteAlgebra) -> AlgebraMap:
    return AlgebraMap(algebra, algebra, tuple(range(algebra.n)))


class HomReport(NamedTuple):
    violations: tuple[str, ...]
    injective: bool

    @property
    def is_hom(self) -> bool:
        return not self.violations

    @property
    def is_embedding(self) -> bool:
        return self.is_hom and self.injective


def hom_check(mapping: AlgebraMap) -> HomReport:
    """Check preservation of difference, restriction, and every operation the
    two algebras share by name; injectivity is reported separately."""
    src, tgt, h = mapping.source, mapping.target, mapping.table
    n, tn = src.n, tgt.n
    s_m, s_r = src.minus.entries, src.rest.entries
    t_m, t_r = tgt.minus.entries, tgt.rest.entries
    violations: list[str] = []
    for x in range(n):
        hx = h[x] * tn
        for y in range(n):
            if h[s_m[x * n + y]] != t_m[hx + h[y]]:
                violations.append(
                    f"minus not preserved at ({src.elements[x]}, {src.elements[y]})"
                )
            if h[s_r[x * n + y]] != t_r[hx + h[y]]:
                violations.append(
                    f"rest not preserved at ({src.elements[x]}, {src.elements[y]})"
                )
    shared = set(src.op_names()) & set(tgt.op_names())
    for name in sorted(shared):
        s_op, t_op = src.op(name), tgt.op(name)
        if s_op.arity != t_op.arity:
            violations.append(f"operation {name} has mismatched arities")
            continue
        for args in product(range(src.n), repeat=s_op.arity):
            if h[s_op(*args)] != t_op(*(h[a] for a in args)):
                witness = ", ".join(src.elements[a] for a in args)
                violations.append(f"operation {name} not preserved at ({witness})")
    injective = len(set(h)) == len(h)
    return HomReport(tuple(violations), injective)


def is_proper_hom(mapping: AlgebraMap) -> bool:
    """Every target element lies below the image of some source element."""
    if not hom_check(mapping).is_hom:
        raise ValueError("properness is only defined for homomorphisms")
    tgt = mapping.target
    return all(
        any(leq(tgt, b, mapping.table[a]) for a in range(mapping.source.n))
        for b in range(tgt.n)
    )


def isomorphism_search(
    a: FiniteAlgebra, b: FiniteAlgebra
) -> Optional[AlgebraMap]:
    """An isomorphism a -> b preserving every operation the two share, if
    any.  An algebra without a :func:`representation` raises ValueError, and
    so does one with more than SPACE_SIZE_CAP points, before any search.

    It is a bijection pi of points carrying classes onto classes and supports
    onto supports, with h(x) = element_b[pi(hats_a[x])] commuting with the
    shared operations.  Such an h is a bijection, and pi commutes with &, ~
    and sat, so by (4), (5) and the injectivity of hats_b, h preserves
    difference and restriction.  Conversely an isomorphism sends atoms onto
    atoms, classes onto classes as it preserves r, and the atoms below x onto
    those below h(x): it is such an h.

    The points of a are assigned class by class, the first point of a class
    choosing an unused class of b of its size, so a class cut to the assigned
    points A maps onto its chosen class cut to their images B.  A branch is
    kept while (i) the supports of a cut to A, carried by pi, are those of b
    cut to B, with multiplicity; (ii) each x with hats_a[x] inside A has a
    support pi(hats_a[x]), which gives h(x); and (iii) each shared operation
    f, g at each tuple xs of such elements has pi(hats_a[f(xs)] & A) =
    hats_b[g(h(xs))] & B.  An isomorphism extending the branch meets all
    three, as pi(s & A) = pi(s) & B, so no branch leading to one is cut.  At
    A = all points B is all points too, the class sizes agreeing; (ii) then
    makes pi carry supports into, hence onto, supports, and (iii) makes h
    commute with the shared operations.
    """
    atoms_a, classes_a, hats_a = _represented(a)
    atoms_b, classes_b, hats_b = _represented(b)
    if max(len(atoms_a), len(atoms_b)) > SPACE_SIZE_CAP:
        raise ValueError(f"isomorphism search capped at {SPACE_SIZE_CAP} points")
    if a.n != b.n or sorted(a.op_names()) != sorted(b.op_names()):
        return None
    ops = [(a.op(k), b.op(k)) for k in a.op_names()]
    if any(f.arity != g.arity for f, g in ops):
        return None
    if sorted(map(len, classes_a)) != sorted(map(len, classes_b)):
        return None
    element_b = supports(b)[1]
    points = [p for cls in classes_a for p in cls]
    class_a = {p: cls for cls in classes_a for p in cls}
    class_b = {q: cls for cls in classes_b for q in cls}
    pi: dict[int, int] = {}

    def search(A: int, B: int, image: list[int], cut: list[int]) -> Optional[list[int]]:
        # image[x] = pi(hats_a[x] & A) and cut[y] = hats_b[y] & B
        if sorted(image) != sorted(cut):
            return None
        inside = [x for x, s in enumerate(hats_a) if not s & ~A]
        h = dict(zip(inside, map(element_b.get, map(image.__getitem__, inside))))
        if None in h.values() or any(
            image[f(*xs)] != cut[g(*map(h.__getitem__, xs))]
            for f, g in ops
            for xs in product(inside, repeat=f.arity)
        ):
            return None
        if len(pi) == len(points):
            return [h[x] for x in range(a.n)]
        p = points[len(pi)]
        cls = class_a[p]
        if p == cls[0]:
            targets = [
                q for d in classes_b if len(d) == len(cls) and not any(B >> q & 1 for q in d)
                for q in d
            ]
        else:
            targets = [q for q in class_b[pi[cls[0]]] if not B >> q & 1]
        for q in targets:
            pi[p] = q
            found = search(
                A | 1 << p,
                B | 1 << q,
                [m | 1 << q if s >> p & 1 else m for s, m in zip(hats_a, image)],
                [c | (s & 1 << q) for s, c in zip(hats_b, cut)],
            )
            if found is not None:
                return found
            del pi[p]
        return None

    table = search(0, 0, [0] * a.n, [0] * b.n)
    if table is None:
        return None
    candidate = AlgebraMap(a, b, tuple(table))
    if not hom_check(candidate).is_embedding:
        raise AssertionError("internal error: search result not an isomorphism")
    return candidate
