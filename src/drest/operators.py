"""Compatibility-preserving operators and their dual point relations.

An operator here is a total operation table on a finite algebra.  Of the
three defining properties, compatibility preservation ORs the outputs of all
coordinatewise compatible argument tuples into one mask per tuple, one
coordinate at a time (O(k n^(k+1)) int ORs at arity k); additivity compares
the supports along table rows; normality scans the bottom slices.  The
masks live only inside each call, and a failure names the first witness in
lexicographic order, as the literal double scans kept as test oracles do.
Point sets are int masks, with no frozenset form, and a relation holds the
output mask of each input tuple.  The same coordinate-at-a-time fold,
:func:`_fold`, is the only walk over argument tuples: the relation of an
operator is an AND-fold of the support table, and the operation a relation
induces on sections, the support identity of the unit, every relation check
and the back-and-forth check are OR-folds of the output masks.  The
completion carries an operator as the image map of its relation, which is a
compatibility-preserving operator by construction (proved at
``complete_with_operators``), so the operator cap bounds the inputs only;
the carried table's size is bounded by the sections cap squared.  An
operator's classification and relation are made once per (algebra, table)
and kept in the algebra's operator store, which the completion reads.
Classification reads only the tables, so the dual-space modules
(``duality``, ``filters``) are imported by the relation and completion
functions that use them, when first called.
"""
from __future__ import annotations

from functools import reduce
from itertools import product
from math import prod
from operator import and_, or_
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from .dra import (
    SECTION_CAP,
    AlgebraMap,
    FiniteAlgebra,
    OpTable,
    Record,
    bits,
    bottom,
    from_concrete,
    supports,
)
from .pfun import CLOSURE_SIZE_CAP, UNDEF, ConcretePFAlgebra, closure_generate

if TYPE_CHECKING:
    from .duality import DualAlgebra, EtaleSpace, SpaceMorphism

OPERATOR_ARITY_CAP = 3
OPERATOR_ALGEBRA_CAP = 10


class OperatorCheckError(ValueError):
    """An operator or relation check was asked outside its preconditions."""


def _check_caps(algebra: FiniteAlgebra, table: OpTable) -> None:
    _check_arity_and_size(algebra.n, table.arity)
    if table.size != algebra.n:
        raise OperatorCheckError("operation table sized for a different algebra")


def _check_arity_and_size(n: int, arity: int) -> None:
    """The caps of every operator check on an algebra of n elements, which
    need no table: a table read off partial functions costs n**arity mask
    operations to build."""
    if arity > OPERATOR_ARITY_CAP:
        raise OperatorCheckError(f"operator arity capped at {OPERATOR_ARITY_CAP}")
    if n > OPERATOR_ALGEBRA_CAP:
        raise OperatorCheckError(
            f"operator checks capped at {OPERATOR_ALGEBRA_CAP} elements"
        )


def check_compat_preserving(
    algebra: FiniteAlgebra, table: OpTable
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Coordinatewise compatible inputs must give compatible outputs.

    Returns the verdict and a witness pair of argument tuples on failure:
    the first failing ``xs`` in lexicographic order, and the first ``ys``
    compatible with it whose output is not compatible with its output.
    """
    _check_caps(algebra, table)
    n, k, f = algebra.n, table.arity, table.entries
    compat = _compat_masks(algebra)
    members = [list(bits(c)) for c in compat]
    # reach[xs]: the outputs of every ys compatible with xs, as a mask
    reach = _fold([1 << e for e in f], n, members, k, or_, 0)
    for xs, outputs, out in zip(product(range(n), repeat=k), reach, f):
        if outputs & ~compat[out]:
            ys = next(
                ys
                for ys in product(*(members[x] for x in xs))
                if not compat[out] >> table(*ys) & 1
            )
            return False, (xs, ys)
    return True, None


def check_normal(
    algebra: FiniteAlgebra, table: OpTable
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """A bottom in any coordinate must give bottom."""
    _check_caps(algebra, table)
    bot = bottom(algebra)
    n = algebra.n
    for i in range(table.arity):
        for rest in product(range(n), repeat=table.arity - 1):
            args = rest[:i] + (bot,) + rest[i:]
            if table(*args) != bot:
                return False, args
    return True, None


def check_additive(
    algebra: FiniteAlgebra, table: OpTable
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Existing binary joins in any coordinate must be carried to joins.

    Pairs without a join are skipped; the premise only speaks of joins that
    exist.  The witness is the first failure with the varied coordinate i,
    then the other coordinates, then x <= y in lexicographic order.  A join
    is the element whose support is the union of the two supports
    (:func:`drest.dra.join_if_exists`), and no two elements share a support,
    so rows are compared on supports.  Without a representation, ValueError.
    """
    _check_caps(algebra, table)
    n, k, f = algebra.n, table.arity, table.entries
    hats, element = supports(algebra)
    joins = ((x, y, element.get(hats[x] | hats[y])) for x in range(n) for y in range(x, n))
    pairs = [(x, y, j) for x, y, j in joins if j is not None]
    for i in range(k):
        stride = n ** (k - 1 - i)
        for rest in product(range(n), repeat=k - 1):
            # the supports of the entries with every coordinate but the i-th fixed to rest
            start = _flatten(rest[:i] + (0,) + rest[i:], n)
            row = list(map(hats.__getitem__, f[start : start + (n - 1) * stride + 1 : stride]))
            for x, y, j in pairs:
                if row[x] | row[y] != row[j]:
                    return False, rest[:i] + (x, y) + rest[i:]
    return True, None


def _compat_masks(algebra: FiniteAlgebra) -> list[int]:
    """compat[x]: the elements y with r(x, y) == r(y, x), as a bitmask."""
    n, r = algebra.n, algebra.rest.entries
    return [
        sum(1 << y for y in range(n) if r[x * n + y] == r[y * n + x]) for x in range(n)
    ]


def _flatten(args: Sequence[int], n: int) -> int:
    """The row-major position of an argument tuple in a table."""
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def _fold(
    values: Sequence[int], size: int, near: Sequence[Sequence[int]], arity: int,
    combine: Callable[[int, int], int], start: int,
) -> list[int]:
    """For every tuple xs over range(len(near)), in row-major order, start
    combined with values[ys] for every ys with ys[i] in near[xs[i]]; values
    holds one entry per tuple over range(size), in row-major order.

    Each pass combines over the last coordinate and moves the new coordinate
    to the front, so after arity passes the coordinates are back in order.
    The passes nest, so each entry combines every such ys exactly once, and
    or_ and and_ give the same result in any order.  With size 0 and arity
    at least 1 no ys exists, and every entry is start.
    """
    if arity and not size:
        return [start] * len(near) ** arity
    for _ in range(arity):
        rows = [values[i : i + size] for i in range(0, len(values), size)]
        values = [reduce(combine, map(row.__getitem__, ys), start) for ys in near for row in rows]
    return list(values)


class OperatorReport(NamedTuple):
    name: str
    arity: int
    compat_preserving: bool
    normal: bool
    additive: bool
    witnesses: tuple[str, ...]

    @property
    def is_operator(self) -> bool:
        # "operator" in the Jonsson-Tarski sense: normal and additive
        return self.normal and self.additive

    @property
    def is_compat_preserving_operator(self) -> bool:
        return self.is_operator and self.compat_preserving


def _kept(algebra: FiniteAlgebra, table: OpTable, build: Callable):
    """build(algebra, table), made once per table and kept in the algebra's
    operator store, which :meth:`FiniteAlgebra.with_ops` shares: it reads
    only the elements, the two tables and the table."""
    facts = algebra._operators
    if (build, table) not in facts:
        facts[build, table] = build(algebra, table)
    return facts[build, table]


def classify_operator(algebra: FiniteAlgebra, table: OpTable) -> OperatorReport:
    """The three properties, with the first witness of each that fails; kept
    on the algebra."""
    return _kept(algebra, table, _classify)


def _classify(algebra: FiniteAlgebra, table: OpTable) -> OperatorReport:
    witnesses: list[str] = []

    def render(args: Iterable[int]) -> str:
        return "(" + ", ".join(algebra.elements[a] for a in args) + ")"

    compat, w = check_compat_preserving(algebra, table)
    if not compat:
        witnesses.append(f"compatibility lost at {render(w[0])} vs {render(w[1])}")
    normal, w = check_normal(algebra, table)
    if not normal:
        witnesses.append(f"not normal at {render(w)}")
    additive, w = check_additive(algebra, table)
    if not additive:
        witnesses.append(f"not additive at {render(w)}")
    return OperatorReport(
        name=table.name,
        arity=table.arity,
        compat_preserving=compat,
        normal=normal,
        additive=additive,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# relations on spaces

class SpaceRelation(Record):
    """A set of (arity + 1)-tuples of points; the last coordinate is the
    output position.  ``image`` holds the output mask of each input tuple in
    row-major order; every check reads it through :func:`_fold`, and equal
    relations have equal images.  Made from tuples, the relation checks them
    and builds its image; made from an image (:meth:`_of_image`), ``tuples``
    is a view built on first read.  Equality compares the name, space, arity
    and image; the repr shows the first three."""

    _fields = ("name", "space", "arity", "image")
    _shown = ("name", "space", "arity")
    __slots__ = (*_fields, "_tuples")

    def __init__(
        self, name: str, space: EtaleSpace, arity: int, tuples: Iterable[tuple[int, ...]]
    ) -> None:
        if arity < 0:
            raise ValueError(f"relation {name}: arity must be nonnegative")
        if arity > OPERATOR_ARITY_CAP:
            raise ValueError(f"relation {name}: arity capped at {OPERATOR_ARITY_CAP}")
        tuples, k = frozenset(tuples), space.n_points
        if any(len(t) != arity + 1 for t in tuples):
            raise ValueError(f"relation {name}: tuple of wrong length")
        if not set().union(*tuples) <= set(range(k)):
            raise ValueError(f"relation {name}: foreign point")
        image = [0] * k**arity
        for t in tuples:
            image[_flatten(t[:-1], k)] |= 1 << t[-1]
        self._set(name, space, arity, tuple(image), tuples)

    @classmethod
    def _of_image(
        cls, name: str, space: EtaleSpace, arity: int, image: Sequence[int]
    ) -> SpaceRelation:
        """The relation with the given output masks, which the caller builds
        on the points of the space with an arity within the cap."""
        rel = cls.__new__(cls)
        rel._set(name, space, arity, tuple(image), None)
        return rel

    def _set(self, name, space, arity, image, tuples) -> None:
        self.name, self.space, self.arity, self.image, self._tuples = (
            name, space, arity, image, tuples
        )

    @property
    def tuples(self) -> frozenset[tuple[int, ...]]:
        if self._tuples is None:
            inputs = product(range(self.space.n_points), repeat=self.arity)
            self._tuples = frozenset(
                mus + (nu,) for mus, out in zip(inputs, self.image) for nu in bits(out)
            )
        return self._tuples


def relation_from_operator(algebra: FiniteAlgebra, table: OpTable) -> SpaceRelation:
    """The point relation on the maximal-filter space: inputs drawn from the
    first filters must always land the operation in the last, so the last
    point ranges over the common support of every image; kept on the
    algebra.

    So the image of mus is the AND-fold of the supports hats[f(args)] over
    the member lists of the points: nu is in it exactly when nu is in
    hats[f(args)] for every args with args[i] in the filter mus[i].
    """
    return _kept(algebra, table, _relation)


def _relation(algebra: FiniteAlgebra, table: OpTable) -> SpaceRelation:
    from .duality import dual_of

    _check_caps(algebra, table)
    dual = dual_of(algebra)
    hats = dual.mfs.hats
    members = [list(bits(m)) for m in dual.mfs.points]
    outputs = [hats[e] for e in table.entries]
    image = _fold(outputs, algebra.n, members, table.arity, and_, dual.topology.full)
    return SpaceRelation._of_image(table.name, dual.space, table.arity, image)


class RelationReport(NamedTuple):
    compatibility_property: bool
    continuous: bool
    spectral: bool
    tight: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_relation_properties(rel: SpaceRelation) -> RelationReport:
    """Each property is one OR-fold of the image and a comparison.

    Compatibility asks that tuples (xs, y) and (ys, z) of the relation with
    every ys[i] compatible with xs[i] (equal to it, or in another fibre) have
    compatible outputs.  For a fixed (xs, y), the outputs z of those tuples
    are the fold over the lists of points compatible with each point, read
    at xs; so the property holds when no output y of xs has a fibre-mate
    (another point of its fibre) in the fold at xs.

    Continuity and spectrality: applying the relation commutes with unions in
    each argument, and every open set is a union of least neighbourhoods, so
    the images of tuples of N(x), the fold over the N(x) lists, decide the
    open-tuple quantifiers.  A point with no N(x) gets the empty list, whose
    entries are empty and open.  Finitely many points make every open
    compact, so the compact-open case asks for nothing further.

    Tightness asks that every output of the relation applied to compact open
    neighbourhoods of xs be an output of xs.  Applying the relation is
    monotone in each argument, so the least neighbourhoods decide it: the
    same fold at xs lies inside the image of xs.
    """
    from .duality import _topology

    k = rel.space.n_points
    top = _topology(rel.space)
    compatible = [list(bits(top.full & ~fibre | 1 << x)) for x, fibre in enumerate(top.fibre)]
    reach = _fold(rel.image, k, compatible, rel.arity, or_, 0)
    compat = not any(
        r & top.fibre[y] & ~(1 << y) for r, out in zip(reach, rel.image) for y in bits(out)
    )
    spread = _fold(rel.image, k, [list(bits(u or 0)) for u in top.least], rel.arity, or_, 0)
    continuous = spectral = all(map(top.is_open, spread))
    tight = not any(s & ~out for s, out in zip(spread, rel.image))
    verdicts = (compat, continuous, spectral, tight)
    names = ("compatibility property", "continuity", "spectrality", "tightness")
    failures = tuple(f"{name} fails" for name, holds in zip(names, verdicts) if not holds)
    return RelationReport(*verdicts, failures)


def operation_from_relation(
    space: EtaleSpace, rel: SpaceRelation
) -> tuple[DualAlgebra, OpTable]:
    """The induced operation on the sections of the space.

    Requires a spectral relation with the compatibility property; those two
    properties are exactly what makes every output set a section again.
    """
    from .duality import G_object

    if rel.space != space:
        raise OperatorCheckError("relation lives on a different space")
    _require_operation(rel)
    dual = G_object(space)
    return dual, _relation_table(rel, dual)


def _require_operation(rel: SpaceRelation) -> None:
    report = check_relation_properties(rel)
    missing = [
        name
        for name, holds in (
            ("compatibility property", report.compatibility_property),
            ("spectrality", report.spectral),
        )
        if not holds
    ]
    if missing:
        raise OperatorCheckError(
            "relation does not induce an operation: fails " + ", ".join(missing)
        )


def _relation_table(rel: SpaceRelation, dual: DualAlgebra) -> OpTable:
    """The operation the relation induces on the sections: each entry is the
    union of the images of the point tuples drawn from its sections, the
    OR-fold of the image over the point lists of the sections."""
    points = [list(bits(m)) for m in dual.sections]
    entries = _fold(rel.image, rel.space.n_points, points, rel.arity, or_, 0)
    return OpTable(rel.name, rel.arity, len(points), tuple(map(dual.index.__getitem__, entries)))


def _require_operator(algebra: FiniteAlgebra, table: OpTable) -> None:
    report = _kept(algebra, table, _classify)
    if not report.is_compat_preserving_operator:
        raise OperatorCheckError(
            f"{table.name} is not a compatibility-preserving operator: "
            + "; ".join(report.witnesses)
        )


def check_eta_preserves_operator(algebra: FiniteAlgebra, table: OpTable) -> bool:
    """The support of an output equals the relation applied to the supports
    of the inputs, for every argument tuple: the OR-fold of the relation's
    image over the point lists of the supports is hats[f(.)]."""
    from .duality import dual_of

    _require_operator(algebra, table)
    hats = dual_of(algebra).mfs.hats
    rel = _kept(algebra, table, _relation)
    points = [list(bits(h)) for h in hats]
    applied = _fold(rel.image, rel.space.n_points, points, table.arity, or_, 0)
    return applied == [hats[e] for e in table.entries]


class BackForthReport(NamedTuple):
    reverse_forth: bool
    back: bool

    @property
    def ok(self) -> bool:
        return self.reverse_forth and self.back


def check_morphism_back_forth(
    morphism: SpaceMorphism, rel_src: SpaceRelation, rel_tgt: SpaceRelation
) -> BackForthReport:
    """Reverse-forth: a source tuple with its inputs in the domain of phi has
    its output there too, and phi carries it into the target relation.
    Back: for x in the domain and a target tuple (zs, phi(x)), some source
    tuple (xs, x) has its inputs in the domain and phi(xs) = zs.

    Both read reach[zs], the OR-fold of the source image over the lists of
    domain points that phi sends onto each target point: the outputs of the
    source tuples with inputs in the domain that phi maps onto zs.  So
    reverse-forth holds iff every reach[zs] lies in the domain and phi
    carries it into the target image of zs, and back holds iff the preimage
    of the target image of zs lies in reach[zs].
    """
    from .duality import _preimage

    if rel_src.space != morphism.source or rel_tgt.space != morphism.target:
        raise OperatorCheckError("relations do not live on the morphism's spaces")
    if rel_src.arity != rel_tgt.arity:
        raise OperatorCheckError("relations have different arities")
    phi, points = morphism.mapping, range(morphism.target.n_points)
    onto = [list(bits(_preimage(phi, 1 << z))) for z in points]
    dom = _preimage(phi, (1 << len(points)) - 1)
    reach = _fold(rel_src.image, morphism.source.n_points, onto, rel_src.arity, or_, 0)
    pairs = list(zip(reach, rel_tgt.image))
    reverse_forth = all(
        not r & ~dom and all(out >> phi[x] & 1 for x in bits(r)) for r, out in pairs
    )
    back = all(not _preimage(phi, out) & ~r for r, out in pairs)
    return BackForthReport(reverse_forth, back)


# ---------------------------------------------------------------------------
# completion carrying operators along

def complete_with_operators(
    algebra: FiniteAlgebra, tables: Sequence[OpTable]
) -> tuple[FiniteAlgebra, AlgebraMap, tuple[OpTable, ...]]:
    """The finite compatible completion, with each operator carried across
    as the image map of its point relation.

    The inputs are checked to be compatibility-preserving operators.  The
    unit is an embedding by construction, so of the equipped embedding only
    the carried tables are new: each is compared with its input through the
    unit.  The carried tables need no check of their own.  An image
    map sends an empty argument to empty and commutes with unions in each
    argument, so it is normal and additive.  A point is the up-set of an
    atom, and an operator f is additive, hence monotone, so (ps, nu) lies in
    the relation exactly when nu lies in the support of f(as), as the atoms
    of the points ps.  Points drawn from coordinatewise compatible sections
    have coordinatewise compatible atoms, f sends those to compatible
    elements, and the supports of compatible elements hold at most one
    point per fibre together.  So every entry is a section, and compatible
    arguments give compatible entries.

    A carried table has one entry per tuple of sections, so it is refused
    before the completion is built when it would exceed ``SECTION_CAP**2``
    entries: every unary and binary table fits, a ternary one fits on up to
    101 sections.  Each input's classification and relation are those kept
    on the algebra (:func:`classify_operator`, :func:`relation_from_operator`).
    """
    from .duality import complete

    _require_carriable(algebra, tables)
    return _carry(algebra, tables, complete(algebra)[1])


def _require_carriable(algebra: FiniteAlgebra, tables: Sequence[OpTable]) -> None:
    """Refuse what :func:`complete_with_operators` refuses, building no
    completion."""
    from .duality import dual_of

    # a section picks one point or none from each fibre
    count = prod(len(cls) + 1 for cls in dual_of(algebra).mfs.classes)
    for table in tables:
        _require_operator(algebra, table)
        if count**table.arity > SECTION_CAP**2:
            raise OperatorCheckError(
                f"carried tables capped at {SECTION_CAP**2} entries; "
                f"{table.name} would have {count**table.arity}"
            )


def _carry(
    algebra: FiniteAlgebra, tables: Sequence[OpTable], iota: AlgebraMap
) -> tuple[FiniteAlgebra, AlgebraMap, tuple[OpTable, ...]]:
    """Carry operators that :func:`_require_carriable` accepts along the
    canonical completion iota of the algebra."""
    from .duality import dual_of

    sections = dual_of(algebra).sections
    lifted = tuple(
        _relation_table(_kept(algebra, table, _relation), sections) for table in tables
    )
    h = iota.table
    for table, carried in zip(tables, lifted):
        arguments = product(range(algebra.n), repeat=table.arity)
        if [carried(*map(h.__getitem__, xs)) for xs in arguments] != [h[e] for e in table.entries]:
            raise AssertionError(f"internal error: carried {table.name} does not extend its input")
    embedding = AlgebraMap(algebra.with_ops(tables), iota.target.with_ops(lifted), h)
    return embedding.target, embedding, lifted


# ---------------------------------------------------------------------------
# the concrete-operation catalogue

CLOSURE_OVER_CAP = "closure exceeds the operator check cap"
NOT_IMPLEMENTED = ("update",)  # no formula fixed here; listed, never classified

CATALOGUE = (
    "compose",
    "domain",
    "range",
    "fixset",
    "identity",
    "range_restrict",
    "antidomain",
    "override",
    "converse",
    "update",
)


class CatalogueEntry(NamedTuple):
    """One classified operation.  ``closed_size`` is the size of the closure,
    or None when none was built: the operation is not implemented, the
    closure failed, or the input alone already exceeds the operator cap."""

    operation: str
    implemented: bool
    closed_size: Optional[int] = None
    report: Optional[OperatorReport] = None
    note: str = ""


def classify_concrete_ops(
    algebra: ConcretePFAlgebra,
    operations: Sequence[str] = CATALOGUE,
) -> tuple[CatalogueEntry, ...]:
    """Classify the named concrete operations on (an extension of) the given
    algebra.

    The algebra is first closed under difference, restriction, and the tested
    operation; operations whose closure leaves partial functions (converse on
    a non-injective element) or exceeds the size cap are reported unclassified.
    A closure holds the input and the empty function, so when those alone
    exceed the cap no closure is built.  Building one would fail first only
    on an oversized carrier or on the converse of a non-injective input
    element, which the closure refuses before it computes anything else.
    Those keep their own note.
    """
    size = algebra.carrier.size
    over_cap = size <= CLOSURE_SIZE_CAP and OPERATOR_ALGEBRA_CAP < len(
        {f.values for f in algebra.elements} | {(UNDEF,) * size}
    )
    entries: list[CatalogueEntry] = []
    for name in operations:
        if name in NOT_IMPLEMENTED:
            entries.append(
                CatalogueEntry(name, False, note="no definition adopted")
            )
            continue
        if over_cap and (name != "converse" or all(f.is_injective() for f in algebra.elements)):
            entries.append(CatalogueEntry(name, False, note=CLOSURE_OVER_CAP))
            continue
        try:
            closed = closure_generate(
                algebra.carrier,
                algebra.elements,
                ops=("difference", "restrict", name),
            )
        except ValueError as exc:
            entries.append(CatalogueEntry(name, False, note=str(exc)))
            continue
        if len(closed.elements) > OPERATOR_ALGEBRA_CAP:
            entries.append(
                CatalogueEntry(
                    name,
                    False,
                    closed_size=len(closed.elements),
                    note=CLOSURE_OVER_CAP,
                )
            )
            continue
        abstract = from_concrete(closed, extra_ops=(name,))
        report = classify_operator(abstract, abstract.op(name))
        entries.append(
            CatalogueEntry(name, True, len(closed.elements), report)
        )
    return tuple(entries)
