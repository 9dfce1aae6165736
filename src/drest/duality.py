"""Dual spaces, the two functors, and the compatible completion.

A space is a finite point set with a projection onto a base set and a basis
of opens.  A finite topology is fixed by each point's least neighbourhood,
the intersection of the basis sets around it, so the validator decides every
basis on int bitmasks in O(k·B + k²) for k points and B basis sets, after one
pass over the basis kept on the space, and lists no open set; a morphism is
continuous iff the preimage of each least neighbourhood N(y) of its target
is open.  A valid space is discrete, so its sections are the choices of at
most one point per fibre, capped at SECTION_CAP, generated in order in one
pass; their algebra is built from the section masks
(:func:`drest.dra.from_masks`), which give its representation on first use.
Each algebra keeps one dual record (:func:`dual_of`), which the functors,
unit, counit and completion read; a space passed in by a caller gets none.
Read off the algebra's representation, its space is valid and discrete and
its unit an embedding with no check run.  The record holds masks: the space
F(A), with its labels and frozenset basis, and the section algebra's space
are built on first read, and the completion and the triangle check build
neither.  Points, sections and preimages are int masks, with no frozenset
form: the unit reads the support table, the counit sends a point x to the
up-set of the singleton section {x}, and F and G on maps pull masks back
(:func:`_preimage`).
Both triangle identities, the η square and the density of a completion are
decided on these masks, with no composite map built and no table read; the
λ square, the subtraction-algebra checks and the transport between
completions are decided by proof, building no section algebra, composite or
``hom_check``.  The composites and the literal definitions are test oracles.
"""
from __future__ import annotations

from functools import partial, reduce
from math import prod
from operator import or_
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import filters as flt
from .dra import (
    SECTION_CAP,
    SPACE_SIZE_CAP,
    AlgebraMap,
    FiniteAlgebra,
    Record,
    bits,
    from_masks,
    hom_check,
    is_fin_compatibly_complete,
    is_subtraction_algebra,
    representation,
    supports,
)

NOWHERE = -1


class InvalidSpace(ValueError):
    """A structure offered as a space fails the validator."""


class InvalidMorphism(ValueError):
    """A partial point map fails the morphism conditions."""


class EtaleSpace(Record):
    """Points over base points, with a basis of opens.

    Opens are the unions of finite intersections of basis sets, the topology
    the basis generates.  A valid space's basis is intersection stable
    (pairwise intersections are again unions of basis sets), so its opens
    are the unions of basis sets.  Its :class:`_Topology` is built on first
    use and kept (:func:`_topology`), in neither equality nor repr.
    """

    _fields = ("n_points", "n_base", "projection", "basis", "point_labels")
    __slots__ = (*_fields, "_topology")

    def __init__(
        self,
        n_points: int,
        n_base: int,
        projection: tuple[int, ...],
        basis: tuple[frozenset[int], ...],
        point_labels: Optional[tuple[str, ...]] = None,
    ) -> None:
        if n_points < 0 or n_base < 0:
            raise ValueError("point and base counts must be nonnegative")
        if n_points > SPACE_SIZE_CAP:
            raise ValueError(f"spaces capped at {SPACE_SIZE_CAP} points")
        if point_labels is not None and len(point_labels) != n_points:
            raise ValueError("point labels must name every point")
        if len(projection) != n_points:
            raise ValueError("projection must cover every point")
        for b in projection:
            if not 0 <= b < n_base:
                raise ValueError("projection value outside the base")
        for u in basis:
            if any(not 0 <= x < n_points for x in u):
                raise ValueError("basis set contains a foreign point")
        self.n_points, self.n_base, self.projection = n_points, n_base, projection
        self.basis, self.point_labels = basis, point_labels
        self._topology: Optional[_Topology] = None

    def label(self, point: int) -> str:
        if self.point_labels is not None:
            return self.point_labels[point]
        return str(point)


def _union(masks: Iterable[int]) -> int:
    return reduce(or_, masks, 0)


def _fibres(space: EtaleSpace) -> list[int]:
    """The point mask of each fibre, indexed by base point."""
    fibres = [0] * space.n_base
    for x, b in enumerate(space.projection):
        fibres[b] |= 1 << x
    return fibres


class _Topology:
    """A space's fibres and least neighbourhoods as int bitmasks.
    ``fibre[x]`` is the point mask of the fibre of x; ``least[x]`` is N(x),
    the intersection of the basis sets holding x, or None when none does;
    ``neighbourhoods`` lists the distinct N(x), and ``stable`` says whether
    the basis is intersection-stable.  ``report`` is the space's
    :class:`EtaleReport`, kept by :func:`validate_etale` on first use, as it
    reads only the topology and the fibres.

    The topology is the one the basis generates, the unions of finite
    intersections of basis sets.  N(x) is one of those intersections, and
    lies inside every one that holds x, so it is the least open set around x
    and s is open iff every x in s has an N(x) <= s: s is then the union of
    those N(x).  The basis is stable (u & v a union of basis sets for all
    u, v) iff every N(x) is a basis set: then u & v is the union of the N(x)
    for x in it; conversely stability makes N(x) a union of basis sets, so
    one of them, c, has x in c <= N(x) <= c.
    """

    def __init__(
        self, fibre: tuple[int, ...], least: tuple[Optional[int], ...], stable: bool
    ) -> None:
        self.full = (1 << len(fibre)) - 1
        self.fibre = fibre
        self.least = least
        self.covered = sum(1 << x for x, u in enumerate(least) if u is not None)
        self.neighbourhoods = tuple(dict.fromkeys(u for u in least if u is not None))
        self.stable = stable
        self.report: Optional[EtaleReport] = None

    def is_open(self, s: int) -> bool:
        return not s & ~self.covered and all(self.least[x] | s == s for x in bits(s))

    def saturate(self, s: int) -> int:
        """Every point over the image of s."""
        return _union(self.fibre[x] for x in bits(s))

    def injective_on(self, u: int) -> bool:
        return all(self.fibre[x] & u == 1 << x for x in bits(u))


def _topology(space: EtaleSpace) -> _Topology:
    """The space's topology, built in one pass over the basis on first use
    and kept on the space."""
    if space._topology is None:
        basis = dict.fromkeys(flt.to_mask(u) for u in space.basis)
        least = [(1 << space.n_points) - 1] * space.n_points
        covered = 0
        for u in basis:
            covered |= u
            for x in bits(u):
                least[x] &= u
        least = tuple(u if covered >> x & 1 else None for x, u in enumerate(least))
        fibres = _fibres(space)
        top = _Topology(
            tuple(fibres[b] for b in space.projection),
            least,
            stable=all(u in basis for u in least if u is not None),
        )
        space._topology = top
    return space._topology


def opens(space: EtaleSpace) -> frozenset[frozenset[int]]:
    """Every open set: the unions of the least neighbourhoods, including the
    empty union.  No check lists them."""
    found = {0}
    for u in _topology(space).neighbourhoods:
        if u not in found:  # else found is already closed under adding u
            found |= {v | u for v in found}
    return frozenset(frozenset(bits(u)) for u in found)


class EtaleReport(NamedTuple):
    basis_intersection_stable: bool
    surjective: bool
    projection_continuous: bool
    projection_open: bool
    local_homeo: bool
    hausdorff: bool
    zero_dimensional: bool
    locally_compact: bool
    discrete: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_etale(space: EtaleSpace) -> EtaleReport:
    """Each open set is the union of the least neighbourhoods N(x) inside it
    (:class:`_Topology`), so N alone decides, in O(k·B + k²) for k points
    and B basis sets:

    * the projection is open iff it maps each N(x) onto an open set, as
      images commute with unions;
    * it is a local homeomorphism iff it is open, every point is covered
      and it is injective on each N(x): a witness u around x holds N(x),
      so the projection is injective on N(x) and maps it onto an open set;
      conversely N(x) is a witness, its open subsets being open;
    * zero-dimensional iff each N(x) is clopen: a clopen k with
      x in k <= N(x) equals N(x);
    * discrete iff every N(x) = {x};
    * Hausdorff iff any x != y are covered with N(x) & N(y) empty: opens
      around x and y hold N(x) and N(y), which are opens themselves; with
      two points or more, that is discreteness.

    Every field but ``basis_intersection_stable`` describes the topology the
    basis generates, so a basis that is not stable, which makes the space
    invalid, is decided the same way.  The report is kept on the topology.
    """
    top = _topology(space)
    if top.report is None:
        top.report = _etale_report(space, top)
    return top.report


def _etale_report(space: EtaleSpace, top: _Topology) -> EtaleReport:
    failures: list[str] = []

    if not top.stable:
        failures.append("basis not intersection-stable")

    surjective = all(_fibres(space))
    if not surjective:
        failures.append("projection not surjective")

    open_map = all(top.is_open(top.saturate(u)) for u in top.neighbourhoods)
    if not open_map:
        failures.append("projection not an open map")

    local_homeo = open_map and top.covered == top.full and all(
        top.injective_on(u) for u in top.neighbourhoods
    )
    if not local_homeo:
        failures.append("projection not a local homeomorphism")

    discrete = all(u == 1 << x for x, u in enumerate(top.least))
    hausdorff = space.n_points < 2 or discrete
    if not hausdorff:
        failures.append("points not separated by disjoint opens")

    zero_dimensional = all(top.is_open(top.full ^ u) for u in top.neighbourhoods)
    if not zero_dimensional:
        failures.append("no clopen neighbourhood basis")

    # the base carries the quotient topology, so the projection is continuous;
    # every finite set is compact, so each open set is its own compact
    # neighbourhood
    return EtaleReport(
        basis_intersection_stable=top.stable,
        surjective=surjective,
        projection_continuous=True,
        projection_open=open_map,
        local_homeo=local_homeo,
        hausdorff=hausdorff,
        zero_dimensional=zero_dimensional,
        locally_compact=True,
        discrete=discrete,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# morphisms of spaces

class SpaceMorphism(Record):
    """A partial point map validated eagerly by :func:`space_morphism`."""

    _fields = ("source", "target", "mapping")
    __slots__ = _fields

    def __init__(self, source: EtaleSpace, target: EtaleSpace, mapping: tuple[int, ...]) -> None:
        # NOWHERE marks "undefined"
        if len(mapping) != source.n_points:
            raise ValueError("mapping must cover every source point")
        if any(not NOWHERE <= v < target.n_points for v in mapping):
            raise ValueError("mapping value outside the target")
        self.source, self.target, self.mapping = source, target, mapping

    def __call__(self, x: int) -> Optional[int]:
        v = self.mapping[x]
        return None if v == NOWHERE else v

    def is_identity(self) -> bool:
        return self.source == self.target and self.mapping == tuple(
            range(self.source.n_points)
        )


def _preimage(mapping: Sequence[int], mask: int) -> int:
    """The points of the source mapped into the target point mask."""
    return sum(1 << x for x, v in enumerate(mapping) if v != NOWHERE and mask >> v & 1)


class MorphismReport(NamedTuple):
    continuous: bool
    proper: bool
    preserves_equivalence: bool
    fibrewise_injective: bool
    fibrewise_surjective: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_morphism(m: SpaceMorphism) -> MorphismReport:
    return _morphism_report(m.mapping, _topology(m.source), _topology(m.target))


def _morphism_report(mapping: Sequence[int], src: _Topology, tgt: _Topology) -> MorphismReport:
    """The morphism conditions of a partial point map, read off the two
    topologies in O(k) set operations.

    Continuity is decided on the target's least neighbourhoods: m is
    continuous iff m⁻¹(N(y)) is open for every covered y.  Each N(y) is a
    finite intersection of basis sets, so open, which makes the condition
    necessary.  It is sufficient as every open set V is the union of the
    N(y) for y in V (:class:`_Topology`), preimages commute with unions,
    and a union of opens is open.  A fibre is named by its point mask, as
    distinct fibres are disjoint and a point's fibre holds it.
    """
    failures: list[str] = []

    # pre[y]: the points mapped to y; images[fx, fy]: the images in fibre fy of points in fibre fx
    pre = [0] * len(tgt.fibre)
    images: dict[tuple[int, int], int] = {}
    q2 = True
    for x, v in enumerate(mapping):
        if v != NOWHERE:
            pre[v] |= 1 << x
            key = src.fibre[x], tgt.fibre[v]
            seen = images.get(key, 0)
            q2 = q2 and not seen >> v & 1
            images[key] = seen | 1 << v

    continuous = all(src.is_open(_union(pre[y] for y in bits(u))) for u in tgt.neighbourhoods)
    if not continuous:
        failures.append("not continuous")

    # each source fibre lands in one target fibre (q1), onto all of it (q3)
    q1 = len({fx for fx, _ in images}) == len(images)
    if not q1:
        failures.append("does not preserve equivalence")
    q3 = all(mask == fy for (_, fy), mask in images.items())
    if not q2:
        failures.append("not fibrewise injective")
    if not q3:
        failures.append("not fibrewise surjective")

    return MorphismReport(
        continuous=continuous,
        proper=True,  # every subset of a finite space is compact
        preserves_equivalence=q1,
        fibrewise_injective=q2,
        fibrewise_surjective=q3,
        failures=tuple(failures),
    )


def space_morphism(
    source: EtaleSpace, target: EtaleSpace, mapping: Sequence[int]
) -> SpaceMorphism:
    return _validated(SpaceMorphism(source, target, tuple(mapping)))


def _validated(m: SpaceMorphism) -> SpaceMorphism:
    _require_ok(validate_morphism(m))
    return m


def _require_ok(report: MorphismReport) -> None:
    if not report.ok:
        raise InvalidMorphism("; ".join(report.failures))


def identity_morphism(space: EtaleSpace) -> SpaceMorphism:
    return space_morphism(space, space, tuple(range(space.n_points)))


def is_space_isomorphism(m: SpaceMorphism) -> bool:
    """A total bijection that is a morphism both ways: continuity both ways
    makes it a homeomorphism, and fibres kept both ways are preserved and
    reflected, which for a bijection also maps each fibre onto one."""
    if sorted(m.mapping) != list(range(m.target.n_points)):
        return False
    inverse = sorted(range(m.source.n_points), key=m.mapping.__getitem__)
    back = SpaceMorphism(m.target, m.source, tuple(inverse))
    return validate_morphism(m).ok and validate_morphism(back).ok


# ---------------------------------------------------------------------------
# the two functors

def _set_name(mask: int, name: Callable[[int], str] = str) -> str:
    """"{a,b,...}" with the name of each set bit, ascending."""
    return "{" + ",".join(map(name, bits(mask))) + "}"


class DualAlgebra(Record):
    """Compact open injective-projection subsets of a space, as an algebra.

    ``sections`` holds the point mask of each section, element i having
    mask sections[i], with the index of each mask and the space's topology.
    ``space`` is built on first read for the sections of a dual record
    (:attr:`DualRecord.sections`).  Equality compares the masks, the
    algebra and then the space, which it builds only when the others agree;
    the repr shows the algebra.
    """

    _fields = ("sections", "algebra", "space")
    _shown = ("algebra",)
    __slots__ = ("algebra", "sections", "index", "topology", "_space")

    def __init__(
        self,
        algebra: FiniteAlgebra,
        sections: tuple[int, ...],
        index: dict[int, int],
        topology: _Topology,
        _space: EtaleSpace | Callable[[], EtaleSpace],
    ) -> None:
        self.algebra, self.sections, self.index, self.topology = algebra, sections, index, topology
        # the space, or the function that builds it on first read
        self._space = _space

    @property
    def space(self) -> EtaleSpace:
        if not isinstance(self._space, EtaleSpace):
            self._space = self._space()
        return self._space

    def __eq__(self, other: object) -> bool:
        # field by field, so that unequal masks or algebras build no space
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.sections == other.sections
            and self.algebra == other.algebra
            and self.space == other.space
        )

    def __hash__(self) -> int:
        # builds no space
        return hash((self.sections, self.algebra))


def _section_algebra(
    top: _Topology, space: EtaleSpace | Callable[[], EtaleSpace]
) -> DualAlgebra:
    """The sections of a valid space with topology top, as an algebra built
    from their masks, restricted by their saturations
    (:func:`drest.dra.from_masks`); refuses before any table is built when
    there are too many.  space is the space, or the function that builds it.

    A valid space is discrete, so the sections are the point sets meeting
    each fibre at most once.  They are generated in one pass, in order of
    size and then of their ascending point lists, each with its name and
    saturation (the points over the fibres it meets) carried from its
    parent.  A section of size s + 1 is its first s points p, a section,
    plus one point y above the last point of p and outside the saturation
    of p; conversely every such p + y is a section of size s + 1.  So
    extending each section of size s by every such y lists each section of
    size s + 1 exactly once, from its own p.  The list is in order, by
    induction on s: two point lists of one size compare lexicographically,
    first on their first s points, the parents, listed in order, and then,
    for one parent, on the last point, which ascends.
    """
    count = prod(f.bit_count() + 1 for f in dict.fromkeys(top.fibre))
    if count > SECTION_CAP:
        raise ValueError(f"sections capped at {SECTION_CAP}; this space has {count}")
    labels = [str(x) for x in range(len(top.fibre))]
    masks, names, saturated = [0], ["{}"], [0]
    start = 0
    while start < len(masks):
        end = len(masks)
        for i in range(start, end):
            m, sat = masks[i], saturated[i]
            prefix = names[i][:-1] + "," if m else "{"
            above = top.full >> m.bit_length() << m.bit_length()
            for y in bits(above & ~sat):
                masks.append(m | 1 << y)
                names.append(prefix + labels[y] + "}")
                saturated.append(sat | top.fibre[y])
        start = end
    algebra, index = from_masks(names, masks, saturated)
    return DualAlgebra(algebra, tuple(masks), index, top, space)


def G_object(space: EtaleSpace) -> DualAlgebra:
    return _section_algebra(_topology(_valid_space(space)), space)


def _valid_space(space: EtaleSpace) -> EtaleSpace:
    """The space, once its report is ok: the kept one, or
    :func:`validate_etale` when it has none."""
    report = _topology(space).report
    if report is None:
        report = validate_etale(space)
    if not report.ok:
        raise InvalidSpace("; ".join(report.failures))
    return space


class DualRecord(Record):
    """An algebra's dual data, held as masks: its maximal filters, each the
    mask of its members, with the support table, and its element names,
    which equality compares.  The space is discrete with N(x) = {x}
    (:func:`dual_of`), so its topology is built from the class masks in
    O(k).  The space F(A), with its labels and frozenset basis, and the
    sections GF(A), a :class:`DualAlgebra` of section masks, are built on
    first read; neither refers back to the record or the algebra, and the
    two share one space."""

    _fields = ("mfs", "names")
    _shown = ("mfs",)
    __slots__ = (*_fields, "topology", "_space", "_sections")

    def __init__(self, mfs: flt.MaxFilterSpace, names: tuple[str, ...]) -> None:
        self.mfs, self.names = mfs, names
        fibre = [0] * len(mfs.atoms)
        for cls in mfs.classes:
            mask = flt.to_mask(cls)
            for x in cls:
                fibre[x] = mask
        least = tuple(1 << x for x in range(len(fibre)))
        self.topology = _Topology(tuple(fibre), least, stable=True)
        self._space: Optional[EtaleSpace] = None
        self._sections: Optional[DualAlgebra] = None

    @property
    def space(self) -> EtaleSpace:
        """F of the algebra."""
        if self._space is None:
            if self._sections is not None:
                self._space = self._sections.space
            else:
                self._space = _dual_space(self.mfs, self.names, self.topology)
        return self._space

    @property
    def sections(self) -> DualAlgebra:
        """G of the dual space: the completion of the algebra."""
        if self._sections is None:
            space = self._space
            if space is None:
                space = partial(_dual_space, self.mfs, self.names, self.topology)
            self._sections = _section_algebra(self.topology, space)
        return self._sections


def _dual_space(mfs: flt.MaxFilterSpace, names: Sequence[str], top: _Topology) -> EtaleSpace:
    """The space of the maximal filters, each labelled by its members, over
    their classes, with the distinct supports as basis and top kept as its
    topology."""
    base = {x: i for i, cls in enumerate(mfs.classes) for x in cls}
    basis = sorted(set(mfs.hats), key=lambda h: list(bits(h)))
    space = EtaleSpace(
        n_points=len(mfs.points),
        n_base=len(mfs.classes),
        projection=tuple(base[x] for x in range(len(mfs.points))),
        basis=tuple(frozenset(bits(h)) for h in basis),
        point_labels=tuple(_set_name(m, names.__getitem__) for m in mfs.points),
    )
    space._topology = top
    return space


def dual_of(algebra: FiniteAlgebra) -> DualRecord:
    """The algebra's dual record, built on first use and kept on the algebra;
    ValueError without a representation.  The space is valid by construction:
    only the bottom lies below an atom, so hats[atoms[i]] = {i} and the space
    is discrete.  That makes it stable, Hausdorff and zero-dimensional with
    N(x) = {x}, and its projection open and injective on each N(x); it is
    onto, each class holding a point.
    """
    if algebra._dual is None:
        algebra._dual = DualRecord(flt.maximal_filters(algebra), algebra.elements)
    return algebra._dual


def F_object(algebra: FiniteAlgebra) -> EtaleSpace:
    """Space of maximal filters over their shared-domain classes, with the
    element supports as basis."""
    return dual_of(algebra).space


def unit_eta(algebra: FiniteAlgebra) -> AlgebraMap:
    """Send each element to its support among the maximal filters: an
    embedding with no check run, as the supports are distinct sections on
    which the section tables act as the representation's conditions say."""
    dual = dual_of(algebra)
    table = tuple(map(dual.sections.index.__getitem__, dual.mfs.hats))
    return AlgebraMap(algebra, dual.sections.algebra, table)


def counit_lambda(space: EtaleSpace) -> SpaceMorphism:
    """Send each point to the filter of sections containing it, where that
    collection is nonempty."""
    return _counit(G_object(space))


def _counit(sections: DualAlgebra) -> SpaceMorphism:
    return SpaceMorphism(
        sections.space, dual_of(sections.algebra).space, _counit_map(sections)
    )


def _counit_map(sections: DualAlgebra) -> tuple[int, ...]:
    """λ on the space of the sections as a point map, validated on the
    topologies of the two spaces, neither of which is built."""
    # the sections containing x are the up-set of the singleton section {x},
    # the point of that atom
    target = dual_of(sections.algebra)
    point_of = {a: i for i, a in enumerate(target.mfs.atoms)}
    mapping = []
    for x in range(len(sections.topology.fibre)):
        point = point_of.get(sections.index.get(1 << x))
        if point is None:
            raise AssertionError("internal error: point filter not maximal")
        mapping.append(point)
    _require_ok(_morphism_report(mapping, sections.topology, target.topology))
    return tuple(mapping)


def F_morphism(h: AlgebraMap) -> SpaceMorphism:
    """Dualise a homomorphism h: A -> B to the partial map φ sending a point ξ
    of B to the point with members h⁻¹(ξ), undefined where that is empty.
    ValueError exactly when h is not a homomorphism, with no ``hom_check``
    (InvalidMorphism when φ is defined but no morphism).  A homomorphism keeps
    a - (a - b), so meets and order, and h(0) = h(0) - h(0): h⁻¹(ξ) is ∅ or a
    proper filter, the up-set of a least m.  With ξ the up-set of an atom p, a
    c with 0 < c < m would put c or m - c in h⁻¹(ξ), p lying below h(c) or its
    complement h(m - c) in the Boolean algebra below h(m); so m is an atom, φ
    is defined, and by the duality a morphism.  Conversely, a defined φ pulls
    hats_A[a] back to hats_B[h(a)] (ξ is in either iff h(a) is in ξ);
    preimages under a valid φ commute with a & ~b and sat(a) & b (see
    :func:`_G_morphism`) and hats_B is injective, so h commutes with both."""
    mapping = _dual_map(h)
    return SpaceMorphism(dual_of(h.target).space, dual_of(h.source).space, mapping)


def _dual_map(h: AlgebraMap) -> tuple[int, ...]:
    """F(h) as a point map, with the errors of :func:`F_morphism`, checked
    against every morphism condition on the topologies of the two dual
    records; neither space is built."""
    src, tgt = dual_of(h.target), dual_of(h.source)  # src: points of the target algebra
    # pullback[xi]: the source elements whose image lies in the filter xi
    pullback = [0] * len(src.mfs.atoms)
    for a, b in enumerate(h.table):
        for xi in bits(src.mfs.hats[b]):
            pullback[xi] |= 1 << a
    mapping = []
    for members in pullback:
        point = tgt.mfs.point_index(members) if members else NOWHERE
        if point is None:
            raise ValueError("not a homomorphism: a filter preimage is not maximal")
        mapping.append(point)
    _require_ok(_morphism_report(mapping, src.topology, tgt.topology))
    if any(_preimage(mapping, tgt.mfs.hats[a]) != src.mfs.hats[b] for a, b in enumerate(h.table)):
        raise AssertionError("internal error: dual map misses the support identity")
    return tuple(mapping)


def G_morphism(m: SpaceMorphism) -> AlgebraMap:
    """Dualise a space morphism to an algebra map, by preimage of sections;
    InvalidMorphism when m fails the morphism conditions, InvalidSpace when
    either space is invalid."""
    _validated(m)
    return _G_morphism(m, G_object(m.source), G_object(m.target))


def _G_morphism(m: SpaceMorphism, src: DualAlgebra, tgt: DualAlgebra) -> AlgebraMap:
    """G(m) for a valid morphism m between valid spaces: a homomorphism by
    construction, so none is checked.

    Write m⁻¹ for the preimage and sat for the points over the fibres a
    set meets.  Each source fibre lands in one target fibre (q1), injectively
    (q2) and, where it lands, onto that fibre (q3).  A section u meets each
    target fibre at most once, so by q1 and q2 m⁻¹(u) meets each source
    fibre at most once: it is a section, the space being discrete.  The
    difference of sections is a & ~b, and a preimage commutes with it:
    m⁻¹(a & ~b) = m⁻¹(a) & ~m⁻¹(b).  Restriction is sat(a) & b, and
    m⁻¹(sat(a) & b) = sat(m⁻¹(a)) & m⁻¹(b): if m(x) lies in b over the
    fibre of some y in a, then by q3 some x' beside x has m(x') = y, so x
    is in sat(m⁻¹(a)); conversely if x' in m⁻¹(a) lies beside x, which m
    sends into b, then by q1 m(x) lies beside m(x') in a.  The tables are
    these mask operations read through the section index, so G(m) preserves
    both.
    """
    table = tuple(src.index[_preimage(m.mapping, u)] for u in tgt.sections)
    return AlgebraMap(tgt.algebra, src.algebra, table)


# ---------------------------------------------------------------------------
# adjunction checks

class TriangleReport(NamedTuple):
    space_side: bool
    algebra_side: bool

    @property
    def ok(self) -> bool:
        return self.space_side and self.algebra_side


def check_triangle_identities(obj) -> TriangleReport:
    """Both triangle identities, anchored at the given algebra A or at the
    algebra A = G(X) of the given space X, decided on point masks in
    O(n·k + k²) for n elements of A and k points: the left identity in k
    lookups of n-bit masks, the right in k preimages of O(k) each, however
    many sections there are (up to 2**k).  Let S be the sections of the
    anchor's space (S = GF(A) or G(X)) and λ the counit on that space, a
    point map checked against every morphism condition on the topologies of
    its two spaces (:func:`_morphism_report`); no space, frozenset or
    composite is built, and no table of the completion GF(S) is read or
    made.

    Left, F(η_A) ∘ λ = id on F(A).  Here λ sends a point x to the point of
    the singleton section {x}, an atom of GF(A) as only ∅ lies below it;
    the space F(A) is valid, so {x} is a section.  The point of that atom
    holds the sections containing x, the order of sections being
    inclusion, and η_A sends a to the section with mask hats_A[a].  So
    F(η_A) pulls the point back to {a : x in hats_A[a]}, the members of
    point x in :attr:`MaxFilterSpace.points`, and the identity holds iff
    :meth:`MaxFilterSpace.point_index` maps those to x for every x.
    Anchored at A this λ is the counit below; anchored at X it is that of
    F(A), which is neither built nor needed.

    Right, G(λ) ∘ η_S = id on S.  η_S sends a section u to the section of
    F(S) with mask hats_S[u], and G(λ) sends a section of F(S) to its
    preimage under λ.  So the identity holds iff λ⁻¹(hats_S[u]) equals the
    mask of u for every u.  It is decided on the k singleton sections alone,
    as λ⁻¹(hats_S[{x}]) = {x} for every point x (:func:`_right_triangle`).
    The two forms agree for every point map λ into F(S):

    - The space is discrete, so each singleton is a section, and the check
      at every u includes the check at the singletons.
    - The atoms of S are its singletons, and its order is inclusion.  A
      point of F(S) is the up-set of an atom, and the up-set of {y} holds u
      iff y is in u.  So hats_S[u] is the union of hats_S[{y}] over y in u.
    - Preimages commute with unions, so λ⁻¹(hats_S[u]) is the union of
      λ⁻¹(hats_S[{y}]) over y in u, which is u when each of them is {y}.
    """
    if isinstance(obj, FiniteAlgebra):
        algebra, sections = obj, dual_of(obj).sections
    elif isinstance(obj, EtaleSpace):
        sections = G_object(obj)
        algebra = sections.algebra
    else:
        raise TypeError("expected an algebra or a space")

    mfs = dual_of(algebra).mfs
    left = all(mfs.point_index(p) == x for x, p in enumerate(mfs.points))
    return TriangleReport(left, _right_triangle(sections, _counit_map(sections)))


def _right_triangle(sections: DualAlgebra, counit: Sequence[int]) -> bool:
    """G(λ) ∘ η_S = id on the sections S of a valid space, for a point map λ
    from that space to the points of F(S): whether λ⁻¹(hats_S[{x}]) = {x}
    for every point x, in O(k) each for k points (equivalent to the check at
    every section, as proved at :func:`check_triangle_identities`)."""
    hats = dual_of(sections.algebra).mfs.hats
    index = sections.index
    return all(_preimage(counit, hats[index[1 << x]]) == 1 << x for x in range(len(counit)))


def eta_naturality_square(h: AlgebraMap) -> bool:
    """G(F(h)) ∘ η_A = η_B ∘ h for a homomorphism h: A -> B, building no
    completion and no dual space.  G sends a section to its preimage and η
    an element to its support, so the two sides send a to F(h)⁻¹(hats_A[a])
    and hats_B[h(a)]: the support identity that the point map of F(h)
    satisfies (:func:`_dual_map`), so the square holds once that map is
    made, with the errors of :func:`F_morphism`."""
    _dual_map(h)
    return True


def lambda_naturality_square(m: SpaceMorphism) -> bool:
    """F(G(m)) ∘ λ_X = λ_Y ∘ m for a space morphism m: X -> Y, by proof:
    InvalidMorphism when m fails the morphism conditions, then InvalidSpace
    when X, or else Y, is invalid, and True otherwise; nothing is built.

    A valid space is discrete, so {x} is a section and λ_X(x) is its point,
    the sections of X holding x.  G(m) sends a section u of Y to m⁻¹(u)
    (:func:`_G_morphism`), and F(G(m)) a point ξ to G(m)⁻¹(ξ), undefined
    where that is empty (:func:`F_morphism`).  So F(G(m)) pulls λ_X(x) back
    to the sections u with m(x) in u: λ_Y(m(x)) where m is defined at x, and
    empty where it is not, so undefined there, as λ_Y ∘ m is.
    """
    _validated(m)
    _valid_space(m.source)
    _valid_space(m.target)
    return True


# ---------------------------------------------------------------------------
# completion

class CompletionReport(NamedTuple):
    embedding: bool
    target_complete: bool
    image_dense: bool

    @property
    def ok(self) -> bool:
        return self.embedding and self.target_complete and self.image_dense


def completion_report(m: AlgebraMap) -> CompletionReport:
    return _completion_report(m, hom_check(m).is_embedding)


def _completion_report(m: AlgebraMap, embedding: bool) -> CompletionReport:
    """The image is dense, every target element the join of the image
    elements below it, iff every atom of the target is in the image; O(n + k).

    The order is inclusion of supports (:func:`join_if_exists`), and
    hats[atoms[i]] = {i}.  Below an atom lie only itself and the bottom, so
    an atom is the join of the image elements below it only if it is one of
    them.  Conversely, with every atom in the image, the image elements
    below c include the atoms of the points of hats[c], so the union of
    their supports is hats[c], and its element c is their join.
    """
    complete_target = is_fin_compatibly_complete(m.target)
    dense = set(m.table).issuperset(representation(m.target)[0])
    return CompletionReport(embedding, complete_target, dense)


def complete(algebra: FiniteAlgebra) -> tuple[FiniteAlgebra, AlgebraMap]:
    """The closure of the algebra under finite compatible joins, with its
    canonical embedding, checked to be a completion."""
    iota, _ = canonical_completion(algebra)
    return iota.target, iota


def canonical_completion(algebra: FiniteAlgebra) -> tuple[AlgebraMap, CompletionReport]:
    """The canonical embedding and its completion report, O(n + k)."""
    iota = unit_eta(algebra)
    report = _completion_report(iota, embedding=True)  # an embedding by construction
    if not report.ok:
        raise AssertionError("internal error: canonical embedding is not a completion")
    return iota, report


def unique_completion_iso(iota: AlgebraMap, iota2: AlgebraMap) -> AlgebraMap:
    """The unique isomorphism between two completions commuting with the
    embeddings; ValueError when they share no source, either is no
    completion, or it does not keep an operation both targets name."""
    if iota.source != iota2.source:
        raise ValueError("completions must share a source")
    for m in (iota, iota2):
        if not completion_report(m).ok:
            raise ValueError("input is not a completion")
    # two completions of one algebra are isomorphic over it, so only an
    # operation both targets name can stop the transport
    theta = _factoring_embedding(iota, iota2)
    if theta is None:
        raise ValueError("the completions differ on a shared operation")
    if len(set(theta.table)) != iota2.target.n:
        raise AssertionError("internal error: transport is not an isomorphism")
    return theta


def _is_unit(m: AlgebraMap) -> bool:
    """m is the unit of its source, whose dual record and sections are
    already built, compared in O(n); no completion is built to compare."""
    dual = m.source._dual
    return (
        dual is not None
        and dual._sections is not None
        and m.target is dual._sections.algebra
        and m.table == unit_eta(m.source).table
    )


class CharacterizationEntry(NamedTuple):
    extension: str
    smallest_applicable: bool
    smallest_factors: bool
    largest_applicable: bool
    largest_factors: bool


def _factoring_embedding(
    via: AlgebraMap, into: AlgebraMap
) -> Optional[AlgebraMap]:
    """The embedding t: via.target -> into.target with t ∘ via = into, for
    embeddings via and into of one algebra; None when there is none.  It is
    transported over the atoms, with no join scan and no ``hom_check``.

    If the atom e_p of a point p is no image, via is not dense
    (:func:`_completion_report`) and there is no t.  Else let a_p be its
    preimage and S_p = hats[into(a_p)].  Embeddings reflect what they
    preserve: for p != q, e_p - e_q = e_p gives a_p - a_q = a_p, so the S_p
    are pairwise disjoint, and not empty as a_p is not the bottom; and
    r(a_p, a_q) is a_q when p, q share a class and the bottom when not, so
    by condition (5) the S_p of one class meet the same classes, and those
    of different classes disjoint ones.

    A homomorphism t with t ∘ via = into has t(e_p) = into(a_p) and keeps
    the order, and c minus every e_p below it is the bottom, so hats[t(c)]
    is the union U_c of the S_p with p in c: t(c) is the element with
    support U_c, and there is no t if U_c is no support.  If each U_c is
    one, U_c & ~U_d = U_{c - d} (the S_p are disjoint), U_d & sat(U_c) =
    U_{r(c, d)} (it keeps the S_q of the q in d whose class c meets), and
    U_c determines c: t is an embedding.  The same argument for into(a),
    with a_p <= a exactly when e_p <= via(a), gives t ∘ via = into.
    Operations the two targets share by name are checked on t.
    """
    hats, atoms = supports(via.target)[0], representation(via.target)[0]
    preimage = {b: a for a, b in enumerate(via.table)}
    if not preimage.keys() >= set(atoms):
        return None
    into_hats, element = supports(into.target)
    S = [into_hats[into.table[preimage[e]]] for e in atoms]
    table = tuple(element.get(_union(map(S.__getitem__, bits(h)))) for h in hats)
    if None in table:
        return None
    t = AlgebraMap(via.target, into.target, table)
    shared = set(via.target.op_names()) & set(into.target.op_names())
    return t if not shared or hom_check(t).is_hom else None


def completion_characterizations(
    iota: AlgebraMap, extensions: Sequence[tuple[str, AlgebraMap]]
) -> tuple[CharacterizationEntry, ...]:
    """Probe the smallest-complete-extension and largest-dense-extension
    characterisations against a family of test embeddings.  The base map is
    checked to be an embedding unless it is the unit of its source's dual
    record, an embedding by construction (:func:`unit_eta`)."""
    if not _is_unit(iota) and not hom_check(iota).is_embedding:
        raise ValueError("base map must be an embedding")
    entries = []
    for name, kappa in extensions:
        if kappa.source != iota.source:
            raise ValueError("extension must share the source")
        if not hom_check(kappa).is_embedding:
            raise ValueError(f"extension {name} is not an embedding")
        report = _completion_report(kappa, embedding=True)
        smallest, largest = report.target_complete, report.image_dense
        entries.append(CharacterizationEntry(
            extension=name,
            smallest_applicable=smallest,
            smallest_factors=smallest and _factoring_embedding(iota, kappa) is not None,
            largest_applicable=largest,
            largest_factors=largest and _factoring_embedding(kappa, iota) is not None,
        ))
    return tuple(entries)


# ---------------------------------------------------------------------------
# the subtraction-algebra specialisation

class StoneReport(NamedTuple):
    applicable: bool
    equiv_is_equality: Optional[bool] = None
    dual_is_subtraction: Optional[bool] = None
    completion_gba_laws: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.applicable and all(
            v is not False
            for v in (
                self.equiv_is_equality,
                self.dual_is_subtraction,
                self.completion_gba_laws,
            )
        )


def stone_restriction_checks(obj) -> StoneReport:
    """Degenerate-case checks, each a theorem once its gate passes, with no
    completion or section algebra built: an algebra without a representation
    raises ValueError, an invalid space InvalidSpace.

    For a subtraction algebra (r is the meet): distinct points p, q of one
    class would have r(a_p, a_q) = a_q, but distinct atoms meet in the
    bottom, so each class is one point.  Its completion is represented, so
    condition (4) gives hats[a] & hats[b - a] = ∅ and hats[a] | hats[b - a]
    = hats[a] | hats[b]: a ∧ (b - a) = 0, and a ∨ (b - a) = a ∨ b, each join
    the element of that union if there is one (:func:`join_if_exists`).  For
    a valid identity-projection space, discrete with one point per fibre,
    every point set is a section and r(u, v) = sat(u) & v = u & v =
    u - (u - v): its dual is a subtraction algebra.
    """
    if isinstance(obj, FiniteAlgebra):
        if not is_subtraction_algebra(obj):
            return StoneReport(applicable=False)
        dual_of(obj)  # ValueError without a representation
        return StoneReport(applicable=True, equiv_is_equality=True, completion_gba_laws=True)
    if isinstance(obj, EtaleSpace):
        if obj.projection != tuple(range(obj.n_base)):
            return StoneReport(applicable=False)
        _valid_space(obj)
        return StoneReport(applicable=True, dual_is_subtraction=True)
    raise TypeError("expected an algebra or a space")
