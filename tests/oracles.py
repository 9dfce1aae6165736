"""Literal definitions, kept as test oracles.

These are the finite-space checks exactly as the general definitions state
them: every open set of the topology the basis generates (the unions of
finite intersections of basis sets) is listed, stability asks that the
intersections of basis sets be unions of the basis as given, the base
carries the quotient topology, and compactness, interiors, separation,
properness and relation continuity are tested by their quantifiers over
open sets.  The library decides the same verdicts from least neighbourhoods
on bitmasks; the differential tests compare the two on small spaces.
Joins, the filter predicates and the relations of filters are kept the same
way, quantified over elements with ``leq``, and completeness as the pair scan over up-set masks;
the library looks joins up by the union of supports and counts partial
sections for completeness.  The shared-domain relation of filters is also
kept on the least members of principal filters, compared with the literal
one.  The
axiom validator and the dichotomy predicate for maximal filters are kept as
numpy array code, one n³ array per law; the library decides validity by
its representation, walking table rows through ``itemgetter`` only to list
the witnesses of an invalid algebra.  The counit, F on maps, supports and the operator relation layer are kept on frozensets of points
and members, as their definitions read; the library holds point and section
sets as int masks and reads one support table per algebra.  The dual space
of an algebra, the points and the sections are also built here at once as
frozensets, a morphism's domain and preimages too, and continuity is asked
of every basis set of the target; the library holds points, sections and
preimages as masks, builds the dual space on first read and decides
continuity on least neighbourhoods.  Helpers no library code calls
are kept here: the override of an algebra as a join, compatibility and
the compatible union of partial functions on graph masks, and the domain
and image of a partial function as frozensets.  The triangle
identities and both naturality squares are kept as the composite maps, the
right triangle identity also as its check at every section, density as the join of the image below each element, the transport between
completions as the join scan checked with ``hom_check``, and the
subtraction-algebra checks as the pair scans over a built completion or
section algebra; the library decides the triangles and density on masks,
the right identity on singleton sections only, the
η square as the support identity of F, and the λ square, the transport and
the subtraction-algebra checks by the proofs in their docstrings.  That
restriction is the meet is kept as the pair loop; the library compares table
rows.  That applying a
relation commutes with unions, which the library's image map does by
construction, is kept as the literal check, and the back-and-forth check of
a morphism against two relations as its scan over relation tuples; the
library folds output masks.  Compatibility preservation and additivity are
kept as the double scans over argument tuples; the library decides them on
compatibility masks and supports.  Every operation
on partial functions (``RAW_OPS``), the closure, the tables of
``from_concrete`` and the closedness check are kept on value tuples, one
point at a time; the library has one form of each operation, on graph
masks.  The section algebra of a space is kept as the product over the
fibres sorted by size and point list; the library generates the sections
in that order.  The isomorphism search is kept as the backtracking
over elements, pruned by table invariants and capped at 12 elements; the
library searches bijections of points.
"""
from __future__ import annotations

from itertools import product
from math import prod
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from drest import dra, duality
from drest.dra import (
    AlgebraMap,
    AxiomViolation,
    FiniteAlgebra,
    OpTable,
    ValidationReport,
    bottom,
    compatible,
    hom_check,
    leq,
)
from drest.duality import (
    NOWHERE,
    DualAlgebra,
    EtaleReport,
    EtaleSpace,
    MorphismReport,
    SpaceMorphism,
    StoneReport,
    TriangleReport,
)
from drest.filters import MaxFilterSpace, maximal_filters
from drest.operators import BackForthReport, RelationReport, SpaceRelation, _check_caps
from drest.pfun import (
    CLOSURE_SIZE_CAP,
    UNDEF,
    Carrier,
    CarrierMismatch,
    ConcretePFAlgebra,
    PartialFunction,
    _graphs,
)


def fiber(space: EtaleSpace, base_point: int) -> frozenset[int]:
    return frozenset(x for x in range(space.n_points) if space.projection[x] == base_point)


def project(space: EtaleSpace, subset: Iterable[int]) -> frozenset[int]:
    return frozenset(space.projection[x] for x in subset)


def project_preimage(space: EtaleSpace, base_subset: Iterable[int]) -> frozenset[int]:
    wanted = set(base_subset)
    return frozenset(x for x in range(space.n_points) if space.projection[x] in wanted)


def _closure(sets: Iterable[frozenset[int]], op) -> frozenset[frozenset[int]]:
    """The least family holding the sets and closed under the binary op."""
    result: set[frozenset[int]] = set()
    frontier = list(sets)
    while frontier:
        u = frontier.pop()
        if u not in result:
            result.add(u)
            frontier.extend(op(u, v) for v in result)
    return frozenset(result)


def basis_unions(space: EtaleSpace) -> frozenset[frozenset[int]]:
    """All unions of the basis sets as given, including the empty union."""
    return _closure([frozenset(), *space.basis], frozenset.__or__)


def opens(space: EtaleSpace) -> frozenset[frozenset[int]]:
    """The topology the basis generates: the basis closed under pairwise
    intersections, then all unions, including the empty union."""
    return _closure([frozenset(), *_closure(space.basis, frozenset.__and__)], frozenset.__or__)


def base_opens(space: EtaleSpace, x_opens: frozenset[frozenset[int]]) -> frozenset[frozenset[int]]:
    """Quotient topology on the base: open iff the preimage is open."""
    return frozenset(
        frozenset(v)
        for v in _subsets(space.n_base)
        if project_preimage(space, v) in x_opens
    )


def _subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def is_compact(space: EtaleSpace, subset: Iterable[int]) -> bool:
    """Every subset of a finite space is compact (pick one cover member per
    point); kept as a named check so the literal definitions read as stated."""
    return all(0 <= x < space.n_points for x in subset)


def validate_etale(space: EtaleSpace) -> EtaleReport:
    x_opens = opens(space)
    failures: list[str] = []

    unions = basis_unions(space)
    stable = all((u & v) in unions for u in space.basis for v in space.basis)
    if not stable:
        failures.append("basis not intersection-stable")

    surjective = project(space, range(space.n_points)) == frozenset(range(space.n_base))
    if not surjective:
        failures.append("projection not surjective")

    y_opens = base_opens(space, x_opens)
    continuous = all(project_preimage(space, v) in x_opens for v in y_opens)
    if not continuous:  # tautological under the quotient topology, still checked
        failures.append("projection not continuous")

    open_map = all(project(space, u) in y_opens for u in x_opens)
    if not open_map:
        failures.append("projection not an open map")

    def injective_on(u: frozenset[int]) -> bool:
        return len(project(space, u)) == len(u)

    def restriction_is_homeo(u: frozenset[int]) -> bool:
        if not injective_on(u) or project(space, u) not in y_opens:
            return False
        return all(project(space, u & w) in y_opens for w in x_opens)

    local_homeo = all(
        any(x in u and restriction_is_homeo(u) for u in x_opens)
        for x in range(space.n_points)
    )
    if not local_homeo:
        failures.append("projection not a local homeomorphism")

    hausdorff = all(
        any(
            x in u and y in v and not (u & v)
            for u in x_opens
            for v in x_opens
        )
        for x in range(space.n_points)
        for y in range(space.n_points)
        if x != y
    )
    if not hausdorff:
        failures.append("points not separated by disjoint opens")

    clopens = {u for u in x_opens if frozenset(range(space.n_points)) - u in x_opens}
    zero_dimensional = all(
        any(x in k and k <= o for k in clopens)
        for o in x_opens
        for x in o
    )
    if not zero_dimensional:
        failures.append("no clopen neighbourhood basis")

    # compact neighbourhood basis; finite sets are compact, so the open set
    # itself is always a valid witness
    locally_compact = all(
        any(
            is_compact(space, k) and x in _interior(k, x_opens) and k <= o
            for k in (o,)
        )
        for o in x_opens
        for x in o
    )
    if not locally_compact:
        failures.append("no compact neighbourhood basis")

    discrete = all(frozenset({x}) in x_opens for x in range(space.n_points))

    return EtaleReport(
        basis_intersection_stable=stable,
        surjective=surjective,
        projection_continuous=continuous,
        projection_open=open_map,
        local_homeo=local_homeo,
        hausdorff=hausdorff,
        zero_dimensional=zero_dimensional,
        locally_compact=locally_compact,
        discrete=discrete,
        failures=tuple(failures),
    )


def _interior(subset: frozenset[int], x_opens: frozenset[frozenset[int]]) -> frozenset[int]:
    inner: frozenset[int] = frozenset()
    for u in x_opens:
        if u <= subset:
            inner |= u
    return inner


def defined_on(m: SpaceMorphism) -> frozenset[int]:
    """The source points the morphism maps somewhere."""
    return frozenset(x for x, v in enumerate(m.mapping) if v != NOWHERE)


def preimage(m: SpaceMorphism, subset: Iterable[int]) -> frozenset[int]:
    """The source points the morphism maps into the subset."""
    wanted = set(subset)
    return frozenset(x for x, v in enumerate(m.mapping) if v != NOWHERE and v in wanted)


def validate_morphism(m: SpaceMorphism) -> MorphismReport:
    src, tgt = m.source, m.target
    failures: list[str] = []

    src_opens = opens(src)
    continuous = all(preimage(m, v) in src_opens for v in opens(tgt))
    if not continuous:
        failures.append("not continuous")

    # properness quantifies over compact target subsets; finitely many points
    # make every subset (and every preimage) compact
    proper = all(
        is_compact(src, preimage(m, v))
        for v in _subsets(tgt.n_points)
        if is_compact(tgt, v)
    )
    if not proper:
        failures.append("not proper")
    return _morphism_report(m, continuous, proper, failures)


def _morphism_report(
    m: SpaceMorphism, continuous: bool, proper: bool, failures: list[str]
) -> MorphismReport:
    """The report with the fibre conditions read off the projections."""
    src, tgt = m.source, m.target
    dom = defined_on(m)
    q1 = all(
        tgt.projection[m.mapping[x]] == tgt.projection[m.mapping[y]]
        for x in dom
        for y in dom
        if src.projection[x] == src.projection[y]
    )
    if not q1:
        failures.append("does not preserve equivalence")

    induced = {
        (src.projection[x], tgt.projection[m.mapping[x]]) for x in dom
    }
    q2 = True
    q3 = True
    for x0, y0 in induced:
        restricted = [
            x
            for x in fiber(src, x0) & dom
            if tgt.projection[m.mapping[x]] == y0
        ]
        images = [m.mapping[x] for x in restricted]
        if len(set(images)) != len(images):
            q2 = False
        if set(images) != set(fiber(tgt, y0)):
            q3 = False
    if not q2:
        failures.append("not fibrewise injective")
    if not q3:
        failures.append("not fibrewise surjective")

    return MorphismReport(
        continuous=continuous,
        proper=proper,
        preserves_equivalence=q1,
        fibrewise_injective=q2,
        fibrewise_surjective=q3,
        failures=tuple(failures),
    )


def least_neighbourhood(space: EtaleSpace, x: int) -> Optional[frozenset[int]]:
    """The intersection of the basis sets holding x, None when none does."""
    around = [u for u in space.basis if x in u]
    return frozenset(range(space.n_points)).intersection(*around) if around else None


def validate_morphism_on_basis(m: SpaceMorphism) -> MorphismReport:
    """The report with continuity asked of every basis set of the target: its
    preimage must hold, around each of its points, the intersection of the
    source basis sets holding that point.  Properness holds, every finite set
    being compact.  No open set is listed, so dual spaces of sixteen points
    are in reach."""
    least = [least_neighbourhood(m.source, x) for x in range(m.source.n_points)]
    continuous = all(
        all(least[x] is not None and least[x] <= pre for x in pre)
        for pre in (preimage(m, v) for v in m.target.basis)
    )
    return _morphism_report(m, continuous, True, [] if continuous else ["not continuous"])


def is_space_isomorphism(m: SpaceMorphism) -> bool:
    """Total homeomorphism whose point map preserves and reflects fibres."""
    src, tgt = m.source, m.target
    if defined_on(m) != frozenset(range(src.n_points)):
        return False
    if len(set(m.mapping)) != src.n_points or tgt.n_points != src.n_points:
        return False
    src_opens, tgt_opens = opens(src), opens(tgt)
    if any(preimage(m, v) not in src_opens for v in tgt_opens):
        return False
    if any(frozenset(m.mapping[x] for x in u) not in tgt_opens for u in src_opens):
        return False
    return all(
        (src.projection[x] == src.projection[y])
        == (tgt.projection[m.mapping[x]] == tgt.projection[m.mapping[y]])
        for x in range(src.n_points)
        for y in range(src.n_points)
    )


def sections(space: EtaleSpace) -> list[frozenset[int]]:
    """The section filter of ``G_object``: compact opens injective over the
    base, in ``(len, sorted)`` order."""
    x_opens = opens(space)
    return sorted(
        (
            u
            for u in x_opens
            if is_compact(space, u) and len(project(space, u)) == len(u)
        ),
        key=lambda s: (len(s), sorted(s)),
    )


def dual_tables(space: EtaleSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The difference and restriction tables of ``G_object`` on the oracle's
    sections, computed on frozensets."""
    secs = sections(space)
    index = {u: i for i, u in enumerate(secs)}
    minus = tuple(index[u - v] for u in secs for v in secs)
    rest = tuple(
        index[project_preimage(space, project(space, u)) & v] for u in secs for v in secs
    )
    return minus, rest


def section_algebra(top, space) -> DualAlgebra:
    """``duality._section_algebra`` as the product over the fibres, sorted
    by size and then by the ascending point list, each name and saturation
    read off its mask."""
    fibres = list(dict.fromkeys(top.fibre))
    count = prod(f.bit_count() + 1 for f in fibres)
    if count > dra.SECTION_CAP:
        raise ValueError(f"sections capped at {dra.SECTION_CAP}; this space has {count}")
    choices = [(0, *(1 << x for x in dra.bits(f))) for f in fibres]
    masks = sorted(
        (sum(pick) for pick in product(*choices)),
        key=lambda m: (m.bit_count(), list(dra.bits(m))),
    )
    saturated = [sum(f for f in fibres if f & m) for m in masks]
    names = ["{" + ",".join(map(str, dra.bits(m))) + "}" for m in masks]
    algebra, index = dra.from_masks(names, masks, saturated)
    return DualAlgebra(algebra, tuple(masks), index, top, space)


def check_relation_properties(rel: SpaceRelation) -> RelationReport:
    space = rel.space
    x_opens = opens(space)
    failures: list[str] = []

    def point_compat(x: int, y: int) -> bool:
        return x == y or space.projection[x] != space.projection[y]

    compat = True
    for s in rel.tuples:
        for t in rel.tuples:
            if all(point_compat(s[i], t[i]) for i in range(rel.arity)):
                if not point_compat(s[-1], t[-1]):
                    compat = False
    if not compat:
        failures.append("compatibility property fails")

    images_open = all(
        apply_relation(rel, us) in x_opens
        for us in product(x_opens, repeat=rel.arity)
    )
    continuous = images_open
    if not continuous:
        failures.append("continuity fails")
    # finitely many points make every open compact, so the compact-open case
    # asks for nothing further
    spectral = images_open
    if not spectral:
        failures.append("spectrality fails")

    # the relation application is monotone in each argument, so the
    # quantifier over compact open neighbourhoods is decided by minimal ones
    minimal_open = []
    for x in range(space.n_points):
        around = [u for u in x_opens if x in u]
        minimal_open.append(
            frozenset.intersection(*around) if around else frozenset()
        )
    tight = all(
        xs in rel.tuples
        for xs in product(range(space.n_points), repeat=rel.arity + 1)
        if xs[-1] in apply_relation(rel, [minimal_open[x] for x in xs[:-1]])
    )
    if not tight:
        failures.append("tightness fails")

    return RelationReport(compat, continuous, spectral, tight, tuple(failures))


def join_if_exists(algebra: FiniteAlgebra, members: Iterable[int]) -> Optional[int]:
    """Least upper bound of the set in the intrinsic order, if it exists."""
    members = list(members)
    if not members:
        return bottom(algebra)
    uppers = [
        u for u in range(algebra.n) if all(leq(algebra, s, u) for s in members)
    ]
    for u in uppers:
        if all(leq(algebra, u, v) for v in uppers):
            return u
    return None


def derived_override(algebra: FiniteAlgebra, x: int, y: int) -> int:
    """x extended by y off the domain of x: the join of x and y - (x | y)."""
    complement = algebra.m(y, algebra.r(x, y))
    join = dra.join_if_exists(algebra, (x, complement))
    if join is None:
        raise ValueError("override needs a finitarily compatibly complete algebra")
    return join


def _least(up: Sequence[int], uppers: int) -> Optional[int]:
    """The first member of the mask that lies below all of its members."""
    for u in dra.bits(uppers):
        if uppers & ~up[u] == 0:
            return u
    return None


def is_fin_compatibly_complete(algebra: FiniteAlgebra) -> bool:
    """Every compatible pair has a join: the pair scan, each join the least
    member of the intersected up-set masks."""
    n = algebra.n
    up = dra.up_masks(algebra)
    return all(
        _least(up, up[x] & up[y]) is not None
        for x in range(n)
        for y in range(x + 1, n)
        if compatible(algebra, x, y)
    )


# ---------------------------------------------------------------------------
# the isomorphism search over elements, pruned by table invariants

ISO_SEARCH_CAP = 12


def domain_preorder(algebra: FiniteAlgebra, x: int, y: int) -> bool:
    """x has smaller domain than y: x <= y | x."""
    return leq(algebra, x, algebra.r(y, x))


def domain_equiv_classes(algebra: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    n = algebra.n
    seen: set[int] = set()
    classes: list[tuple[int, ...]] = []
    for x in range(n):
        if x in seen:
            continue
        cls = tuple(
            y
            for y in range(n)
            if domain_preorder(algebra, x, y) and domain_preorder(algebra, y, x)
        )
        seen.update(cls)
        classes.append(cls)
    return tuple(classes)


def _invariant(algebra: FiniteAlgebra, x: int) -> tuple[int, ...]:
    n = algebra.n
    downset = sum(leq(algebra, y, x) for y in range(n))
    compat_degree = sum(compatible(algebra, x, y) for y in range(n))
    cls = next(
        len(c) for c in domain_equiv_classes(algebra) if x in c
    )
    return (downset, cls, compat_degree, int(x == bottom(algebra)))


def isomorphism_search(
    a: FiniteAlgebra, b: FiniteAlgebra
) -> Optional[AlgebraMap]:
    """First bijective homomorphism in deterministic search order, if any.

    Prunes by element invariants (downset size, domain-class size,
    compatibility degree); intended for small algebras only.
    """
    if a.n > ISO_SEARCH_CAP or b.n > ISO_SEARCH_CAP:
        raise ValueError(f"isomorphism search capped at {ISO_SEARCH_CAP} elements")
    if a.n != b.n:
        return None
    if sorted(a.op_names()) != sorted(b.op_names()):
        return None
    inv_a = [_invariant(a, x) for x in range(a.n)]
    inv_b = [_invariant(b, x) for x in range(b.n)]
    if sorted(inv_a) != sorted(inv_b):
        return None

    # every shared operation is checked inside the search, so the first full
    # assignment is the first bijective homomorphism in search order
    ops = [(a.minus, b.minus), (a.rest, b.rest), *((a.op(k), b.op(k)) for k in a.op_names())]
    if any(s_op.arity != t_op.arity for s_op, t_op in ops):
        return None
    n = a.n
    assignment: list[int] = []
    used = [False] * n

    def consistent(x: int, y: int) -> bool:
        def image(z: int) -> Optional[int]:
            if z < len(assignment):
                return assignment[z]
            return y if z == x else None

        known = (*range(len(assignment)), x)
        return all(
            image(s_op(*args)) in (None, t_op(*map(image, args)))
            for s_op, t_op in ops
            for args in product(known, repeat=s_op.arity)
        )

    def backtrack() -> Optional[tuple[int, ...]]:
        x = len(assignment)
        if x == n:
            return tuple(assignment)
        for y in range(n):
            if used[y] or inv_a[x] != inv_b[y]:
                continue
            if not consistent(x, y):
                continue
            used[y] = True
            assignment.append(y)
            found = backtrack()
            if found is not None:
                return found
            assignment.pop()
            used[y] = False
        return None

    table = backtrack()
    if table is None:
        return None
    candidate = AlgebraMap(a, b, table)
    if not hom_check(candidate).is_embedding:
        raise AssertionError("internal error: search result not an isomorphism")
    return candidate


def filter_equiv(
    algebra: FiniteAlgebra, mu: frozenset[int], nu: frozenset[int]
) -> bool:
    """Shared-domain equivalence of maximal filters: every a | b with a from
    the first and b from the second lands in the second."""
    return all(algebra.r(a, b) in nu for a in mu for b in nu)


def _generator(algebra: FiniteAlgebra, members: frozenset[int]) -> int:
    mask, up = sum(1 << x for x in members), dra.up_masks(algebra)
    for x in members:
        if up[x] == mask:
            return x
    raise ValueError("not the up-set of one of its members, so not a filter")


def filter_equiv_by_generators(
    algebra: FiniteAlgebra, mu: frozenset[int], nu: frozenset[int]
) -> bool:
    """The same relation on the least members of two filters.

    A finite filter is the up-set of its least member.  Restriction is
    monotone and p | q lies below q, so for the up-sets of p and q the
    relation holds iff p | q = q; a set that is no such up-set raises.
    """
    q = _generator(algebra, nu)
    return algebra.r(_generator(algebra, mu), q) == q


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
            if dra.derived_meet(algebra, x, y) not in s:
                return False
    return True


def is_proper_filter(algebra: FiniteAlgebra, members: Iterable[int]) -> bool:
    s = set(members)
    return is_filter(algebra, s) and bottom(algebra) not in s


def filter_domain_rel(
    algebra: FiniteAlgebra, f: frozenset[int], g: frozenset[int]
) -> bool:
    """Domain-inclusion preorder on filters: restricting members of g by
    members of f never escapes f."""
    return all(algebra.r(b, a) in f for b in g for a in f)


def as_array(table: OpTable) -> np.ndarray:
    return np.asarray(table.entries, dtype=np.int64).reshape((table.size,) * table.arity)


def validate_axioms(algebra: FiniteAlgebra) -> ValidationReport:
    """Check the five defining equations on every element tuple.

    A non-constant x - x (no common bottom) is reported on its own and
    short-circuits the equation checks, which all presuppose a bottom.
    """
    n = algebra.n
    M = as_array(algebra.minus)
    R = as_array(algebra.rest)
    diag = M[np.arange(n), np.arange(n)]
    if not np.all(diag == diag[0]):
        bad = [algebra.elements[i] for i in np.nonzero(diag != diag[0])[0]]
        return ValidationReport(
            (AxiomViolation("no-constant-bottom", tuple(bad)),)
        )

    ar = np.arange(n)
    meet = M[ar[:, None], M]  # meet[x, y] = x - (x - y)
    A2, B2 = np.meshgrid(ar, ar, indexing="ij")
    A3, B3, C3 = np.meshgrid(ar, ar, ar, indexing="ij")

    checks = {
        # a - (b - a) = a
        "law-1": (M[A2, M[B2, A2]], A2),
        # a . b = b . a
        "law-2": (meet, meet.T),
        # (a - b) - c = (a - c) - b
        "law-3": (M[M[A3, B3], C3], M[M[A3, C3], B3]),
        # (a | c) . (b | c) = (a | b) | c
        "law-4": (meet[R[A3, C3], R[B3, C3]], R[R[A3, B3], C3]),
        # (a . b) | a = a . b
        "law-5": (R[meet, A2], meet),
    }
    violations: list[AxiomViolation] = []
    for axiom, (lhs, rhs) in checks.items():
        for idx in np.argwhere(lhs != rhs):
            violations.append(
                AxiomViolation(axiom, tuple(algebra.elements[i] for i in idx))
            )
    return ValidationReport(tuple(violations))


def is_subtraction_algebra(algebra: FiniteAlgebra) -> bool:
    """Restriction equals the derived meet at every pair."""
    n = algebra.n
    return all(
        algebra.r(x, y) == dra.derived_meet(algebra, x, y)
        for x in range(n)
        for y in range(n)
    )


def _is_maximal_by_dichotomy(minus: np.ndarray, members: frozenset[int]) -> bool:
    # a proper filter is maximal iff for every member a and every b, exactly
    # one of a.b = a - (a - b) and a - b belongs to it
    rows = np.fromiter(members, dtype=np.int64)
    inside = np.zeros(len(minus), dtype=bool)
    inside[rows] = True
    diff = minus[rows]
    return bool(np.all(inside[minus[rows[:, None], diff]] != inside[diff]))


# ---------------------------------------------------------------------------
# supports, the counit, F on maps and the operator relations, on frozensets

def points_from_hats(mfs: MaxFilterSpace) -> tuple[frozenset[int], ...]:
    """The member set of each point: the elements whose support holds it."""
    return tuple(
        frozenset(e for e, h in enumerate(mfs.hats) if h >> i & 1) for i in range(len(mfs.atoms))
    )


def as_sets(masks: Iterable[int]) -> tuple[frozenset[int], ...]:
    """Each mask as the frozenset of its set bits."""
    return tuple(frozenset(dra.bits(m)) for m in masks)


def dual_space(algebra: FiniteAlgebra) -> EtaleSpace:
    """F(A) with every field built at once: each point labelled by its
    members and projected to its class, with the distinct supports, in the
    order of their sorted members, as basis."""
    mfs = maximal_filters(algebra)
    points = points_from_hats(mfs)
    class_of = {x: i for i, cls in enumerate(mfs.classes) for x in cls}
    return EtaleSpace(
        len(points),
        len(mfs.classes),
        tuple(class_of[x] for x in range(len(points))),
        tuple(sorted({hat(points, e) for e in range(algebra.n)}, key=sorted)),
        tuple("{" + ",".join(algebra.elements[a] for a in sorted(mu)) + "}" for mu in points),
    )


def section_sets(dual: DualAlgebra) -> tuple[frozenset[int], ...]:
    """The sections as frozensets, built from their masks at once."""
    points = range(dual.space.n_points)
    return tuple(frozenset(x for x in points if m >> x & 1) for m in dual.sections)


def hat(points: Sequence[frozenset[int]], element: int) -> frozenset[int]:
    """Point set of the maximal filters containing the element."""
    return frozenset(i for i, mu in enumerate(points) if element in mu)


def counit(sections: DualAlgebra) -> tuple[int, ...]:
    """Each point goes to the filter of the sections containing it, where
    that collection is nonempty."""
    points = points_from_hats(maximal_filters(sections.algebra))
    secs = section_sets(sections)
    mapping = []
    for x in range(sections.space.n_points):
        containing = frozenset(i for i, u in enumerate(secs) if x in u)
        if not containing:
            mapping.append(NOWHERE)
        elif containing in points:
            mapping.append(points.index(containing))
        else:
            raise AssertionError("point filter not maximal")
    return tuple(mapping)


def F_morphism(h: AlgebraMap) -> tuple[int, ...]:
    """Each maximal filter of the target goes to its preimage under h, where
    that is nonempty; the supports must pull back to supports."""
    src = points_from_hats(maximal_filters(h.target))
    tgt = points_from_hats(maximal_filters(h.source))
    mapping = []
    for xi in src:
        pullback = frozenset(a for a in range(h.source.n) if h.table[a] in xi)
        if not pullback:
            mapping.append(NOWHERE)
        elif pullback in tgt:
            mapping.append(tgt.index(pullback))
        else:
            raise AssertionError("filter preimage not maximal")
    for a in range(h.source.n):
        support = hat(tgt, a)
        preimage = frozenset(x for x, v in enumerate(mapping) if v != NOWHERE and v in support)
        if preimage != hat(src, h.table[a]):
            raise AssertionError("dual map misses the support identity")
    return tuple(mapping)


def eta_naturality_square(h: AlgebraMap) -> bool:
    """G(F(h)) after the unit of the source against the unit of the target
    after h, each built as a map through the completions' section tables."""
    gfh = duality._G_morphism(
        duality.F_morphism(h), duality.dual_of(h.target).sections, duality.dual_of(h.source).sections
    )
    lhs = gfh.compose(duality.unit_eta(h.source))
    rhs = duality.unit_eta(h.target).compose(h)
    return lhs.table == rhs.table


def compose_morphisms(outer: SpaceMorphism, inner: SpaceMorphism) -> SpaceMorphism:
    """outer after inner, defined where the chain is, validated."""
    if inner.target != outer.source:
        raise ValueError("morphisms do not compose")
    mapping = tuple(
        outer.mapping[v] if v != NOWHERE else NOWHERE for v in inner.mapping
    )
    return duality.space_morphism(inner.source, outer.target, mapping)


def check_triangle_identities(obj) -> TriangleReport:
    """Both composite identities, anchored at the given algebra or space:
    F(unit) after the counit, and G(counit) after the unit, each built as a
    validated map, with G(counit) checked to be a homomorphism."""
    if isinstance(obj, FiniteAlgebra):
        algebra, sections = obj, duality.dual_of(obj).sections
    elif isinstance(obj, EtaleSpace):
        # anchor the space-side identity at the given space's dual algebra
        sections = duality.G_object(obj)
        algebra = sections.algebra
    else:
        raise TypeError("expected an algebra or a space")

    # anchored at an algebra, both identities run through the same counit
    counit = duality._counit(sections)
    left_counit = counit if obj is algebra else duality._counit(duality.dual_of(algebra).sections)
    left = compose_morphisms(duality.F_morphism(duality.unit_eta(algebra)), left_counit)
    # G(counit) runs from G F G(space) back to G(space)
    g_counit = duality._G_morphism(counit, sections, duality.dual_of(sections.algebra).sections)
    if not hom_check(g_counit).is_hom:
        raise AssertionError("dualised morphism not a homomorphism")
    right = g_counit.compose(duality.unit_eta(sections.algebra))
    return TriangleReport(left.is_identity(), right.is_identity())


def right_triangle_on_every_section(sections: DualAlgebra, counit: Sequence[int]) -> bool:
    """G(λ) ∘ η_S = id checked at every section u of S, for a point map λ to
    the points of F(S): λ⁻¹(hats_S[u]) = u, one preimage per section."""
    hats = maximal_filters(sections.algebra).hats
    return all(
        sum(1 << x for x, v in enumerate(counit) if v != NOWHERE and h >> v & 1) == u
        for h, u in zip(hats, sections.sections)
    )


def image_dense(m: AlgebraMap) -> bool:
    """Every target element is the join of the image elements below it."""
    # t <= c is inclusion of supports
    hats = dra.representation(m.target)[2]
    return all(
        dra.join_if_exists(m.target, [t for t in m.table if not hats[t] & ~hats[c]]) == c
        for c in range(m.target.n)
    )


def lambda_naturality_square(m: SpaceMorphism) -> bool:
    """F(G(m)) after the counit of the source against the counit of the
    target after m, each built as a validated composite through the
    section algebras of both spaces."""
    duality._validated(m)
    src, tgt = duality.G_object(m.source), duality.G_object(m.target)
    fgm = duality.F_morphism(duality._G_morphism(m, src, tgt))
    lhs = compose_morphisms(fgm, duality._counit(src))
    rhs = compose_morphisms(duality._counit(tgt), m)
    return lhs.mapping == rhs.mapping


def _factoring_embedding(via: AlgebraMap, into: AlgebraMap) -> Optional[AlgebraMap]:
    """Embedding t: via.target -> into.target with t o via = into, built by
    transporting joins of the common image and checked with ``hom_check``;
    None when it does not exist."""
    src, hats = via.source, dra.supports(via.target)[0]
    table = []
    for c in range(via.target.n):
        # via(a) <= c is inclusion of supports
        below = [a for a in range(src.n) if not hats[via.table[a]] & ~hats[c]]
        if dra.join_if_exists(via.target, [via.table[a] for a in below]) != c:
            return None  # c not a join from the image; cannot transport
        image = dra.join_if_exists(into.target, [into.table[a] for a in below])
        if image is None:
            return None
        table.append(image)
    candidate = AlgebraMap(via.target, into.target, tuple(table))
    if not hom_check(candidate).is_embedding:
        return None
    if tuple(candidate.table[via.table[a]] for a in range(src.n)) != into.table:
        return None
    return candidate


def stone_restriction_checks(obj) -> StoneReport:
    """Trivial point grouping and the two relative-complement laws scanned
    over every pair of the built completion; the dual of an
    identity-projection space built and its restriction compared with the
    meet."""
    if isinstance(obj, FiniteAlgebra):
        if not is_subtraction_algebra(obj):
            return StoneReport(applicable=False)
        equiv_trivial = all(len(cls) == 1 for cls in duality.dual_of(obj).mfs.classes)
        completed, _ = duality.complete(obj)
        laws = True
        for a in range(completed.n):
            for b in range(completed.n):
                rel = completed.m(b, a)
                if dra.derived_meet(completed, a, rel) != bottom(completed):
                    laws = False
                if dra.join_if_exists(completed, (a, rel)) != dra.join_if_exists(
                    completed, (a, b)
                ):
                    laws = False
        return StoneReport(
            applicable=True,
            equiv_is_equality=equiv_trivial,
            completion_gba_laws=laws,
        )
    if isinstance(obj, EtaleSpace):
        identity_projection = obj.n_points == obj.n_base and obj.projection == tuple(
            range(obj.n_points)
        )
        if not identity_projection:
            return StoneReport(applicable=False)
        dual = duality.G_object(obj)
        return StoneReport(
            applicable=True,
            dual_is_subtraction=is_subtraction_algebra(dual.algebra),
        )
    raise TypeError("expected an algebra or a space")


def apply_relation(rel: SpaceRelation, subsets) -> frozenset[int]:
    """Outputs reachable from inputs drawn one per subset."""
    return frozenset(
        t[-1]
        for t in rel.tuples
        if all(t[i] in subsets[i] for i in range(rel.arity))
    )


def relation_from_operator(algebra: FiniteAlgebra, table: OpTable) -> frozenset[tuple[int, ...]]:
    """Inputs drawn from the first filters always land the operation in the
    last."""
    points = points_from_hats(maximal_filters(algebra))
    tuples = set()
    for mus in product(range(len(points)), repeat=table.arity):
        images = {table(*args) for args in product(*(sorted(points[m]) for m in mus))}
        for nu in range(len(points)):
            if images <= points[nu]:
                tuples.add(mus + (nu,))
    return frozenset(tuples)


def relation_table(rel: SpaceRelation, dual: DualAlgebra) -> tuple[int, ...]:
    """The operation the relation induces on the sections."""
    secs = section_sets(dual)
    return tuple(
        secs.index(apply_relation(rel, [secs[i] for i in args]))
        for args in product(range(len(secs)), repeat=rel.arity)
    )


def check_union_commutation(rel: SpaceRelation) -> bool:
    """Applying the relation distributes over unions of sections in each
    argument."""
    secs = sections(rel.space)
    for args in product(secs, repeat=rel.arity):
        whole = apply_relation(rel, args)
        for i in range(rel.arity):
            for extra in secs:
                merged = args[:i] + (args[i] | extra,) + args[i + 1 :]
                swapped = args[:i] + (extra,) + args[i + 1 :]
                if apply_relation(rel, merged) != whole | apply_relation(rel, swapped):
                    return False
    return True


def check_eta_preserves_operator(algebra: FiniteAlgebra, table: OpTable, rel: SpaceRelation) -> bool:
    """The support of an output equals the relation applied to the supports
    of the inputs, for every argument tuple."""
    points = points_from_hats(maximal_filters(algebra))
    return all(
        hat(points, table(*args)) == apply_relation(rel, [hat(points, a) for a in args])
        for args in product(range(algebra.n), repeat=table.arity)
    )


def check_morphism_back_forth(
    morphism: SpaceMorphism, rel_src: SpaceRelation, rel_tgt: SpaceRelation
) -> BackForthReport:
    """Reverse-forth over the source tuples with inputs in the domain, and
    back over every domain point, target tuple and source input tuple."""
    phi = morphism.mapping
    dom = defined_on(morphism)
    k = rel_src.arity

    reverse_forth = True
    for t in rel_src.tuples:
        if all(x in dom for x in t[:k]):
            if t[-1] not in dom or tuple(phi[x] for x in t) not in rel_tgt.tuples:
                reverse_forth = False

    back = True
    for x_last in dom:
        for s in rel_tgt.tuples:
            if s[-1] != phi[x_last]:
                continue
            hit = any(
                all(x in dom and phi[x] == s[i] for i, x in enumerate(xs))
                and xs + (x_last,) in rel_src.tuples
                for xs in product(range(morphism.source.n_points), repeat=k)
            )
            if not hit:
                back = False
    return BackForthReport(reverse_forth, back)


def check_compat_preserving(
    algebra: FiniteAlgebra, table: OpTable
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Coordinatewise compatible inputs must give compatible outputs.

    Returns the verdict and a witness pair of argument tuples on failure.
    """
    _check_caps(algebra, table)
    n = algebra.n
    for xs in product(range(n), repeat=table.arity):
        for ys in product(range(n), repeat=table.arity):
            if all(compatible(algebra, x, y) for x, y in zip(xs, ys)):
                if not compatible(algebra, table(*xs), table(*ys)):
                    return False, (xs, ys)
    return True, None


def check_additive(
    algebra: FiniteAlgebra, table: OpTable
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Existing binary joins in any coordinate must be carried to joins.

    Pairs without a join are skipped; the premise only speaks of joins that
    exist.  Joins are the library's support ones, which are compared with
    ``join_if_exists`` above.
    """
    _check_caps(algebra, table)
    n = algebra.n
    for i in range(table.arity):
        for rest in product(range(n), repeat=table.arity - 1):
            for x in range(n):
                for y in range(x, n):
                    j = dra.join_if_exists(algebra, (x, y))
                    if j is None:
                        continue
                    out_j = table(*rest[:i], j, *rest[i:])
                    out_xy = dra.join_if_exists(
                        algebra,
                        (table(*rest[:i], x, *rest[i:]), table(*rest[:i], y, *rest[i:])),
                    )
                    if out_xy != out_j:
                        return False, rest[:i] + (x, y) + rest[i:]
    return True, None


# ---------------------------------------------------------------------------
# closure, tables and closedness of partial functions, on value tuples

def _difference(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    return tuple(fv if fv != UNDEF and fv != gv else UNDEF for fv, gv in zip(f, g))


def _restrict(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    return tuple(gv if fv != UNDEF else UNDEF for fv, gv in zip(f, g))


def _meet(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    return tuple(fv if fv != UNDEF and fv == gv else UNDEF for fv, gv in zip(f, g))


def _override(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    return tuple(fv if fv != UNDEF else gv for fv, gv in zip(f, g))


def _compose(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    # (f o g)(x) = f(g(x))
    return tuple(f[gv] if gv != UNDEF else UNDEF for gv in g)


def _domain(f: Sequence[int]) -> tuple[int, ...]:
    return tuple(x if v != UNDEF else UNDEF for x, v in enumerate(f))


def _range(f: Sequence[int]) -> tuple[int, ...]:
    image = {v for v in f if v != UNDEF}
    return tuple(x if x in image else UNDEF for x in range(len(f)))


def _fixset(f: Sequence[int]) -> tuple[int, ...]:
    return tuple(x if v == x else UNDEF for x, v in enumerate(f))


def _range_restrict(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    # keep (x, y) of g whose value y lies in dom(f)
    return tuple(gv if gv != UNDEF and f[gv] != UNDEF else UNDEF for gv in g)


def _antidomain(f: Sequence[int]) -> tuple[int, ...]:
    return tuple(x if v == UNDEF else UNDEF for x, v in enumerate(f))


def _converse(f: Sequence[int]) -> tuple[int, ...]:
    out = [UNDEF] * len(f)
    for x, v in enumerate(f):
        if v != UNDEF:
            if out[v] != UNDEF:
                raise ValueError("converse of a non-injective partial function")
            out[v] = x
    return tuple(out)


def _union_if_compatible(f: Sequence[int], g: Sequence[int]) -> Optional[tuple[int, ...]]:
    out = []
    for fv, gv in zip(f, g):
        if fv != UNDEF and gv != UNDEF and fv != gv:
            return None
        out.append(fv if fv != UNDEF else gv)
    return tuple(out)


def pf_union_if_compatible(f: PartialFunction, g: PartialFunction) -> Optional[PartialFunction]:
    """The union f | g on graph masks when it is functional, None otherwise."""
    if not pf_compatible(f, g):
        return None
    encode, decode, _, _ = _graphs(f.carrier.size)
    return PartialFunction(f.carrier, decode(encode(f.values) | encode(g.values)))


def domain(f: PartialFunction) -> frozenset[int]:
    """The points where f is defined."""
    return frozenset(x for x, v in enumerate(f.values) if v != UNDEF)


def image(f: PartialFunction) -> frozenset[int]:
    """The values f takes."""
    return frozenset(v for v in f.values if v != UNDEF)


def pf_compatible(f: PartialFunction, g: PartialFunction) -> bool:
    """True when f and g agree on the intersection of their domains, that
    is when f restricted to the domain of g is g restricted to that of f,
    decided on graph masks."""
    if f.carrier != g.carrier:
        raise CarrierMismatch("operands live on different carriers")
    encode, _, dom, _ = _graphs(f.carrier.size)
    a, b = encode(f.values), encode(g.values)
    return a & dom(b) == b & dom(a)


# name -> (arity, raw implementation); the closure, the tables and the
# closedness check below key off this registry.  "identity" is a constant
# (arity 0).
RAW_OPS: dict[str, tuple[int, Callable[..., tuple[int, ...]]]] = {
    "difference": (2, _difference),
    "restrict": (2, _restrict),
    "meet": (2, _meet),
    "override": (2, _override),
    "compose": (2, _compose),
    "domain": (1, _domain),
    "range": (1, _range),
    "fixset": (1, _fixset),
    "range_restrict": (2, _range_restrict),
    "antidomain": (1, _antidomain),
    "converse": (1, _converse),
}


def closure_generate(
    carrier: Carrier,
    seeds: Sequence[PartialFunction],
    ops: Iterable[str] = ("difference", "restrict"),
) -> ConcretePFAlgebra:
    """Least family containing the seeds and the empty function, closed under
    the named operations.  Difference and restriction are mandatory."""
    op_names = tuple(ops)
    if "difference" not in op_names or "restrict" not in op_names:
        raise ValueError("closure must include difference and restrict")
    if carrier.size > CLOSURE_SIZE_CAP:
        raise ValueError(f"closure carrier capped at size {CLOSURE_SIZE_CAP}")
    for f in seeds:
        if f.carrier != carrier:
            raise CarrierMismatch("seed on a foreign carrier")

    # "identity" is a constant, so it just seeds the closure
    table = [RAW_OPS[name] for name in op_names if name != "identity"]
    members: set[tuple[int, ...]] = {(UNDEF,) * carrier.size}
    if "identity" in op_names:
        members.add(tuple(range(carrier.size)))
    members.update(f.values for f in seeds)
    frontier = list(members)
    while frontier:
        fresh: list[tuple[int, ...]] = []
        current = list(members)
        for arity, raw in table:
            if arity == 0:
                candidates = [raw()]
            elif arity == 1:
                candidates = [raw(f) for f in frontier]
            else:
                candidates = []
                for f in frontier:
                    for g in current:
                        candidates.append(raw(f, g))
                        candidates.append(raw(g, f))
            for c in candidates:
                if c not in members:
                    members.add(c)
                    fresh.append(c)
        frontier = fresh

    ordered = sorted(members, key=lambda v: tuple(x + 1 for x in v))
    return ConcretePFAlgebra(carrier, tuple(PartialFunction(carrier, v) for v in ordered))


def dr_tables(algebra: ConcretePFAlgebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row-major difference and restriction tables, one value tuple per entry."""
    elems = algebra.elements
    n = len(elems)
    index = {f.values: i for i, f in enumerate(elems)}

    def lookup(values: tuple[int, ...]) -> int:
        if values not in index:
            raise ValueError("algebra not closed under requested operation")
        return index[values]

    minus = dra.binary_table(
        "minus", n, lambda x, y: lookup(RAW_OPS["difference"][1](elems[x].values, elems[y].values))
    )
    rest = dra.binary_table(
        "rest", n, lambda x, y: lookup(RAW_OPS["restrict"][1](elems[x].values, elems[y].values))
    )
    return minus.entries, rest.entries


def op_table(algebra: ConcretePFAlgebra, name: str) -> dra.OpTable:
    """The table of a named operation, one value tuple per entry; ValueError
    when a result is no member, KeyError for a name with no operation."""
    elems = algebra.elements
    n = len(elems)
    index = {f.values: i for i, f in enumerate(elems)}

    def lookup(values: tuple[int, ...]) -> int:
        if values not in index:
            raise ValueError("algebra not closed under requested operation")
        return index[values]

    if name == "identity":
        return dra.OpTable("identity", 0, n, (lookup(tuple(range(algebra.carrier.size))),))
    if name not in RAW_OPS:
        raise KeyError(f"no operation named {name!r}")
    arity, raw = RAW_OPS[name]
    entries = tuple(
        lookup(raw(*(elems[i].values for i in args)))
        for args in product(range(n), repeat=arity)
    )
    return dra.OpTable(name, arity, n, entries)


def is_closed_under(algebra: ConcretePFAlgebra, op_names: Iterable[str]) -> bool:
    members = {f.values for f in algebra.elements}
    for name in op_names:
        if name == "identity":
            if tuple(range(algebra.carrier.size)) not in members:
                return False
            continue
        arity, raw = RAW_OPS[name]
        for args in product(algebra.elements, repeat=arity):
            try:
                result = raw(*(a.values for a in args))
            except ValueError:
                return False
            if result not in members:
                return False
    return True
