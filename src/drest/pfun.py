"""Finite partial functions on a shared indexed base set.

Every value is a partial self-map on ``{0, ..., size-1}``, stored as a
fixed-length tuple with ``-1`` marking "undefined".  All operations are pure;
closures of seed sets under the named operations provide genuine algebras of
partial functions that the abstract layer is tested against.

The ``values`` tuples are the public form.  Every operation has one
definition, on graph masks (bit ``x*size + y`` set iff f(x) = y;
:func:`graph_operations`): difference is ``a & ~b``, restriction ``b &
dom(a)``, and the others are a few int operations or one pass over the
rows.  Each binary form is split into what depends on each argument alone
and one combining step (:class:`Pairwise`), so a table or a closure
prepares each member once.  The closure, the closedness check, the
``pf_*`` helpers and the operation tables of
:func:`drest.dra.from_concrete` run on them, and only this module knows
the encoding.  Under difference and restriction no pair is saturated: the
closure is read off the atoms of the seeds (:func:`_atoms`), every union of
atoms inside a seed, and the closedness check uses the family's own atoms;
only further operations are applied to pairs.  The value-tuple definitions
are kept as test oracles.
"""
from __future__ import annotations

from functools import cache
from itertools import product, repeat, starmap
from operator import and_, invert
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .dra import Record

UNDEF = -1

CLOSURE_SIZE_CAP = 4
# the operations of every closure, which the closure reads off atoms
BASE_OPS = ("difference", "restrict")


class CarrierMismatch(ValueError):
    """Two partial functions live on different carriers."""


class Carrier(Record):
    """An indexed base set; points are 0-based indices, labels are cosmetic."""

    _fields = ("size", "labels")
    __slots__ = _fields

    def __init__(self, size: int, labels: Optional[tuple[str, ...]] = None) -> None:
        if size < 1:
            raise ValueError("carrier size must be at least 1")
        if labels is not None:
            if len(labels) != size:
                raise ValueError("labels must have one entry per point")
            if len(set(labels)) != size:
                raise ValueError("labels must be pairwise distinct")
        self.size, self.labels = size, labels

    def label(self, point: int) -> str:
        return self.labels[point] if self.labels is not None else str(point)


class PartialFunction(Record):
    """A partial self-map, functional by construction (one value per point)."""

    _fields = ("carrier", "values")
    __slots__ = _fields

    def __init__(self, carrier: Carrier, values: tuple[int, ...]) -> None:
        if len(values) != carrier.size:
            raise ValueError("value vector length must equal carrier size")
        for v in values:
            if v != UNDEF and not 0 <= v < carrier.size:
                raise ValueError(f"value {v} outside carrier")
        self.carrier, self.values = carrier, values

    @classmethod
    def from_graph(cls, carrier: Carrier, pairs: Iterable[tuple[int, int]]) -> "PartialFunction":
        values = [UNDEF] * carrier.size
        for x, y in pairs:
            if not 0 <= x < carrier.size:
                raise ValueError(f"point {x} outside carrier")
            if values[x] != UNDEF and values[x] != y:
                raise ValueError(f"two values given for point {x}")
            values[x] = y
        return cls(carrier, tuple(values))

    @classmethod
    def empty(cls, carrier: Carrier) -> "PartialFunction":
        return cls(carrier, (UNDEF,) * carrier.size)

    @classmethod
    def identity(cls, carrier: Carrier) -> "PartialFunction":
        return cls(carrier, tuple(range(carrier.size)))

    @property
    def graph(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, v) for x, v in enumerate(self.values) if v != UNDEF)

    def __call__(self, point: int) -> Optional[int]:
        v = self.values[point]
        return None if v == UNDEF else v

    @property
    def sort_key(self) -> tuple[int, ...]:
        # canonical order: lexicographic on value+1, with 0 meaning undefined
        return tuple(v + 1 for v in self.values)

    @property
    def is_empty(self) -> bool:
        return all(v == UNDEF for v in self.values)

    def is_injective(self) -> bool:
        image = [v for v in self.values if v != UNDEF]
        return len(set(image)) == len(image)

    def render(self) -> str:
        if self.is_empty:
            return "{}"
        lab = self.carrier.label
        return "{" + ",".join(f"{lab(x)}:{lab(y)}" for x, y in self.graph) + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialFunction({self.render()})"


class Pairwise(NamedTuple):
    """A binary form on graph masks split into what depends on each argument
    alone and one combining step: op(f, g) is combine(left(f), right(g)).
    A table or a closure prepares each member once, then combines pairs."""

    left: Callable[[int], object]
    right: Callable[[int], object]
    combine: Callable[[object, object], int]

    def __call__(self, f: int, g: int) -> int:
        return self.combine(self.left(f), self.right(g))


def _same(mask: int) -> int:
    return mask


@cache
def _graphs(size: int):
    """Encode, decode, the domain cylinder and the operations
    (:func:`graph_operations`) on the graph masks of one carrier size: bit
    ``x*size + y`` is set iff f(x) = y.

    Row x of f, ``(f >> x*size) & row``, holds one bit at most; ``low``
    holds bit 0 of every row and ``diag`` is the identity.  ``dom(f)`` is
    the union of the rows f meets, so g restricted to the domain of f is
    ``g & dom(f)``; ``image(f)``, the OR of the rows of f, is its set of
    values as one row, and that row times ``low`` is the row in every row.
    Both OR ``size`` shifted copies together in log2(size) steps.
    """
    row = (1 << size) - 1
    offsets = range(0, size * size, size)
    low = sum(1 << offset for offset in offsets)
    diag = sum(1 << (offset + x) for x, offset in enumerate(offsets))
    # after the steps so far, bit k of dom's spread mask is the OR of bits k
    # to k + width - 1 of its argument; the steps take width up to size
    steps, width = [], 1
    while width < size:
        steps.append(min(width, size - width))
        width += steps[-1]

    def encode(values: Sequence[int]) -> int:
        return sum([1 << p for p in _pairs(values)])

    def decode(mask: int) -> tuple[int, ...]:
        # a row holds at most one bit; an empty row decodes to -1 (UNDEF)
        return tuple(((mask >> offset) & row).bit_length() - 1 for offset in offsets)

    def dom(mask: int) -> int:
        for step in steps:
            mask |= mask >> step
        return (mask & low) * row

    def image(mask: int) -> int:
        for step in steps:
            mask |= mask >> step * size
        return mask & row

    def converse(f: int) -> int:
        # injective iff no two rows share their value
        if image(f).bit_count() != f.bit_count():
            raise ValueError("converse of a non-injective partial function")
        return sum([1 << (y * size + x) for x, y in enumerate(decode(f)) if y != UNDEF])

    operations = MappingProxyType({
        "difference": (2, Pairwise(_same, invert, and_)),
        "restrict": (2, Pairwise(dom, _same, and_)),
        "meet": (2, Pairwise(_same, _same, and_)),
        "override": (2, Pairwise(lambda f: (f, ~dom(f)), _same, lambda fd, g: fd[0] | g & fd[1])),
        # (f o g)(x) = f(g(x)): row x of f o g is row g(x) of f, and the
        # rows in place are disjoint, so their sum is their union
        "compose": (2, Pairwise(
            lambda f: [(f >> offset) & row for offset in offsets],
            lambda g: [(y, offset) for y, offset in zip(decode(g), offsets) if y != UNDEF],
            lambda rows, placed: sum([rows[y] << offset for y, offset in placed]),
        )),
        "domain": (1, lambda f: dom(f) & diag),
        "range": (1, lambda f: image(f) * low & diag),
        "fixset": (1, lambda f: f & diag),
        # keep (x, y) of g whose value y lies in dom(f)
        "range_restrict": (2, Pairwise(lambda f: image(dom(f) & diag) * low, _same, and_)),
        "antidomain": (1, lambda f: diag & ~dom(f)),
        "converse": (1, converse),
        "identity": (0, lambda: diag),
    })
    return encode, decode, dom, operations


def graph_operations(size: int) -> Mapping[str, tuple[int, Callable[..., int]]]:
    """name -> (arity, form on graph masks) of every operation on carriers of
    this size, built once per size and shared, so read-only.  "identity" is
    a constant, of arity 0, each binary form is a :class:`Pairwise`, and
    converse raises ValueError on a non-injective function."""
    return _graphs(size)[3]


def graph_results(
    arity: int, form: Callable[..., int], masks: Sequence[int]
) -> Iterator[Iterator[int]]:
    """The form at every argument tuple of masks, in ``product`` order: for
    a :class:`Pairwise` form, which prepares each mask once on each side,
    one iterator for each first argument, else one iterator."""
    if arity != 2:
        return iter((starmap(form, product(masks, repeat=arity)),))
    rights = list(map(form.right, masks))
    return (map(form.combine, repeat(left, len(rights)), rights) for left in map(form.left, masks))


def _require_shared_carrier(f: PartialFunction, g: PartialFunction) -> None:
    if f.carrier != g.carrier:
        raise CarrierMismatch("operands live on different carriers")


def _on_graphs(name: str) -> Callable[[PartialFunction, PartialFunction], PartialFunction]:
    def binary(f: PartialFunction, g: PartialFunction) -> PartialFunction:
        _require_shared_carrier(f, g)
        encode, decode, _, operations = _graphs(f.carrier.size)
        op = operations[name][1]
        return PartialFunction(f.carrier, decode(op(encode(f.values), encode(g.values))))

    return binary


pf_difference = _on_graphs("difference")
pf_restrict = _on_graphs("restrict")
pf_meet = _on_graphs("meet")
pf_override = _on_graphs("override")


class ConcretePFAlgebra(Record):
    """A duplicate-free, canonically ordered family of partial functions.

    Instances produced by :func:`closure_generate` contain the empty function
    and are closed under difference and restriction (plus any further
    operations requested at generation time).
    """

    _fields = ("carrier", "elements")
    __slots__ = (*_fields, "_index", "_masks", "_names")

    def __init__(self, carrier: Carrier, elements: tuple[PartialFunction, ...]) -> None:
        keys = [f.sort_key for f in elements]
        if sorted(set(keys)) != keys:
            raise ValueError("elements must be duplicate-free and canonically ordered")
        for f in elements:
            if f.carrier != carrier:
                raise CarrierMismatch("element on a foreign carrier")
        self.carrier, self.elements = carrier, elements
        # value vector -> position, built on the first index() call, and the
        # graph masks, made by the closure or on the first graph_masks()
        # call, and the element names, made on the first names() call; all
        # kept out of equality and repr: most instances (closure inputs, say)
        # are never indexed
        self._index: Optional[dict[tuple[int, ...], int]] = None
        self._masks: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
        self._names: Optional[tuple[str, ...]] = None

    @classmethod
    def _closed(cls, carrier: Carrier, values, masks, cylinders) -> "ConcretePFAlgebra":
        """The closure's result: canonically ordered value vectors in range,
        their masks and cylinders, set without the checks of either
        ``__init__``, which this must set every slot of."""
        elements = []
        for v in values:
            f = object.__new__(PartialFunction)
            f.carrier, f.values = carrier, v
            elements.append(f)
        closed = object.__new__(cls)
        closed.carrier, closed.elements, closed._index = carrier, tuple(elements), None
        closed._masks, closed._names = (masks, cylinders), None
        return closed

    def index(self, f: PartialFunction) -> int:
        if self._index is None:
            self._index = {f.values: i for i, f in enumerate(self.elements)}
        return self._index[f.values]

    def __len__(self) -> int:
        return len(self.elements)

    def graph_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The graph mask of every element and its domain cylinder, the
        union of the rows it meets (:func:`drest.dra.from_masks`)."""
        if self._masks is None:
            encode, _, dom, _ = _graphs(self.carrier.size)
            masks = tuple(encode(f.values) for f in self.elements)
            self._masks = masks, tuple(map(dom, masks))
        return self._masks

    def names(self) -> tuple[str, ...]:
        """The name of every element, :meth:`PartialFunction.render`,
        rendered on the first call and kept."""
        if self._names is None:
            self._names = tuple(f.render() for f in self.elements)
        return self._names

    def is_closed_under(self, op_names: Iterable[str]) -> bool:
        """Whether every named operation maps members to members.  Under
        difference and restriction together the family must be its own
        closure, every union of atoms inside a member (proved at
        :func:`closure_generate`): so it is closed iff m & ~t is a member for
        each member m and each atom t inside m (:func:`_atoms`), as removing
        atoms one at a time reaches every such union.  Any other operation is
        applied to every argument tuple."""
        names = dict.fromkeys(op_names)
        masks = self.graph_masks()[0]
        present = set(masks)
        if all(name in names for name in BASE_OPS):
            for name in BASE_OPS:
                del names[name]
            inside = _atoms(self.carrier.size, [_pairs(f.values) for f in self.elements])
            # m ^ t is m & ~t, as the atom t lies in m
            if not all(m ^ t in present for m, atoms in zip(masks, inside) for t in atoms):
                return False
        operations = graph_operations(self.carrier.size)
        try:
            rows = (row for name in names for row in graph_results(*operations[name], masks))
            return all(set(row) <= present for row in rows)
        except ValueError:
            return False


def _pairs(values: Sequence[int]) -> list[int]:
    """The bits ``x*size + y`` of the pairs of a value vector's graph."""
    return [x * len(values) + v for x, v in enumerate(values) if v != UNDEF]


def _numbered(keys: Mapping[int, object]) -> tuple[dict[int, int], int]:
    """Each pair's key replaced by a class number, one per distinct key, and
    the number of classes."""
    numbers: dict[object, int] = {}
    return {p: numbers.setdefault(k, len(numbers)) for p, k in keys.items()}, len(numbers)


def _atoms(size: int, graphs: Sequence[Sequence[int]]) -> list[list[int]]:
    """The atoms of the closure of some graphs (each given by its pairs,
    :func:`_pairs`) under difference and restriction, listed for each graph
    as the masks of those inside it.

    They are the classes of the coarsest partition of the graphs' union that
    refines "which graphs hold this pair" and is stable: each class lies
    wholly inside or wholly outside the row cylinder dom(T) of every class T
    (proved at :func:`closure_generate`).  This is partition refinement
    (Paige and Tarjan, SIAM J. Comput. 16, 1987).  A graph holds one pair of
    a row at most, and so does a class, so a pass splits each class by the
    row signature of its pairs, the set of classes meeting the row; the pass
    that splits none ends.
    """
    holders: dict[int, int] = {}
    for j, pairs in enumerate(graphs):
        for p in pairs:
            holders[p] = holders.get(p, 0) | 1 << j
    classes, count = _numbered(holders)
    while count < len(classes):
        meets: dict[int, int] = {}
        for p, c in classes.items():
            meets[p // size] = meets.get(p // size, 0) | 1 << c
        split = _numbered({p: (c, meets[p // size]) for p, c in classes.items()})
        if split[1] == count:
            break
        classes, count = split
    atoms = [0] * count
    for p, c in classes.items():
        atoms[c] |= 1 << p
    return [[atoms[c] for c in dict.fromkeys(map(classes.__getitem__, pairs))] for pairs in graphs]


@cache
def _canonical(size: int):
    """The canonical position of each of the (size+1)**size graph masks of a
    carrier; at each position the value vector, the mask and its domain
    cylinder; at each position the mask's pairs (:func:`_pairs`); and the
    mask of each value vector."""
    encode, _, dom, _ = _graphs(size)
    # UNDEF is -1, below every point, so product order is canonical order
    vectors = list(product(range(UNDEF, size), repeat=size))
    masks = list(map(encode, vectors))
    graphs = list(zip(vectors, masks, map(dom, masks)))
    position = {mask: i for i, mask in enumerate(masks)}
    return position, graphs, list(map(_pairs, vectors)), dict(zip(vectors, masks))


def closure_generate(
    carrier: Carrier,
    seeds: Sequence[PartialFunction],
    ops: Iterable[str] = ("difference", "restrict"),
) -> ConcretePFAlgebra:
    """Least family containing the seeds and the empty function, closed under
    the named operations.  Difference and restriction are mandatory.

    Members are graph masks (:func:`graph_operations`).  The family closed
    under difference and restriction is read off the atoms of the seeds
    (:func:`_atoms`): every union of atoms that lies inside one seed.  Each
    further operation is applied to the new members (a binary one to the
    pairs with at least one new member, each member prepared once per side,
    :class:`Pairwise`), and every result not yet a member joins the seeds;
    with no further operation this runs once.  Every seed is a member, so
    when converse is named a non-injective seed raises ValueError before any
    atom is computed; a non-injective result fed back fails when it comes
    round.  The members are ordered by
    their canonical positions, read with their value vectors and domain
    cylinders from a table made once per carrier size, and the result is
    made without the checks it meets by construction.

    Proof that the closure under the two is every union of classes of the
    stable partition (:func:`_atoms`) that lies inside a seed, fed-back
    results counting as seeds:

    - Both operations return a subset of an argument, so every member lies
      inside a seed.
    - Atoms (minimal nonempty members) are disjoint, and every member is
      the disjoint union of the atoms inside it (the argument at
      :func:`drest.dra._mask_representation`).  Removing one atom at a time
      with ``a & ~b`` reaches every union of atoms inside a member.
    - Invariant: each atom t lies inside one class.  It holds at the start,
      as ``t & s`` is t or empty for each seed s.  It holds after every
      split, as ``t & dom(T)``, for a class T (a union of atoms, by the
      invariant), is the union of the restrictions of t to the atoms
      inside T, each t or empty; so the pairs of t share their row
      signature.
    - At the fixpoint, the unions of classes inside a seed hold the seeds
      and are closed: ``A & ~B`` drops the classes of B, and ``B & dom(A)``
      keeps the classes of B inside dom(A), as each class lies wholly inside
      or outside the cylinder of each class of A.  So they hold the
      closure, and each atom, a union of classes lying in one class, is
      that class.  The atoms inside a seed cover it, so every class is an
      atom, and by the second point every such union is a member.
    """
    op_names = tuple(ops)
    if "difference" not in op_names or "restrict" not in op_names:
        raise ValueError("closure must include difference and restrict")
    if carrier.size > CLOSURE_SIZE_CAP:
        raise ValueError(f"closure carrier capped at size {CLOSURE_SIZE_CAP}")
    if any(f.carrier != carrier for f in seeds):
        raise CarrierMismatch("seed on a foreign carrier")

    operations = graph_operations(carrier.size)
    position, graphs, pairs, encoded = _canonical(carrier.size)
    forms = [operations[name] for name in dict.fromkeys(op_names) if name not in BASE_OPS]
    seed_masks = [encoded[f.values] for f in seeds]
    if "converse" in op_names:
        for seed in seed_masks:
            operations["converse"][1](seed)
    # a constant, "identity", just seeds the closure
    fresh = {0, *seed_masks, *(form() for arity, form in forms if arity == 0)}
    unary = [form for arity, form in forms if arity == 1]
    # each binary form with the left and the right parts of the members
    binary = [(form, [], []) for arity, form in forms if arity == 2]
    generators, members = [], set()
    while fresh:
        generators += fresh
        closed = set()
        for inside in _atoms(carrier.size, [pairs[position[m]] for m in generators]):
            unions = [0]
            for atom in inside:
                unions += [union | atom for union in unions]
            closed.update(unions)
        new, members = list(closed - members), closed
        made: set[int] = set()
        for form in unary:
            made.update(map(form, new))
        for form, lefts, rights in binary:
            new_lefts, new_rights = list(map(form.left, new)), list(map(form.right, new))
            made.update(starmap(form.combine, product(lefts, new_rights)))
            lefts += new_lefts
            rights += new_rights
            made.update(starmap(form.combine, product(new_lefts, rights)))
        fresh = made - members

    values, masks, cylinders = zip(*[graphs[i] for i in sorted(map(position.__getitem__, members))])
    return ConcretePFAlgebra._closed(carrier, values, masks, cylinders)


def enumerate_all_pfs(carrier: Carrier) -> tuple[PartialFunction, ...]:
    """All (size+1)^size partial functions on the carrier, canonical order."""
    if carrier.size > CLOSURE_SIZE_CAP:
        raise ValueError(f"enumeration capped at carrier size {CLOSURE_SIZE_CAP}")
    return tuple(PartialFunction(carrier, values) for values in _canonical(carrier.size)[3])
