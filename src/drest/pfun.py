"""Finite partial functions on a shared indexed base set.

Every value is a partial self-map on ``{0, ..., size-1}``, stored as a
fixed-length tuple with ``-1`` marking "undefined".  All operations are pure;
closures of seed sets under the named operations provide genuine algebras of
partial functions that the abstract layer is tested against.

The ``values`` tuples are the public form.  The closure and the closedness
check run on graph masks instead (bit ``x*size + y`` set iff f(x) = y),
where difference is ``a & ~b`` and restriction is ``b & dom(a)``, and an
algebra's tables and representation are built from the same masks
(:func:`drest.dra.from_concrete`); the further operations run on tuples
through one decode/encode adapter.  The tuple versions are kept as test
oracles.
"""
from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .dra import Record

UNDEF = -1

ENUMERATE_SIZE_CAP = 4
CLOSURE_SIZE_CAP = 4


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

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(x for x, v in enumerate(self.values) if v != UNDEF)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(v for v in self.values if v != UNDEF)

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
        seen = set()
        for v in self.values:
            if v != UNDEF:
                if v in seen:
                    return False
                seen.add(v)
        return True

    def render(self) -> str:
        if self.is_empty:
            return "{}"
        lab = self.carrier.label
        return "{" + ",".join(f"{lab(x)}:{lab(y)}" for x, y in self.graph) + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialFunction({self.render()})"


# ---------------------------------------------------------------------------
# raw operations on value vectors (shared by the public wrappers and the
# closure engine, which avoids building a PartialFunction in hot loops)

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


def _require_shared_carrier(f: PartialFunction, g: PartialFunction) -> None:
    if f.carrier != g.carrier:
        raise CarrierMismatch("operands live on different carriers")


def _wrap(op: Callable[..., tuple[int, ...]]) -> Callable[..., PartialFunction]:
    def binary(f: PartialFunction, g: PartialFunction) -> PartialFunction:
        _require_shared_carrier(f, g)
        return PartialFunction(f.carrier, op(f.values, g.values))

    return binary


pf_difference = _wrap(_difference)
pf_restrict = _wrap(_restrict)
pf_meet = _wrap(_meet)
pf_override = _wrap(_override)


def pf_union_if_compatible(f: PartialFunction, g: PartialFunction) -> Optional[PartialFunction]:
    """The union f | g when it is functional, None otherwise."""
    _require_shared_carrier(f, g)
    raw = _union_if_compatible(f.values, g.values)
    return None if raw is None else PartialFunction(f.carrier, raw)


def pf_compatible(f: PartialFunction, g: PartialFunction) -> bool:
    """True when f and g agree on the intersection of their domains."""
    _require_shared_carrier(f, g)
    return all(
        fv == UNDEF or gv == UNDEF or fv == gv for fv, gv in zip(f.values, g.values)
    )


# name -> (arity, raw implementation); closure and classification both key off
# this registry.  "identity" is a constant (arity 0).
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


def _graph_codec(size: int):
    """Encode, decode and domain-cylinder functions for graph masks on one
    carrier size: bit ``x*size + y`` is set iff f(x) = y.

    On masks, difference is ``a & ~b`` and restricting b to the domain of a
    is ``b & dom(a)``.  The constants are built per call.
    """
    row = (1 << size) - 1
    low = sum(1 << (x * size) for x in range(size))
    offsets = range(0, size * size, size)
    shifts = range(size)

    def encode(values: Sequence[int]) -> int:
        mask = 0
        for offset, v in zip(offsets, values):
            if v != UNDEF:
                mask |= 1 << (offset + v)
        return mask

    def decode(mask: int) -> tuple[int, ...]:
        # a row holds at most one bit; an empty row decodes to -1 (UNDEF)
        return tuple(((mask >> offset) & row).bit_length() - 1 for offset in offsets)

    def dom(mask: int) -> int:
        spread = 0
        for k in shifts:
            spread |= mask >> k
        return (spread & low) * row

    return encode, decode, dom


class ConcretePFAlgebra(Record):
    """A duplicate-free, canonically ordered family of partial functions.

    Instances produced by :func:`closure_generate` contain the empty function
    and are closed under difference and restriction (plus any further
    operations requested at generation time).
    """

    _fields = ("carrier", "elements")
    __slots__ = (*_fields, "_index")

    def __init__(self, carrier: Carrier, elements: tuple[PartialFunction, ...]) -> None:
        keys = [f.sort_key for f in elements]
        if sorted(set(keys)) != keys:
            raise ValueError("elements must be duplicate-free and canonically ordered")
        for f in elements:
            if f.carrier != carrier:
                raise CarrierMismatch("element on a foreign carrier")
        self.carrier, self.elements = carrier, elements
        # value vector -> position, built on the first index() call and kept
        # out of equality and repr: most instances (closure inputs, say) are
        # never indexed
        self._index: Optional[dict[tuple[int, ...], int]] = None

    def index(self, f: PartialFunction) -> int:
        if self._index is None:
            self._index = {f.values: i for i, f in enumerate(self.elements)}
        return self._index[f.values]

    def __len__(self) -> int:
        return len(self.elements)

    def graph_masks(self) -> tuple[list[int], list[int]]:
        """The graph mask of every element and its domain cylinder, the
        union of the rows it meets (:func:`drest.dra.from_masks`)."""
        encode, _, dom = _graph_codec(self.carrier.size)
        masks = [encode(f.values) for f in self.elements]
        return masks, [dom(m) for m in masks]

    def is_closed_under(self, op_names: Iterable[str]) -> bool:
        masks, doms = self.graph_masks()
        present = set(masks)
        members = {f.values for f in self.elements}
        for name in op_names:
            if name == "difference":
                complements = [~b for b in masks]
                if not all({a & c for c in complements} <= present for a in masks):
                    return False
                continue
            if name == "restrict":
                if not all({b & d for b in masks} <= present for d in doms):
                    return False
                continue
            if name == "identity":
                if tuple(range(self.carrier.size)) not in members:
                    return False
                continue
            arity, raw = RAW_OPS[name]
            for args in product(self.elements, repeat=arity):
                try:
                    result = raw(*(a.values for a in args))
                except ValueError:
                    return False
                if result not in members:
                    return False
        return True


def closure_generate(
    carrier: Carrier,
    seeds: Sequence[PartialFunction],
    ops: Iterable[str] = ("difference", "restrict"),
) -> ConcretePFAlgebra:
    """Least family containing the seeds and the empty function, closed under
    the named operations.  Difference and restriction are mandatory.

    Members are graph masks.  Each round applies difference and restriction
    to every ordered pair with at least one new member, once; any further
    operation runs on value tuples through one decode/encode adapter.
    """
    op_names = tuple(ops)
    if "difference" not in op_names or "restrict" not in op_names:
        raise ValueError("closure must include difference and restrict")
    if carrier.size > CLOSURE_SIZE_CAP:
        raise ValueError(f"closure carrier capped at size {CLOSURE_SIZE_CAP}")
    for f in seeds:
        if f.carrier != carrier:
            raise CarrierMismatch("seed on a foreign carrier")

    # "identity" is a constant, so it just seeds the closure
    base = ("difference", "restrict", "identity")
    others = [RAW_OPS[name] for name in op_names if name not in base]
    encode, decode, dom = _graph_codec(carrier.size)
    start = {0} | {encode(f.values) for f in seeds}
    if "identity" in op_names:
        start.add(encode(range(carrier.size)))
    doms: dict[int, int] = {}  # member -> its domain cylinder
    old: list[int] = []
    old_doms: list[int] = []
    old_values: list[tuple[int, ...]] = []  # decoded old members, for `others`
    frontier = list(start)
    while frontier:
        new_doms = [dom(m) for m in frontier]
        doms.update(zip(frontier, new_doms))
        current = old + frontier
        complements = [~b for b in current]
        made = {a & c for a in frontier for c in complements}
        made.update(a & c for a in old for c in complements[len(old):])
        made.update(b & d for d in new_doms for b in current)
        made.update(b & d for d in old_doms for b in frontier)
        if others:
            fresh = [decode(m) for m in frontier]
            every = old_values + fresh
            for arity, raw in others:
                if arity == 1:
                    results = {raw(f) for f in fresh}
                else:
                    results = {raw(f, g) for f in fresh for g in every}
                    results.update(raw(f, g) for f in old_values for g in fresh)
                made.update(map(encode, results))
            old_values = every
        old, old_doms = current, old_doms + new_doms
        frontier = [m for m in made if m not in doms]

    # UNDEF is -1, below every point, so plain tuple order is canonical order
    ordered = sorted(map(decode, doms))
    return ConcretePFAlgebra(carrier, tuple(PartialFunction(carrier, v) for v in ordered))


def enumerate_all_pfs(carrier: Carrier) -> tuple[PartialFunction, ...]:
    """All (size+1)^size partial functions on the carrier, canonical order."""
    if carrier.size > ENUMERATE_SIZE_CAP:
        raise ValueError(f"enumeration capped at carrier size {ENUMERATE_SIZE_CAP}")
    choices = [UNDEF] + list(range(carrier.size))
    return tuple(
        PartialFunction(carrier, values)
        for values in product(choices, repeat=carrier.size)
    )
