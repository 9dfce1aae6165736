"""Small named algebras used across the test suite and the CLI catalog.

Each fixture is generated from partial-function seeds, so the abstract tables
are grounded in a genuine concrete algebra; the one deliberately broken
fixture corrupts a single restriction entry.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .dra import AlgebraMap, FiniteAlgebra, OpTable, from_concrete, hom_check
from .pfun import Carrier, ConcretePFAlgebra, PartialFunction, closure_generate


class Fixture(NamedTuple):
    name: str
    description: str
    concrete: Optional[ConcretePFAlgebra]
    algebra: FiniteAlgebra


def _closure_fixture(
    name: str, description: str, size: int, graphs, ops=("difference", "restrict")
) -> Fixture:
    carrier = Carrier(size)
    seeds = [PartialFunction.from_graph(carrier, g) for g in graphs]
    concrete = closure_generate(carrier, seeds, ops=ops)
    return Fixture(name, description, concrete, from_concrete(concrete))


def single_point() -> Fixture:
    return _closure_fixture(
        "single_point",
        "the two-element algebra: the empty function and the identity on one point",
        1,
        [[(0, 0)]],
    )


def disjoint_pair() -> Fixture:
    return _closure_fixture(
        "disjoint_pair",
        "two compatible singleton functions on disjoint domains; their join is missing",
        2,
        [[(0, 0)], [(1, 1)]],
    )


def conflicting_pair() -> Fixture:
    return _closure_fixture(
        "conflicting_pair",
        "two singleton functions disagreeing at the same point; already complete",
        2,
        [[(0, 0)], [(0, 1)]],
    )


def boolean_four() -> Fixture:
    return _closure_fixture(
        "boolean_four",
        "the four subidentities on two points; a Boolean cube under the intrinsic order",
        2,
        [[(0, 0)], [(0, 0), (1, 1)]],
    )


def broken_restriction() -> Fixture:
    """disjoint_pair with one restriction entry corrupted; fails validation."""
    base = disjoint_pair()
    alg = base.algebra
    a = alg.index("{0:0}")
    b = alg.index("{1:1}")
    entries = list(alg.rest.entries)
    entries[a * alg.n + b] = a  # restricting {1:1} to the domain of {0:0} is not {0:0}
    broken = FiniteAlgebra(
        alg.elements,
        alg.minus,
        OpTable("rest", 2, alg.n, tuple(entries)),
    )
    return Fixture(
        "broken_restriction",
        "disjoint_pair with one corrupted restriction entry; invalid on purpose",
        None,
        broken,
    )


FIXTURES: dict[str, Callable[[], Fixture]] = {
    f.__name__: f
    for f in (
        single_point,
        disjoint_pair,
        conflicting_pair,
        boolean_four,
        broken_restriction,
    )
}


def get_fixture(name: str) -> Fixture:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    return FIXTURES[name]()


def map_by_names(source: FiniteAlgebra, target: FiniteAlgebra) -> AlgebraMap:
    """The map sending each element to the target element of the same name."""
    table = tuple(target.index(name) for name in source.elements)
    return AlgebraMap(source, target, table)


def inclusion_disjoint_into_boolean() -> AlgebraMap:
    """The name-preserving embedding of disjoint_pair into boolean_four."""
    mapping = map_by_names(disjoint_pair().algebra, boolean_four().algebra)
    if not hom_check(mapping).is_embedding:
        raise AssertionError("internal error: fixture inclusion broke")
    return mapping
