"""Answer checks that the benchmark computes itself.

Each check compares what the library answered with a fact derived here from
the input alone (operation tables, the space's basis and projection, the
operation's name, or how a document was built).  A check returns ``None``
when the answer is right and a short reason when it is wrong.
"""
from __future__ import annotations

from math import prod
from typing import Optional, Sequence

# every size cap in the library raises a ValueError whose message says so
CAP_MARKER = "capped at"

# concrete operations that preserve compatibility, are normal and are
# additive on every closure; antidomain is never normal (the antidomain of
# the empty function is the identity on the carrier)
COMPAT_PRESERVING_OPS = ("domain", "range", "fixset", "compose", "range_restrict")
NON_OPERATOR_OPS = ("antidomain",)


def is_refusal(exc: BaseException) -> bool:
    """A size cap the library hit, as opposed to a wrong or crashing answer."""
    return isinstance(exc, ValueError) and CAP_MARKER in str(exc)


def order_facts(
    n: int, minus: Sequence[int], rest: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """Atoms of the intrinsic order and their grouping by shared domain.

    The order is x <= y iff x - (x - y) = x.  Two atoms a, b share a domain
    iff each restricted to the domain of the other is unchanged.
    """
    bot = minus[0]

    def leq(x: int, y: int) -> bool:
        return minus[x * n + minus[x * n + y]] == x

    atoms = [
        x
        for x in range(n)
        if x != bot and not any(y not in (bot, x) and leq(y, x) for y in range(n))
    ]
    classes: list[list[int]] = []
    for a in atoms:
        for cls in classes:
            b = cls[0]
            if rest[a * n + b] == b and rest[b * n + a] == a:
                cls.append(a)
                break
        else:
            classes.append([a])
    return atoms, classes


def completion_size(classes: Sequence[Sequence[int]]) -> int:
    """Sections of a discrete space: at most one point from each fibre."""
    return prod(len(c) + 1 for c in classes)


def algebra_facts(algebra) -> tuple[int, int]:
    """(number of atoms, size of the completion) of a FiniteAlgebra."""
    atoms, classes = order_facts(algebra.n, algebra.minus.entries, algebra.rest.entries)
    return len(atoms), completion_size(classes)


def check_equal(what: str, got, expected) -> Optional[str]:
    if got != expected:
        return f"{what}: got {got!r}, expected {expected!r}"
    return None


def check_axioms(valid: bool) -> Optional[str]:
    """Every generated closure is a genuine algebra of partial functions."""
    return check_equal("validate_axioms on a closure", valid, True)


def check_filter_count(got: int, atoms: int) -> Optional[str]:
    """Maximal filters of a finite algebra are the up-sets of its atoms."""
    return check_equal("maximal filters vs atoms", got, atoms)


def check_completion(got: int, expected: int) -> Optional[str]:
    return check_equal("completion size vs prod(|class|+1)", got, expected)


def check_flags(flags: dict[str, bool]) -> Optional[str]:
    bad = sorted(name for name, value in flags.items() if value is not True)
    return f"false roundtrip results: {', '.join(bad)}" if bad else None


def space_expectation(n_points: int, n_base: int, projection, basis) -> tuple[bool, int]:
    """(valid, number of sections) of a finite space with a projection.

    Such a space is a valid etale space iff every singleton is a basis set
    (it is then discrete, hence Hausdorff) and the projection is onto.  A
    valid space has one section per choice of at most one point per fibre.
    """
    singletons = all(frozenset({x}) in set(basis) for x in range(n_points))
    onto = set(projection) == set(range(n_base))
    fibres = [[x for x in range(n_points) if projection[x] == b] for b in range(n_base)]
    return singletons and onto, completion_size(fibres)


def expected_compat_preserving_operator(op: str, n: int) -> bool:
    """The verdict classify_operator must give for a named concrete operation.

    Override maps (0, g) to g, so it is normal only on the one-element
    algebra, where every check holds trivially.
    """
    if op in COMPAT_PRESERVING_OPS:
        return True
    if op in NON_OPERATOR_OPS:
        return False
    if op == "override":
        return n == 1
    raise ValueError(f"no expectation for operation {op!r}")
