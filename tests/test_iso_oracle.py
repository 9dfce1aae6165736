"""The isomorphism search over points, against the element search in
``oracles``, and at sizes the element search cannot reach.

``isomorphism_search`` assigns the points of the representation, class by
class, and keeps a branch while the supports cut to the assigned points
match; ``oracles.isomorphism_search`` backtracks over elements, pruned by
table invariants, and is capped at 12 elements.  Verdicts are compared on
the corpus (each algebra against a relabelling of itself and against the
next algebra of its size) and on the catalogue-operation closures (against
a relabelling, and against the next closure of the same size and operation).
Every map either search returns must be an embedding onto; which
isomorphism is returned is not asserted.
"""
from __future__ import annotations

import random
import time
from itertools import product

import pytest

import oracles
from conftest import abstract, operator_cases, relabelled
from drest.dra import (
    SPACE_SIZE_CAP,
    FiniteAlgebra,
    OpTable,
    binary_table,
    from_concrete,
    hom_check,
    isomorphism_search,
)
from drest.duality import complete
from drest.fixtures import broken_restriction
from drest.pfun import Carrier, closure_generate, enumerate_all_pfs


def next_of_the_same_kind(algebras: list[FiniteAlgebra]):
    """Each algebra with the next one of its size and operation names."""
    last: dict[tuple, FiniteAlgebra] = {}
    for alg in algebras:
        key = (alg.n, alg.op_names())
        if key in last:
            yield last[key], alg
        last[key] = alg


def assert_verdicts_agree(pairs) -> dict[bool, int]:
    verdicts = {True: 0, False: 0}
    for a, b in pairs:
        found, expected = isomorphism_search(a, b), oracles.isomorphism_search(a, b)
        assert (found is None) == (expected is None), (a.elements, b.elements)
        for iso in (found, expected):
            assert iso is None or hom_check(iso).is_embedding
        verdicts[found is not None] += 1
    return verdicts


def test_verdicts_match_the_oracle_on_the_corpus(closure_corpus):
    algebras = [abstract(c) for c in closure_corpus]
    algebras = [alg for alg in algebras if alg.n <= oracles.ISO_SEARCH_CAP]
    rng = random.Random(15)
    pairs = [(alg, relabelled(alg, rng)) for alg in algebras]
    verdicts = assert_verdicts_agree(pairs + list(next_of_the_same_kind(algebras)))
    assert verdicts[True] > 1944 and verdicts[False] > 40, verdicts


def test_verdicts_match_the_oracle_on_catalogue_closures(closure_corpus):
    algebras = [
        alg.with_ops([op])
        for alg, op in operator_cases(closure_corpus, stride=8)
        if alg.n <= oracles.ISO_SEARCH_CAP
    ]
    rng = random.Random(16)
    pairs = [(alg, relabelled(alg, rng)) for alg in algebras]
    verdicts = assert_verdicts_agree(pairs + list(next_of_the_same_kind(algebras)))
    assert verdicts[True] > 1000 and verdicts[False] > 40, verdicts


# ---------------------------------------------------------------------------
# sizes past the element search

def disjoint_singletons(k: int, constant_at: int) -> FiniteAlgebra:
    """The bottom and k singletons on distinct points, with a unary
    operation constant at one of them."""
    n = k + 1
    return FiniteAlgebra(
        ("{}", *(f"{{{i}:{i}}}" for i in range(k))),
        binary_table("minus", n, lambda x, y: 0 if x == y else x),
        binary_table("rest", n, lambda x, y: y if x == y else 0),
        (OpTable("c", 1, n, (constant_at,) * n),),
    )


def graph_algebra(edges: list[tuple[int, int]], k: int) -> FiniteAlgebra:
    """The empty set, the k singletons and the edges, with difference and
    intersection: the partial identities on them, restriction being meet."""
    sets = [frozenset(), *(frozenset({v}) for v in range(k)), *map(frozenset, edges)]
    index = {s: i for i, s in enumerate(sets)}
    return FiniteAlgebra(
        tuple("{" + ",".join(map(str, sorted(s))) + "}" for s in sets),
        binary_table("minus", len(sets), lambda x, y: index[sets[x] - sets[y]]),
        binary_table("rest", len(sets), lambda x, y: index[sets[x] & sets[y]]),
    )


def test_singletons_with_a_constant_at_ten_elements():
    # the element search tries the atoms in order and meets the constant only
    # at the last one: tens of seconds at ten elements, nine times more a step
    start = time.perf_counter()
    iso = isomorphism_search(disjoint_singletons(9, 9), disjoint_singletons(9, 1))
    assert time.perf_counter() - start < 1.0
    assert iso is not None and iso.table[9] == 1
    assert hom_check(iso).is_embedding


def test_the_rook_graph_is_not_the_shrikhande_graph():
    # both strongly regular with parameters (16, 6, 2, 2): 65 elements on 16 points
    cells = [(r, c) for r in range(4) for c in range(4)]

    def edges(adjacent) -> list[tuple[int, int]]:
        return [
            (4 * r + c, 4 * s + d)
            for (r, c), (s, d) in product(cells, repeat=2)
            if 4 * r + c < 4 * s + d and adjacent((s - r) % 4, (d - c) % 4)
        ]

    rook = graph_algebra(edges(lambda dr, dc: (dr == 0) != (dc == 0)), 16)
    shrikhande = graph_algebra(edges(lambda dr, dc: (dr, dc) in {
        (1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}), 16)
    assert rook.n == shrikhande.n == 65
    start = time.perf_counter()
    assert isomorphism_search(rook, shrikhande) is None
    assert time.perf_counter() - start < 5.0
    assert isomorphism_search(rook, relabelled(rook, random.Random(4))) is not None


def test_completions_of_three_seed_closures_past_twelve_elements():
    rng, carrier = random.Random(17), Carrier(4)
    pool = enumerate_all_pfs(carrier)
    sizes = set()
    while len(sizes) < 4:
        closed = closure_generate(carrier, rng.sample(pool, 3))
        if 13 <= len(closed) <= 16:
            once, _ = complete(from_concrete(closed))
            iso = isomorphism_search(once, complete(once)[0])
            assert iso is not None and hom_check(iso).is_embedding
            sizes.add(len(closed))


def test_an_algebra_without_a_representation_raises():
    broken = broken_restriction().algebra
    with pytest.raises(ValueError, match="not represented"):
        isomorphism_search(broken, broken)


def test_more_points_than_the_space_cap_are_refused():
    big = disjoint_singletons(SPACE_SIZE_CAP + 1, 1)
    with pytest.raises(ValueError, match="capped at"):
        isomorphism_search(big, big)
    at_cap = disjoint_singletons(SPACE_SIZE_CAP, 1)
    assert isomorphism_search(at_cap, relabelled(at_cap, random.Random(5))) is not None
