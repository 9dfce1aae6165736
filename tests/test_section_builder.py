"""The one-pass section builder against the product-and-sort builder in
``oracles``.

``duality._section_algebra`` generates the sections in order, each with its
name and saturation carried from its parent, and builds the tables without
the range scan of ``OpTable``.  Both builders must give the same masks,
names, saturations, index, tables and representation, the oracle's
representation searched for in its tables alone: on every valid space
of at most three points (every basis), on every onto projection of four
points with the singletons as basis (a valid space is discrete, so its
sections depend on its fibres alone), on the discrete spaces of 1 to 10
points up to ``SECTION_CAP``, on one 16-point fibre, on hypothesis spaces
and on the completions of corpus algebras.
"""
from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings

import oracles
from conftest import abstract, small_spaces, valid_spaces
from drest import dra
from drest.dra import SECTION_CAP, OpTable
from drest.duality import DualAlgebra, EtaleSpace, G_object, dual_of, validate_etale


def assert_same_as_the_oracle(built: DualAlgebra) -> None:
    expected = oracles.section_algebra(built.topology, None)
    assert built.sections == expected.sections
    assert built.index == expected.index
    assert built.algebra.elements == expected.algebra.elements
    assert built.algebra._masks[1] == expected.algebra._masks[1]  # the saturations
    assert built.algebra.minus == expected.algebra.minus
    assert built.algebra.rest == expected.algebra.rest
    # the oracle's representation is searched for in its tables alone
    alone = dra.FiniteAlgebra(expected.algebra.elements, expected.algebra.minus, expected.algebra.rest)
    assert dra.representation(built.algebra) == dra._represent(alone)


def singleton_space(projection: tuple[int, ...], n_base: int) -> EtaleSpace:
    k = len(projection)
    return EtaleSpace(k, n_base, projection, tuple(frozenset({x}) for x in range(k)))


def four_point_spaces():
    """Every projection of four points onto 1-4 base points."""
    for n_base in range(1, 5):
        for projection in product(range(n_base), repeat=4):
            if set(projection) == set(range(n_base)):
                yield singleton_space(projection, n_base)


def test_every_small_valid_space():
    spaces = [space for space in small_spaces() if validate_etale(space).ok]
    four = list(four_point_spaces())
    # 1 + 14 + 36 + 24 surjections onto 1-4 base points
    assert (len(spaces), len(four)) == (202, 75)
    for space in spaces + four:
        assert validate_etale(space).ok
        assert_same_as_the_oracle(G_object(space))


@pytest.mark.parametrize("k", range(1, 11))
def test_discrete_spaces_up_to_the_cap(k):
    built = G_object(singleton_space(tuple(range(k)), k))
    assert built.algebra.n == 2**k <= SECTION_CAP
    assert_same_as_the_oracle(built)


def test_one_fibre_of_sixteen_points():
    built = G_object(singleton_space((0,) * 16, 1))
    assert built.algebra.n == 17
    assert_same_as_the_oracle(built)


@settings(max_examples=100, deadline=None)
@given(valid_spaces())
def test_generated_spaces(space):
    assert_same_as_the_oracle(G_object(space))


def test_completions_of_the_corpus(closure_corpus):
    for concrete in closure_corpus[::7]:
        assert_same_as_the_oracle(dual_of(abstract(concrete)).sections)


def test_points_out_of_order_keep_the_atoms_the_table_search_finds():
    # fibres {0, 2} and {1}: the dual points come out as {0}, {2}, {1}
    built = G_object(singleton_space((0, 1, 0), 2))
    assert built.algebra.elements == ("{}", "{0}", "{1}", "{2}", "{0,1}", "{1,2}")
    atoms, classes, hats = dra.representation(built.algebra)
    assert atoms == (1, 3, 2) and classes == ((0, 1), (2,))
    assert hats == (0, 1, 4, 2, 5, 6) != built.sections


def test_mask_tables_are_in_range_without_the_scan():
    built = G_object(singleton_space((0, 1, 0, 2), 3))
    for table in (built.algebra.minus, built.algebra.rest):
        # the checked constructor accepts the same entries
        assert OpTable(table.name, table.arity, table.size, table.entries) == table
