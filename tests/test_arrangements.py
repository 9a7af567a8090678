"""Finite coset-product arrangements and the graphic arrangement."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfpoly import algebra, arrangements
from tfpoly.fixtures import fixture
from tfpoly.invariants import omega
from tfpoly.oracles import graphic_flat_dims, omega_by_subsets
from tfpoly.tensionflow import FiniteAbelianGroup
from tfpoly.arrangements import (
    FiniteCosetProduct,
    ambient_product,
    complement_count,
    finite_semilattice,
    graphic_semilattice,
    product_valuation,
    subgroup_closure,
    subset_flat_dims,
)
from tfpoly.graph import EdgeSubset, MultiGraph

from graph_strategies import multigraphs

Z2 = FiniteAbelianGroup.cyclic(2)
Z4 = FiniteAbelianGroup.cyclic(4)
Z6 = FiniteAbelianGroup.cyclic(6)


def test_subgroup_closure():
    assert subgroup_closure(Z6, [(2,)]) == frozenset({(0,), (2,), (4,)})
    assert subgroup_closure(Z6, []) == frozenset({(0,)})
    assert subgroup_closure(Z4, [(1,)]) == frozenset({(0,), (1,), (2,), (3,)})


def test_coset_product_membership_and_size():
    ambient = [Z4, Z2]
    even_any = FiniteCosetProduct.from_subgroup(ambient, [[(2,)], [(1,)]])
    assert even_any.size == 4
    assert even_any.contains([(0,), (1,)])
    assert not even_any.contains([(1,), (0,)])
    shifted = FiniteCosetProduct.from_subgroup(ambient, [[(2,)], []], shifts=[(1,), (1,)])
    assert shifted.size == 2
    assert shifted.contains([(3,), (1,)])
    assert not shifted.contains([(3,), (0,)])


def test_coset_product_intersection():
    ambient = [Z4]
    evens = FiniteCosetProduct.from_subgroup(ambient, [[(2,)]])
    odds = FiniteCosetProduct.from_subgroup(ambient, [[(2,)]], shifts=[(1,)])
    assert evens.intersect(odds).is_empty()
    whole = ambient_product(ambient)
    assert whole.size == 4
    assert evens.intersect(whole).factors == evens.factors
    assert evens.is_subset_of(whole)
    assert not whole.is_subset_of(evens)


def test_characteristic_polynomial_matches_complement_count():
    # two "hyperplanes" in Z4 x Z2: x even, and y = 0
    ambient = [Z4, Z2]
    members = [
        FiniteCosetProduct.from_subgroup(ambient, [[(2,)], [(1,)]]),
        FiniteCosetProduct.from_subgroup(ambient, [[(1,)], []]),
    ]
    poset = finite_semilattice(ambient, members)
    chi = poset.characteristic_polynomial()
    want = complement_count(ambient, members)
    assert chi.evaluate() == want
    # brute force the complement too
    outside = [
        pt
        for pt in (
            [(a,), (b,)] for a in range(4) for b in range(2)
        )
        if not any(m.contains(pt) for m in members)
    ]
    assert want == len(outside) == 2


def test_mobius_of_single_member():
    ambient = [Z6]
    sub = FiniteCosetProduct.from_subgroup(ambient, [[(3,)]])
    poset = finite_semilattice(ambient, [sub])
    fields = dict(vars(poset))
    assert poset.mobius(sub) == -1
    assert poset.characteristic_polynomial().evaluate() == 4
    assert complement_count(ambient, [sub]) == 4
    assert vars(poset) == fields  # no memo is attached


def test_subgroup_and_intersection_with_equal_factors_are_equal():
    ambient = [Z4, Z2]
    evens = FiniteCosetProduct.from_subgroup(ambient, [[(2,)], [(1,)]])
    meet = evens.intersect(ambient_product(ambient))
    assert meet == evens
    assert len(finite_semilattice(ambient, [evens, meet]).elements) == 2


@pytest.mark.parametrize("with_point", [False, True], ids=["alone", "with-point"])
def test_member_equal_to_the_whole_space_is_refused(with_point):
    # every point lies in such a member, yet it is the top itself, so
    # the semilattice would count the whole space (6, or 5 with a point)
    ambient = [Z2, FiniteAbelianGroup.cyclic(3)]
    members = [ambient_product(ambient)]
    if with_point:
        members.insert(0, FiniteCosetProduct.from_subgroup(ambient, [[], []], [(1,), (2,)]))
    assert complement_count(ambient, members) == 0
    whole = len(members) - 1
    with pytest.raises(ValueError, match=f"^arrangement member {whole} is the whole space"):
        finite_semilattice(ambient, members)


def test_empty_arrangement_complement_is_everything():
    ambient = [Z4, Z2]
    assert complement_count(ambient, []) == 8


def test_product_valuation_additivity():
    ambient = [Z4]
    evens = FiniteCosetProduct.from_subgroup(ambient, [[(2,)]])
    odds = FiniteCosetProduct.from_subgroup(ambient, [[(2,)]], shifts=[(1,)])
    whole = ambient_product(ambient)
    assert product_valuation([(1, evens), (1, odds)], check_disjoint=True) == whole.size
    assert product_valuation([(1, whole), (-1, evens)]) == odds.size


def test_product_valuation_rejects_overlap():
    ambient = [Z4]
    evens = FiniteCosetProduct.from_subgroup(ambient, [[(2,)]])
    whole = ambient_product(ambient)
    with pytest.raises(ValueError):
        product_valuation([(1, whole), (1, evens)], check_disjoint=True)


def test_product_valuation_finds_pieces_that_share_one_point():
    # {0, 2} x Z2, {1, 3} x {0}, {1} x {1} and {3} x {1} tile Z4 x Z2;
    # {2} x {1} in place of the last meets the first piece in the one
    # point (2, 1), and the sizes still sum to 8
    ambient = [Z4, Z2]
    evens = FiniteCosetProduct.from_subgroup(ambient, [[(2,)], [(1,)]])
    odds_low = FiniteCosetProduct((frozenset({(1,), (3,)}), frozenset({(0,)})))
    tiles = [(1, evens), (1, odds_low)]
    one, three, two = (FiniteCosetProduct((frozenset({(a,)}), frozenset({(1,)}))) for a in (1, 3, 2))
    assert product_valuation(tiles + [(1, one), (1, three)], check_disjoint=True) == 8
    with pytest.raises(ValueError, match="overlapping pieces"):
        product_valuation(tiles + [(1, one), (1, two)], check_disjoint=True)


def test_product_valuation_refuses_pieces_over_different_ambients():
    short = ambient_product([Z4])
    long = ambient_product([Z4, Z2])
    with pytest.raises(ValueError, match="coset products over different ambients"):
        product_valuation([(1, short), (1, long)], check_disjoint=True)


# -- graphic backend -----------------------------------------------------------


def test_graphic_flat_dims():
    g = fixture("k3")
    # vanishing on nothing: all tensions (dim 2) and all flows (dim 1)
    assert graphic_flat_dims(g, EdgeSubset.empty(3)) == (2, 1)
    # vanishing on one edge kills the circuit flow and one tension dim
    assert graphic_flat_dims(g, EdgeSubset.of(3, [0])) == (1, 0)
    assert graphic_flat_dims(g, EdgeSubset.full(3)) == (0, 0)


@pytest.mark.parametrize("name", ["edge", "loop", "digon", "k3", "theta", "k4me"])
def test_graphic_characteristic_polynomial_is_omega(name):
    g = fixture(name)
    chi = graphic_semilattice(g).characteristic_polynomial()
    assert chi == omega(g)


def test_graphic_semilattice_of_edgeless_graph():
    chi = graphic_semilattice(fixture("e2")).characteristic_polynomial()
    assert chi == 1


RANK_TABLE_GRAPHS = {
    "k33": MultiGraph(6, tuple((i, 3 + j) for i in range(3) for j in range(3))),
    "prism": MultiGraph(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))
    ),
    "w5": MultiGraph(
        6, tuple((0, i) for i in range(1, 6)) + tuple((i, i % 5 + 1) for i in range(1, 6))
    ),
    "k5": MultiGraph(5, tuple(itertools.combinations(range(5), 2))),
}


@pytest.mark.parametrize("name", sorted(RANK_TABLE_GRAPHS))
def test_subset_flat_dims_match_rational_ranks(name):
    g = RANK_TABLE_GRAPHS[name]
    dims = subset_flat_dims(g)
    assert len(dims) == 1 << g.edge_count
    for mask, got in enumerate(dims):
        assert got == graphic_flat_dims(g, EdgeSubset(mask, g.edge_count)), mask


def test_arrangement_route_does_no_gaussian_elimination(monkeypatch):
    def refuse(matrix):
        raise AssertionError("the arrangement route reached rational_rank")

    # the arrangement module no longer imports it: only the oracle does
    assert not hasattr(arrangements, "rational_rank")
    monkeypatch.setattr(algebra, "rational_rank", refuse)
    g = fixture("k4")
    assert graphic_semilattice(g).characteristic_polynomial() == omega_by_subsets(g)


# -- the Mobius pass against the definition --------------------------------------


def mobius_by_definition(poset, contains):
    """mu(x, top) for every element from an explicit containment table:
    contains(a, b) says element a contains element b, and mu(x) is
    minus the sum of mu over the elements strictly containing x."""
    n = len(poset.elements)
    table = [[contains(poset.elements[j], poset.elements[i]) for j in range(n)] for i in range(n)]
    [top] = [i for i in range(n) if all(table[j][i] for j in range(n))]

    @functools.cache
    def mu(i):
        return 1 if i == top else -sum(mu(j) for j in range(n) if j != i and table[i][j])

    return [mu(i) for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=8))
def test_graphic_mobius_pass_matches_the_definition(g):
    poset = graphic_semilattice(g)
    dims = subset_flat_dims(g)
    # the flat of a contains the flat of b when meeting them changes nothing
    oracle = mobius_by_definition(poset, lambda a, b: dims[a.mask | b.mask] == dims[b.mask])
    assert poset.mu == oracle
    assert poset.characteristic_polynomial() == omega_by_subsets(g)


SMALL_GROUPS = [FiniteAbelianGroup(orders) for orders in ((2,), (3,), (4,), (2, 2), (6,))]


@st.composite
def finite_arrangements(draw):
    ambient = draw(st.lists(st.sampled_from(SMALL_GROUPS), min_size=1, max_size=3))
    top = ambient_product(ambient)

    def element(grp):
        return st.tuples(*(st.integers(0, m - 1) for m in grp.cyclic_orders))

    members = []
    for _ in range(draw(st.integers(0, 4))):
        gens = [draw(st.lists(element(grp), max_size=2)) for grp in ambient]
        shifts = [draw(element(grp)) for grp in ambient]
        member = FiniteCosetProduct.from_subgroup(ambient, gens, shifts)
        if member.factors != top.factors:
            members.append(member)
    return ambient, members


@settings(max_examples=80, deadline=None)
@given(finite_arrangements())
def test_finite_mobius_pass_matches_the_definition(arrangement):
    ambient, members = arrangement
    poset = finite_semilattice(ambient, members)

    def points(flat):
        return set(itertools.product(*flat.factors))

    oracle = mobius_by_definition(poset, lambda a, b: points(b) <= points(a))
    assert poset.mu == oracle
    assert poset.characteristic_polynomial().evaluate() == complement_count(ambient, members)
