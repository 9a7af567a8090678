"""Multigraph structure: ranks, minors, cuts, circuits, orientations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_strategies import glued_multigraphs, multigraphs
from tfpoly.algebra import rational_rank
from tfpoly.fixtures import fixture, fixture_names
from tfpoly.graph import (
    EdgeSubset,
    MultiGraph,
    Orientation,
    arc,
    blocks,
    components_count,
    rank_nullity,
    subset_rank_table,
)
from tfpoly.oracles import (
    bond_side,
    bonds,
    circuits,
    directed_bonds,
    directed_circuits,
    incidence_matrix,
    is_acyclic,
    is_totally_cyclic,
    restriction,
)

RANKS = {
    "e2": (0, 0),
    "edge": (1, 0),
    "loop": (0, 1),
    "p3": (2, 0),
    "digon": (1, 1),
    "k3": (2, 1),
    "theta": (1, 2),
    "k3_loop": (2, 2),
    "k4me": (3, 2),
    "k4": (3, 3),
}


@pytest.mark.parametrize("name", sorted(RANKS))
def test_rank_nullity(name):
    assert rank_nullity(fixture(name)) == RANKS[name]


def test_rank_nullity_of_subsets():
    g = fixture("k3")
    assert rank_nullity(g, EdgeSubset.of(3, [])) == (0, 0)
    assert rank_nullity(g, EdgeSubset.of(3, [0])) == (1, 0)
    assert rank_nullity(g, EdgeSubset.of(3, [0, 1])) == (2, 0)
    assert rank_nullity(g, EdgeSubset.of(3, [0, 1, 2])) == (2, 1)


@pytest.mark.parametrize("name", fixture_names())
def test_subset_rank_table_matches_rank_nullity(name):
    g = fixture(name)
    table = subset_rank_table(g)
    assert len(table) == 1 << g.edge_count
    for mask in range(1 << g.edge_count):
        sub = EdgeSubset(mask, g.edge_count)
        assert table[mask] == rank_nullity(g, sub)[0]


def test_components():
    assert components_count(fixture("e2")) == 2
    assert components_count(fixture("k3")) == 1
    assert components_count(MultiGraph(5, ((0, 1), (2, 3)))) == 3


def test_constructor_validates_endpoints():
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2),))


# -- cuts and circuits ---------------------------------------------------------


def test_bonds_of_triangle():
    bs = bonds(fixture("k3"))
    assert sorted(b.members() for b in bs) == [(0, 1), (0, 2), (1, 2)]


def test_bridges_are_singleton_bonds():
    assert sorted(b.members() for b in bonds(fixture("p3"))) == [(0,), (1,)]


def test_loops_have_no_bonds():
    assert bonds(fixture("loop")) == []
    assert [b.members() for b in bonds(fixture("digon"))] == [(0, 1)]


def test_directed_structures_on_reference_k3():
    # reference arcs: 0->1, 1->2, 0->2; acyclic, so no directed circuit
    g = fixture("k3")
    o = Orientation.reference(g)
    assert is_acyclic(g, o)
    assert not is_totally_cyclic(g, o)
    assert directed_circuits(g, o, circuits(g)) == []
    shores = [(b, bond_side(g, b)) for b in bonds(g)]
    assert sorted(b.members() for b in directed_bonds(g, o, shores)) == [(0, 2), (1, 2)]


def test_directed_circuit_appears_after_one_flip():
    g = fixture("k3")
    o = Orientation.for_graph(g, [False, False, True])  # 0->1, 1->2, 2->0
    assert [c.members() for c in directed_circuits(g, o, circuits(g))] == [(0, 1, 2)]
    assert is_totally_cyclic(g, o)


def test_loop_is_a_directed_circuit():
    g = fixture("loop")
    o = Orientation.reference(g)
    assert [c.members() for c in directed_circuits(g, o, circuits(g))] == [(0,)]
    assert is_totally_cyclic(g, o)


@settings(max_examples=80, deadline=None)
@given(multigraphs(max_edges=6))
def test_circuits_match_their_definition(g):
    # a circuit: nullity one, and a forest once any one edge is removed
    want = []
    for mask in range(1 << g.edge_count):
        x = EdgeSubset(mask, g.edge_count)
        if rank_nullity(g, x)[1] == 1 and all(
            rank_nullity(g, EdgeSubset(mask & ~(1 << e), g.edge_count))[1] == 0
            for e in x.members()
        ):
            want.append(x)
    assert circuits(g) == want


@settings(max_examples=80, deadline=None)
@given(st.one_of(multigraphs(max_edges=8), glued_multigraphs(max_edges=3)))
def test_blocks_partition_the_edges_along_circuits(g):
    # two non-loop edges share a block exactly when a circuit holds both
    found = blocks(g)
    assert sorted(e for block in found for e in block) == list(range(g.edge_count))
    assert list(found) == sorted(found) and all(list(b) == sorted(b) for b in found)
    block_of = {e: k for k, block in enumerate(found) for e in block}
    together = {(e, f) for c in circuits(g) for e in c for f in c}
    non_loops = g.non_loop_ids()
    for e in non_loops:
        for f in non_loops:
            assert (block_of[e] == block_of[f]) == (e == f or (e, f) in together), (e, f)
    assert all((e,) in found for e in g.loop_ids())


def test_blocks_of_two_triangles_at_a_vertex_and_a_long_path():
    bowtie = MultiGraph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 4)))
    assert blocks(bowtie) == ((0, 1, 2), (3, 4, 5), (6,))
    # iterative: no recursion limit on a path of bridges
    n = 5000
    assert blocks(MultiGraph(n + 1, tuple((i, i + 1) for i in range(n)))) == tuple(
        (e,) for e in range(n)
    )


def test_arc_respects_flips():
    g = fixture("edge")
    assert arc(g, Orientation.reference(g), 0) == (0, 1)
    assert arc(g, Orientation.for_graph(g, [True]), 0) == (1, 0)


# -- incidence ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["k3", "k4", "digon", "k3_loop", "p3"])
def test_incidence_rank_is_graph_rank(name):
    g = fixture(name)
    m = incidence_matrix(g, Orientation.reference(g))
    assert rational_rank(m) == rank_nullity(g)[0]


def test_incidence_loop_column_is_zero():
    g = fixture("k3_loop")
    m = incidence_matrix(g, Orientation.reference(g))
    loop = g.loop_ids()[0]
    assert all(row[loop] == 0 for row in m)


def test_restriction():
    g = fixture("k3")
    o = Orientation.for_graph(g, [False, True, False])
    sub, so, emap = restriction(g, o, EdgeSubset.of(3, [1, 2]))
    assert sub.edge_count == 2
    assert emap == {1: 0, 2: 1}
    assert so.flips == (True, False)


# -- edge subsets ----------------------------------------------------------------


def test_edge_subset_operations():
    a = EdgeSubset.of(4, [0, 2])
    b = EdgeSubset.of(4, [2, 3])
    assert a.union(b).members() == (0, 2, 3)
    assert a.intersection(b).members() == (2,)
    assert a.difference(b).members() == (0,)
    assert a.complement().members() == (1, 3)
    assert a.is_subset_of(EdgeSubset.full(4))
    assert EdgeSubset.empty(4).is_subset_of(a)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_edge_subset_set_laws(ma, mb):
    a, b = EdgeSubset(ma, 4), EdgeSubset(mb, 4)
    assert a.union(b).complement() == a.complement().intersection(b.complement())
    assert a.difference(b) == a.intersection(b.complement())
