"""Orientation space and its cut-Eulerian equivalence classes.

The production classes come from one pass keyed by indegree divisor
class; the tests that look inside a class compare them with the member
tuples of the move closure, `cut_eulerian_classes_by_moves`.  The
strong-components edge classification is compared with a reachability
search per edge, `is_edge_cyclic`.
"""

import itertools
import time

import pytest

from tfpoly import oracles
from tfpoly.fixtures import fixture, fixture_names
from tfpoly.graph import MultiGraph, Orientation
from tfpoly.invariants import tutte
from tfpoly.oracles import (
    all_orientations,
    bonds,
    circuits,
    class_bc_profile,
    class_size_check,
    cut_eulerian_classes_by_moves,
    is_acyclic,
    is_edge_cyclic,
    is_totally_cyclic,
    restriction,
    zero_one_pair_count,
)
from tfpoly.orientations import classify_edges, cut_eulerian_classes

# class size multisets, one entry per class
CLASS_SIZES = {
    "e2": [1],
    "edge": [2],
    "loop": [1],
    "p3": [4],
    "digon": [2, 2],
    "k3": [2, 3, 3],
    "theta": [2, 3, 3],
    "k3_loop": [2, 3, 3],
    "k4me": [3, 3, 4, 4, 4, 4, 5, 5],
    "k4": [4] * 16,
}


@pytest.mark.parametrize("name", fixture_names())
def test_orientation_space_size(name):
    g = fixture(name)
    oris = all_orientations(g)
    assert len(oris) == 2 ** len(g.non_loop_ids())
    assert len(set(oris)) == len(oris)
    for o in oris:
        for e in g.loop_ids():
            assert not o.flips[e]  # loops carry a single orientation


@pytest.mark.parametrize("name", fixture_names())
def test_edge_classification_partitions(name):
    g = fixture(name)
    for o in all_orientations(g):
        b, c = classify_edges(g, o)
        assert b.intersection(c).mask == 0
        assert b.union(c).mask == (1 << g.edge_count) - 1
        # bond part restricts acyclically, circuit part totally cyclically
        bg, bo, _ = restriction(g, o, b)
        cg, co, _ = restriction(g, o, c)
        assert is_acyclic(bg, bo)
        assert is_totally_cyclic(cg, co)
        # the strong-components pass finds what a search per edge finds
        assert c.members() == tuple(e for e in range(g.edge_count) if is_edge_cyclic(g, o, e))


@pytest.mark.parametrize("name", sorted(CLASS_SIZES))
def test_class_size_multisets(name):
    g = fixture(name)
    classes = cut_eulerian_classes(g)
    assert sorted(c.size for c in classes) == CLASS_SIZES[name]


@pytest.mark.parametrize("name", fixture_names())
def test_classes_partition_and_count_forests(name):
    g = fixture(name)
    closure = cut_eulerian_classes_by_moves(g)
    seen = [o for members in closure for o in members]
    assert len(seen) == len(set(seen)) == 2 ** len(g.non_loop_ids())
    assert [c.size for c in cut_eulerian_classes(g)] == [len(m) for m in closure]
    assert len(closure) == tutte(g).evaluate(x=1, y=1)


@pytest.mark.parametrize("name", fixture_names())
def test_representative_is_lex_least(name):
    g = fixture(name)
    closure = cut_eulerian_classes_by_moves(g)
    for cls, members in zip(cut_eulerian_classes(g), closure, strict=True):
        assert cls.representative == min(members, key=lambda o: o.flips)


@pytest.mark.parametrize("name", fixture_names())
def test_class_sizes_equal_pinned_pair_counts(name):
    g = fixture(name)
    for cls in cut_eulerian_classes(g):
        assert class_size_check(g, cls) == cls.size


@pytest.mark.parametrize("name", fixture_names())
def test_bc_sizes_constant_within_class(name):
    g = fixture(name)
    closure = cut_eulerian_classes_by_moves(g)
    for cls, members in zip(cut_eulerian_classes(g), closure, strict=True):
        assert class_bc_profile(g, members) == {(cls.b_size, cls.c_size)}


def test_zero_one_pair_count_examples():
    g = fixture("k3")
    # acyclic reference orientation: pairs (f tension in {0,1}, g flow in
    # {0,1}) with disjoint supports; the flow part is forced to zero
    o = Orientation.reference(g)
    assert zero_one_pair_count(g, o) == 3
    cyc = Orientation.for_graph(g, [False, False, True])
    assert zero_one_pair_count(g, cyc) == 2


def test_loop_class_is_singleton():
    g = fixture("loop")
    classes = cut_eulerian_classes(g)
    assert len(classes) == 1 and classes[0].size == 1
    assert classes[0].b_size == 0 and classes[0].c_size == 1


def test_class_closure_computes_bonds_once(monkeypatch):
    calls = []
    real = oracles.bonds

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(oracles, "bonds", counted)
    # a 4-cycle with a chord
    g = MultiGraph(4, ((2, 3), (0, 2), (1, 2), (3, 0), (0, 1)))
    classes = cut_eulerian_classes_by_moves(g)
    assert len(classes) == tutte(g).evaluate(x=1, y=1)
    assert calls == [g]


def test_class_closure_finds_each_bond_side_once(monkeypatch):
    calls = []
    real = oracles.bond_side

    def counted(g, bond):
        calls.append(bond.mask)
        return real(g, bond)

    monkeypatch.setattr(oracles, "bond_side", counted)
    # K3,3: 24 bonds and 512 orientations, but a bond's shores do not
    # depend on the orientation
    g = MultiGraph(6, tuple((i, 3 + j) for j in range(3) for i in range(3)))
    classes = cut_eulerian_classes_by_moves(g)
    assert len(classes) == tutte(g).evaluate(x=1, y=1)
    assert sorted(calls) == [bond.mask for bond in bonds(g)]
    assert len(calls) == 24


def test_class_closure_finds_circuits_once(monkeypatch):
    calls = []
    real = oracles.circuits

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(oracles, "circuits", counted)
    # K4: 64 orientations, but the circuits of g do not depend on them
    g = fixture("k4")
    classes = cut_eulerian_classes_by_moves(g)
    assert len(classes) == tutte(g).evaluate(x=1, y=1)
    assert calls == [g]
    assert len(circuits(g)) == 7


def test_isolated_vertices_cost_the_class_pass_little():
    # the strong-components passes start only at vertices with an
    # out-arc, so 2,000 isolated vertices beside K5 add little to its
    # 125 representatives' classification; passes that visit every
    # vertex take about 60 times as long on the padded graph
    k5 = tuple(itertools.combinations(range(5), 2))

    def best_of_five(g):
        times = []
        for _ in range(5):
            started = time.perf_counter()
            cut_eulerian_classes(g)
            times.append(time.perf_counter() - started)
        return min(times)

    plain = best_of_five(MultiGraph(5, k5))
    padded = best_of_five(MultiGraph(2005, k5))
    assert padded < 4 * plain
