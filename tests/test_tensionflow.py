"""Tension and flow groups, modular and integral."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_strategies import multigraphs
from tfpoly.config import GuardExceeded, guarded
from tfpoly.fixtures import fixture, fixture_names
from tfpoly.graph import EdgeSubset, MultiGraph, Orientation, rank_nullity
from tfpoly.invariants import omega_value, tutte
from tfpoly.orientations import classify_edges
from tfpoly.tensionflow import (
    INTEGRAL_MODES,
    FiniteAbelianGroup,
    boundary,
    coboundary,
    enumerate_flows,
    enumerate_integral_flows,
    enumerate_integral_tensions,
    enumerate_tensions,
    integral_window_counts,
    is_flow,
    is_tension,
    lattice_index,
    support_pair_classes,
)

Z2 = FiniteAbelianGroup.cyclic(2)
Z3 = FiniteAbelianGroup.cyclic(3)
Z4 = FiniteAbelianGroup.cyclic(4)
KLEIN = FiniteAbelianGroup((2, 2))


def test_group_basics():
    assert Z4.order == 4
    assert KLEIN.order == 4
    assert len(list(KLEIN.elements())) == 4
    assert Z3.add((2,), (2,)) == (1,)
    assert Z3.neg((1,)) == (2,)
    assert Z3.sub((0,), (1,)) == (2,)
    assert KLEIN.add((1, 0), (1, 1)) == (0, 1)
    assert Z3.is_zero((0,)) and not Z3.is_zero((2,))
    assert FiniteAbelianGroup(()).order == 1


def test_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))


# -- enumeration sizes ----------------------------------------------------------


@pytest.mark.parametrize("name", fixture_names())
def test_tension_flow_counts(name):
    g = fixture(name)
    o = Orientation.reference(g)
    r, n = rank_nullity(g)
    assert sum(1 for _ in enumerate_tensions(g, o, Z3)) == 3**r
    assert sum(1 for _ in enumerate_flows(g, o, Z3)) == 3**n


@pytest.mark.parametrize("name", ["k3", "digon", "theta", "k3_loop"])
def test_enumerated_objects_validate(name):
    g = fixture(name)
    o = Orientation.reference(g)
    for f in enumerate_tensions(g, o, Z3):
        assert is_tension(g, o, f)
    for h in enumerate_flows(g, o, Z3):
        assert is_flow(g, o, h)


def test_tensions_of_a_loop_vanish():
    g = fixture("loop")
    o = Orientation.reference(g)
    fns = list(enumerate_tensions(g, o, Z4))
    assert len(fns) == 1 and fns[0].kernel() == EdgeSubset.full(1)


def test_flows_on_a_bridge_vanish():
    g = fixture("p3")
    o = Orientation.reference(g)
    fns = list(enumerate_flows(g, o, Z4))
    assert len(fns) == 1 and fns[0].support_mask() == 0


# -- structural laws -------------------------------------------------------------


def test_coboundary_is_tension_boundary_of_flow_is_zero():
    g = fixture("k4")
    o = Orientation.reference(g)
    f = coboundary(g, o, [(0,), (1,), (2,), (1,)], Z3)
    assert is_tension(g, o, f)
    for h in enumerate_flows(g, o, Z3):
        assert all(Z3.is_zero(v) for v in boundary(g, o, h))


@pytest.mark.parametrize("name", ["k3", "theta", "digon", "k3_loop"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_tension_flow_orthogonality(name, n):
    # over Z_n the edgewise product of a tension and a flow sums to zero
    g = fixture(name)
    o = Orientation.reference(g)
    grp = FiniteAbelianGroup.cyclic(n)
    for f in enumerate_tensions(g, o, grp):
        for h in enumerate_flows(g, o, grp):
            dot = sum(a[0] * b[0] for a, b in zip(f.values, h.values))
            assert dot % n == 0


def test_count_depends_on_order_not_structure():
    for name in ("k3", "digon", "k3_loop"):
        g = fixture(name)
        assert omega_value(g, Z4, Z4) == omega_value(g, KLEIN, KLEIN)


# -- integral windows -------------------------------------------------------------


def test_strict_support_counts():
    g = fixture("k3")
    o = Orientation.reference(g)
    # nowhere-zero integer tensions with |f| < q: 3(q-1)(q-2)
    for q in (1, 2, 3, 4):
        got = sum(1 for _ in enumerate_integral_tensions(g, o, q, "strict_support"))
        assert got == 3 * (q - 1) * (q - 2)
    # nowhere-zero integer flows with |g| < q: 2(q-1)
    for q in (1, 2, 3, 4):
        got = sum(1 for _ in enumerate_integral_flows(g, o, q, "strict_support"))
        assert got == 2 * (q - 1)


def test_open_window_with_zero_set():
    g = fixture("k3")
    o = Orientation.reference(g)  # acyclic: positive tensions exist
    full = EdgeSubset.full(3)
    count = sum(1 for _ in enumerate_integral_tensions(g, o, 4, "open", window=full))
    assert count == (4 - 1) * (4 - 2) // 2  # one orientation's share of 3(q-1)(q-2)


def test_closed_window_includes_bounds():
    g = fixture("loop")
    o = Orientation.reference(g)
    full = EdgeSubset.full(1)
    vals = sorted(
        f.values[0]
        for f in enumerate_integral_flows(g, o, 2, "closed", window=full)
    )
    assert vals == [0, 1, 2]


def test_integral_enumeration_values_are_in_window():
    g = fixture("theta")
    o = Orientation.reference(g)
    for h in enumerate_integral_flows(g, o, 5, "strict_support"):
        assert all(0 < abs(v) < 5 for v in h.values)
        assert is_flow(g, o, h)


# -- lattice index ---------------------------------------------------------------


@pytest.mark.parametrize("name", fixture_names())
def test_lattice_index_counts_maximal_forests(name):
    g = fixture(name)
    o = Orientation.reference(g)
    assert lattice_index(g, o) == tutte(g).evaluate(x=1, y=1)


# -- window counts from one walk ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    g=multigraphs(max_vertices=4, max_edges=5),
    data=st.data(),
    mode=st.sampled_from(INTEGRAL_MODES),
    tensions=st.booleans(),
    top=st.integers(0, 4),
)
def test_window_counts_match_enumeration_at_every_bound(g, data, mode, tensions, top):
    width = g.edge_count
    flips = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    loops = set(g.loop_ids())
    o = Orientation.for_graph(g, [flip and e not in loops for e, flip in enumerate(flips)])
    b, c = classify_edges(g, o)
    drawn = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    window = data.draw(
        st.sampled_from(
            [
                b if tensions else c,
                EdgeSubset.full(width),
                EdgeSubset.of(width, [e for e in range(width) if drawn[e]]),
            ]
        )
    )
    enumerate_integral = enumerate_integral_tensions if tensions else enumerate_integral_flows
    want = [
        sum(1 for _ in enumerate_integral(g, o, bound, mode, window))
        for bound in range(top + 1)
    ]
    assert integral_window_counts(g, o, tensions, top, mode, window) == want


@pytest.mark.parametrize("tensions", [True, False])
@pytest.mark.parametrize("mode", INTEGRAL_MODES)
def test_window_counts_match_enumeration_on_the_wheel(mode, tensions):
    # the wheel W4: hub 0, rim 1..4; rank and nullity 4
    g = MultiGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)))
    o = Orientation.reference(g)
    enumerate_integral = enumerate_integral_tensions if tensions else enumerate_integral_flows
    want = [sum(1 for _ in enumerate_integral(g, o, bound, mode)) for bound in range(5)]
    assert integral_window_counts(g, o, tensions, 4, mode) == want


def test_an_empty_window_is_charged_before_it_returns():
    # K4 with a loop at vertex 0 and a pendant edge 0-4: the loop's
    # tension and the pendant edge's flow read no free value and must be
    # 0, which an open window refuses, so nothing lies in the window;
    # the box is charged first all the same
    g = MultiGraph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 0), (0, 4)))
    o = Orientation.reference(g)
    assert integral_window_counts(g, o, True, 4, "open") == [0] * 5
    assert integral_window_counts(g, o, False, 4, "open") == [0] * 5
    # four free edges with three open values each (0 < f < 4); the counter
    # walks all but the last
    for tensions, what in ((True, "tension"), (False, "flow")):
        with guarded(26):
            with pytest.raises(GuardExceeded, match=f"integral {what} enumeration needs 27 states"):
                integral_window_counts(g, o, tensions, 4, "open")
    for enumerate_integral, what in (
        (enumerate_integral_tensions, "tension"),
        (enumerate_integral_flows, "flow"),
    ):
        assert list(enumerate_integral(g, o, 4, "open")) == []
        with guarded(80):
            with pytest.raises(GuardExceeded, match=f"integral {what} enumeration needs 81 states"):
                list(enumerate_integral(g, o, 4, "open"))


def test_window_counts_charge_the_walked_box():
    g = fixture("k4")
    o = Orientation.reference(g)
    # three forest edges with four nonzero values each (|f| < 3); the
    # counter walks the positive half of the first and all of the second
    with guarded(8):
        counts = integral_window_counts(g, o, True, 3)
    assert counts[3] == sum(1 for _ in enumerate_integral_tensions(g, o, 3))
    with guarded(7):
        with pytest.raises(GuardExceeded, match="tension enumeration needs 8 states, guard is 7"):
            integral_window_counts(g, o, True, 3)


# -- guard -----------------------------------------------------------------------


def test_guard_stops_huge_enumerations():
    with guarded(10), pytest.raises(GuardExceeded):
        omega_value(fixture("k4"), Z4, Z4)


def test_support_product_charges_distinct_support_pairs():
    # three distinct tension supports times two distinct flow supports,
    # on three edges: the supports 3 and 4 are complementary, once
    tensions, flows = [1, 2, 2, 3], [1, 1, 4]
    with guarded(6):
        disjoint, cover, comp = support_pair_classes(tensions, flows, 3)
    assert disjoint == {(2, 1): 1 * 1 + 2 * 2 + 2 * 1, (1, 1): 1}
    assert cover == {(1, 1): 1}
    assert comp == {(1,): 1}
    with guarded(5):
        with pytest.raises(GuardExceeded, match="support pair product needs 6 states, guard is 5"):
            support_pair_classes(tensions, flows, 3)


def test_support_product_refuses_before_the_flows_run_out():
    # three distinct tension supports: the second distinct flow support
    # makes 6 pairs, over the guard, and the rest are never read
    flows = iter([1, 1, 4, 8, 16])
    with guarded(5):
        with pytest.raises(GuardExceeded, match="support pair product needs 6 states, guard is 5"):
            support_pair_classes([1, 2, 2, 3], flows, 5)
    assert list(flows) == [8, 16]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), width=st.integers(0, 6))
def test_support_pair_classes_sum_three_predicates_over_the_histogram(data, width):
    full = (1 << width) - 1
    masks = st.lists(st.integers(0, full), max_size=10)
    tensions, flows = data.draw(masks), data.draw(masks)
    # the oracle: the counts of every (supp f, supp g), an explicit product
    histogram = {
        (fm, gm): a * b
        for fm, a in Counter(tensions).items()
        for gm, b in Counter(flows).items()
    }
    want: tuple[dict, dict, dict] = ({}, {}, {})
    for (fm, gm), cnt in histogram.items():
        key = (width - fm.bit_count(), gm.bit_count())
        for tally, at, holds in (
            (want[0], key, fm & gm == 0),
            (want[1], key, fm | gm == full),
            (want[2], key[:1], fm & gm == 0 and fm | gm == full),
        ):
            if holds:
                tally[at] = tally.get(at, 0) + cnt
    charge = len(set(tensions)) * len(set(flows))
    with guarded(max(charge, 1)):
        assert support_pair_classes(tensions, flows, width) == want
    if charge > 1:
        match = f"support pair product needs {charge} states, guard is {charge - 1}$"
        with guarded(charge - 1), pytest.raises(GuardExceeded, match=match):
            support_pair_classes(tensions, flows, width)
