"""Production routes against their oracles on random multigraphs.

The psi family is compared with the orientation sums, and the Tutte
values of `tutte-values` with the signed orientation triples, on
hypothesis-generated multigraphs with loops and parallel edges.  The
graphs have at most six edges and a nullity of at most 3, which keeps
the test to a few seconds: both routes enumerate integer flows in boxes
that grow as a power of the nullity, and at nullity 4 the orientation
sums alone take about 2.5 s for a triangle with doubled edges.  The
frontier sum of the modular psi is compared with its convolution over
cyclic flats on graphs of at most eight edges, and with the orientation
sums on those of nullity at most 3.

The tension and flow enumerators, which all extend free forest or
co-forest values over one table of fundamental circuits, are compared
with the definitions themselves on graphs of at most five edges:
coboundaries of every potential, functions of zero boundary, and the
filter of the whole window box, each mode's window at bounds 0-3 written
out by hand, which the one-walk window counts must match as well; those
counts must not change when edges outside the window are reversed.  The
modular ones are also reoriented (every non-loop edge reversed, its
value negated) and must stay tensions and flows there, by `is_tension`
and `is_flow`.

The orientation classes keyed by indegree divisor class are compared
with the move closure on graphs of at most six edges, disconnected
ones included: the same least members and sizes, and bond and circuit
sizes equal to a reachability search per edge on the least member.

The subset rank table, built in one rollback union-find pass, is
compared with a fresh union-find per subset on graphs of at most ten
edges, and the two oracles of the nowhere-zero pair polynomial, the
subset expansion and the arrangement's characteristic polynomial,
which both read that table, with each other and with the frontier sum
on graphs of at most seven edges.  The frontier sums of the corank-nullity
and nowhere-zero pair polynomials, and the Tutte polynomial shifted
from the former, are compared with the subset expansions on graphs of
at most ten edges, and the shift alone with `MultiPoly.substitute` on
graphs of at most 24.  The greedy edge order, kept in a heap, is
compared with a copy of its rescanning form on graphs of at most 24
edges, on K7, on the 8x8 grid, on a 300-edge star and on 300 parallel
edges with loops, and the frontier's partition moves with a copy of
their old form, which renumbered every merged partition.

The support counts behind the brute pair counts, walked without
building a function, are compared with the supports of every function
the generators make, over Z_1 to Z_4, Z_2 x Z_2 and Z_2 x Z_3 and in
the box at bounds 1-3, on graphs of at most seven edges, with each
guard refusal at one state below the charge.

psi_z as the product over blocks is compared with the convolution over
the cyclic flats of the whole graph on small multigraphs glued at cut
vertices, with bridges and loops, of rank at most 6, where that
convolution's tension box stays under the guard, and the binomials of
`psi_terms`, from one Pascal row per exponent, with a copy of its
`math.comb` form.
"""

import itertools
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfpoly import frontier, invariants, oracles, tensionflow
from tfpoly.algebra import MultiPoly
from tfpoly.arrangements import graphic_semilattice
from tfpoly.config import GuardExceeded, guarded
from tfpoly.fixtures import small_ladder
from tfpoly.frontier import _moves, edge_order, psi_terms
from tfpoly.graph import (
    EdgeSubset,
    MultiGraph,
    Orientation,
    arc,
    rank_nullity,
    subset_rank_table,
)
from tfpoly.invariants import (
    PSI_KINDS,
    X,
    Y,
    integral_flow_poly,
    integral_tension_poly,
    omega,
    QUADRANTS,
    psi_family,
    tutte,
    tutte_value,
    whitney,
)
from tfpoly.oracles import (
    boundary,
    coboundary,
    cut_eulerian_classes_by_moves,
    enumerate_flows,
    enumerate_integral_flows,
    enumerate_integral_tensions,
    enumerate_tensions,
    is_edge_cyclic,
    is_flow,
    is_tension,
    lattice_index,
    omega_by_subsets,
    orientation_sums,
    psi_by_cyclic_flats,
    psi_by_orientations,
    tutte_value_triples,
    whitney_by_subsets,
)
from tfpoly.orientations import cut_eulerian_classes
from tfpoly.tensionflow import (
    INTEGRAL_MODES,
    FiniteAbelianGroup,
    GroupElementFunction,
    IntegerEdgeFunction,
    integral_window_counts,
)

from graph_strategies import disjoint_multigraphs, glued_multigraphs, multigraphs

SMALL = multigraphs(max_edges=6).filter(lambda g: rank_nullity(g)[1] <= 3)
GROUPS = (FiniteAbelianGroup.cyclic(3), FiniteAbelianGroup((2, 2)))


@st.composite
def oriented(draw):
    """A multigraph of at most five edges with a random orientation."""
    g = draw(multigraphs(max_edges=5))
    flips = draw(st.lists(st.booleans(), min_size=g.edge_count, max_size=g.edge_count))
    flips = [b and not g.is_loop(e) for e, b in enumerate(flips)]
    return g, Orientation.for_graph(g, flips)


def is_potential_difference(g: MultiGraph, o: Orientation, values) -> bool:
    """Whether values = p(tail) - p(head) for some integer potential p:
    spread p along the edges from a zero at each unreached vertex, then
    check every edge."""
    arcs = [arc(g, o, e) for e in range(g.edge_count)]
    p: dict[int, int] = {}
    for root in range(g.vertex_count):
        if root in p:
            continue
        p[root] = 0
        grown = True
        while grown:
            grown = False
            for (t, h), v in zip(arcs, values):
                if t in p and h not in p:
                    p[h] = p[t] - v
                    grown = True
                elif h in p and t not in p:
                    p[t] = p[h] + v
                    grown = True
    return all(p[t] - p[h] == v for (t, h), v in zip(arcs, values))


@settings(max_examples=40, deadline=None)
@given(SMALL)
def test_psi_family_matches_orientation_sums(g):
    sums = orientation_sums(g)[0]  # one walk gives all four kinds
    for kind in PSI_KINDS:
        assert psi_family(g, kind) == sums[kind], kind


@settings(max_examples=100, deadline=None)
@given(multigraphs(max_edges=8))
def test_psi_frontier_matches_cyclic_flats_and_orientation_sums(g):
    frontier_psi = MultiPoly(("x", "y", "z", "w"), psi_terms(g))
    assert frontier_psi == psi_by_cyclic_flats(g)
    # the orientation sums' integer flow boxes grow as a power of the
    # nullity, which is at least 4 on eight edges and five vertices
    if rank_nullity(g)[1] <= 3:
        assert frontier_psi == psi_by_orientations(g, "psi")


def _oracle_fits(g: MultiGraph) -> bool:
    # the whole-graph convolution counts integer tensions of G/X in a box
    # that grows as a power of the rank: at rank 7 it needs 17 million
    # states, over the default guard, and at rank 6 it takes about a second
    rank, nullity = rank_nullity(g)
    return rank <= 6 and nullity - len(g.loop_ids()) <= 4


@settings(max_examples=40, deadline=None)
@given(glued_multigraphs().filter(_oracle_fits))
@example(  # K4 less an edge, a triangle with a parallel edge, a loop and a bridge
    MultiGraph(
        7,
        ((0, 1), (1, 2), (2, 0), (1, 3), (2, 3), (3, 4), (4, 5), (5, 3), (4, 5), (5, 5), (5, 6)),
    )
)
def test_psi_z_by_blocks_matches_the_whole_convolution(g):
    # psi_z is the product of its blocks' convolutions; the convolution
    # over the cyclic flats of the whole graph is the same polynomial
    whole = invariants._cyclic_flat_convolutions([g], integral_tension_poly, integral_flow_poly)[0]
    assert psi_family(g, "psi_z") == whole
    assert psi_family(g, "bar_psi_z") == (-1) ** rank_nullity(g)[1] * whole.negate_vars("xyz")


def _psi_terms_by_comb(g: MultiGraph) -> dict:
    """`psi_terms` as it was, expanding the raw sum `frontier._psi_sum`
    with one math.comb per key and power for (-(w + z))^b and for the
    loop factor (y - 1)^L."""
    loops = len(g.loop_ids())
    if loops:
        rest = MultiGraph(g.vertex_count, tuple(g.edges[e] for e in g.non_loop_ids()))
        out: dict = {}
        for exps, c in _psi_terms_by_comb(rest).items():
            for y in range(loops + 1):
                step = comb(loops, y) * c
                key = (exps[0], exps[1] + y, exps[2], exps[3] + loops)
                out[key] = out.get(key, 0) + (-step if (loops - y) & 1 else step)
        return {exps: c for exps, c in out.items() if c}
    m = g.edge_count
    stride = m + 1
    r, _ = rank_nullity(g)
    out = {}
    for key, c in frontier._psi_sum(g).items():
        key, b = divmod(key, stride)
        key, a = divmod(key, stride)
        rank, nullity = divmod(key, stride)
        if b & 1:
            c = -c
        for j in range(b + 1):
            exps = (r - rank, nullity, m - a - j, a + j)
            out[exps] = out.get(exps, 0) + comb(b, j) * c
    return {exps: c for exps, c in out.items() if c}


@settings(max_examples=100, deadline=None)
@given(st.one_of(multigraphs(max_edges=9), glued_multigraphs(max_edges=4)))
def test_psi_terms_pascal_rows_match_the_comb_expansion(g):
    assert psi_terms(g) == _psi_terms_by_comb(g)


@settings(max_examples=40, deadline=None)
@given(SMALL, st.integers(1, 3), st.integers(1, 3))
def test_tutte_values_match_triples(g, p, q):
    for quadrant in QUADRANTS:
        assert tutte_value(g, p, q, quadrant) == tutte_value_triples(g, p, q, quadrant), quadrant


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_edges=6))
def test_key_classes_match_the_move_closure(g):
    got = [
        (cls.representative, cls.size, cls.b_size, cls.c_size)
        for cls in cut_eulerian_classes(g)
    ]
    want = []
    for members in cut_eulerian_classes_by_moves(g):
        least = members[0]
        c_size = sum(is_edge_cyclic(g, least, e) for e in range(g.edge_count))
        want.append((least, len(members), g.edge_count - c_size, c_size))
    assert got == want


@settings(max_examples=30, deadline=None)
@given(oriented())
def test_modular_tensions_and_flows_match_definitions(go):
    g, o = go
    for grp in GROUPS:
        elements = list(grp.elements())
        tensions = [fn.values for fn in enumerate_tensions(g, o, grp)]
        assert len(set(tensions)) == len(tensions)
        coboundaries = {
            coboundary(g, o, p, grp).values
            for p in itertools.product(elements, repeat=g.vertex_count)
        }
        assert set(tensions) == coboundaries
        flows = [fn.values for fn in enumerate_flows(g, o, grp)]
        assert len(set(flows)) == len(flows)
        zero_boundary = {
            values
            for values in itertools.product(elements, repeat=g.edge_count)
            if all(grp.is_zero(v) for v in boundary(g, o, GroupElementFunction(grp, values)))
        }
        assert set(flows) == zero_boundary
        # reversing every non-loop edge negates its value, and keeps a
        # tension a tension and a flow a flow
        reversed_o = Orientation.for_graph(
            g, [not b and not g.is_loop(e) for e, b in enumerate(o.flips)]
        )
        tension_set, flow_set = set(tensions), set(flows)
        for values in tension_set | flow_set:
            moved = GroupElementFunction(
                grp, tuple(v if g.is_loop(e) else grp.neg(v) for e, v in enumerate(values))
            )
            assert is_tension(g, reversed_o, moved) == (values in tension_set)
            assert is_flow(g, reversed_o, moved) == (values in flow_set)


# each mode's window values at bounds 0, 1, 2 and 3, written out
WINDOWS = {
    "open": ((), (), (1,), (1, 2)),
    "closed": ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)),
    "strict_support": ((), (), (-1, 1), (-2, -1, 1, 2)),
    "box": ((), (0,), (-1, 0, 1), (-2, -1, 0, 1, 2)),
}


@settings(max_examples=30, deadline=None)
@given(oriented(), st.data())
def test_integral_tensions_and_flows_match_the_window_box(go, data):
    # the enumerators and the one-walk counts read one window table, so
    # both are held to the windows written out above, at every bound
    g, o = go
    mask = data.draw(st.integers(0, (1 << g.edge_count) - 1))
    window = EdgeSubset(mask, g.edge_count)
    for mode in INTEGRAL_MODES:
        tension_counts, flow_counts = [], []
        for bound, box in enumerate(WINDOWS[mode]):
            candidates = [box if e in window else (0,) for e in range(g.edge_count)]
            in_box = list(itertools.product(*candidates))
            tensions = [
                fn.values for fn in enumerate_integral_tensions(g, o, bound, mode, window=window)
            ]
            assert len(set(tensions)) == len(tensions)
            assert set(tensions) == {v for v in in_box if is_potential_difference(g, o, v)}
            flows = [
                fn.values for fn in enumerate_integral_flows(g, o, bound, mode, window=window)
            ]
            assert len(set(flows)) == len(flows)
            assert set(flows) == {
                v for v in in_box if not any(boundary(g, o, IntegerEdgeFunction(v)))
            }
            tension_counts.append(len(tensions))
            flow_counts.append(len(flows))
        assert integral_window_counts(g, o, True, 3, mode, window) == tension_counts
        assert integral_window_counts(g, o, False, 3, mode, window) == flow_counts


@settings(max_examples=30, deadline=None)
@given(oriented(), st.data())
def test_window_counts_ignore_flips_outside_the_window(go, data):
    # an edge outside the window is 0, so reversing it changes no count;
    # `integral_window_counts` clears those flips before its memoised
    # counter, so the counter is held to this with the flips kept
    g, o = go
    width = g.edge_count
    window = EdgeSubset(data.draw(st.integers(0, (1 << width) - 1)), width)
    outside = data.draw(st.integers(0, (1 << width) - 1)) & ~window.mask
    flipped = Orientation.for_graph(
        g, [b ^ (outside >> e & 1 == 1 and not g.is_loop(e)) for e, b in enumerate(o.flips)]
    )
    for mode in INTEGRAL_MODES:
        for tensions in (True, False):
            counts = integral_window_counts(g, o, tensions, 3, mode, window)
            for walked in (o, flipped):
                got = tensionflow._window_counts(g, walked, tensions, 3, mode, window)
                assert list(got) == counts, (mode, tensions, walked)


@settings(max_examples=30, deadline=None)
@given(oriented())
def test_lattice_index_counts_maximal_forests(go):
    g, o = go
    assert lattice_index(g, o) == tutte(g).evaluate(x=1, y=1)


@settings(max_examples=100, deadline=None)
@given(multigraphs(max_edges=10))
def test_subset_rank_table_matches_rank_nullity(g):
    table = subset_rank_table(g)
    assert len(table) == 1 << g.edge_count
    for mask, rank in enumerate(table):
        assert rank == rank_nullity(g, EdgeSubset(mask, g.edge_count))[0], mask


@settings(max_examples=100, deadline=None)
@given(multigraphs(max_edges=7))
def test_omega_routes_agree(g):
    via_arrangement = graphic_semilattice(g).characteristic_polynomial()
    assert via_arrangement == omega_by_subsets(g) == omega(g)


@settings(max_examples=100, deadline=None)
@given(st.one_of(multigraphs(max_edges=10), disjoint_multigraphs()))
def test_frontier_sums_match_the_subset_expansions(g):
    # disjoint unions empty the frontier between components
    assert whitney(g) == whitney_by_subsets(g)
    assert omega(g) == omega_by_subsets(g)
    # T(x, y) = R(x - 1, y - 1), shifted in integers by `tutte`
    assert tutte(g) == whitney_by_subsets(g).substitute({"x": X - 1, "y": Y - 1})
    assert MultiPoly(("x", "y", "z", "w"), psi_terms(g)) == psi_by_cyclic_flats(g)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_vertices=8, max_edges=24))
def test_tutte_shift_matches_substitute(g):
    # rows and columns of degree up to 24, beyond the subset expansions
    assert tutte(g) == whitney(g).substitute({"x": X - 1, "y": Y - 1})


def rescanned_edge_order(g: MultiGraph) -> list[int]:
    """`frontier.edge_order` as it was before the heap: each step takes
    the least score over every unused edge at the frontier vertices."""
    left = [0] * g.vertex_count
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e, ends in enumerate(g.edges):
        for v in set(ends):
            left[v] += 1
            incident[v].append(e)
    seen = [False] * g.vertex_count
    done = [False] * g.edge_count
    frontier: set[int] = set()

    def score(e: int) -> tuple[int, int, int]:
        t, h = g.edges[e]
        if t == h:
            return (not seen[t], -(left[t] == 1), e)
        return (2 - seen[t] - seen[h], -((left[t] == 1) + (left[h] == 1)), e)

    starts = iter(sorted(range(g.edge_count), key=score))
    order = []
    for _ in range(g.edge_count):
        if frontier:
            best = min({e for v in frontier for e in incident[v] if not done[e]}, key=score)
        else:
            best = next(e for e in starts if not done[e])
        done[best] = True
        order.append(best)
        for v in set(g.edges[best]):
            seen[v] = True
            left[v] -= 1
            if left[v]:
                frontier.add(v)
            else:
                frontier.discard(v)
    return order


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_vertices=8, max_edges=24))
@example(MultiGraph(7, tuple(itertools.combinations(range(7), 2))))
@example(MultiGraph(64, tuple((v, v + 1) for v in range(64) if v % 8 < 7) + tuple((v, v + 8) for v in range(56))))
@example(MultiGraph(301, tuple((0, v) for v in range(1, 301))))
@example(MultiGraph(2, ((0, 1),) * 300 + ((1, 1),) * 3))
def test_edge_order_matches_the_rescan(g):
    assert edge_order(g) == rescanned_edge_order(g)


# the groups and box bounds the support walk is held to, and the most
# functions an oracle enumeration may make in one example
WALK_GROUPS = ((1,), (2,), (3,), (4,), (2, 2), (2, 3))
WALK_BOUNDS = (1, 2, 3)
WALK_LIMIT = 3000


@settings(max_examples=100, deadline=None)
@given(multigraphs(max_edges=7))
@example(MultiGraph(1, ()))
@example(MultiGraph(4, ()))
@example(MultiGraph(5, ((0, 1), (1, 2), (2, 0), (3, 3))))
@example(MultiGraph(3, ((0, 1), (0, 1), (1, 1), (1, 2), (1, 2), (2, 0))))
def test_support_walk_matches_the_enumerations(g):
    # each support count against the histogram of the supports of every
    # function the generators make, and each guard refusal, one state
    # under the charge, against the generators' own
    rank, nullity = rank_nullity(g)
    for of in [FiniteAbelianGroup(orders) for orders in WALK_GROUPS] + list(WALK_BOUNDS):
        size = of.order if isinstance(of, FiniteAbelianGroup) else 2 * of - 1
        for tensions, free in ((True, rank), (False, nullity)):
            charge = size**free
            if charge > WALK_LIMIT:
                continue
            with guarded(charge):
                got = charged_supports(g, tensions, of)
                assert got == Counter(fn.support_mask() for fn in generated(g, tensions, of))
            assert 0 not in got.values()
            if charge > 1:
                with guarded(charge - 1):
                    with pytest.raises(GuardExceeded) as refused:
                        charged_supports(g, tensions, of)
                    with pytest.raises(GuardExceeded) as oracle_refused:
                        list(generated(g, tensions, of))
                assert str(refused.value) == str(oracle_refused.value)


def charged_supports(g: MultiGraph, tensions: bool, of):
    """The support count of the tensions (or flows) over the group `of`,
    or in the box at bound `of`, charged against the active guard."""
    if isinstance(of, FiniteAbelianGroup):
        return oracles._modular_supports(g, of, tensions)
    return oracles._integral_supports(g, of, tensions)


def generated(g: MultiGraph, tensions: bool, of):
    """The functions that `charged_supports` counts, from the generators."""
    o = Orientation.reference(g)
    if isinstance(of, FiniteAbelianGroup):
        return (enumerate_tensions if tensions else enumerate_flows)(g, o, of)
    enum = enumerate_integral_tensions if tensions else enumerate_integral_flows
    return enum(g, o, of, "box")


def test_support_walk_counts_a_product_from_its_factors():
    # Z_2 x Z_3 is Z_6: the same supports, counted over K4 and K3,3
    z6, product = FiniteAbelianGroup.cyclic(6), FiniteAbelianGroup((2, 3))
    for g in (MultiGraph(4, tuple(itertools.combinations(range(4), 2))), small_ladder()[0][1]):
        for tensions in (True, False):
            counts = oracles._modular_supports(g, product, tensions)
            assert counts == oracles._modular_supports(g, z6, tensions)
            assert sum(counts.values()) == 6 ** rank_nullity(g)[not tensions]


def _relabelled(labels, keep):
    """The block labels at the kept positions, renumbered in order of
    first occurrence: the canonical form of a partition."""
    fresh = {}
    return tuple([fresh.setdefault(labels[i], len(fresh)) for i in keep])


def old_moves(p, fresh, pu, pv, keep):
    """`frontier._moves` as it was before the merge without relabelling:
    both partitions renumbered by `_relabelled` over the kept positions,
    with no count of the blocks that retire."""
    top = max(p, default=-1) + 1
    p += tuple(range(top, top + fresh))
    a, b = p[pu], p[pv]
    kept = p if len(keep) == len(p) else _relabelled(p, keep)
    if a == b:
        return kept, None
    return kept, _relabelled([a if x == b else x for x in p], keep)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_moves_merge_as_the_relabelling_did(data):
    labels = data.draw(st.lists(st.integers(0, 5), max_size=7))
    p = _relabelled(labels, range(len(labels)))
    fresh = data.draw(st.integers(0 if p else 1, 2))
    width = len(p) + fresh
    pu, pv = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, width - 1))
    # either every vertex stays, the fast path, or some retire
    keep = data.draw(
        st.one_of(
            st.just(list(range(width))),
            st.lists(st.integers(0, width - 1), unique=True).map(sorted),
        )
    )
    every = len(keep) == width
    kept, joined, gone, gone_joined = _moves(p, fresh, pu, pv, None if every else keep)
    assert (kept, joined) == old_moves(p, fresh, pu, pv, keep)
    # the blocks that retire: those before the edge less those after, a
    # join making two blocks one; the last block of a component of G, as
    # the frontier empties, is not counted
    before = len(set(p)) + fresh
    last = not keep
    assert gone == before - len(set(kept)) - last
    if joined is not None:
        assert gone_joined == before - 1 - len(set(joined)) - last
