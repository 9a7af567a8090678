"""The oracles: the second way of computing each invariant.

The production modules keep one route per invariant, the cheapest
exact one; the other routes live here, loaded only by `verification`,
the tests and `omega --via brute`.  Each oracle, the production route
it stands for, and the criteria of `verify` that run it:

    oracle                           production route         criteria
    _tutte_recursion                 tutte                    2, 3, 17
    whitney_by_subsets               whitney, tutte           2, 13, 17, 19
    omega_by_subsets                 omega, omega_at          1, 17, 19
    omega_value (brute pair count)   omega_at                 1
    whitney_weighted_sums            whitney at (+-p, +-q)    7
    *_complementary_count            kappa (psi at z = w = 1) 5, 10
    *_poly_by_enumeration            tension_poly, flow_poly  13
    psi_by_orientations, kappa_rho   psi_family               4, 5, 10, 14
    psi_by_cyclic_flats              psi_family (psi)         18
    enumerate_integral_*             psi_family at a point    6, 10
    tutte_value_triples              tutte_value              3
    lattice_index                    cut_eulerian_classes     3, 16
    cut_eulerian_classes_by_moves    cut_eulerian_classes     9, 16
    class_size_check                 cut_eulerian_classes     9
    graphic_flat_dims                subset_flat_dims         15

The modular enumerators feed criterion 10, and the tests hold the
definitions to `boundary`, `is_tension`, `is_flow` and the cyclicity
tests.  Every brute pair count sums one class (disjoint, covering or
complementary supports) of `pair_support_classes`.

Reversing a directed circuit or bond never changes which edges are
cyclic, and a cut-Eulerian class has as many members as its
representative has pairs in `zero_one_pair_count`.  (Without the pin
on loops' flows that count is kappa-bar_rho(1,1), larger by 2 per
loop, as a loop admits one orientation but two closed flow values.)
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Iterator, Sequence

# the production names an oracle may use (tests/test_oracles.py); a comment
# names the criteria that sharing a helper with production makes less independent
from .algebra import MultiPoly, _eliminate, interpolate_univariate, rational_rank
from .config import VerificationError, check_state_space, memoised_in_run, state_guard
from .graph import EdgeSubset, MultiGraph, Orientation, arc, rank_nullity, subset_rank_table
from .graph import _component_vertex_sets, _out_neighbors
# criteria 5 and 14: psi_z's window polynomial (counter and fit) and
# exponent reader; criterion 18: its convolution over cyclic flats
from .invariants import PSI_KINDS, _check_quadrant, _cyclic_flat_convolutions, _exponents
from .invariants import _window_poly, flow_poly, tension_poly
# criteria 3, 9 and 14: the classes and the edge partition
from .orientations import OrientationClass, classify_edges, cut_eulerian_classes
from .tensionflow import EdgeFunction, Element, FiniteAbelianGroup
from .tensionflow import GroupElementFunction, IntegerEdgeFunction
# criteria 3, 5, 6 and 10: the enumerators, the support walk and the
# triples walk their windows as psi_z's counter does
from .tensionflow import _WINDOWS, _charge, _coordinates, _integral_walk, _last_reads
from .tensionflow import _walk, _window_values, integral_window_counts


# -- graph structure ----------------------------------------------------------


def circuits(g: MultiGraph) -> list[EdgeSubset]:
    """All circuits (edge sets of simple cycles, loops included), in mask
    order: the sets of nullity one that keep their rank without any one
    of their edges, read from `subset_rank_table`, whose charge they pay."""
    table = subset_rank_table(g)
    bits = [1 << e for e in range(g.edge_count)]
    return [
        EdgeSubset(mask, g.edge_count)
        for mask, rank in enumerate(table)
        if mask.bit_count() == rank + 1
        and all(table[mask ^ b] == rank for b in bits if mask & b)
    ]



def directed_circuits(
    g: MultiGraph, o: Orientation, circuits: list[EdgeSubset]
) -> list[EdgeSubset]:
    """The circuits that carry a directed cycle under o: those whose arcs
    have pairwise distinct tails.  circuits are the circuits of g (from
    `circuits`), which do not depend on o."""
    out: list[EdgeSubset] = []
    for circuit in circuits:
        tails = {arc(g, o, e)[0] for e in circuit.members()}
        if len(tails) == circuit.size:
            out.append(circuit)
    return out



def bonds(g: MultiGraph) -> list[EdgeSubset]:
    """All bonds (minimal non-empty edge cuts), as edge subsets; charges
    E states for each vertex bipartition tried, 2^(|C| - 1) per component C."""
    comps = _component_vertex_sets(g)
    sides = sum(1 << (len(comp) - 1) for comp in comps)
    check_state_space(sides * g.edge_count, "bond enumeration")
    seen: set[int] = set()
    out: list[EdgeSubset] = []
    for comp in comps:
        verts = sorted(comp)
        if len(verts) < 2:
            continue
        anchor = verts[0]
        rest = verts[1:]
        # bipartitions (S, comp - S); fix anchor in S to kill mirror duplicates
        for r in range(len(rest) + 1):
            for chosen in itertools.combinations(rest, r):
                side = {anchor, *chosen}
                other = comp - side
                if not other:
                    continue
                if not _induced_connected(g, side) or not _induced_connected(g, other):
                    continue
                mask = 0
                for e, (t, h) in enumerate(g.edges):
                    if (t in side) != (h in side):
                        mask |= 1 << e
                if mask and mask not in seen:
                    seen.add(mask)
                    out.append(EdgeSubset(mask, g.edge_count))
    out.sort(key=lambda s: s.mask)
    return out



def _induced_connected(g: MultiGraph, verts: set[int]) -> bool:
    if not verts:
        return False
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for t, h in g.edges:
        if t != h and t in verts and h in verts:
            adj[t].append(h)
            adj[h].append(t)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts



def directed_bonds(
    g: MultiGraph, o: Orientation, shores: list[tuple[EdgeSubset, set[int]]]
) -> list[EdgeSubset]:
    """The bonds whose arrows all cross the cut the same way under o;
    shores pairs each bond of g (from `bonds`) with its `bond_side`,
    which does not depend on o."""
    out: list[EdgeSubset] = []
    for bond, side in shores:
        forward = backward = 0
        for e in bond.members():
            t, h = arc(g, o, e)
            if t in side:
                forward += 1
            else:
                backward += 1
        if forward == 0 or backward == 0:
            out.append(bond)
    return out



def bond_side(g: MultiGraph, bond: EdgeSubset) -> set[int]:
    """One shore of the cut: vertices reachable without crossing the bond."""
    t0, _ = g.edges[bond.members()[0]]
    seen = {t0}
    stack = [t0]
    while stack:
        v = stack.pop()
        for e, (t, h) in enumerate(g.edges):
            if e in bond or t == h:
                continue
            if t == v and h not in seen:
                seen.add(h)
                stack.append(h)
            elif h == v and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen



def restriction(g: MultiGraph, o: Orientation, x: EdgeSubset) -> tuple[MultiGraph, Orientation, dict[int, int]]:
    """Spanning subgraph on the edges of X, with o restricted."""
    edges = []
    flips = []
    mapping: dict[int, int] = {}
    for e in x.members():
        mapping[e] = len(edges)
        edges.append(g.edges[e])
        flips.append(o.flips[e])
    sub = MultiGraph(g.vertex_count, tuple(edges))
    return sub, Orientation.for_graph(sub, flips), mapping



def _reaches(adj: dict[int, list[int]], src: int, dst: int) -> bool:
    if src == dst:
        return True
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w == dst:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False



def is_edge_cyclic(g: MultiGraph, o: Orientation, e: int) -> bool:
    """True iff e lies on a directed circuit of (G, o).  Loops always do."""
    if g.is_loop(e):
        return True
    t, h = arc(g, o, e)
    # a simple directed path head -> tail cannot reuse e, so plain
    # reachability suffices
    return _reaches(_out_neighbors(g, o), h, t)



def is_acyclic(g: MultiGraph, o: Orientation) -> bool:
    return not any(is_edge_cyclic(g, o, e) for e in range(g.edge_count))



def is_totally_cyclic(g: MultiGraph, o: Orientation) -> bool:
    return all(is_edge_cyclic(g, o, e) for e in range(g.edge_count))



def incidence_matrix(g: MultiGraph, o: Orientation) -> list[list[int]]:
    """V x E incidence matrix: +1 at the tail, -1 at the head, loops zero."""
    rows = [[0] * g.edge_count for _ in range(g.vertex_count)]
    for e in range(g.edge_count):
        t, h = arc(g, o, e)
        if t != h:
            rows[t][e] += 1
            rows[h][e] -= 1
    return rows


# -- tensions and flows -------------------------------------------------------


def boundary(g: MultiGraph, o: Orientation, fn: EdgeFunction):
    """Per-vertex net outflow: +value at the arc tail, -value at the head.

    Loops cancel themselves and contribute nothing.
    """
    if fn.width != g.edge_count:
        raise ValueError("edge function width does not match graph")
    if isinstance(fn, GroupElementFunction):
        grp = fn.group
        acc = [grp.zero] * g.vertex_count
        for e in range(g.edge_count):
            t, h = arc(g, o, e)
            if t == h:
                continue
            acc[t] = grp.add(acc[t], fn.values[e])
            acc[h] = grp.sub(acc[h], fn.values[e])
        return tuple(acc)
    acc_i = [0] * g.vertex_count
    for e in range(g.edge_count):
        t, h = arc(g, o, e)
        if t == h:
            continue
        acc_i[t] += fn.values[e]
        acc_i[h] -= fn.values[e]
    return tuple(acc_i)



def coboundary(
    g: MultiGraph,
    o: Orientation,
    potential: Sequence,
    group: FiniteAbelianGroup | None = None,
) -> EdgeFunction:
    """Edge function p(tail) - p(head); loops get zero."""
    if len(potential) != g.vertex_count:
        raise ValueError("potential length does not match vertex count")
    if group is not None:
        vals = []
        for e in range(g.edge_count):
            t, h = arc(g, o, e)
            vals.append(group.sub(group.reduce(potential[t]), group.reduce(potential[h])))
        return GroupElementFunction(group, tuple(vals))
    vals_i = []
    for e in range(g.edge_count):
        t, h = arc(g, o, e)
        vals_i.append(int(potential[t]) - int(potential[h]))
    return IntegerEdgeFunction(tuple(vals_i))



def _placement(free: Sequence[int], dependent: Sequence[int]) -> list[int]:
    """Position of each edge id in free + dependent."""
    order = list(free) + list(dependent)
    return sorted(range(len(order)), key=order.__getitem__)



def _group_sum(grp: FiniteAbelianGroup, row, vals: Sequence[Element]) -> Element:
    """sum(c * vals[i]) over the (i, c) terms of row."""
    return tuple(
        sum(c * vals[i][k] for i, c in row) % m for k, m in enumerate(grp.cyclic_orders)
    )



def is_tension(g: MultiGraph, o: Orientation, fn: EdgeFunction) -> bool:
    """True iff fn sums to zero around every fundamental circuit, that is,
    iff fn is the tension that its forest values determine."""
    if fn.width != g.edge_count:
        raise ValueError("edge function width does not match graph")
    forest, coforest, rows = _coordinates(g, o, True)
    vals = [fn.values[a] for a in forest]
    pairs = zip(coforest, rows)
    if isinstance(fn, GroupElementFunction):
        return all(fn.values[e] == _group_sum(fn.group, row, vals) for e, row in pairs)
    return all(fn.values[e] == sum(c * vals[i] for i, c in row) for e, row in pairs)



def is_flow(g: MultiGraph, o: Orientation, fn: EdgeFunction) -> bool:
    b = boundary(g, o, fn)
    if isinstance(fn, GroupElementFunction):
        return all(fn.group.is_zero(v) for v in b)
    return all(v == 0 for v in b)



def enumerate_tensions(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup
) -> Iterator[GroupElementFunction]:
    """All tensions over grp: free forest values extended over fundamental
    circuits.  Exactly |grp|^rank functions, each once, charged when the
    generator is first advanced, under the guard active then."""
    for values in _iter_group_values(g, o, grp, True, "tension enumeration"):
        yield GroupElementFunction(grp, values)



def enumerate_flows(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup
) -> Iterator[GroupElementFunction]:
    """All flows over grp: free co-forest values extended over fundamental
    circuits.  Exactly |grp|^nullity functions, each once, charged when
    the generator is first advanced, under the guard active then."""
    for values in _iter_group_values(g, o, grp, False, "flow enumeration"):
        yield GroupElementFunction(grp, values)



def _iter_group_values(
    g: MultiGraph,
    o: Orientation,
    grp: FiniteAbelianGroup,
    tensions: bool,
    what: str,
) -> Iterator[tuple[Element, ...]]:
    free, dependent, rows = _coordinates(g, o, tensions)
    check_state_space(grp.order ** len(free), what)
    place = _placement(free, dependent)
    for combo in itertools.product(list(grp.elements()), repeat=len(free)):
        vals = combo + tuple(_group_sum(grp, row, combo) for row in rows)
        yield tuple([vals[k] for k in place])



def enumerate_integral_tensions(
    g: MultiGraph,
    o: Orientation,
    bound: int,
    mode: str = "strict_support",
    window: EdgeSubset | None = None,
) -> Iterator[IntegerEdgeFunction]:
    """Integer tensions with windowed values.

    Window semantics on edges of `window` (complement forced to zero):
      open:           0 < f(e) < bound
      closed:         0 <= f(e) <= bound
      strict_support: f(e) != 0 and |f(e)| < bound     (nowhere-zero)
      box:            |f(e)| < bound                   (zeros allowed)

    Enumerates window values on forest edges, extends them over the
    fundamental circuits, and filters the co-forest values against their
    windows.  The box of window values is charged when the generator is
    first advanced, under the guard active then.
    """
    yield from _integral_functions(g, o, True, bound, mode, window)



def enumerate_integral_flows(
    g: MultiGraph,
    o: Orientation,
    bound: int,
    mode: str = "strict_support",
    window: EdgeSubset | None = None,
) -> Iterator[IntegerEdgeFunction]:
    """Integer flows with windowed values; see enumerate_integral_tensions.

    Enumerates window values on co-forest edges, extends over the
    fundamental circuit matrix, and filters forest values; charged as
    the tensions are.
    """
    yield from _integral_functions(g, o, False, bound, mode, window)



def _integral_functions(
    g: MultiGraph,
    o: Orientation,
    tensions: bool,
    bound: int,
    mode: str,
    window: EdgeSubset | None,
) -> Iterator[IntegerEdgeFunction]:
    """Every integer tension or flow that lies in the `mode` window at
    `bound` on the edges of `window` and is zero on the others."""
    free, dependent, _, cand, checks_at = _integral_walk(g, o, tensions, bound, mode, window)
    _charge(cand, tensions)
    if checks_at is None:
        return
    place = _placement(free, dependent)
    for vals, derived in _walk(cand, checks_at, len(dependent)):
        values = vals + derived
        yield IntegerEdgeFunction(tuple([values[k] for k in place]))



@memoised_in_run
def _support_walk(g: MultiGraph, tensions: bool, modulus: int, bound: int) -> Counter[int]:
    """The support counts {support mask: count} of the tensions (or
    flows) over Z_modulus or, with modulus 0, of the integer ones with
    |f| < bound everywhere, in the reference orientation (supports do
    not depend on it).  Charges nothing: the caller charges the
    enumeration that the counts stand for.

    `_walk` sets every free value but the last, each dependent edge at
    its level; the modular values are sums of residues, read as zero
    modulo the group.  The last free value x is counted, not walked:
    every edge that reads it (`_last_reads`) is zero at one point, x = u
    (modulo the group).  So each x adds one function to the support of
    the values set plus the edges that read x, less the edges that are
    zero at x.  Over Z_m x is any residue; in the box each edge that
    reads x confines it to [u - bound + 1, u + bound - 1].
    """
    o = Orientation.reference(g)
    if modulus:
        free, dependent, rows = _coordinates(g, o, tensions)
        box: list[Sequence[int]] = [range(modulus)] * len(free)
        checks_at: list | None = [[] for _ in free]
        for j, row in enumerate(rows):
            if row:  # every sum of the row's terms is admitted
                n = len(row) * (modulus - 1)
                checks_at[max(row)[0]].append((j, row, range(-n, n + 1)))
    else:
        free, dependent, _, box, checks_at = _integral_walk(g, o, tensions, bound, "box", None)
        if checks_at is None:
            return Counter()
    if not free:
        return Counter({0: 1})
    # a box value lies in (-bound, bound), so it is zero modulo 2 * bound
    # exactly when it is zero
    zero_mod = modulus or 2 * bound
    levels = [1 << e for e in free[:-1]]
    early = [(j, 1 << dependent[j]) for checks in checks_at[:-1] for j, _, _ in checks]
    reads = [(row, 1 << e) for _, row, e in _last_reads(free[-1], dependent, checks_at[-1])]
    reach = sum(bit for _, bit in reads)
    counts: dict[int, int] = {}
    for vals, derived in _walk(box[:-1], checks_at, len(dependent)):
        mask = reach
        for bit, v in zip(levels, vals):
            if v % zero_mod:
                mask |= bit
        for j, bit in early:
            if derived[j] % zero_mod:
                mask |= bit
        zeros: dict[int, int] = {}  # zero point -> the edges zero there
        for row, bit in reads:
            u = 0
            for i, a in row:
                u += a * vals[i]
            if modulus:
                u %= modulus
            zeros[u] = zeros.get(u, 0) | bit
        if modulus:
            lo, hi = 0, modulus - 1
        else:
            lo, hi = max(zeros) - bound + 1, min(zeros) + bound - 1
        n = hi - lo + 1
        for u, bits in zeros.items():
            if lo <= u <= hi:
                n -= 1
                counts[mask ^ bits] = counts.get(mask ^ bits, 0) + 1
        if n > 0:
            counts[mask] = counts.get(mask, 0) + n
    return Counter(counts)



def _or_product(a: Counter[int], b: Counter[int]) -> Counter[int]:
    """The support counts over A x B from those over A and over B: a
    function over the product is a pair, its support the union."""
    out: Counter[int] = Counter()
    for fm, x in a.items():
        for gm, y in b.items():
            out[fm | gm] += x * y
    return out



@memoised_in_run
def _modular_supports(g: MultiGraph, grp: FiniteAbelianGroup, tensions: bool) -> Counter[int]:
    """The support counts of the tensions (or flows) over grp, charged
    |grp|^rank (|grp|^nullity) states, each function one, before any
    walk: the OR-product of the counts over its cyclic factors."""
    free = rank_nullity(g)[not tensions]
    what = "tension enumeration" if tensions else "flow enumeration"
    check_state_space(grp.order**free, what)
    counts = Counter({0: 1})  # over the trivial group, and Z_1
    for m in grp.cyclic_orders:
        if m > 1:
            counts = _or_product(counts, _support_walk(g, tensions, m, 0))
    return counts



@memoised_in_run
def _integral_supports(g: MultiGraph, bound: int, tensions: bool) -> Counter[int]:
    """The support counts of the integer tensions (or flows) with
    |f| < bound everywhere, charged the box of their free values."""
    free = rank_nullity(g)[not tensions]
    _charge([_window_values(_WINDOWS["box"], bound)] * free, tensions)
    return _support_walk(g, tensions, 0, bound)



# (disjoint, cover, comp): the pairs whose supports are disjoint (supp f
# inside ker g) and those whose supports cover E (ker f inside supp g),
# each by (|ker f|, |supp g|), and the complementary pairs (both) by |ker f|
PairClasses = tuple[Counter[tuple[int, int]], Counter[tuple[int, int]], Counter[tuple[int]]]



def support_pair_classes(
    tension_masks: Iterable[int], flow_masks: Iterable[int], width: int
) -> PairClasses:
    """The pair classes of every pair of a tension and a flow on `width`
    edges, given the support masks of each; see `_pair_classes`.  The
    flow masks are read as the pass charges them, one state per pair of
    distinct supports as each new flow support arrives, so that a pass
    over the guard is refused before they are all read."""
    tensions = Counter(tension_masks)
    limit = state_guard()  # read once, not per support
    flows: Counter[int] = Counter()
    for mask in flow_masks:
        if mask not in flows and len(tensions) * (len(flows) + 1) > limit:
            check_state_space(len(tensions) * (len(flows) + 1), "support pair product")
        flows[mask] += 1
    return _pair_classes(tensions, flows, width)



def _pair_classes(tensions: Counter[int], flows: Counter[int], width: int) -> PairClasses:
    """A pair of supports stands for the product of their counts.  The
    pass charges one state per pair of distinct supports, in one step,
    and a refusal names the first multiple of the number of tension
    supports over the guard, the count at which a read of the flow
    supports one by one would stop."""
    limit = state_guard()
    distinct = len(tensions)
    if distinct * len(flows) > limit:
        check_state_space(distinct * (limit // distinct + 1), "support pair product")
    full = (1 << width) - 1
    sized = [(gm, b, gm.bit_count()) for gm, b in flows.items()]
    disjoint, cover, comp = Counter(), Counter(), Counter()
    for fm, a in tensions.items():
        kernel = full ^ fm
        k = kernel.bit_count()
        for gm, b, s in sized:
            if not fm & gm:  # supp g inside ker f
                disjoint[k, s] += a * b
                if gm == kernel:
                    cover[k, s] += a * b
                    comp[k,] += a * b
            elif gm & kernel == kernel:  # ker f inside supp g
                cover[k, s] += a * b
    return disjoint, cover, comp



def pair_support_classes(
    g: MultiGraph,
    grp_a: FiniteAbelianGroup,
    grp_b: FiniteAbelianGroup,
) -> PairClasses:
    """The pair classes of all (tension f over grp_a, flow g over grp_b)
    pairs.  The two support counts charge |grp_a|^rank and
    |grp_b|^nullity states, and the pass over them one state per pair of
    distinct supports.  Within a run each count is made once, for every
    pair of groups it takes part in."""
    tensions = _modular_supports(g, grp_a, True)
    return _pair_classes(tensions, _modular_supports(g, grp_b, False), g.edge_count)



def integral_support_classes(g: MultiGraph, p: int, q: int) -> PairClasses:
    """The pair classes of the integer pairs with |f| < p and |g| < q
    everywhere (zeros allowed).  Within a run each box is counted once,
    for every pair of bounds it takes part in."""
    tensions = _integral_supports(g, p, True)
    return _pair_classes(tensions, _integral_supports(g, q, False), g.edge_count)



def lattice_index(g: MultiGraph, o: Orientation) -> int:
    """Index of the direct sum (integral tensions + integral flows) in Z^E.

    Computed as |det| of the square matrix whose columns are the
    fundamental bond and circuit basis vectors, by fraction-free
    elimination.  Equals the number of maximal forests of the graph.
    """
    m = g.edge_count
    cols = []
    # the unit tension at a forest edge is its fundamental bond, and the
    # unit flow at a co-forest edge its fundamental circuit
    for tensions in (True, False):
        free, dependent, rows = _coordinates(g, o, tensions)
        for k, a in enumerate(free):
            col = [0] * m
            col[a] = 1
            for e, row in zip(dependent, rows):
                col[e] = sum(c for i, c in row if i == k)
            cols.append(col)
    # eliminated as rows: the transpose has the same determinant
    rank, _, last = _eliminate(cols, m)
    if rank < m:
        raise ArithmeticError("tension-flow lattice is not full rank")
    return abs(last)


# -- orientation classes ------------------------------------------------------


def all_orientations(g: MultiGraph) -> list[Orientation]:
    """Every orientation, in lexicographic flip order; loops stay False.
    Charges 2^E' states, E' the non-loop edge count."""
    non_loops = g.non_loop_ids()
    check_state_space(1 << len(non_loops), "orientation enumeration")
    out = []
    for bits in itertools.product((False, True), repeat=len(non_loops)):
        flips = [False] * g.edge_count
        for e, b in zip(non_loops, bits):
            flips[e] = b
        out.append(Orientation.for_graph(g, flips))
    return out



def cut_eulerian_classes_by_moves(g: MultiGraph) -> tuple[tuple[Orientation, ...], ...]:
    """The oracle of `cut_eulerian_classes`: the closure of the moves
    that reverse one directed circuit or one directed bond.  Each class
    is a member tuple in lexicographic flip order, and the classes come
    in the order of their least members.  The circuits and bonds of g
    are found once, each charging its own scan, and each orientation
    visited only filters them, so the up-front charge of 2^E' x 2^E
    states is an upper bound on the closure's work."""
    check_state_space((1 << len(g.non_loop_ids())) << g.edge_count, "orientation class closure")
    orientations = all_orientations(g)
    index = {o.flips: o for o in orientations}
    seen: set[tuple[bool, ...]] = set()
    classes: list[tuple[Orientation, ...]] = []
    loop_mask = 0
    for e in g.loop_ids():
        loop_mask |= 1 << e
    shores = [(bond, bond_side(g, bond)) for bond in bonds(g)]
    cycles = circuits(g)
    for start in orientations:
        if start.flips in seen:
            continue
        component = []
        stack = [start]
        seen.add(start.flips)
        while stack:
            cur = stack.pop()
            component.append(cur)
            moves = directed_circuits(g, cur, cycles) + directed_bonds(g, cur, shores)
            for subset in moves:
                # reversing a loop keeps the orientation: loops never flip
                flip_mask = subset.mask & ~loop_mask
                flips = tuple(
                    (not b) if flip_mask >> e & 1 else b for e, b in enumerate(cur.flips)
                )
                if flips not in seen:
                    seen.add(flips)
                    stack.append(index[flips])
        classes.append(tuple(sorted(component, key=lambda o: o.flips)))
    return tuple(classes)



def zero_one_pair_count(g: MultiGraph, o: Orientation) -> int:
    """Number of pairs (f, g): f a {0,1} tension, g a {0,1} flow with
    g = 0 on loops, and f(e) g(e) = 0 everywhere."""
    full = EdgeSubset.full(g.edge_count)
    non_loops = EdgeSubset.of(g.edge_count, g.non_loop_ids())
    tens = enumerate_integral_tensions(g, o, 1, "closed", window=full)
    flows = enumerate_integral_flows(g, o, 1, "closed", window=non_loops)
    disjoint, _, _ = support_pair_classes(
        (fn.support_mask() for fn in tens), (fn.support_mask() for fn in flows), g.edge_count
    )
    return sum(disjoint.values())



def class_size_check(g: MultiGraph, cls: OrientationClass) -> int:
    """Recompute the class size from 0-1 tension-flow pairs and compare
    with the member count; raises VerificationError on mismatch."""
    count = zero_one_pair_count(g, cls.representative)
    if count != cls.size:
        raise VerificationError(
            f"class of {cls.representative.flips} on {g.fingerprint()}: "
            f"0-1 pair count {count} != member count {cls.size}"
        )
    return count



def class_bc_profile(g: MultiGraph, members: Sequence[Orientation]) -> set[tuple[int, int]]:
    """Diagnostic: the set of (|B|, |C|) values across the members of
    one class of `cut_eulerian_classes_by_moves`."""
    profile = set()
    for member in members:
        b, c = classify_edges(g, member)
        profile.add((b.size, c.size))
    return profile


# -- polynomials and counts ---------------------------------------------------


# A minor in the deletion-contraction below is a flat tuple u1, v1, k1,
# u2, v2, k2, ... of parallel classes, sorted: k edges between vertices
# u < v, where the vertices that carry edges are renumbered 0, 1, 2, ...
# in their order.  Flat tuples keep the memo small, and the renumbering
# lets minors reached along different branches share one memo entry.
# The graph's loops come out up front as a power of y, and the k - 1
# loops left by contracting a class go into the recursion's coefficients.
Minor = tuple[int, ...]



def _minor(classes) -> Minor:
    """Minor of (a, b, k) triples: parallel classes merged, vertices
    renumbered in order."""
    mult: dict[tuple[int, int], int] = {}
    for a, b, k in classes:
        key = (a, b) if a < b else (b, a)
        mult[key] = mult.get(key, 0) + k
    rank = {v: i for i, v in enumerate(sorted({v for pair in mult for v in pair}))}
    return tuple(
        n for (u, v), k in sorted(mult.items()) for n in (rank[u], rank[v], k)
    )



def _contract_first(minor: Minor) -> Minor:
    """Contract the first class; its other k - 1 edges become loops, which
    the caller accounts for."""
    u, v = minor[0], minor[1]
    return _minor(
        (u if a == v else a, u if b == v else b, k)
        for a, b, k in zip(minor[3::3], minor[4::3], minor[5::3])
    )



def _first_class_on_cycle(minor: Minor) -> bool:
    """Whether the ends of the first class stay connected without it."""
    u, v = minor[0], minor[1]
    adj: dict[int, list[int]] = {}
    for a, b in zip(minor[3::3], minor[4::3]):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {u}
    stack = [u]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False



@memoised_in_run
def _tutte_recursion(g: MultiGraph) -> MultiPoly:
    """Tutte polynomial by deletion-contraction of whole parallel classes.

    For a class of k edges, T(G) = T(G - P) + (1 + y + ... + y^(k-1)) T(G / P)
    when its ends stay connected without it, and (x + y + ... + y^(k-1))
    T(G / P) when it is a bridge class.  Minors are memoised for this call
    only, and each one is charged its classes plus the terms of its
    polynomial against the state guard, which so bounds both the time and
    the memo's memory.  An explicit stack keeps deep minors off the
    interpreter's call stack.
    """
    limit = state_guard()
    loops = len(g.loop_ids())
    root = _minor((t, h, 1) for t, h in g.edges if t != h)
    # the term x^i y^j is keyed i * stride + j: y-degrees stay below stride
    stride = g.edge_count + 1
    # finished polynomials as (keys, coefficients): two tuples are a
    # fraction of the memory of a dict
    memo: dict[Minor, tuple[tuple[int, ...], tuple[int, ...]]] = {(): ((0,), (1,))}
    spent = 0
    # (minor, None) asks for a minor; (minor, (deleted, contracted)) comes
    # back up once both are in the memo (deleted is None for a bridge class)
    stack: list[tuple[Minor, tuple[Minor | None, Minor] | None]] = [(root, None)]
    while stack:
        minor, plan = stack.pop()
        if minor in memo:
            continue
        if plan is None:
            deleted = (
                _minor(zip(minor[3::3], minor[4::3], minor[5::3]))
                if _first_class_on_cycle(minor)
                else None
            )
            plan = (deleted, _contract_first(minor))
            stack.append((minor, plan))
            stack.extend((m, None) for m in plan if m is not None and m not in memo)
            continue
        deleted, contracted = plan
        k = minor[2]
        terms = dict(zip(*memo[deleted])) if deleted is not None else {}
        lead = 0 if deleted is not None else stride
        for key, c in zip(*memo[contracted]):
            terms[key + lead] = terms.get(key + lead, 0) + c
            for s in range(1, k):
                terms[key + s] = terms.get(key + s, 0) + c
        memo[minor] = (tuple(terms), tuple(terms.values()))
        spent += len(minor) // 3 + len(terms)
        if spent > limit:
            check_state_space(spent, "Tutte deletion-contraction")
    return MultiPoly(
        ("x", "y"),
        {(key // stride, key % stride + loops): c for key, c in zip(*memo[root])},
    )



@memoised_in_run
def whitney_by_subsets(g: MultiGraph) -> MultiPoly:
    """Corank-nullity generating function summed over all edge subsets;
    the oracle for `whitney`, and for `tutte` once shifted to x - 1, y - 1."""
    table = subset_rank_table(g)
    r = table[(1 << g.edge_count) - 1]
    terms: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.edge_count):
        size = mask.bit_count()
        key = (r - table[mask], size - table[mask])
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(("x", "y"), terms)



@memoised_in_run
def omega_by_subsets(g: MultiGraph) -> MultiPoly:
    """The signed expansion of `omega` summed over all edge subsets; the
    oracle for `omega`."""
    table = subset_rank_table(g)
    m = g.edge_count
    full = (1 << m) - 1
    r = table[full]
    terms: dict[tuple[int, int], int] = {}
    for mask in range(1 << m):
        comp = full ^ mask
        key = (r - table[mask], comp.bit_count() - table[comp])
        sign = -1 if mask.bit_count() & 1 else 1
        terms[key] = terms.get(key, 0) + sign
    return MultiPoly(("x", "y"), terms)



def omega_value(
    g: MultiGraph,
    grp_a: FiniteAbelianGroup,
    grp_b: FiniteAbelianGroup,
) -> int:
    """Brute count of nowhere-zero (tension over grp_a, flow over grp_b)
    pairs, those whose supports cover E; depends only on the group
    orders."""
    _, cover, _ = pair_support_classes(g, grp_a, grp_b)
    return sum(cover.values())



def modular_complementary_count(g: MultiGraph, p: int, q: int) -> int:
    _, _, comp = pair_support_classes(g, FiniteAbelianGroup.cyclic(p), FiniteAbelianGroup.cyclic(q))
    return sum(comp.values())



def integral_complementary_count(g: MultiGraph, p: int, q: int) -> int:
    _, _, comp = integral_support_classes(g, p, q)
    return sum(comp.values())



# the only flow (tension) over the trivial group Z_1 is 0, so the pairs
# covering E with it are the nowhere-zero tensions (flows) alone
Z1 = FiniteAbelianGroup.cyclic(1)



def tension_poly_by_enumeration(g: MultiGraph, var: str = "t") -> MultiPoly:
    """Nowhere-zero tension polynomial interpolated from brute counts over
    Z_q; the oracle for `tension_poly`."""
    r, _ = rank_nullity(g)
    samples = [
        (q, omega_value(g, FiniteAbelianGroup.cyclic(q), Z1)) for q in range(1, r + 4)
    ]
    return interpolate_univariate(samples, r, var)



def flow_poly_by_enumeration(g: MultiGraph, var: str = "t") -> MultiPoly:
    """Nowhere-zero flow polynomial interpolated from brute counts over
    Z_q; the oracle for `flow_poly`."""
    _, n = rank_nullity(g)
    samples = [
        (q, omega_value(g, Z1, FiniteAbelianGroup.cyclic(q))) for q in range(1, n + 4)
    ]
    return interpolate_univariate(samples, n, var)



@memoised_in_run
def kappa_rho(g: MultiGraph, o: Orientation, mode: str = "open") -> MultiPoly:
    """Product of the tension window polynomial in x and the flow window
    polynomial in y for orientation o.

    open:   f = 0 on C, 0 < f < x on B;   g = 0 on B, 0 < g < y on C.
    closed: f = 0 on C, 0 <= f <= x on B; g = 0 on B, 0 <= g <= y on C.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"unknown mode {mode!r}")
    b, c = classify_edges(g, o)
    return _kappa(g, o, b, c, mode)



def _kappa(g: MultiGraph, o: Orientation, b: EdgeSubset, c: EdgeSubset, mode: str) -> MultiPoly:
    """`kappa_rho` from o's bond part b and circuit part c."""
    r, n = rank_nullity(g)
    return _window_poly(g, o, True, r, mode, b, "x") * _window_poly(g, o, False, n, mode, c, "y")



# one orientation's part of the walk: (o, |B|, |C|, open kappa, closed kappa)
OrientationKappas = tuple[Orientation, int, int, MultiPoly, MultiPoly]



@memoised_in_run
def orientation_sums(g: MultiGraph) -> tuple[dict[str, MultiPoly], tuple[OrientationKappas, ...]]:
    """One walk over the orientations: each is classified once and its
    open and closed kappa fitted once.  Returns the four psi kinds by
    name and, in lexicographic flip order, every orientation's
    (o, |B|, |C|, open kappa, closed kappa).

    psi / bar_psi sum z^|B| w^|C| times the open / closed kappa over one
    representative per cut-Eulerian class; psi_z / bar_psi_z over all
    orientations, times 2 per loop (see the module docstring).
    """
    classes = cut_eulerian_classes(g)
    kappas = []
    for o in all_orientations(g):
        b, c = classify_edges(g, o)
        open_kappa = _kappa(g, o, b, c, "open")
        kappas.append((o, b.size, c.size, open_kappa, _kappa(g, o, b, c, "closed")))
    by_flips = {k[0].flips: k for k in kappas}
    reps = [by_flips[cls.representative.flips] for cls in classes]
    sums = {}
    for which, members, multiplier in (
        ("psi", reps, 1),
        ("psi_z", kappas, 2 ** len(g.loop_ids())),
    ):
        open_terms: dict = {}
        closed_terms: dict = {}
        for _, b_size, c_size, open_kappa, closed_kappa in members:
            for terms, kappa in ((open_terms, open_kappa), (closed_terms, closed_kappa)):
                for (i, j), a in _exponents(kappa, ("x", "y")).items():
                    key = (i, j, b_size, c_size)
                    terms[key] = terms.get(key, 0) + multiplier * a
        sums[which] = MultiPoly(("x", "y", "z", "w"), open_terms)
        sums["bar_" + which] = MultiPoly(("x", "y", "z", "w"), closed_terms)
    return sums, tuple(kappas)



def psi_by_orientations(g: MultiGraph, which: str = "psi_z") -> MultiPoly:
    """Weighted orientation sums of kappa window polynomials, in
    variables (x, y, z, w), read from `orientation_sums`; the oracle for
    `psi_family`.  Outside a run scope nothing is kept between calls, so
    each call walks the orientations for all four kinds: read several
    kinds from one `orientation_sums` call instead."""
    if which not in PSI_KINDS:
        raise ValueError(f"unknown psi kind {which!r}")
    return orientation_sums(g)[0][which]



def psi_by_cyclic_flats(g: MultiGraph) -> MultiPoly:
    """The modular psi as the convolution over cyclic flats X of
    z^|E - X| w^|X| tau(G/X; x) phi(G|X; y), over the whole graph; the
    oracle for the frontier sum of `psi_family`."""
    return _cyclic_flat_convolutions([g], tension_poly, flow_poly)[0]



def tutte_value_triples(g: MultiGraph, p: int, q: int, quadrant: str = "++") -> int:
    """Signed count of (class representative, windowed tension, windowed
    flow) triples reproducing T(G; +-p, +-q); the oracle for
    `tutte_value`, checked by criterion 3.

    Windows per quadrant, with B and C the bond and circuit parts of
    the representative:
      ++: 0 <= f < p everywhere;        0 <= g < q everywhere
      -+: f = 0 on C, 0 < f <= p on B;  0 <= g < q; sign (-1)^(r - r<C>)
      +-: 0 <= f < p;  g = 0 on B, 0 < g <= q on C; sign (-1)^(n<C>)
      --: both one-sided windows;       sign (-1)^(r + |C|)
    """
    _check_quadrant(p, q, quadrant)
    r, _ = rank_nullity(g)
    total = 0
    full = EdgeSubset.full(g.edge_count)
    for cls in cut_eulerian_classes(g):
        o = cls.representative
        b, c = cls.b, cls.c
        if quadrant[0] == "+":
            tens = integral_window_counts(g, o, True, p - 1, "closed", full)[-1]
        else:
            # 0 < f <= p on B is the open window at bound p + 1
            tens = integral_window_counts(g, o, True, p + 1, "open", b)[-1]
        if quadrant[1] == "+":
            flows = integral_window_counts(g, o, False, q - 1, "closed", full)[-1]
        else:
            flows = integral_window_counts(g, o, False, q + 1, "open", c)[-1]
        sign = 1
        if quadrant == "-+":
            rc, _ = rank_nullity(g, c)
            sign = -1 if (r - rc) & 1 else 1
        elif quadrant == "+-":
            _, nc = rank_nullity(g, c)
            sign = -1 if nc & 1 else 1
        elif quadrant == "--":
            sign = -1 if (r + cls.c_size) & 1 else 1
        total += sign * tens * flows
    return total



def whitney_weighted_sums(g: MultiGraph, p: int, q: int) -> tuple[int, int]:
    """(weighted disjoint-support sum, signed complementary sum):

    * sum of 2^(|ker f| - |supp g|) over pairs with supp g inside ker f,
      which reproduces the Whitney polynomial at (p, q);
    * (-1)^r times the sum of (-1)^|supp g| over complementary pairs,
      which reproduces it at (-p, -q).
    """
    disjoint, _, comp = pair_support_classes(
        g, FiniteAbelianGroup.cyclic(p), FiniteAbelianGroup.cyclic(q)
    )
    r, _ = rank_nullity(g)
    disjoint_sum = sum(cnt * 2 ** (k - s) for (k, s), cnt in disjoint.items())
    signed_sum = sum(-cnt if (k + r) & 1 else cnt for (k,), cnt in comp.items())
    return disjoint_sum, signed_sum


# -- graphic arrangement ------------------------------------------------------


def graphic_flat_dims(g: MultiGraph, x: EdgeSubset) -> tuple[int, int]:
    """(dim of tensions vanishing on X, dim of flows vanishing on X),
    over the rationals, via ranks of incidence submatrices.  An oracle
    for `subset_flat_dims`, which the arrangement route reads."""
    o = Orientation.reference(g)
    inc = incidence_matrix(g, o)
    full_rank = rational_rank(inc)

    def rank_of(cols: Sequence[int]) -> int:
        if not cols:
            return 0
        return rational_rank([[row[c] for c in cols] for row in inc])

    dim_t = full_rank - rank_of(x.members())
    comp = x.complement().members()
    dim_f = len(comp) - rank_of(comp)
    return dim_t, dim_f
