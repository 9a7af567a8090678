"""Frontier (transfer-matrix) sums over edge subsets.

The edges are taken one at a time in a fixed order.  After each edge,
the sum over the subsets of the edges taken so far is kept grouped by
state: the partition that the chosen edges induce on the frontier, the
vertices seen so far that still have an edge to come.  A vertex leaves
the frontier with its last edge, so the number of states grows with the
frontier's width, not with 2^E.  This is the transfer matrix of Sekine,
Imai and Tani, "Computing the Tutte polynomial of a graph of moderate
size" (ISAAC 1995), and of Bedini and Jacobsen, J. Phys. A 43 (2010)
385001.

* Whitney's R(G;x,y) = sum over X of x^(r - r<X>) y^(n<X>) needs one
  partition, that of X: each edge is left out, or joins X.
* omega(G;x,y) = sum over X of (-1)^|X| x^(r - r<X>) y^(n<E - X>) needs
  two, of X and of E - X: each edge joins one of them.
* The modular psi(G;x,y,z,w) = sum over A within U of w^|A|
  (-(w + z))^|U - A| z^|E - U| x^(r - r<U>) y^(n<A>) needs two nested
  ones, of U and of A: each edge is left out of U, joins U only, or
  joins both.  This is the convolution over cyclic flats X of
  z^|E - X| w^|X| tau(G/X; x) phi(G|X; y) with tau and phi expanded
  over subsets (U contains X, A lies within X) and summed over every X,
  as tau(G/X) phi(G|X) = 0 unless X is a cyclic flat.

One driver (`_frontier`) takes the edges in order, keeps the frontier,
moves each distinct partition of a layer once, and charges each layer
against the state guard.  What a state carries is the client's:

* the term client (`_frontier_sum`) carries a dict of integer terms
  keyed by counters packed into one int, such as rank * stride +
  nullity, the packing the Tutte recursion uses.  A layer is charged
  its states plus their terms;
* the int client (`_frontier_value`) carries the sum's value at one
  point, for `tutte_value` and `omega --p --q`.  x^(r - r<X>) is
  x^(k(X) - c): a factor x for each block of X's partition that retires
  (has no vertex left on the frontier), but the last of each component
  of G; y^(n) is a factor y per closed cycle.  Nothing is divided, so
  x = 0 and y = 0 work.  A layer is charged its states.

Edge order decides the width, so the order is greedy (`edge_order`).
Every layer of states is charged as it is made, summed over the layers.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from .config import check_state_space, memoised_in_run, state_guard
from .graph import MultiGraph, rank_nullity

# What an edge does in one branch of a term sum: for each partition it
# joins, (partition, key shift when it joins two blocks, key shift when
# it closes a cycle); then a key shift it always adds, and the sign it
# gives the terms.
Role = tuple[tuple[tuple[int, int, int], ...], int, int]
# The same at a point: for each partition it joins, (partition, factor
# when it closes a cycle); then the factor it always multiplies by.
PointRole = tuple[tuple[tuple[int, int], ...], int]


def edge_order(g: MultiGraph) -> list[int]:
    """Greedy minimum-frontier order: next comes the edge that brings
    the fewest new vertices into the frontier, then the one whose ends
    have the fewest other edges still to come (the most vertices
    retired), then the lowest id."""
    left = [0] * g.vertex_count  # edges still to come at each vertex
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e, ends in enumerate(g.edges):
        for v in set(ends):
            left[v] += 1
            incident[v].append(e)
    seen = [False] * g.vertex_count
    done = [False] * g.edge_count

    def score(e: int) -> tuple[int, int, int]:
        t, h = g.edges[e]
        if t == h:
            return (not seen[t], -(left[t] == 1), e)
        return (2 - seen[t] - seen[h], -((left[t] == 1) + (left[h] == 1)), e)

    # with the frontier empty, no edge left touches a vertex seen so far,
    # so each edge's score is still the one it has now
    starts = iter(sorted(range(g.edge_count), key=score))
    # the scores of the edges at the frontier, the vertices seen with
    # edges left.  A score only falls, when an end is first seen or comes
    # down to one edge left, and is pushed again then, so an edge's
    # older entries come out after it is done
    heap: list[tuple[int, int, int]] = []
    order = []
    for _ in range(g.edge_count):
        while heap and done[heap[0][2]]:
            heappop(heap)
        best = heappop(heap)[2] if heap else next(e for e in starts if not done[e])
        done[best] = True
        order.append(best)
        for v in set(g.edges[best]):
            left[v] -= 1
            if not seen[v] or left[v] == 1:
                seen[v] = True
                for e in incident[v]:
                    if not done[e]:
                        heappush(heap, score(e))
    return order


def _merged(p: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Canonical p with blocks a and b made one.  Block b's label goes
    and every label above it moves down by one, so each block keeps the
    place of its first vertex and the result stays canonical."""
    if a > b:
        a, b = b, a
    return tuple([a if x == b else x - 1 if x > b else x for x in p])


def _moves(
    p: tuple[int, ...], fresh: int, pu: int, pv: int, keep: Sequence[int] | None
) -> tuple[tuple[int, ...], tuple[int, ...] | None, int, int]:
    """Partition p after the edge at positions pu, pv: left out, and
    joined (None when its ends are in one block already), each over the
    kept positions, then how many blocks retire with each (have no kept
    vertex).  keep is None when every vertex stays.  The fresh vertices
    come in as singletons; canonical labels run 0, 1, ..., so the next
    free one is max + 1.  When the frontier empties, a component of G is
    done (`edge_order` takes them one at a time), and its last block is
    not counted."""
    if fresh:
        top = max(p, default=-1) + 1
        p += tuple(range(top, top + fresh))
    a, b = p[pu], p[pv]
    if keep is None:
        if a == b:
            return p, None, 0, 0
        return p, _merged(p, a, b), 0, 0
    labels: dict[int, int] = {}
    kept = tuple([labels.setdefault(p[i], len(labels)) for i in keep])
    gone = max(p) + 1 - len(labels) - (not keep)
    if a == b:
        return kept, None, gone, gone
    a, b = labels.get(a), labels.get(b)
    if a is None or b is None:
        # a retiring block joins one that stays, or the two retire as one
        return kept, kept, gone, gone - 1
    return kept, _merged(kept, a, b), gone, gone


class _Moves(dict):
    """One layer's moves, keyed by partition: each distinct partition
    moves once, when a state first asks for it."""

    __slots__ = ("edge",)

    def __init__(self, fresh: int, pu: int, pv: int, keep: Sequence[int] | None):
        self.edge = (fresh, pu, pv, keep)

    def __missing__(self, p: tuple[int, ...]):
        m = self[p] = _moves(p, *self.edge)
        return m


def _frontier(g: MultiGraph, partitions: int, start, step, what: str):
    """The driver of every frontier sum, over one partition or two.  It
    takes the edges in `edge_order`, keeps the frontier's vertices,
    moves each distinct partition of a layer once, and hands the layer
    to the client's `step`, as (value, moves, kept forms) per state.
    `step` returns the next layer and what it is charged, and the
    charges are summed against the state guard.  A state maps to what
    the client carries, start at first; at the end one state is left,
    and its value is returned."""
    limit = state_guard()
    left = [0] * g.vertex_count
    for ends in g.edges:
        for v in set(ends):
            left[v] += 1
    front: list[int] = []  # the frontier's vertices, in the states' order
    layer = {((),) * partitions: start}
    spent = 0
    for e in edge_order(g):
        u, v = g.edges[e]
        fresh = [w for w in dict.fromkeys((u, v)) if w not in front]
        front.extend(fresh)
        pu, pv = front.index(u), front.index(v)
        for w in {u, v}:
            left[w] -= 1
        keep: list[int] | None = [i for i, w in enumerate(front) if left[w]]
        if len(keep) < len(front):
            front = [front[i] for i in keep]
        else:
            keep = None
        layer, size = step(_moved(layer, _Moves(len(fresh), pu, pv, keep)))
        spent += size
        if spent > limit:
            check_state_space(spent, what)
    # every vertex has left the frontier: one state, the empty partitions
    [value] = layer.values()
    return value


def _moved(layer: dict, moves: _Moves):
    """Each state's value, its partitions' moves and their kept forms."""
    for state, value in layer.items():
        if len(state) == 1:
            m = moves[state[0]]
            yield value, (m,), (m[0],)
        else:
            p, q = state
            m, n = moves[p], moves[q]
            yield value, (m, n), (m[0], n[0])


def _replaced(kept: tuple, which: int, joined: tuple[int, ...]) -> tuple:
    """kept with partition `which` (of one or two) joined."""
    if len(kept) == 1:
        return (joined,)
    return (joined, kept[1]) if which == 0 else (kept[0], joined)


def _frontier_sum(
    g: MultiGraph, partitions: int, roles: Sequence[Role], what: str
) -> dict[int, int]:
    """The term client: sum over the role of every edge, the terms keyed
    by the summed shifts, with the product of the signs as coefficients.
    Each layer is charged its states plus their terms."""

    def step(states):
        nxt: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {}
        for terms, moved, kept in states:
            for joins, shift, sign in roles:
                target = kept
                for which, join, close in joins:
                    joined = moved[which][1]
                    if joined is None:
                        shift += close
                    else:
                        target = _replaced(target, which, joined)
                        shift += join
                into = nxt.get(target)
                if into is None:
                    if sign < 0:
                        nxt[target] = {k + shift: -c for k, c in terms.items()}
                    elif shift:
                        nxt[target] = {k + shift: c for k, c in terms.items()}
                    else:
                        nxt[target] = terms.copy()
                elif sign < 0:
                    for k, c in terms.items():
                        k += shift
                        into[k] = into.get(k, 0) - c
                else:
                    for k, c in terms.items():
                        k += shift
                        into[k] = into.get(k, 0) + c
        return nxt, len(nxt) + sum(map(len, nxt.values()))

    return _frontier(g, partitions, {0: 1}, step, what)


def _frontier_value(
    g: MultiGraph, partitions: int, roles: Sequence[PointRole], x: int, what: str
) -> int:
    """The int client: the same kind of sum at one point, one int per
    state.  A role multiplies by its factor and by the close factor of
    each partition whose cycle the edge closes, and each block of
    partition 0 that retires multiplies by x.  Nothing is divided, so x
    or a factor may be 0.  Each layer is charged its states."""

    def step(states):
        nxt: dict[tuple[tuple[int, ...], ...], int] = {}
        for value, moved, kept in states:
            for joins, factor in roles:
                target, gone, v = kept, moved[0][2], value * factor
                for which, close in joins:
                    m = moved[which]
                    if m[1] is None:
                        v *= close
                    else:
                        target = _replaced(target, which, m[1])
                        if which == 0:
                            gone = m[3]
                if gone:
                    v *= x**gone
                nxt[target] = nxt.get(target, 0) + v
        return nxt, len(nxt)

    return _frontier(g, partitions, 1, step, what)


@memoised_in_run
def whitney_terms(g: MultiGraph) -> dict[tuple[int, int], int]:
    """The terms of Whitney's corank-nullity polynomial R(G;x,y), as
    {(r - r<X>, n<X>): number of subsets X}.  Within a run scope the
    tension, flow, chromatic, Tutte and Whitney polynomials of a graph
    all read one dict, so no caller may change it."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)
    roles = (((), 0, 1), (((0, stride, 1),), 0, 1))
    terms = _frontier_sum(g, 1, roles, "Whitney frontier sum")
    return {(r - k // stride, k % stride): c for k, c in terms.items()}


def omega_terms(g: MultiGraph) -> dict[tuple[int, int], int]:
    """The terms of omega(G;x,y), as {(r - r<X>, n<E - X>): signed
    count of the subsets X}; cancelled terms are dropped."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)
    roles = ((((0, stride, 0),), 0, -1), (((1, 0, 1),), 0, 1))
    terms = _frontier_sum(g, 2, roles, "omega frontier sum")
    return {(r - k // stride, k % stride): c for k, c in terms.items() if c}


def whitney_at(g: MultiGraph, x: int, y: int) -> int:
    """R(G; x, y) from one int per state.  x^(r - r<X>) is x^(k(X) - c),
    a factor x for each block of X that retires but the last of each
    component of G; y^(n<X>) is a factor y for each edge of X that
    closes a cycle."""
    roles = (((), 1), (((0, y),), 1))
    return _frontier_value(g, 1, roles, x, "Whitney frontier value")


def omega_at(g: MultiGraph, x: int, y: int) -> int:
    """omega(G; x, y) from one int per state: x per block of X that
    retires, as in `whitney_at`, y per edge of E - X that closes a
    cycle, and -1 per edge of X."""
    roles = ((((0, 1),), -1), (((1, y),), 1))
    return _frontier_value(g, 2, roles, x, "omega frontier value")


def psi_terms(g: MultiGraph) -> dict[tuple[int, int, int, int], int]:
    """The terms of the modular psi(G;x,y,z,w), as {(i, j, k, l):
    coefficient of x^i y^j z^k w^l}; cancelled terms are dropped.

    Partition 0 is that of U, partition 1 that of A, within U.  The key
    packs r<U>, n<A>, |A| and |U - A|, in that order, stride E + 1;
    (-(w + z))^|U - A| is expanded by the binomial theorem at the end,
    in integers rather than by `MultiPoly.substitute`, as the step runs
    on every key of the sum, from one row of binomials per exponent.
    A loop adds z - (w + z) + wy = w(y - 1) over its three roles, so
    the loops are factored out: the sum runs on the rest, and its terms
    are multiplied by (w(y - 1))^L.
    """
    loops = len(g.loop_ids())
    if loops:
        rest = MultiGraph(g.vertex_count, tuple(g.edges[e] for e in g.non_loop_ids()))
        out: dict[tuple[int, int, int, int], int] = {}
        row = _pascal_row(loops)
        for exps, c in psi_terms(rest).items():
            for y, binomial in enumerate(row):
                step = binomial * c
                key = (exps[0], exps[1] + y, exps[2], exps[3] + loops)
                out[key] = out.get(key, 0) + (-step if (loops - y) & 1 else step)
        return {exps: c for exps, c in out.items() if c}
    m = g.edge_count
    stride = m + 1
    rank_step = stride**3
    r, _ = rank_nullity(g)
    roles = (
        ((), 0, 1),  # out of U: z
        (((0, rank_step, 0),), 1, 1),  # in U - A: -(w + z)
        (((0, rank_step, 0), (1, 0, stride**2)), stride, 1),  # in A: w
    )
    out = {}
    rows: dict[int, list[int]] = {}
    for key, c in _frontier_sum(g, 2, roles, "psi frontier sum").items():
        key, b = divmod(key, stride)
        key, a = divmod(key, stride)
        rank, nullity = divmod(key, stride)
        if b & 1:
            c = -c
        for j, binomial in enumerate(rows.get(b) or rows.setdefault(b, _pascal_row(b))):
            exps = (r - rank, nullity, m - a - j, a + j)
            out[exps] = out.get(exps, 0) + binomial * c
    return {exps: c for exps, c in out.items() if c}


def _pascal_row(n: int) -> list[int]:
    """C(n, 0), C(n, 1), ..., C(n, n), each from the one before."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row
