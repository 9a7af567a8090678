"""Frontier (transfer-matrix) sums over edge subsets.

The edges are taken one at a time in a fixed order.  After each edge,
the sum over the subsets of the edges taken so far is kept grouped by
state: the partition that the chosen edges induce on the frontier, the
vertices seen so far that still have an edge to come.  A vertex leaves
the frontier with its last edge, so the number of states grows with the
frontier's width, not with 2^E.  Each state carries a dict of integer
terms keyed by counters packed into one int, such as rank * stride +
nullity, the packing the Tutte recursion uses.  This is the transfer
matrix of Sekine, Imai and Tani, "Computing the Tutte polynomial of a
graph of moderate size" (ISAAC 1995), and of Bedini and Jacobsen,
J. Phys. A 43 (2010) 385001.

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

Edge order decides the width, so the order is greedy (`edge_order`).
Every layer of states is charged, as it is made, its states plus their
terms against the state guard, summed over the layers.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from .config import check_state_space, memoised_in_run, state_guard
from .graph import MultiGraph, rank_nullity

# What an edge does in one branch of the sum: for each partition it
# joins, (partition, key shift when it joins two blocks, key shift when
# it closes a cycle); then a key shift it always adds, and the sign it
# gives the terms.
Role = tuple[tuple[tuple[int, int, int], ...], int, int]


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


def _relabelled(labels: Sequence[int], keep: Sequence[int]) -> tuple[int, ...]:
    """The block labels at the kept positions, renumbered in order of
    first occurrence: the canonical form of a partition."""
    fresh: dict[int, int] = {}
    return tuple([fresh.setdefault(labels[i], len(fresh)) for i in keep])


def _moves(
    p: tuple[int, ...], fresh: int, pu: int, pv: int, keep: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """Partition p after the edge at positions pu, pv: left out, and
    joined (None when its ends are in one block already), each over
    the kept positions.  The fresh vertices come in as singletons;
    canonical labels run 0, 1, ..., so the next free one is max + 1."""
    top = max(p, default=-1) + 1
    p += tuple(range(top, top + fresh))
    a, b = p[pu], p[pv]
    if len(keep) < len(p):  # a vertex retires: renumber what is kept
        if a == b:
            return _relabelled(p, keep), None
        return _relabelled(p, keep), _relabelled([a if x == b else x for x in p], keep)
    # with no vertex retired, p stays canonical, and so does p with block
    # b > a merged into a and each label above b moved down by one: every
    # block keeps the place of its first vertex
    if a == b:
        return p, None
    if a > b:
        a, b = b, a
    return p, tuple([a if x == b else x - 1 if x > b else x for x in p])


def _frontier_sum(
    g: MultiGraph, partitions: int, roles: Sequence[Role], what: str, guard: int | None
) -> dict[int, int]:
    """Sum over the role of every edge, in `edge_order`: the terms
    keyed by the summed shifts, with the product of the signs as
    coefficients."""
    limit = state_guard(guard)
    left = [0] * g.vertex_count
    for ends in g.edges:
        for v in set(ends):
            left[v] += 1
    front: list[int] = []  # the frontier's vertices, in the states' order
    layer: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {((),) * partitions: {0: 1}}
    spent = 0
    for e in edge_order(g):
        u, v = g.edges[e]
        fresh = [w for w in dict.fromkeys((u, v)) if w not in front]
        front.extend(fresh)
        pu, pv = front.index(u), front.index(v)
        for w in {u, v}:
            left[w] -= 1
        keep = [i for i, w in enumerate(front) if left[w]]
        front = [front[i] for i in keep]
        # states of two partitions share each one with many others
        moves: dict[tuple[int, ...], tuple] = {}
        nxt: dict[tuple[tuple[int, ...], ...], dict[int, int]] = {}
        for state, terms in layer.items():
            moved = []
            for p in state:
                m = moves.get(p)
                if m is None:
                    m = moves[p] = _moves(p, len(fresh), pu, pv, keep)
                moved.append(m)
            kept = tuple(m[0] for m in moved)
            for joins, shift, sign in roles:
                target = kept
                for which, join, close in joins:
                    joined = moved[which][1]
                    if joined is None:
                        shift += close
                    else:
                        target = target[:which] + (joined,) + target[which + 1 :]
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
        layer = nxt
        spent += len(layer) + sum(len(terms) for terms in layer.values())
        if spent > limit:
            check_state_space(spent, guard, what)
    # every vertex has left the frontier: one state, the empty partitions
    [terms] = layer.values()
    return terms


@memoised_in_run
def whitney_terms(g: MultiGraph, guard: int | None = None) -> dict[tuple[int, int], int]:
    """The terms of Whitney's corank-nullity polynomial R(G;x,y), as
    {(r - r<X>, n<X>): number of subsets X}.  Within a run scope the
    tension, flow, chromatic, Tutte and Whitney polynomials of a graph
    all read one dict, so no caller may change it."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)
    roles = (((), 0, 1), (((0, stride, 1),), 0, 1))
    terms = _frontier_sum(g, 1, roles, "Whitney frontier sum", guard)
    return {(r - k // stride, k % stride): c for k, c in terms.items()}


def omega_terms(g: MultiGraph, guard: int | None = None) -> dict[tuple[int, int], int]:
    """The terms of omega(G;x,y), as {(r - r<X>, n<E - X>): signed
    count of the subsets X}; cancelled terms are dropped."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)
    roles = ((((0, stride, 0),), 0, -1), (((1, 0, 1),), 0, 1))
    terms = _frontier_sum(g, 2, roles, "omega frontier sum", guard)
    return {(r - k // stride, k % stride): c for k, c in terms.items() if c}


def psi_terms(g: MultiGraph, guard: int | None = None) -> dict[tuple[int, int, int, int], int]:
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
        for exps, c in psi_terms(rest, guard).items():
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
    for key, c in _frontier_sum(g, 2, roles, "psi frontier sum", guard).items():
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
