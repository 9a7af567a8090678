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

One driver (`_frontier`) takes the edges in order, keeps the frontier
and charges each layer against the state guard.  Each sum is one layer
step, called once per edge with the layer and the edge's move of a
partition (`_moves`), that writes out what the edge does in each
branch.  A Whitney state is the bare partition of X; an omega or psi
state is a pair of partitions, each distinct one moved once a layer.
What a state carries:

* terms (`whitney_terms`, `omega_terms`, `_psi_sum`): a dict of integer
  terms keyed by counters packed into one int, such as rank * stride +
  nullity, the packing the Tutte recursion uses.  A layer is charged
  its states plus their terms;
* the sum's value at one point (`whitney_at`, `omega_at`), one int, for
  `tutte_value` and `omega --p --q`.  x^(r - r<X>) is x^(k(X) - c): a
  factor x for each block of X's partition that retires (has no vertex
  left on the frontier), but the last of each component of G; y^(n) is
  a factor y per closed cycle.  Nothing is divided, so x = 0 and y = 0
  work.  A layer is charged its states.

Edge order decides the width, so the order is greedy (`edge_order`).
Every layer of states is charged as it is made, summed over the layers.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from .config import check_state_space, memoised_in_run, state_guard
from .graph import MultiGraph, rank_nullity


def edge_order(g: MultiGraph) -> list[int]:
    """Greedy minimum-frontier order: next comes the edge that brings
    the fewest new vertices into the frontier, then the one whose ends
    have the fewest other edges still to come (the most vertices
    retired), then the lowest id."""
    return _ordered(g)[0]


def _ordered(g: MultiGraph) -> tuple[list[int], list[int]]:
    """`edge_order`, and each vertex's number of edges (a loop once)."""
    degrees = [0] * g.vertex_count
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e, ends in enumerate(g.edges):
        for v in set(ends):
            degrees[v] += 1
            incident[v].append(e)
    left = degrees.copy()  # edges still to come at each vertex
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
    return order, degrees


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


def _frontier(g: MultiGraph, start: dict, step, what: str):
    """The driver of every frontier sum: for each edge, in `edge_order`,
    `step(layer, move)` returns the next layer and its charge, where
    `move(p)` is `_moves` of partition p for that edge.  The charges are
    summed against the state guard.  A layer maps each state to what its
    sum carries, `start` at first; what the one state left at the end
    carries is returned."""
    limit = state_guard()
    order, left = _ordered(g)
    front: list[int] = []  # the frontier's vertices, in the states' order
    layer = start
    spent = 0

    def move(p: tuple[int, ...]):
        return _moves(p, fresh, pu, pv, keep)

    for e in order:
        u, v = g.edges[e]
        width = len(front)
        if u not in front:
            front.append(u)
        if v not in front:
            front.append(v)
        fresh = len(front) - width
        pu, pv = front.index(u), front.index(v)
        left[u] -= 1
        if v != u:
            left[v] -= 1
        keep: list[int] | None = None
        if not (left[u] and left[v]):
            keep = [i for i, w in enumerate(front) if left[w]]
            front = [front[i] for i in keep]
        layer, size = step(layer, move)
        spent += size
        if spent > limit:
            check_state_space(spent, what)
    # every vertex has left the frontier: one state, the empty partitions
    [value] = layer.values()
    return value


@memoised_in_run
def whitney_terms(g: MultiGraph) -> dict[tuple[int, int], int]:
    """The terms of Whitney's corank-nullity polynomial R(G;x,y), as
    {(r - r<X>, n<X>): number of subsets X}.  Within a run scope the
    tension, flow, chromatic, Tutte and Whitney polynomials of a graph
    all read one dict, so no caller may change it.  A state is X's
    partition; its key packs r<X> * stride + n<X>."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)

    def step(layer, move):
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for p, terms in layer.items():
            kept, joined, _, _ = move(p)
            # X takes the edge: it joins two blocks or closes a cycle
            target, shift = (kept, 1) if joined is None else (joined, stride)
            # X leaves it out: the first at its state takes the dict
            # itself, unless the edge taken adds to that state too
            into = nxt.get(kept)
            if into is None:
                nxt[kept] = terms.copy() if target == kept else terms
            else:
                for k, c in terms.items():
                    into[k] = into.get(k, 0) + c
            into = nxt.get(target)
            if into is None:
                nxt[target] = {k + shift: c for k, c in terms.items()}
            else:
                for k, c in terms.items():
                    k += shift
                    into[k] = into.get(k, 0) + c
        return nxt, len(nxt) + sum(map(len, nxt.values()))

    terms = _frontier(g, {(): {0: 1}}, step, "Whitney frontier sum")
    return {(r - k // stride, k % stride): c for k, c in terms.items()}


def whitney_at(g: MultiGraph, x: int, y: int) -> int:
    """R(G; x, y) from one int per state.  x^(r - r<X>) is x^(k(X) - c),
    a factor x for each block of X that retires but the last of each
    component of G; y^(n<X>) is a factor y for each edge of X that
    closes a cycle."""
    y1 = y + 1

    def step(layer, move):
        nxt: dict[tuple[int, ...], int] = {}
        for p, value in layer.items():
            kept, joined, gone, gone_joined = move(p)
            out = value * x**gone if gone else value
            if joined is None:
                # left out, or taken to close a cycle: one state
                nxt[kept] = nxt.get(kept, 0) + out * y1
            else:
                nxt[kept] = nxt.get(kept, 0) + out
                v = value * x**gone_joined if gone_joined else value
                nxt[joined] = nxt.get(joined, 0) + v
        return nxt, len(nxt)

    return _frontier(g, {(): 1}, step, "Whitney frontier value")


def omega_terms(g: MultiGraph) -> dict[tuple[int, int], int]:
    """The terms of omega(G;x,y), as {(r - r<X>, n<E - X>): signed
    count of the subsets X}; cancelled terms are dropped.  A state is
    the partitions of X and of E - X; its key packs r<X> * stride +
    n<E - X>."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)

    def step(layer, move):
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
        moved: dict[tuple[int, ...], tuple] = {}
        for (p, q), terms in layer.items():
            mp = moved.get(p) or moved.setdefault(p, move(p))
            mq = moved.get(q) or moved.setdefault(q, move(q))
            kp, jp = mp[0], mp[1]
            kq, jq = mq[0], mq[1]
            # X takes the edge, with a sign: a rank step when it joins
            # two blocks of X
            target, shift = ((kp, kq), 0) if jp is None else ((jp, kq), stride)
            into = nxt.get(target)
            if into is None:
                nxt[target] = {k + shift: -c for k, c in terms.items()}
            else:
                for k, c in terms.items():
                    k += shift
                    into[k] = into.get(k, 0) - c
            # E - X takes it: a nullity step when it closes a cycle there
            target, shift = ((kp, kq), 1) if jq is None else ((kp, jq), 0)
            into = nxt.get(target)
            if into is None:  # unshifted, the dict itself
                nxt[target] = {k + 1: c for k, c in terms.items()} if shift else terms
            else:
                for k, c in terms.items():
                    k += shift
                    into[k] = into.get(k, 0) + c
        return nxt, len(nxt) + sum(map(len, nxt.values()))

    terms = _frontier(g, {((), ()): {0: 1}}, step, "omega frontier sum")
    return {(r - k // stride, k % stride): c for k, c in terms.items() if c}


def omega_at(g: MultiGraph, x: int, y: int) -> int:
    """omega(G; x, y) from one int per state: x per block of X that
    retires, as in `whitney_at`, y per edge of E - X that closes a
    cycle, and -1 per edge of X."""

    def step(layer, move):
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        moved: dict[tuple[int, ...], tuple] = {}
        for (p, q), value in layer.items():
            mp = moved.get(p) or moved.setdefault(p, move(p))
            mq = moved.get(q) or moved.setdefault(q, move(q))
            kp, jp, gone, gone_joined = mp
            kq, jq = mq[0], mq[1]
            out = value * x**gone if gone else value
            # X takes the edge (gone_joined is gone when it closes a cycle)
            target = (kp, kq) if jp is None else (jp, kq)
            v = out if gone_joined == gone else value * x**gone_joined
            nxt[target] = nxt.get(target, 0) - v
            # E - X takes it
            target, out = ((kp, kq), out * y) if jq is None else ((kp, jq), out)
            nxt[target] = nxt.get(target, 0) + out
        return nxt, len(nxt)

    return _frontier(g, {((), ()): 1}, step, "omega frontier value")


def _psi_sum(g: MultiGraph) -> dict[int, int]:
    """The raw sum of the modular psi: {key: number of pairs A within U},
    the key packing r<U>, n<A>, |A| and |U - A|, in that order, stride
    E + 1.  A state is the partitions of U and of A."""
    stride = g.edge_count + 1
    rank_step, close_a = stride**3, stride**2

    def step(layer, move):
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
        moved: dict[tuple[int, ...], tuple] = {}
        for (p, q), terms in layer.items():
            mp = moved.get(p) or moved.setdefault(p, move(p))
            mq = moved.get(q) or moved.setdefault(q, move(q))
            kp, jp = mp[0], mp[1]
            kq, jq = mq[0], mq[1]
            # U takes the edge: a rank step when it joins two blocks of U
            u, shift = (kp, 0) if jp is None else (jp, rank_step)
            # out of U: the first at its state takes the dict itself,
            # unless the edge taken into U adds to that state too
            target = (kp, kq)
            into = nxt.get(target)
            if into is None:
                nxt[target] = terms.copy() if u == kp else terms
            else:
                for k, c in terms.items():
                    into[k] = into.get(k, 0) + c
            # in U - A
            target = (u, kq)
            into = nxt.get(target)
            if into is None:
                nxt[target] = {k + shift + 1: c for k, c in terms.items()}
            else:
                for k, c in terms.items():
                    k += shift + 1
                    into[k] = into.get(k, 0) + c
            # in A as well: a nullity step when it closes a cycle of A
            target = (u, kq if jq is None else jq)
            shift += (stride + close_a) if jq is None else stride
            into = nxt.get(target)
            if into is None:
                nxt[target] = {k + shift: c for k, c in terms.items()}
            else:
                for k, c in terms.items():
                    k += shift
                    into[k] = into.get(k, 0) + c
        return nxt, len(nxt) + sum(map(len, nxt.values()))

    return _frontier(g, {((), ()): {0: 1}}, step, "psi frontier sum")


def psi_terms(g: MultiGraph) -> dict[tuple[int, int, int, int], int]:
    """The terms of the modular psi(G;x,y,z,w), as {(i, j, k, l):
    coefficient of x^i y^j z^k w^l}; cancelled terms are dropped.

    (-(w + z))^|U - A| is expanded here, on every key of the raw sum
    (`_psi_sum`), by the binomial theorem in integers rather than by
    `MultiPoly.substitute`, from one row of binomials per exponent.  A
    loop adds z - (w + z) + wy = w(y - 1) over its three branches, so
    the loops are factored out: the sum runs on the rest, and its terms
    are multiplied by (w(y - 1))^L."""
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
    r, _ = rank_nullity(g)
    out = {}
    rows: dict[int, list[int]] = {}
    for key, c in _psi_sum(g).items():
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
