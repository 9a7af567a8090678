"""Frontier (transfer-matrix) sums over edge subsets.

The edges are taken one at a time in a fixed order.  After each edge,
the sum over the subsets of the edges taken so far is kept grouped by
state: the partition that the chosen edges induce on the frontier, the
vertices seen so far that still have an edge to come.  A vertex leaves
the frontier with its last edge, so the number of states grows with the
frontier's width, not with 2^E.  Each state carries a dict of integer
terms keyed rank * stride + nullity, the packing the Tutte recursion
uses.  This is the transfer matrix of Sekine, Imai and Tani, "Computing
the Tutte polynomial of a graph of moderate size" (ISAAC 1995), and of
Bedini and Jacobsen, J. Phys. A 43 (2010) 385001.

* Whitney's R(G;x,y) = sum over X of x^(r - r<X>) y^(n<X>) needs one
  partition, that of X: each edge is left out, or joins X.
* omega(G;x,y) = sum over X of (-1)^|X| x^(r - r<X>) y^(n<E - X>) needs
  two, of X and of E - X: each edge joins one of them.

Edge order decides the width, so the order is greedy (`edge_order`).
Every layer of states is charged, as it is made, its states plus their
terms against the state guard, summed over the layers.
"""

from __future__ import annotations

from typing import Sequence

from .config import check_state_space, state_guard
from .graph import MultiGraph, rank_nullity

# What an edge does in one branch of the sum: the partition it joins
# (None: none), the key shift when it joins two blocks and when it
# closes a cycle, and the sign it gives the terms.
Role = tuple[int | None, int, int, int]


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
    frontier: set[int] = set()

    def score(e: int) -> tuple[int, int, int]:
        t, h = g.edges[e]
        if t == h:
            return (not seen[t], -(left[t] == 1), e)
        return (2 - seen[t] - seen[h], -((left[t] == 1) + (left[h] == 1)), e)

    # with the frontier empty, no edge left touches a vertex seen so far,
    # so each edge's score is still the one it has now
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
    # with no vertex retired, p stays canonical
    kept = p if len(keep) == len(p) else _relabelled(p, keep)
    if a == b:
        return kept, None
    return kept, _relabelled([a if x == b else x for x in p], keep)


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
            for which, join, close, sign in roles:
                if which is None:
                    target, shift = kept, 0
                elif moved[which][1] is None:
                    target, shift = kept, close
                else:
                    target = kept[:which] + (moved[which][1],) + kept[which + 1 :]
                    shift = join
                into = nxt.get(target)
                if into is None:
                    nxt[target] = {k + shift: sign * c for k, c in terms.items()}
                else:
                    for k, c in terms.items():
                        k += shift
                        into[k] = into.get(k, 0) + sign * c
        layer = nxt
        spent += len(layer) + sum(len(terms) for terms in layer.values())
        if spent > limit:
            check_state_space(spent, guard, what)
    # every vertex has left the frontier: one state, the empty partitions
    [terms] = layer.values()
    return terms


def whitney_terms(g: MultiGraph, guard: int | None = None) -> dict[tuple[int, int], int]:
    """The terms of Whitney's corank-nullity polynomial R(G;x,y), as
    {(r - r<X>, n<X>): number of subsets X}."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)
    roles = ((None, 0, 0, 1), (0, stride, 1, 1))
    terms = _frontier_sum(g, 1, roles, "Whitney frontier sum", guard)
    return {(r - k // stride, k % stride): c for k, c in terms.items()}


def omega_terms(g: MultiGraph, guard: int | None = None) -> dict[tuple[int, int], int]:
    """The terms of omega(G;x,y), as {(r - r<X>, n<E - X>): signed
    count of the subsets X}; cancelled terms are dropped."""
    stride = g.edge_count + 1
    r, _ = rank_nullity(g)
    roles = ((0, stride, 0, -1), (1, 0, 1, 1))
    terms = _frontier_sum(g, 2, roles, "omega frontier sum", guard)
    return {(r - k // stride, k % stride): c for k, c in terms.items() if c}
