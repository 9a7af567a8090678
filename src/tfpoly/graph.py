"""Multigraphs with reference orientations.

A graph is a list of edges (tail, head) over vertices 0..n-1; parallel
edges and loops are allowed, and the edge order defines both the edge
ids and the reference orientation.  An Orientation is a tuple of flip
bits relative to that reference; loops carry exactly one orientation,
so their bit is pinned to False.

Rank of an edge subset X is |V| minus the number of components of
(V, X); nullity is |X| minus rank.  A circuit is the edge set of a
simple cycle, a loop included; it is a directed circuit under an
orientation when it carries a directed cycle, that is when its arcs
have pairwise distinct tails.  A directed bond is a minimal edge cut
all of whose arrows cross one way.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .config import Record, check_state_space, memoised_in_run

# sets a field of a frozen Record; bound once, as graphs and edge subsets
# are built in the inner loops
_set = object.__setattr__


class MultiGraph(Record):
    """Edges given as any sequence of pairs are kept as a tuple of
    tuples, so that equal graphs compare and hash equal, as keys of the
    run memo must."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("negative vertex count")
        edges = tuple([(t, h) for t, h in edges])
        for e, (t, h) in enumerate(edges):
            if not (0 <= t < vertex_count and 0 <= h < vertex_count):
                raise ValueError(f"edge {e} endpoint out of range: ({t}, {h})")
        _set(self, "vertex_count", vertex_count)
        _set(self, "edges", edges)

    # written out, not Record's by field name, as graphs, orientations and
    # edge subsets key the run memo
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_loop(self, e: int) -> bool:
        t, h = self.edges[e]
        return t == h

    def loop_ids(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.edge_count) if self.is_loop(e))

    def non_loop_ids(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.edge_count) if not self.is_loop(e))

    def fingerprint(self) -> str:
        body = ",".join(f"{t}-{h}" for t, h in self.edges)
        return f"v{self.vertex_count}:{body}"


class Orientation(Record):
    """Flip bits relative to the reference orientation, kept as a tuple;
    loops never flip."""

    __slots__ = ("flips",)

    def __init__(self, flips: Sequence[bool]):
        _set(self, "flips", tuple(flips))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.flips == other.flips

    def __hash__(self) -> int:
        return hash((self.flips,))

    @classmethod
    def reference(cls, g: MultiGraph) -> "Orientation":
        return cls((False,) * g.edge_count)

    @classmethod
    def for_graph(cls, g: MultiGraph, flips: Sequence[bool]) -> "Orientation":
        flips = tuple(bool(b) for b in flips)
        if len(flips) != g.edge_count:
            raise ValueError("flip vector length does not match edge count")
        for e in g.loop_ids():
            if flips[e]:
                raise ValueError(f"loop edge {e} cannot be flipped")
        return cls(flips)


def arc(g: MultiGraph, o: Orientation, e: int) -> tuple[int, int]:
    """Actual (tail, head) of edge e under orientation o."""
    t, h = g.edges[e]
    return (h, t) if o.flips[e] else (t, h)


class EdgeSubset(Record):
    """Bitset over edge ids; width is the total edge count."""

    __slots__ = ("mask", "width")

    def __init__(self, mask: int, width: int):
        if mask < 0 or mask >> width:
            raise ValueError(f"mask {mask:#x} does not fit width {width}")
        _set(self, "mask", mask)
        _set(self, "width", width)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.width == other.width

    def __hash__(self) -> int:
        return hash((self.mask, self.width))

    @classmethod
    def empty(cls, width: int) -> "EdgeSubset":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "EdgeSubset":
        return cls((1 << width) - 1, width)

    @classmethod
    def of(cls, width: int, edges: Sequence[int] = ()) -> "EdgeSubset":
        mask = 0
        for e in edges:
            if not 0 <= e < width:
                raise ValueError(f"edge id {e} out of range")
            mask |= 1 << e
        return cls(mask, width)

    def __contains__(self, e: int) -> bool:
        return bool(self.mask >> e & 1)

    def members(self) -> tuple[int, ...]:
        return tuple(e for e in range(self.width) if self.mask >> e & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def complement(self) -> "EdgeSubset":
        return EdgeSubset(self.mask ^ ((1 << self.width) - 1), self.width)

    def union(self, other: "EdgeSubset") -> "EdgeSubset":
        self._check(other)
        return EdgeSubset(self.mask | other.mask, self.width)

    def intersection(self, other: "EdgeSubset") -> "EdgeSubset":
        self._check(other)
        return EdgeSubset(self.mask & other.mask, self.width)

    def difference(self, other: "EdgeSubset") -> "EdgeSubset":
        self._check(other)
        return EdgeSubset(self.mask & ~other.mask, self.width)

    def is_subset_of(self, other: "EdgeSubset") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def _check(self, other: "EdgeSubset") -> None:
        if self.width != other.width:
            raise ValueError("edge subsets over different graphs")


# -- rank and nullity ---------------------------------------------------


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def rank_nullity(g: MultiGraph, x: EdgeSubset | None = None) -> tuple[int, int]:
    """(rank, nullity) of the spanning subgraph (V, X); X defaults to E."""
    if x is None:
        x = EdgeSubset.full(g.edge_count)
    if x.width != g.edge_count:
        raise ValueError("subset width does not match graph")
    uf = _UnionFind(g.vertex_count)
    rank = 0
    for e in range(g.edge_count):
        if x.mask >> e & 1:
            t, h = g.edges[e]
            if t != h and uf.union(t, h):
                rank += 1
    return rank, x.size - rank


def components_count(g: MultiGraph) -> int:
    r, _ = rank_nullity(g)
    return g.vertex_count - r


@memoised_in_run
def subset_rank_table(g: MultiGraph) -> tuple[int, ...]:
    """rank<X> for every edge subset mask, indexed by mask; charges
    2^E x E states."""
    check_state_space((1 << g.edge_count) * g.edge_count, "subset rank table")
    # counting order: mask - 1 -> mask pops the trailing one-bit edges (the
    # last pushed) and pushes one; without path compression unions undo
    m = g.edge_count
    parent = list(range(g.vertex_count))
    size = [1] * g.vertex_count
    hung: list[int] = []  # per pushed edge: the root it hung below another, or -1
    table = [0] * (1 << m)
    rank = 0
    for mask in range(1, 1 << m):
        e = (mask & -mask).bit_length() - 1
        for _ in range(e):
            child = hung.pop()
            if child >= 0:
                size[parent[child]] -= size[child]
                parent[child] = child
                rank -= 1
        t, h = g.edges[e]
        while parent[t] != t:
            t = parent[t]
        while parent[h] != h:
            h = parent[h]
        if t == h:
            hung.append(-1)
        else:
            if size[t] > size[h]:
                t, h = h, t
            parent[t] = h
            size[h] += size[t]
            hung.append(t)
            rank += 1
        table[mask] = rank
    return tuple(table)


# -- minors --------------------------------------------------------------


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


# -- orientation structure ------------------------------------------------


def _out_neighbors(g: MultiGraph, o: Orientation, mask: int = -1) -> dict[int, list[int]]:
    """Out-neighbours under o along the edges in mask (all edges by
    default), keyed by the vertices that have an out-arc."""
    adj: dict[int, list[int]] = {}
    for e in range(g.edge_count):
        if mask >> e & 1:
            t, h = arc(g, o, e)
            if t != h:
                adj.setdefault(t, []).append(h)
    return adj


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


def _strong_components(adj: dict[int, list[int]]) -> dict[int, int]:
    """Strong component ids: Tarjan's algorithm (SIAM J. Comput. 1,
    1972), iterative so that long paths need no recursion.  Searches
    start only at vertices with an out-arc, so a vertex that none
    reaches gets no id: it shares no arc with another vertex."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []
    counter = found = 0
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            out = adj.get(v, ())
            if i < len(out):
                work[-1] = (v, i + 1)
                w = out[i]
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, 0))
                elif w not in comp:  # w is still on the stack
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    comp[w] = found
                    if w == v:
                        break
                found += 1
    return comp


def cyclic_edges(g: MultiGraph, o: Orientation, x: EdgeSubset | None = None) -> EdgeSubset:
    """The edges of X on a directed circuit of (V, X) under o, from one
    strong-components pass: an arc t -> h is on one exactly when t and
    h share a strong component, and a loop always is.  X defaults to E."""
    mask = (1 << g.edge_count) - 1 if x is None else x.mask
    comp = _strong_components(_out_neighbors(g, o, mask))
    cyclic = 0
    for e, (t, h) in enumerate(g.edges):
        if mask >> e & 1 and comp.get(t) == comp.get(h):
            cyclic |= 1 << e
    return EdgeSubset(cyclic, g.edge_count)


def is_acyclic(g: MultiGraph, o: Orientation) -> bool:
    return not any(is_edge_cyclic(g, o, e) for e in range(g.edge_count))


def is_totally_cyclic(g: MultiGraph, o: Orientation) -> bool:
    return all(is_edge_cyclic(g, o, e) for e in range(g.edge_count))


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


def blocks(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """The blocks of g, each as its sorted edge ids, in order of first
    edge: each loop, each bridge and each maximal 2-connected piece.
    Hopcroft and Tarjan's low-link search (CACM 16, 1973), iterative so
    that long paths need no recursion."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    out = []
    for e, (t, h) in enumerate(g.edges):
        if t == h:
            out.append((e,))
        else:
            adj[t].append((h, e))
            adj[h].append((t, e))
    index = [-1] * g.vertex_count
    low = [0] * g.vertex_count
    counter = itertools.count()
    stack: list[int] = []  # the edges of the blocks still open
    for root in range(g.vertex_count):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(counter)
        work = [(root, -1, 0)]  # (vertex, edge it was entered by, next neighbour)
        while work:
            v, via, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, via, i + 1)
                w, e = adj[v][i]
                if index[w] < 0:
                    stack.append(e)
                    index[w] = low[w] = next(counter)
                    work.append((w, e, 0))
                elif e != via and index[w] < index[v]:  # back to an ancestor
                    stack.append(e)
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:  # u cuts v's subtree off: pop its block
                    block = [stack.pop()]
                    while block[-1] != via:
                        block.append(stack.pop())
                    out.append(tuple(sorted(block)))
    return tuple(sorted(out))


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


def _component_vertex_sets(g: MultiGraph) -> list[set[int]]:
    uf = _UnionFind(g.vertex_count)
    for t, h in g.edges:
        if t != h:
            uf.union(t, h)
    groups: dict[int, set[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(uf.find(v), set()).add(v)
    return list(groups.values())


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


def spanning_forest(g: MultiGraph) -> tuple[int, ...]:
    """Greedy maximal forest (lowest edge ids win); loops never enter."""
    uf = _UnionFind(g.vertex_count)
    forest = []
    for e, (t, h) in enumerate(g.edges):
        if t != h and uf.union(t, h):
            forest.append(e)
    return tuple(forest)


def incidence_matrix(g: MultiGraph, o: Orientation) -> list[list[int]]:
    """V x E incidence matrix: +1 at the tail, -1 at the head, loops zero."""
    rows = [[0] * g.edge_count for _ in range(g.vertex_count)]
    for e in range(g.edge_count):
        t, h = arc(g, o, e)
        if t != h:
            rows[t][e] += 1
            rows[h][e] -= 1
    return rows
