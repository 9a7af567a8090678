"""Orientation space of a multigraph and its cut-Eulerian classes.

An orientation is a flip vector relative to the reference orientation;
loops carry exactly one orientation, so there are 2^(non-loop edges)
in total.  For an orientation rho, every edge is either on a directed
circuit (the set C_rho) or on a directed bond (the set B_rho), never
both; restricting to B_rho is acyclic and restricting to C_rho is
totally cyclic.

Two orientations are cut-Eulerian equivalent when one can be turned
into the other by repeatedly reversing all edges of a directed circuit
or of a directed bond.  That happens exactly when their indegree
divisors are linearly equivalent, that is when the difference of the
indegree vectors lies in the image of the Laplacian (Gioan, European
J. Combin. 28, 2007; Backman, "Riemann-Roch theory for graph
orientations", Adv. Math. 309, 2017).  So `cut_eulerian_classes` keys
each orientation by its divisor class in one pass, and the classes
form a torsor for the graph's Jacobian: their number is the Tutte
value T(G;1,1), the number of maximal forests.  This one pass is the
production route; the move closure is in `oracles`.
"""

from __future__ import annotations

import operator
from typing import Iterator

from .algebra import det_adjugate
from .config import Record, check_state_space, memoised_in_run
from .graph import EdgeSubset, MultiGraph, Orientation, _component_vertex_sets, cyclic_edges, rank_nullity


@memoised_in_run
def classify_edges(g: MultiGraph, o: Orientation) -> tuple[EdgeSubset, EdgeSubset]:
    """(B, C): edges on directed bonds, edges on directed circuits.

    C comes from one strong-components pass.  Asserts the partition
    property, by one more pass on each restriction: B and C are
    complementary, the restriction to B is acyclic and the restriction
    to C is totally cyclic.
    """
    c = cyclic_edges(g, o)
    b = c.complement()
    if cyclic_edges(g, o, b).mask:
        raise AssertionError("acyclic part of the partition is not acyclic")
    if cyclic_edges(g, o, c) != c:
        raise AssertionError("cyclic part of the partition is not totally cyclic")
    return b, c


class OrientationClass(Record):
    """A cut-Eulerian equivalence class.

    representative is the lexicographically least member and size the
    member count; b and c are the representative's bond and circuit
    parts (criterion 9 checks on the fixtures that every member of the
    move closure's class has the same sizes).
    """

    __slots__ = ("representative", "size", "b", "c")

    def __init__(self, representative: Orientation, size: int, b: EdgeSubset, c: EdgeSubset):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def b_size(self) -> int:
        return self.b.size

    @property
    def c_size(self) -> int:
        return self.c.size


def _key_columns(g: MultiGraph) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Per vertex, the key of one unit of indegree there; and the
    modulus of each key coordinate.

    Each component with a root r (its least vertex) and reduced
    Laplacian L0 (rows and columns of its other vertices) owns a block
    of coordinates: the key of an indegree vector x is adj(L0) x mod
    det(L0), x restricted to the block.  The root's column is zero, and
    an isolated vertex owns no coordinate, so its component is skipped.
    """
    cols: list[list[int]] = [[] for _ in range(g.vertex_count)]
    mods: list[int] = []
    for comp in _component_vertex_sets(g):
        if len(comp) == 1:
            continue
        others = sorted(comp)[1:]
        local = {v: i for i, v in enumerate(others)}
        lap = [[0] * len(others) for _ in others]
        for t, h in g.edges:
            if t == h:
                continue
            for a, b in ((t, h), (h, t)):
                if a in local:
                    lap[local[a]][local[a]] += 1
                    if b in local:
                        lap[local[a]][local[b]] -= 1
        det, adj = det_adjugate(lap)
        for v in range(g.vertex_count):
            j = local.get(v)
            cols[v].extend(0 if j is None else adj[i][j] % det for i in range(len(others)))
        mods.extend([det] * len(others))
    return [tuple(col) for col in cols], tuple(mods)


def _partial_sums(
    choices: list[tuple[tuple[int, ...], tuple[int, ...]]], width: int
) -> list[tuple[int, ...]]:
    """The sum of one column per (kept, flipped) choice, for every
    choice vector in lexicographic order (kept before flipped)."""
    sums = [(0,) * width]
    for kept, flipped in choices:
        sums = [tuple(map(operator.add, s, c)) for s in sums for c in (kept, flipped)]
    return sums


def divisor_class_keys(g: MultiGraph) -> Iterator[tuple[int, ...]]:
    """The divisor class of the indegree vector of every orientation, in
    lexicographic flip order (`oracles.all_orientations`): equal keys mean
    linearly equivalent indegree divisors, that is the same
    cut-Eulerian class.

    The key is linear in the indegrees, so it is the sum of one column
    per non-loop edge (the one at its head); the sums over the leading
    and the trailing half of the edges are tabulated once.
    """
    cols, mods = _key_columns(g)
    choices = [(cols[h], cols[t]) for t, h in (g.edges[e] for e in g.non_loop_ids())]
    half = len(choices) // 2
    trailing = _partial_sums(choices[half:], len(mods))
    for lead in _partial_sums(choices[:half], len(mods)):
        for trail in trailing:
            yield tuple(map(operator.mod, map(operator.add, lead, trail), mods))


@memoised_in_run
def cut_eulerian_classes(g: MultiGraph) -> tuple[OrientationClass, ...]:
    """The cut-Eulerian classes in order of their representatives, by
    one lexicographic pass over the orientations: each is keyed by its
    indegree divisor class (`divisor_class_keys`), and the first
    orientation with a key represents its class.  Per orientation the
    pass builds a key of r coordinates (r the rank of g: one per vertex
    of a component but its root) and, for a representative, sorts its E
    edges by strong components, so it charges 2^E' x (E + r) states (E'
    the non-loop edges)."""
    check_state_space(
        (1 << len(g.non_loop_ids())) * (g.edge_count + rank_nullity(g)[0]),
        "orientation class key",
    )
    found: dict[tuple[int, ...], list[int]] = {}  # key -> [first index, size]
    for index, key in enumerate(divisor_class_keys(g)):
        if key in found:
            found[key][1] += 1
        else:
            found[key] = [index, 1]
    non_loops = g.non_loop_ids()
    classes = []
    for index, size in found.values():
        # the index counts in lexicographic flip order: the first non-loop
        # edge is its most significant bit
        flips = [False] * g.edge_count
        for i, e in enumerate(reversed(non_loops)):
            flips[e] = bool(index >> i & 1)
        rep = Orientation(tuple(flips))
        classes.append(OrientationClass(rep, size, *classify_edges(g, rep)))
    return tuple(classes)
