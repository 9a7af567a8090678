"""Orientation space of a multigraph and its cut-Eulerian classes.

An orientation is a flip vector relative to the reference orientation;
loops carry exactly one orientation, so there are 2^(non-loop edges)
in total.  For an orientation rho, every edge is either on a directed
circuit (the set C_rho) or on a directed bond (the set B_rho), never
both; restricting to B_rho is acyclic and restricting to C_rho is
totally cyclic.

Two orientations are cut-Eulerian equivalent when one can be turned
into the other by repeatedly reversing all edges of a directed circuit
or of a directed bond.  Classes are computed as the closure of that
move relation.  The number of classes equals the Tutte value T(G;1,1),
the number of maximal forests.

Class size: reversing a directed circuit or bond never changes which
edges are cyclic, and the class of rho has exactly as many members as
there are pairs (f, g) with f a {0,1}-valued integer tension, g a
{0,1}-valued integer flow vanishing on loops, and f(e)g(e) = 0 on
every edge.  (Without the loop pin this pair count is the closed
(1,1)-dilation count kappa-bar_rho(1,1), which is larger by a factor
of 2 per loop: a loop's closed flow window has two lattice points but
loops admit only one orientation.  The pinned count matches the move
closure on every graph; the unpinned count matches it on loopless
graphs.)
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .config import VerificationError, check_state_space, state_guard
from .graph import (
    EdgeSubset,
    MultiGraph,
    Orientation,
    bond_side,
    bonds,
    directed_bonds,
    directed_circuits,
    is_acyclic,
    is_edge_cyclic,
    is_totally_cyclic,
    restriction,
)
from .tensionflow import (
    enumerate_integral_flows,
    enumerate_integral_tensions,
    support_pair_counts,
)


def all_orientations(g: MultiGraph, guard: int | None = None) -> list[Orientation]:
    """Every orientation, in lexicographic flip order; loops stay False.
    Charges 2^E' states, E' the non-loop edge count."""
    non_loops = g.non_loop_ids()
    check_state_space(1 << len(non_loops), guard, "orientation enumeration")
    out = []
    for bits in itertools.product((False, True), repeat=len(non_loops)):
        flips = [False] * g.edge_count
        for e, b in zip(non_loops, bits):
            flips[e] = b
        out.append(Orientation.for_graph(g, flips))
    return out


def classify_edges(g: MultiGraph, o: Orientation) -> tuple[EdgeSubset, EdgeSubset]:
    """(B, C): edges on directed bonds, edges on directed circuits.

    Asserts the partition property: B and C are complementary, the
    restriction to B is acyclic and the restriction to C is totally
    cyclic.
    """
    c_mask = 0
    for e in range(g.edge_count):
        if is_edge_cyclic(g, o, e):
            c_mask |= 1 << e
    c = EdgeSubset(c_mask, g.edge_count)
    b = c.complement()
    sub_b, o_b, _ = restriction(g, o, b)
    sub_c, o_c, _ = restriction(g, o, c)
    if not is_acyclic(sub_b, o_b):
        raise AssertionError("acyclic part of the partition is not acyclic")
    if not is_totally_cyclic(sub_c, o_c):
        raise AssertionError("cyclic part of the partition is not totally cyclic")
    return b, c


@dataclass(frozen=True)
class OrientationClass:
    """A cut-Eulerian equivalence class.

    representative is the lexicographically least member; b_size and
    c_size are computed from the representative (they are observed to
    be constant across members on all shipped fixtures, but that
    constancy is reported by diagnostics rather than assumed).
    """

    members: tuple[Orientation, ...]
    representative: Orientation
    b_size: int
    c_size: int


def cut_eulerian_classes(g: MultiGraph, guard: int | None = None) -> tuple[OrientationClass, ...]:
    """Partition the orientation space by the move closure of reversing
    one directed circuit or one directed bond.  The closure scans the
    2^E edge subsets once per orientation, so it charges 2^E' x 2^E
    states (E' the non-loop edges).  The charge comes before the cache,
    which is keyed by the resolved guard."""
    check_state_space(
        (1 << len(g.non_loop_ids())) << g.edge_count, guard, "orientation class closure"
    )
    return _cut_eulerian_classes(g, state_guard(guard))


@functools.lru_cache(maxsize=None)
def _cut_eulerian_classes(g: MultiGraph, guard: int) -> tuple[OrientationClass, ...]:
    orientations = all_orientations(g, guard)
    index = {o.flips: o for o in orientations}
    seen: set[tuple[bool, ...]] = set()
    classes: list[OrientationClass] = []
    loop_mask = 0
    for e in g.loop_ids():
        loop_mask |= 1 << e
    shores = [(bond, bond_side(g, bond)) for bond in bonds(g, guard)]
    for start in orientations:
        if start.flips in seen:
            continue
        component = []
        stack = [start]
        seen.add(start.flips)
        while stack:
            cur = stack.pop()
            component.append(cur)
            moves = directed_circuits(g, cur, guard) + directed_bonds(g, cur, shores)
            for subset in moves:
                # reversing a loop keeps the orientation: loops never flip
                flip_mask = subset.mask & ~loop_mask
                flips = tuple(
                    (not b) if flip_mask >> e & 1 else b for e, b in enumerate(cur.flips)
                )
                if flips not in seen:
                    seen.add(flips)
                    stack.append(index[flips])
        component.sort(key=lambda o: o.flips)
        rep = component[0]
        b, c = classify_edges(g, rep)
        classes.append(
            OrientationClass(tuple(component), rep, b.size, c.size)
        )
    classes.sort(key=lambda cls: cls.representative.flips)
    return tuple(classes)


def zero_one_pair_count(g: MultiGraph, o: Orientation, guard: int | None = None) -> int:
    """Number of pairs (f, g): f a {0,1} tension, g a {0,1} flow with
    g = 0 on loops, and f(e) g(e) = 0 everywhere."""
    full = EdgeSubset.full(g.edge_count)
    non_loops = EdgeSubset.of(g.edge_count, g.non_loop_ids())
    tens = enumerate_integral_tensions(g, o, 1, "closed", window=full, guard=guard)
    flows = enumerate_integral_flows(g, o, 1, "closed", window=non_loops, guard=guard)
    hist = support_pair_counts(
        (fn.support_mask() for fn in tens), (fn.support_mask() for fn in flows), guard
    )
    return sum(cnt for (fm, gm), cnt in hist.items() if fm & gm == 0)


def class_size_check(g: MultiGraph, cls: OrientationClass, guard: int | None = None) -> int:
    """Recompute the class size from 0-1 tension-flow pairs and compare
    with the member count; raises VerificationError on mismatch."""
    count = zero_one_pair_count(g, cls.representative, guard)
    if count != len(cls.members):
        raise VerificationError(
            f"class of {cls.representative.flips} on {g.fingerprint()}: "
            f"0-1 pair count {count} != member count {len(cls.members)}"
        )
    return count


def class_bc_profile(g: MultiGraph, cls: OrientationClass) -> set[tuple[int, int]]:
    """Diagnostic: the set of (|B|, |C|) values across class members."""
    profile = set()
    for member in cls.members:
        b, c = classify_edges(g, member)
        profile.add((b.size, c.size))
    return profile
