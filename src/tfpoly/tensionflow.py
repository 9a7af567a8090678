"""Tension and flow groups of an oriented multigraph.

For an abelian group A, a tension is an edge function obtained as the
coboundary of a vertex potential (equivalently: signed sums over
circuits vanish), and a flow is an edge function with zero boundary at
every vertex.  Loops contribute nothing to boundaries, so a loop's flow
value is free while its tension value is forced to zero.

Enumeration strategies (each bijective, so the counts below are exact):

* modular tensions: coboundaries of potentials with one vertex pinned
  to zero per component, |A|^rank many;
* modular flows: free values on the co-forest edges of a spanning
  forest, extended over fundamental circuits, |A|^nullity many;
* integral tensions in a window: window values on forest edges,
  extension by potential integration, off-forest values filtered;
* integral flows in a window: window values on co-forest edges,
  extension by the fundamental circuit matrix, forest values filtered.

The classification flags for a (tension, flow) pair are named by their
defining support formulas rather than by words, because descriptive
names for these conditions are used inconsistently in the literature.
Note two coincidences that hold by pure logic: "supp f and supp g
disjoint" is the same condition as "supp g contained in ker f", and
"ker f contained in supp g" is the same as "nowhere-zero pair".
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

from .algebra import MultiPoly, smith_normal_form
from .config import check_state_space
from .graph import EdgeSubset, MultiGraph, Orientation, arc, rank_nullity, spanning_forest

Element = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_{m_1} x ... x Z_{m_k}.

    Elements are tuples of residues, one per factor, always reduced.
    The trivial group is FiniteAbelianGroup(()) or any factor list of
    ones; Z_1 factors are legal and behave as expected.
    """

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        if any(m < 1 for m in self.cyclic_orders):
            raise ValueError("cyclic factor orders must be >= 1")

    @classmethod
    def cyclic(cls, m: int) -> "FiniteAbelianGroup":
        return cls((m,))

    @property
    def order(self) -> int:
        n = 1
        for m in self.cyclic_orders:
            n *= m
        return n

    @property
    def zero(self) -> Element:
        return (0,) * len(self.cyclic_orders)

    def reduce(self, a: Sequence[int]) -> Element:
        return tuple(x % m for x, m in zip(a, self.cyclic_orders))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.cyclic_orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % m for x, m in zip(a, self.cyclic_orders))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % m for x, y, m in zip(a, b, self.cyclic_orders))

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(m) for m in self.cyclic_orders))

    def is_zero(self, a: Element) -> bool:
        return all(x == 0 for x in a)


@dataclass(frozen=True)
class GroupElementFunction:
    """Edge function with values in a finite abelian group."""

    group: FiniteAbelianGroup
    values: tuple[Element, ...]

    def __post_init__(self):
        k = len(self.group.cyclic_orders)
        for e, val in enumerate(self.values):
            if len(val) != k or val != self.group.reduce(val):
                raise ValueError(f"value {val} at edge {e} is not a reduced element")

    @property
    def width(self) -> int:
        return len(self.values)

    def support_mask(self) -> int:
        return _support_mask(self.values)

    def support(self) -> EdgeSubset:
        return EdgeSubset(self.support_mask(), self.width)

    def kernel(self) -> EdgeSubset:
        return self.support().complement()


@dataclass(frozen=True)
class IntegerEdgeFunction:
    """Edge function with integer values."""

    values: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.values)

    def support_mask(self) -> int:
        mask = 0
        for e, val in enumerate(self.values):
            if val:
                mask |= 1 << e
        return mask

    def support(self) -> EdgeSubset:
        return EdgeSubset(self.support_mask(), self.width)

    def kernel(self) -> EdgeSubset:
        return self.support().complement()


EdgeFunction = Union[GroupElementFunction, IntegerEdgeFunction]


@dataclass(frozen=True)
class TensionFlowPair:
    tension: EdgeFunction
    flow: EdgeFunction

    def __post_init__(self):
        if self.tension.width != self.flow.width:
            raise ValueError("tension and flow widths differ")

    @property
    def width(self) -> int:
        return self.tension.width


@dataclass(frozen=True)
class PairClassification:
    """Support/kernel conditions of a pair; see the module docstring."""

    nowhere_zero: bool                 # supp f union supp g = E
    supp_f_in_ker_g: bool              # disjoint supports
    complementary: bool                # supp g = ker f exactly
    ker_f_in_supp_g: bool              # coincides with nowhere_zero
    supp_g_in_ker_f: bool              # coincides with supp_f_in_ker_g


def classify_pair(pair: TensionFlowPair) -> PairClassification:
    full = (1 << pair.width) - 1
    fm = pair.tension.support_mask()
    gm = pair.flow.support_mask()
    return PairClassification(
        nowhere_zero=(fm | gm) == full,
        supp_f_in_ker_g=(fm & gm) == 0,
        complementary=gm == (full & ~fm),
        ker_f_in_supp_g=(full & ~fm & ~gm) == 0,
        supp_g_in_ker_f=(gm & fm) == 0,
    )


# -- boundary and coboundary ---------------------------------------------


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


def _forest_adjacency(g: MultiGraph) -> list[list[tuple[int, int]]]:
    """vertex -> [(edge id, other endpoint)] over spanning forest edges."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e in spanning_forest(g):
        t, h = g.edges[e]
        adj[t].append((e, h))
        adj[h].append((e, t))
    return adj


@functools.lru_cache(maxsize=None)
def _forest_order(g: MultiGraph) -> tuple[tuple[int, int, int], ...]:
    """BFS traversal of the spanning forest: (edge id, known vertex, new vertex).

    Component roots are the lowest-numbered unvisited vertices.
    """
    adj = _forest_adjacency(g)
    seen = [False] * g.vertex_count
    order: list[tuple[int, int, int]] = []
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            v = queue.pop()
            for e, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append((e, v, w))
                    queue.append(w)
    return tuple(order)


def _potential_from_forest_values(
    g: MultiGraph, o: Orientation, forest_vals: dict[int, int]
) -> list[int]:
    """Integrate integer forest-edge values into a potential (roots at 0)."""
    p = [0] * g.vertex_count
    for e, known, new in _forest_order(g):
        t, h = arc(g, o, e)
        c = forest_vals[e]
        # c = p[t] - p[h]
        if new == h:
            p[h] = p[t] - c
        else:
            p[t] = p[h] + c
    return p


def is_tension(g: MultiGraph, o: Orientation, fn: EdgeFunction) -> bool:
    """True iff fn is a coboundary: integrate along the forest, re-derive."""
    if fn.width != g.edge_count:
        raise ValueError("edge function width does not match graph")
    if isinstance(fn, GroupElementFunction):
        grp = fn.group
        p = [grp.zero] * g.vertex_count
        for e, known, new in _forest_order(g):
            t, h = arc(g, o, e)
            c = fn.values[e]
            if new == h:
                p[h] = grp.sub(p[t], c)
            else:
                p[t] = grp.add(p[h], c)
        derived = coboundary(g, o, p, grp)
        return derived.values == fn.values
    forest_vals = {e: fn.values[e] for e in spanning_forest(g)}
    p_int = _potential_from_forest_values(g, o, forest_vals)
    derived_int = coboundary(g, o, p_int)
    return derived_int.values == fn.values


def is_flow(g: MultiGraph, o: Orientation, fn: EdgeFunction) -> bool:
    b = boundary(g, o, fn)
    if isinstance(fn, GroupElementFunction):
        return all(fn.group.is_zero(v) for v in b)
    return all(v == 0 for v in b)


# -- fundamental circuit vectors ------------------------------------------


@functools.lru_cache(maxsize=None)
def fundamental_circuit_vectors(g: MultiGraph, o: Orientation) -> tuple[tuple[int, ...], ...]:
    """For each co-forest edge e (in id order), the signed incidence of the
    fundamental circuit of e: +1 on e, +-1 on the forest path closing it.

    These are integer flows and form a basis of the integral flow lattice.
    """
    forest = set(spanning_forest(g))
    adj = _forest_adjacency(g)

    def forest_path(src: int, dst: int) -> list[tuple[int, int, int]]:
        # list of (edge, from, to) walking src -> dst inside the forest
        if src == dst:
            return []
        prev: dict[int, tuple[int, int]] = {src: (-1, -1)}
        queue = [src]
        while queue:
            v = queue.pop(0)
            if v == dst:
                break
            for e, w in adj[v]:
                if w not in prev:
                    prev[w] = (e, v)
                    queue.append(w)
        path = []
        v = dst
        while v != src:
            e, u = prev[v]
            path.append((e, u, v))
            v = u
        path.reverse()
        return path

    vectors = []
    for e in range(g.edge_count):
        if e in forest:
            continue
        vec = [0] * g.edge_count
        vec[e] = 1
        t, h = arc(g, o, e)
        for a, frm, to in forest_path(h, t):
            at, ah = arc(g, o, a)
            vec[a] = 1 if (at, ah) == (frm, to) else -1
        vectors.append(tuple(vec))
    return tuple(vectors)


@functools.lru_cache(maxsize=None)
def fundamental_bond_vectors(g: MultiGraph, o: Orientation) -> tuple[tuple[int, ...], ...]:
    """For each forest edge a (in id order), the signed incidence of the
    fundamental bond of a: coboundary of the shore containing a's tail.

    These are integer tensions and form a basis of the integral tension
    lattice.
    """
    forest = spanning_forest(g)
    vectors = []
    for a in forest:
        others = [e for e in forest if e != a]
        # shore of arc-tail(a) in forest - a
        adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
        for e in others:
            t, h = g.edges[e]
            adj[t].append(h)
            adj[h].append(t)
        at, _ = arc(g, o, a)
        shore = {at}
        stack = [at]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in shore:
                    shore.add(w)
                    stack.append(w)
        vec = []
        for e in range(g.edge_count):
            t, h = arc(g, o, e)
            vec.append((1 if t in shore else 0) - (1 if h in shore else 0))
        vectors.append(tuple(vec))
    return tuple(vectors)


# -- modular enumeration ----------------------------------------------------


def _pinned_roots(g: MultiGraph) -> tuple[int, ...]:
    """One root per component: the lowest vertex id."""
    roots = []
    seen = [False] * g.vertex_count
    adj = _forest_adjacency(g)
    for v in range(g.vertex_count):
        if seen[v]:
            continue
        roots.append(v)
        stack = [v]
        seen[v] = True
        while stack:
            u = stack.pop()
            for _, w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return tuple(roots)


def enumerate_tensions(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup, guard: int | None = None
) -> Iterator[GroupElementFunction]:
    """All tensions over grp: coboundaries of potentials with one pinned
    root per component.  Exactly |grp|^rank functions, each once."""
    for values in _iter_tension_values(g, o, grp, guard):
        yield GroupElementFunction(grp, values)


def _iter_tension_values(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup, guard: int | None = None
) -> Iterator[tuple[Element, ...]]:
    roots = set(_pinned_roots(g))
    free = [v for v in range(g.vertex_count) if v not in roots]
    r, _ = rank_nullity(g)
    check_state_space(grp.order ** len(free), guard, "tension enumeration")
    assert len(free) == r  # pinning one root per component leaves rank many
    arcs = [arc(g, o, e) for e in range(g.edge_count)]
    zero = grp.zero
    for combo in itertools.product(list(grp.elements()), repeat=len(free)):
        p = {v: combo[i] for i, v in enumerate(free)}
        for v in roots:
            p[v] = zero
        yield tuple(grp.sub(p[t], p[h]) for t, h in arcs)


def enumerate_flows(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup, guard: int | None = None
) -> Iterator[GroupElementFunction]:
    """All flows over grp: free co-forest values extended over fundamental
    circuits.  Exactly |grp|^nullity functions, each once."""
    for values in _iter_flow_values(g, o, grp, guard):
        yield GroupElementFunction(grp, values)


def _iter_flow_values(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup, guard: int | None = None
) -> Iterator[tuple[Element, ...]]:
    forest = spanning_forest(g)
    coforest = [e for e in range(g.edge_count) if e not in forest]
    check_state_space(grp.order ** len(coforest), guard, "flow enumeration")
    circuits = fundamental_circuit_vectors(g, o)
    zero = grp.zero
    for combo in itertools.product(list(grp.elements()), repeat=len(coforest)):
        vals = [zero] * g.edge_count
        for vec, c in zip(circuits, combo):
            if grp.is_zero(c):
                continue
            neg_c = grp.neg(c)
            for e, s in enumerate(vec):
                if s == 1:
                    vals[e] = grp.add(vals[e], c)
                elif s == -1:
                    vals[e] = grp.add(vals[e], neg_c)
        yield tuple(vals)


# -- integral enumeration ----------------------------------------------------

INTEGRAL_MODES = ("open", "closed", "strict_support", "box")


def _window_candidates(mode: str, bound: int, in_window: bool) -> list[int]:
    if not in_window:
        return [0]
    if mode == "open":
        return list(range(1, bound))
    if mode == "closed":
        return list(range(0, bound + 1))
    if mode == "strict_support":
        return [v for v in range(-bound + 1, bound) if v != 0]
    if mode == "box":
        return list(range(-bound + 1, bound))
    raise ValueError(f"unknown mode {mode!r}")


def _window_ok(mode: str, bound: int, in_window: bool, v: int) -> bool:
    if not in_window:
        return v == 0
    if mode == "open":
        return 0 < v < bound
    if mode == "closed":
        return 0 <= v <= bound
    if mode == "strict_support":
        return v != 0 and -bound < v < bound
    if mode == "box":
        return -bound < v < bound
    raise ValueError(f"unknown mode {mode!r}")


def _resolve_window(
    g: MultiGraph, window: EdgeSubset | None, zero_set: EdgeSubset | None
) -> EdgeSubset:
    width = g.edge_count
    if window is None and zero_set is None:
        return EdgeSubset.full(width)
    if window is None:
        window = zero_set.complement()
    elif zero_set is None:
        zero_set = window.complement()
    if window.intersection(zero_set).mask:
        raise ValueError("window and zero set overlap")
    if window.union(zero_set).mask != (1 << width) - 1:
        raise ValueError("window and zero set do not cover all edges")
    return window


def enumerate_integral_tensions(
    g: MultiGraph,
    o: Orientation,
    bound: int,
    mode: str = "strict_support",
    window: EdgeSubset | None = None,
    zero_set: EdgeSubset | None = None,
    guard: int | None = None,
) -> Iterator[IntegerEdgeFunction]:
    """Integer tensions with windowed values.

    Window semantics on edges of `window` (complement forced to zero):
      open:           0 < f(e) < bound
      closed:         0 <= f(e) <= bound
      strict_support: f(e) != 0 and |f(e)| < bound     (nowhere-zero)
      box:            |f(e)| < bound                   (zeros allowed)

    Enumerates window values on forest edges, integrates to a potential,
    and filters the derived off-forest values against their windows.
    """
    if mode not in INTEGRAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    window = _resolve_window(g, window, zero_set)
    forest = spanning_forest(g)
    cand = [_window_candidates(mode, bound, e in window) for e in forest]
    space = 1
    for c in cand:
        space *= len(c)
    check_state_space(space, guard, "integral tension enumeration")
    arcs = [arc(g, o, e) for e in range(g.edge_count)]
    nonforest = [e for e in range(g.edge_count) if e not in forest]
    for combo in itertools.product(*cand):
        forest_vals = dict(zip(forest, combo))
        p = _potential_from_forest_values(g, o, forest_vals)
        vals = [0] * g.edge_count
        ok = True
        for e in forest:
            vals[e] = forest_vals[e]
        for e in nonforest:
            t, h = arcs[e]
            v = p[t] - p[h]
            if not _window_ok(mode, bound, e in window, v):
                ok = False
                break
            vals[e] = v
        if ok:
            yield IntegerEdgeFunction(tuple(vals))


def enumerate_integral_flows(
    g: MultiGraph,
    o: Orientation,
    bound: int,
    mode: str = "strict_support",
    window: EdgeSubset | None = None,
    zero_set: EdgeSubset | None = None,
    guard: int | None = None,
) -> Iterator[IntegerEdgeFunction]:
    """Integer flows with windowed values; see enumerate_integral_tensions.

    Enumerates window values on co-forest edges, extends over the
    fundamental circuit matrix, and filters forest values.
    """
    if mode not in INTEGRAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    window = _resolve_window(g, window, zero_set)
    forest = spanning_forest(g)
    coforest = [e for e in range(g.edge_count) if e not in forest]
    cand = [_window_candidates(mode, bound, e in window) for e in coforest]
    space = 1
    for c in cand:
        space *= len(c)
    check_state_space(space, guard, "integral flow enumeration")
    circuits = fundamental_circuit_vectors(g, o)
    for combo in itertools.product(*cand):
        vals = [0] * g.edge_count
        for vec, c in zip(circuits, combo):
            if c:
                for e, s in enumerate(vec):
                    if s:
                        vals[e] += s * c
        ok = True
        for e in forest:
            if not _window_ok(mode, bound, e in window, vals[e]):
                ok = False
                break
        if ok:
            yield IntegerEdgeFunction(tuple(vals))


# -- weighted pair counting ---------------------------------------------------

# predicates receive (supp f mask, supp g mask, full mask)
PairPredicate = Callable[[int, int, int], bool]


def pred_nowhere_zero(fm: int, gm: int, full: int) -> bool:
    return (fm | gm) == full


def pred_complementary(fm: int, gm: int, full: int) -> bool:
    return gm == (full & ~fm)


def pred_disjoint_supports(fm: int, gm: int, full: int) -> bool:
    return (fm & gm) == 0


def pred_all(fm: int, gm: int, full: int) -> bool:
    return True


def support_pair_counts(
    tension_masks: Iterable[int], flow_masks: Iterable[int]
) -> dict[tuple[int, int], int]:
    """Counts of (supp f, supp g) over every pair of a tension and a flow,
    given the support masks of each.  Tensions and flows range
    independently, so each count is a product of two support counts."""
    flows = Counter(flow_masks)
    return {
        (fm, gm): a * b for fm, a in Counter(tension_masks).items() for gm, b in flows.items()
    }


def _support_mask(values: Sequence[Element]) -> int:
    mask = 0
    for e, val in enumerate(values):
        if any(val):
            mask |= 1 << e
    return mask


def pair_support_histogram(
    g: MultiGraph,
    o: Orientation,
    grp_a: FiniteAbelianGroup,
    grp_b: FiniteAbelianGroup,
    guard: int | None = None,
) -> dict[tuple[int, int], int]:
    """Counts of (supp f, supp g) over all (tension f over grp_a, flow g
    over grp_b) pairs; charges one state per pair counted."""
    r, n = rank_nullity(g)
    check_state_space(grp_a.order**r * grp_b.order**n, guard, "pair enumeration")
    return support_pair_counts(
        (_support_mask(values) for values in _iter_tension_values(g, o, grp_a, guard)),
        (_support_mask(values) for values in _iter_flow_values(g, o, grp_b, guard)),
    )


def count_pairs(
    g: MultiGraph,
    o: Orientation,
    grp_a: FiniteAbelianGroup,
    grp_b: FiniteAbelianGroup,
    predicate: PairPredicate,
    weight: Callable[[int, int, int], Union[int, MultiPoly]] | None = None,
    guard: int | None = None,
):
    """Sum of weight(supp f, supp g, E) over (tension f over grp_a,
    flow g over grp_b) pairs satisfying the predicate; weight defaults
    to 1, making this a plain count.  Exact brute enumeration.
    """
    full = (1 << g.edge_count) - 1
    total: Union[int, MultiPoly] = 0
    for (fm, gm), cnt in pair_support_histogram(g, o, grp_a, grp_b, guard).items():
        if predicate(fm, gm, full):
            total = total + cnt * (1 if weight is None else weight(fm, gm, full))
    return total


# -- reorientation, reduction, lattice index ----------------------------------


def reorient(
    g: MultiGraph, pair: TensionFlowPair, src: Orientation, dst: Orientation
) -> TensionFlowPair:
    """Transport a pair between orientations: values flip sign on edges
    where the orientations disagree.  Involutive; supports unchanged."""

    def convert(fn: EdgeFunction) -> EdgeFunction:
        if isinstance(fn, GroupElementFunction):
            vals = []
            for e in range(g.edge_count):
                v = fn.values[e]
                vals.append(fn.group.neg(v) if src.flips[e] != dst.flips[e] else v)
            return GroupElementFunction(fn.group, tuple(vals))
        vals_i = []
        for e in range(g.edge_count):
            v = fn.values[e]
            vals_i.append(-v if src.flips[e] != dst.flips[e] else v)
        return IntegerEdgeFunction(tuple(vals_i))

    return TensionFlowPair(convert(pair.tension), convert(pair.flow))


def modular_reduce(g: MultiGraph, pair: TensionFlowPair, p: int, q: int) -> TensionFlowPair:
    """Reduce an integer pair mod (Z_p, Z_q).  Supports may shrink."""
    if p < 1 or q < 1:
        raise ValueError("moduli must be >= 1")
    if not isinstance(pair.tension, IntegerEdgeFunction) or not isinstance(
        pair.flow, IntegerEdgeFunction
    ):
        raise TypeError("modular_reduce expects an integer pair")
    zp = FiniteAbelianGroup.cyclic(p)
    zq = FiniteAbelianGroup.cyclic(q)
    f = GroupElementFunction(zp, tuple((v % p,) for v in pair.tension.values))
    h = GroupElementFunction(zq, tuple((v % q,) for v in pair.flow.values))
    return TensionFlowPair(f, h)


def lattice_index(g: MultiGraph, o: Orientation) -> int:
    """Index of the direct sum (integral tensions + integral flows) in Z^E.

    Computed as the product of Smith normal form invariants of the matrix
    whose columns are the fundamental bond and circuit basis vectors.
    Equals the number of maximal forests of the graph.
    """
    cols = list(fundamental_bond_vectors(g, o)) + list(fundamental_circuit_vectors(g, o))
    m = g.edge_count
    if m == 0:
        return 1
    rows = [[col[e] for col in cols] for e in range(m)]
    diag = smith_normal_form(rows)
    index = 1
    for d in diag:
        if d == 0:
            raise ArithmeticError("tension-flow lattice is not full rank")
        index *= d
    return index
