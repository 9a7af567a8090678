"""Tension and flow groups of an oriented multigraph.

For an abelian group A, a tension is an edge function obtained as the
coboundary of a vertex potential (equivalently: signed sums over
circuits vanish), and a flow is an edge function with zero boundary at
every vertex.  Loops contribute nothing to boundaries, so a loop's flow
value is free while its tension value is forced to zero.

Enumeration strategies.  Tensions and flows are orthogonal complements,
so a spanning forest gives coordinates for both, and one table of
fundamental circuits (each co-forest edge with the signed forest path
that closes it) derives the remaining edges:

* modular tensions: free values on the forest edges, each co-forest
  edge e getting minus the signed sum around its circuit, |A|^rank many;
* modular flows: free values on the co-forest edges, each forest edge
  getting the transposed sum over the circuits through it,
  |A|^nullity many;
* integral tensions and flows in a window: window values on the free
  edges, extended in the same way, each derived value filtered against
  its window as soon as the free values it reads are set.  Each window
  mode is one row of `_WINDOWS`, its ends as functions of the bound;
  the candidate lists, the filters and the counts all read that row,
  and one generator, `_walk`, does every walk.
  `integral_window_counts` counts at every bound from one walk at the
  largest bound that stops one free value short: the last value ranges
  over one interval per bound, less single points for nonzero windows,
  and a first free edge with a nonzero (so symmetric) window is walked
  on its positive half only.  The generators stay the oracle for these
  counts.  An edge outside the window is 0, so its flip changes no
  count: within a run scope (`config.run_scope`) each count is walked
  once, keyed with the flips outside the window cleared.

Each extension is bijective, so the counts above are exact.  The same
table decides `is_tension` (zero sum around every fundamental circuit)
and gives the bases of `lattice_index`: the fundamental bond of a forest
edge is the unit tension there.

Every brute count of (tension, flow) pairs reads the pair classes of
`pair_support_classes`: the pairs whose supports are disjoint, cover
E, or both (complementary).  Tensions and flows range independently,
so one pass over the pairs of distinct supports of a tension count and
a flow count fills all three.  The support counts come from one walk
(`_support_walk`) that builds no function: it walks every free value
but the last, and counts the last, as every edge that reads it is zero
at one point.  A function over a product group A x B is a pair of
functions, its support the union of theirs, so the counts over a
product are the OR-product of those over its cyclic factors.  Supports
do not depend on the orientation, so each support count is keyed on
the graph, the group (or box bound) and the side alone, and a
verification run walks each once, for every pair of groups it takes
part in.  The generators above stay the oracle for these counts.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator, Sequence, Union

from .algebra import _eliminate
from .config import Record, check_state_space, memoised_in_run, state_guard
from .graph import EdgeSubset, MultiGraph, Orientation, arc, rank_nullity, spanning_forest

Element = tuple[int, ...]


class FiniteAbelianGroup(Record):
    """Direct product of cyclic groups Z_{m_1} x ... x Z_{m_k}.

    Elements are tuples of residues, one per factor, always reduced.
    The trivial group is FiniteAbelianGroup(()) or any factor list of
    ones; Z_1 factors are legal and behave as expected.
    """

    __slots__ = ("cyclic_orders",)

    def __init__(self, cyclic_orders: Sequence[int]):
        cyclic_orders = tuple(cyclic_orders)
        if any(m < 1 for m in cyclic_orders):
            raise ValueError("cyclic factor orders must be >= 1")
        object.__setattr__(self, "cyclic_orders", cyclic_orders)

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


class GroupElementFunction(Record):
    """Edge function with values in a finite abelian group."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteAbelianGroup, values: tuple[Element, ...]):
        k = len(group.cyclic_orders)
        for e, val in enumerate(values):
            if len(val) != k or val != group.reduce(val):
                raise ValueError(f"value {val} at edge {e} is not a reduced element")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return len(self.values)

    def support_mask(self) -> int:
        return _support_mask(self.values)

    def support(self) -> EdgeSubset:
        return EdgeSubset(self.support_mask(), self.width)

    def kernel(self) -> EdgeSubset:
        return self.support().complement()


class IntegerEdgeFunction(Record):
    """Edge function with integer values."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        object.__setattr__(self, "values", values)

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


# -- fundamental circuit table ----------------------------------------------


@memoised_in_run
def _circuit_table(
    g: MultiGraph, o: Orientation
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """(forest, co-forest, circuits): for each co-forest edge e, in id
    order, its fundamental circuit as (forest index, sign) terms, so that
    e + sum(sign * forest[index]) is a flow (the circuit traversed in the
    direction of e).

    Tensions and flows are orthogonal, so the table gives coordinates for
    both: a tension is fixed by its forest values, each co-forest edge e
    getting -sum(sign * value); a flow by its co-forest values, each
    forest edge getting the transposed sum.  Loops have empty circuits.
    """
    forest = spanning_forest(g)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for i, a in enumerate(forest):
        t, h = g.edges[a]
        adj[t].append((i, h))
        adj[h].append((i, t))
    # parent[v] = (forest index of the edge up, parent vertex); roots have none
    parent: list[tuple[int, int] | None] = [None] * g.vertex_count
    depth = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            for i, w in adj[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w] = (i, v)
                    queue.append(w)
    in_forest = set(forest)
    coforest = tuple(e for e in range(g.edge_count) if e not in in_forest)
    circuits = []
    for e in coforest:
        t, h = arc(g, o, e)
        # close e = (t, h) by the forest path h -> t: up from h, then down to t
        up: list[tuple[int, int]] = []
        down: list[tuple[int, int]] = []
        while h != t:
            if depth[h] >= depth[t]:
                i, u = parent[h]
                up.append((i, 1 if arc(g, o, forest[i]) == (h, u) else -1))
                h = u
            else:
                i, u = parent[t]
                down.append((i, 1 if arc(g, o, forest[i]) == (u, t) else -1))
                t = u
        circuits.append(tuple(up + down[::-1]))
    return forest, coforest, tuple(circuits)


def _coordinates(g: MultiGraph, o: Orientation, tensions: bool):
    """(free edges, dependent edges, rows): a tension (or flow) takes free
    values on the forest (co-forest), and dependent edge j gets
    sum(coefficient * free value[index]) over the (index, coefficient)
    terms of rows[j]."""
    forest, coforest, circuits = _circuit_table(g, o)
    if tensions:
        return forest, coforest, [[(i, -s) for i, s in row] for row in circuits]
    columns: list[list[tuple[int, int]]] = [[] for _ in forest]
    for j, row in enumerate(circuits):
        for i, s in row:
            columns[i].append((j, s))
    return coforest, forest, columns


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


# -- modular enumeration ----------------------------------------------------


def enumerate_tensions(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup
) -> Iterator[GroupElementFunction]:
    """All tensions over grp: free forest values extended over fundamental
    circuits.  Exactly |grp|^rank functions, each once, charged when the
    generator is first advanced, under the guard active then."""
    for values in _iter_tension_values(g, o, grp):
        yield GroupElementFunction(grp, values)


def _iter_tension_values(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup
) -> Iterator[tuple[Element, ...]]:
    yield from _iter_group_values(g, o, grp, True, "tension enumeration")


def enumerate_flows(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup
) -> Iterator[GroupElementFunction]:
    """All flows over grp: free co-forest values extended over fundamental
    circuits.  Exactly |grp|^nullity functions, each once, charged when
    the generator is first advanced, under the guard active then."""
    for values in _iter_flow_values(g, o, grp):
        yield GroupElementFunction(grp, values)


def _iter_flow_values(
    g: MultiGraph, o: Orientation, grp: FiniteAbelianGroup
) -> Iterator[tuple[Element, ...]]:
    yield from _iter_group_values(g, o, grp, False, "flow enumeration")


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


# -- integral enumeration ----------------------------------------------------

INTEGRAL_MODES = ("open", "closed", "strict_support", "box")

# each mode's window at bound b, as (lo, lo_moves, hi, hi_moves, nonzero):
# the integers v with lo - lo_moves * b <= v <= hi + hi_moves * b, less 0
# when nonzero; _ZERO (0 alone) is the window of the edges outside `window`
_WINDOWS = {
    "open": (1, 0, -1, 1, False),  # 0 < v < b
    "closed": (0, 0, 0, 1, False),  # 0 <= v <= b
    "strict_support": (1, 1, -1, 1, True),  # v != 0, |v| < b
    "box": (1, 1, -1, 1, False),  # |v| < b
}
_ZERO = (0, 0, 0, 0, False)


def _window_values(ends: tuple[int, int, int, int, bool], bound: int) -> list[int]:
    """The values of the window `ends` at `bound`, in increasing order."""
    lo, lo_moves, hi, hi_moves, nonzero = ends
    values = range(lo - lo_moves * bound, hi + hi_moves * bound + 1)
    return [v for v in values if v] if nonzero else list(values)


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


def integral_window_counts(
    g: MultiGraph,
    o: Orientation,
    tensions: bool,
    top: int,
    mode: str = "strict_support",
    window: EdgeSubset | None = None,
) -> list[int]:
    """How many functions `enumerate_integral_tensions` (or, with
    tensions=False, `enumerate_integral_flows`) yields at each bound
    0..top, from one walk of the box at top.

    `_walk` sets every free value but the last; let M be the largest
    |value| set.  In each window of `_WINDOWS` a value v of the box
    at top lies at bound b exactly when b >= |v| - hi, so the values
    set are all in their windows from bound M + shift on, shift being
    the largest -hi (at bound 0 a window edge of any mode but closed
    admits nothing).  The last free value is counted, not walked: at
    each bound the edges that read it confine it to one interval, less
    single points for nonzero windows (see `_last_value_bounds`).  A
    nonzero window is symmetric and f -> -f fixes none of its points,
    so when the first free edge has one, only its positive values are
    walked, each point counted twice.  The guard is charged the walked
    box.

    An edge outside `window` is 0, and reversing it negates its value,
    so its flip changes no count: the flips outside the window are
    cleared, and within a run scope each count is walked once.
    """
    if window is not None:
        o = Orientation(tuple([f and e in window for e, f in enumerate(o.flips)]))
    return list(_window_counts(g, o, tensions, top, mode, window))


@memoised_in_run
def _window_counts(
    g: MultiGraph,
    o: Orientation,
    tensions: bool,
    top: int,
    mode: str,
    window: EdgeSubset | None,
) -> tuple[int, ...]:
    """`integral_window_counts` as a tuple; always called with positional
    arguments, so that every caller shares one memo entry."""
    free, dependent, ends, cand, checks_at = _integral_walk(g, o, tensions, top, mode, window)
    weight = 1
    if len(free) > 1 and ends[free[0]][4]:  # nonzero, so symmetric
        cand[0] = [v for v in cand[0] if v > 0]
        weight = 2
    walked = cand[:-1]
    _charge(walked, tensions)
    counts = [0] * (top + 1)
    if checks_at is None:
        return tuple(counts)
    shift = -_WINDOWS[mode][2] if _WINDOWS[mode] in ends else 0
    if not free:
        return tuple(int(bound >= shift) for bound in range(top + 1))
    bounds = _last_value_bounds(ends, free[-1], dependent, checks_at[-1])
    for vals, derived in _walk(walked, checks_at, len(dependent)):
        # the largest |value| set: the dependent values that read x are
        # not set, and stay 0
        m = max(map(abs, vals + derived), default=0)
        # x lies in [max(p0, p1 - b), min(q0, q1 + b)] and is none of
        # the values in skip
        p0 = p1 = -top
        q0 = q1 = top
        skip = []
        for row, lo, lo_moves, hi, hi_moves, nonzero in bounds:
            u = 0
            for i, c in row:
                u += c * vals[i]
            if lo_moves:
                if u + lo > p1:
                    p1 = u + lo
            elif u + lo > p0:
                p0 = u + lo
            if hi_moves:
                if u + hi < q1:
                    q1 = u + hi
            elif u + hi < q0:
                q0 = u + hi
            if nonzero and u not in skip:
                skip.append(u)
        for bound in range(m + shift, top + 1):
            lo = p1 - bound if p1 - bound > p0 else p0
            hi = q1 + bound if q1 + bound < q0 else q0
            if lo <= hi:
                n = hi - lo + 1
                for u in skip:
                    if lo <= u <= hi:
                        n -= 1
                counts[bound] += n
    return tuple(weight * n for n in counts)


def _last_reads(
    last_edge: int, dependent: Sequence[int], last_checks: Sequence[tuple]
) -> list[tuple[int, list[tuple[int, int]], int]]:
    """The edges that read the last free value x, as (c, row, edge): the
    last free edge, value x, and each dependent edge checked at the last
    level, value s + c * x with s the sum of its other terms.  The
    coefficient c is +-1 (an entry of a fundamental circuit), so the
    value is c * (x - u) with u = -c * s, the sum of coefficient * free
    value over the terms of row (none for the last free edge, u = 0)."""
    reads = [(1, [], last_edge)]
    for j, row, _ in last_checks:
        (_, c), *others = sorted(row, reverse=True)  # the term of x first
        if c not in (1, -1):
            raise ArithmeticError(f"fundamental circuit coefficient {c} is not 1 or -1")
        reads.append((c, [(k, -c * a) for k, a in others], dependent[j]))
    return reads


def _last_value_bounds(
    ends: Sequence[tuple], last_edge: int, dependent: Sequence[int], last_checks: Sequence[tuple]
) -> list[tuple[list[tuple[int, int]], int, int, int, int, bool]]:
    """The bounds that the last free value x must meet, one per edge
    of `_last_reads`: the value c * (x - u) of each has its window (lo,
    lo_moves, hi, hi_moves, nonzero), which at bound b puts x in
    [u + lo - lo_moves * b, u + hi + hi_moves * b], x != u if nonzero:
    the window itself for c = 1, mirrored for c = -1.  Each bound is
    (row, lo, lo_moves, hi, hi_moves, nonzero) after the mirror.
    """
    out = []
    for c, row, edge in _last_reads(last_edge, dependent, last_checks):
        lo, lo_moves, hi, hi_moves, nonzero = ends[edge]
        if c == -1:
            lo, lo_moves, hi, hi_moves = -hi, hi_moves, -lo, lo_moves
        out.append((row, lo, lo_moves, hi, hi_moves, nonzero))
    return out


def _integral_walk(
    g: MultiGraph, o: Orientation, tensions: bool, bound: int, mode: str, window: EdgeSubset | None
):
    """The set-up of the walks at `bound`: (free edges, dependent edges,
    the window of each edge id as a `_WINDOWS` entry, candidate values
    per free edge, checks per free edge).  Each dependent edge j is
    checked, as (j, row, allowed values), at the free edge of largest
    index that its row reads, so a partial assignment that already
    fails is not extended.  The checks are None when a dependent edge
    that reads no free value refuses its value 0: nothing is in the
    window then, and the caller returns, after charging its box."""
    if mode not in INTEGRAL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    free, dependent, rows = _coordinates(g, o, tensions)
    window = EdgeSubset.full(g.edge_count) if window is None else window
    ends = [_WINDOWS[mode] if e in window else _ZERO for e in range(g.edge_count)]
    cand = [_window_values(ends[e], bound) for e in free]
    checks_at: list | None = [[] for _ in free]
    for j, (e, row) in enumerate(zip(dependent, rows)):
        allowed = set(_window_values(ends[e], bound))
        if row:  # (free index, coefficient) terms, each index once
            checks_at[max(row)[0]].append((j, row, allowed))
        elif 0 not in allowed:  # a row that reads nothing is always 0
            checks_at = None
            break
    return free, dependent, ends, cand, checks_at


def _charge(box: Sequence[Sequence[int]], tensions: bool) -> None:
    what = "integral tension enumeration" if tensions else "integral flow enumeration"
    check_state_space(math.prod(map(len, box)), what)


def _walk(
    box: Sequence[Sequence[int]], checks_at: Sequence[list], width: int
) -> Iterator[tuple[list[int], list[int]]]:
    """Depth first over the values box[0], box[1], ... of the first free
    edges, in the order of itertools.product, each dependent edge j
    checked at its level into derived[j].  Yields (vals, derived), the
    same two lists each time, for each assignment that passes every
    check."""
    vals, derived = [0] * len(box), [0] * width
    if not box:
        yield vals, derived
        return
    depth = len(box)
    levels = [iter(box[0])]
    while levels:
        d = len(levels) - 1
        for vals[d] in levels[d]:
            for j, row, allowed in checks_at[d]:
                v = 0
                for i, c in row:
                    v += c * vals[i]
                if v not in allowed:
                    break
                derived[j] = v
            else:
                if d + 1 < depth:
                    levels.append(iter(box[d + 1]))
                    break
                yield vals, derived
        else:
            levels.pop()


# -- support counts ------------------------------------------------------------


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


# -- support pair classes ------------------------------------------------------


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


def _support_mask(values: Sequence[Element]) -> int:
    mask = 0
    for e, val in enumerate(values):
        if any(val):
            mask |= 1 << e
    return mask


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


# -- lattice index --------------------------------------------------------------


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
