"""Tension and flow groups of an oriented multigraph, and one count:
the integer tensions or flows in a window at every bound, from one walk
(`integral_window_counts`).  The enumerators are in `oracles`.

For an abelian group A, a tension is an edge function obtained as the
coboundary of a vertex potential (equivalently: signed sums over
circuits vanish), and a flow is an edge function with zero boundary at
every vertex.  Loops contribute nothing to boundaries, so a loop's flow
value is free while its tension value is forced to zero.

Tensions and flows are orthogonal complements, so a spanning forest
gives coordinates for both, and one table of fundamental circuits
(each co-forest edge with the signed forest path that closes it)
derives the remaining edges: a tension takes free values on the forest
edges, each co-forest edge getting minus the signed sum around its
circuit, and a flow free values on the co-forest edges, each forest
edge getting the transposed sum over the circuits through it.  Each
extension is bijective.

In a window, each derived value is filtered against its window as soon
as the free values it reads are set.  Each window mode is one row of
`_WINDOWS`, its ends as functions of the bound; the candidate lists,
the filters and the counts all read that row, and one generator,
`_walk`, does every walk.  `integral_window_counts` counts at every
bound from one walk at the largest bound that stops one free value
short: the last value ranges over one interval per bound, less single
points for nonzero windows, and a first free edge with a nonzero (so
symmetric) window is walked on its positive half only.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence, Union

from .config import Record, check_state_space, memoised_in_run
from .graph import EdgeSubset, MultiGraph, Orientation, arc, spanning_forest

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


def _support_mask(values: Sequence[Element]) -> int:
    mask = 0
    for e, val in enumerate(values):
        if any(val):
            mask |= 1 << e
    return mask


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
