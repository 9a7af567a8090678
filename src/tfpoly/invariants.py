"""Polynomial invariants of multigraphs built from tensions and flows.

Conventions used throughout:

* r and n are the rank and nullity of the whole edge set; r<X>, n<X>
  those of a subset X.
* The corank-nullity (Whitney) polynomial is
      R(G;x,y) = sum over X of x^(r - r<X>) y^(n<X>),
  and the Tutte polynomial is T(G;x,y) = R(G;x-1,y-1).
* omega(G;x,y) = sum over X of (-1)^|X| x^(r - r<X>) y^(n<X complement>)
  counts nowhere-zero (tension, flow) pairs when x, y are the group
  orders; the count depends only on the orders, not the group
  structures.
* For an orientation rho with bond part B and circuit part C,
  kappa_rho(G;x,y) is the product of the open window counts
      #{integer tensions: f = 0 on C, 0 < f < x on B} and
      #{integer flows:    g = 0 on B, 0 < g < y on C},
  each a polynomial by lattice point counting in a rational polytope;
  the closed variant uses windows 0 <= f <= x and 0 <= g <= y.
* The psi family sums z^|B| w^|C| kappa over orientations: the modular
  pair (psi, bar_psi) over one representative per cut-Eulerian class,
  the integral pair (psi_z, bar_psi_z) over all orientations.  For the
  integral pair each loop contributes a factor of 2: a loop has a
  single combinatorial orientation but its integer flow window counts
  both signs, so the lattice-point definitions (which these sums must
  reproduce) see every loop twice.  Loopless graphs are unaffected.
  These orientation sums (psi_by_orientations) are kept as oracles.
  psi_family computes the same polynomials as a convolution over the
  cyclic flats X (closed sets whose restriction has no bridge):
      psi(x,y,z,w) = sum over X of z^|E - X| w^|X| tau(G/X; x) phi(G|X; y),
  with the tension and flow polynomials of the minors for psi and their
  integral counterparts for psi_z; a loop's nonzero integer flows with
  |g| < t number 2(t - 1), so the factor 2 per loop needs no special
  case there.  The closed sums follow by reciprocity,
      bar(x,y,z,w) = (-1)^n psi(-x,-y,-z,w).

All identity checkers return report objects; nothing is asserted
silently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import MultiPoly, interpolate_univariate
from .config import VerificationError, check_state_space, state_guard
from .graph import (
    EdgeSubset,
    MultiGraph,
    Orientation,
    _UnionFind,
    components_count,
    rank_nullity,
    subset_rank_table,
)
from .orientations import all_orientations, classify_edges, cut_eulerian_classes
from .tensionflow import (
    FiniteAbelianGroup,
    _iter_flow_values,
    _iter_tension_values,
    count_pairs,
    enumerate_integral_flows,
    enumerate_integral_tensions,
    pair_support_histogram,
    pred_nowhere_zero,
    support_pair_counts,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")
W = MultiPoly.var("w")
U = MultiPoly.var("u")
V = MultiPoly.var("v")


# -- Tutte polynomial and its evaluations ---------------------------------------

# A minor in the deletion-contraction below is a flat tuple u1, v1, k1,
# u2, v2, k2, ... of parallel classes, sorted: k edges between vertices
# u < v, where the vertices that carry edges are renumbered 0, 1, 2, ...
# in their order.  Flat tuples keep the memo small, and the renumbering
# lets minors reached along different branches share one memo entry.
# The graph's loops come out up front as a power of y, and the k - 1
# loops left by contracting a class go into the recursion's coefficients.
Minor = tuple[int, ...]


def _minor(classes) -> Minor:
    """Minor of (a, b, k) triples: parallel classes merged, vertices
    renumbered in order."""
    mult: dict[tuple[int, int], int] = {}
    for a, b, k in classes:
        key = (a, b) if a < b else (b, a)
        mult[key] = mult.get(key, 0) + k
    rank = {v: i for i, v in enumerate(sorted({v for pair in mult for v in pair}))}
    return tuple(
        n for (u, v), k in sorted(mult.items()) for n in (rank[u], rank[v], k)
    )


def _contract_first(minor: Minor) -> Minor:
    """Contract the first class; its other k - 1 edges become loops, which
    the caller accounts for."""
    u, v = minor[0], minor[1]
    return _minor(
        (u if a == v else a, u if b == v else b, k)
        for a, b, k in zip(minor[3::3], minor[4::3], minor[5::3])
    )


def _first_class_on_cycle(minor: Minor) -> bool:
    """Whether the ends of the first class stay connected without it."""
    u, v = minor[0], minor[1]
    adj: dict[int, list[int]] = {}
    for a, b in zip(minor[3::3], minor[4::3]):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {u}
    stack = [u]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def _tutte_recursion(g: MultiGraph, guard: int | None = None) -> MultiPoly:
    """Tutte polynomial by deletion-contraction of whole parallel classes.

    For a class of k edges, T(G) = T(G - P) + (1 + y + ... + y^(k-1)) T(G / P)
    when its ends stay connected without it, and (x + y + ... + y^(k-1))
    T(G / P) when it is a bridge class.  Minors are memoised for this call
    only, and each one is charged its classes plus the terms of its
    polynomial against the state guard, which so bounds both the time and
    the memo's memory.  An explicit stack keeps deep minors off the
    interpreter's call stack.
    """
    limit = state_guard(guard)
    loops = len(g.loop_ids())
    root = _minor((t, h, 1) for t, h in g.edges if t != h)
    # the term x^i y^j is keyed i * stride + j: y-degrees stay below stride
    stride = g.edge_count + 1
    # finished polynomials as (keys, coefficients): two tuples are a
    # fraction of the memory of a dict
    memo: dict[Minor, tuple[tuple[int, ...], tuple[int, ...]]] = {(): ((0,), (1,))}
    spent = 0
    # (minor, None) asks for a minor; (minor, (deleted, contracted)) comes
    # back up once both are in the memo (deleted is None for a bridge class)
    stack: list[tuple[Minor, tuple[Minor | None, Minor] | None]] = [(root, None)]
    while stack:
        minor, plan = stack.pop()
        if minor in memo:
            continue
        if plan is None:
            deleted = (
                _minor(zip(minor[3::3], minor[4::3], minor[5::3]))
                if _first_class_on_cycle(minor)
                else None
            )
            plan = (deleted, _contract_first(minor))
            stack.append((minor, plan))
            stack.extend((m, None) for m in plan if m is not None and m not in memo)
            continue
        deleted, contracted = plan
        k = minor[2]
        terms = dict(zip(*memo[deleted])) if deleted is not None else {}
        lead = 0 if deleted is not None else stride
        for key, c in zip(*memo[contracted]):
            terms[key + lead] = terms.get(key + lead, 0) + c
            for s in range(1, k):
                terms[key + s] = terms.get(key + s, 0) + c
        memo[minor] = (tuple(terms), tuple(terms.values()))
        spent += len(minor) // 3 + len(terms)
        if spent > limit:
            check_state_space(spent, guard, "Tutte deletion-contraction")
    return MultiPoly(
        ("x", "y"),
        {(key // stride, key % stride + loops): c for key, c in zip(*memo[root])},
    )


def whitney_by_subsets(g: MultiGraph, guard: int | None = None) -> MultiPoly:
    """Corank-nullity generating function summed over all edge subsets;
    the oracle for `whitney` and the `shift` route of `tutte`."""
    table = subset_rank_table(g, guard)
    r = table[(1 << g.edge_count) - 1]
    terms: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.edge_count):
        size = mask.bit_count()
        key = (r - table[mask], size - table[mask])
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(("x", "y"), terms)


def tutte(g: MultiGraph, route: str = "recursion", guard: int | None = None) -> MultiPoly:
    """Tutte polynomial by deletion-contraction (the default), by the
    Whitney shift of the subset expansion, or both with an equality
    check.  The guard bounds each route."""
    if route == "recursion":
        return _tutte_recursion(g, guard)
    if route == "shift":
        return whitney_by_subsets(g, guard).substitute({"x": X - 1, "y": Y - 1})
    if route == "checked":
        # the subset expansion is charged up front, so it refuses first
        b = whitney_by_subsets(g, guard).substitute({"x": X - 1, "y": Y - 1})
        a = _tutte_recursion(g, guard)
        if a != b:
            raise VerificationError(
                f"tutte routes disagree on {g.fingerprint()}: {a} vs {b}"
            )
        return a
    raise ValueError(f"unknown route {route!r}")


def whitney(g: MultiGraph, guard: int | None = None) -> MultiPoly:
    """Corank-nullity polynomial R(x, y) = T(x + 1, y + 1)."""
    return _tutte_recursion(g, guard).substitute({"x": X + 1, "y": Y + 1})


def tension_poly(g: MultiGraph, var: str = "t", guard: int | None = None) -> MultiPoly:
    """Nowhere-zero tension counting polynomial (-1)^r T(1 - t, 0)."""
    r, _ = rank_nullity(g)
    t = MultiPoly.var(var)
    return (-1) ** r * _tutte_recursion(g, guard).substitute({"x": 1 - t, "y": 0})


def flow_poly(g: MultiGraph, var: str = "t", guard: int | None = None) -> MultiPoly:
    """Nowhere-zero flow counting polynomial (-1)^n T(0, 1 - t)."""
    _, n = rank_nullity(g)
    t = MultiPoly.var(var)
    return (-1) ** n * _tutte_recursion(g, guard).substitute({"x": 0, "y": 1 - t})


def chromatic_poly(g: MultiGraph, var: str = "t", guard: int | None = None) -> MultiPoly:
    """Proper colouring polynomial: t^(components) times the tension
    polynomial."""
    c = components_count(g)
    return MultiPoly.monomial((var,), (c,)) * tension_poly(g, var, guard)


def omega(g: MultiGraph, route: str = "expansion", guard: int | None = None) -> MultiPoly:
    """Signed subset expansion counting nowhere-zero pairs, either
    directly or as the characteristic polynomial of the graphic
    arrangement."""
    if route == "expansion":
        table = subset_rank_table(g, guard)
        m = g.edge_count
        full = (1 << m) - 1
        r = table[full]
        terms: dict[tuple[int, int], int] = {}
        for mask in range(1 << m):
            comp = full ^ mask
            key = (r - table[mask], comp.bit_count() - table[comp])
            sign = -1 if mask.bit_count() & 1 else 1
            terms[key] = terms.get(key, 0) + sign
        return MultiPoly(("x", "y"), terms)
    if route == "arrangement":
        from .arrangements import graphic_semilattice

        return graphic_semilattice(g, guard).characteristic_polynomial()
    raise ValueError(f"unknown route {route!r}")


def omega_value(
    g: MultiGraph,
    grp_a: FiniteAbelianGroup,
    grp_b: FiniteAbelianGroup,
    guard: int | None = None,
) -> int:
    """Brute count of nowhere-zero (tension over grp_a, flow over grp_b)
    pairs; depends only on the group orders."""
    o = Orientation.reference(g)
    return count_pairs(g, o, grp_a, grp_b, pred_nowhere_zero, guard=guard)


# -- support histograms (shared brute enumerations) ---------------------------


def support_histogram(
    g: MultiGraph, p: int, q: int, guard: int | None = None
) -> dict[tuple[int, int], int]:
    """Counts of (supp f, supp g) mask pairs over all (tension over Z_p,
    flow over Z_q) pairs.  Supports are orientation independent."""
    return _support_histogram(g, p, q, state_guard(guard))


@functools.lru_cache(maxsize=None)
def _support_histogram(g: MultiGraph, p: int, q: int, guard: int) -> dict[tuple[int, int], int]:
    return pair_support_histogram(
        g,
        Orientation.reference(g),
        FiniteAbelianGroup.cyclic(p),
        FiniteAbelianGroup.cyclic(q),
        guard,
    )


def integral_support_histogram(
    g: MultiGraph, p: int, q: int, guard: int | None = None
) -> dict[tuple[int, int], int]:
    """Counts of (supp f, supp g) mask pairs over integer pairs with
    |f| < p and |g| < q everywhere (zeros allowed)."""
    return _integral_support_histogram(g, p, q, state_guard(guard))


@functools.lru_cache(maxsize=None)
def _integral_support_histogram(
    g: MultiGraph, p: int, q: int, guard: int
) -> dict[tuple[int, int], int]:
    o = Orientation.reference(g)
    tens = enumerate_integral_tensions(g, o, p, "box", guard=guard)
    flows = enumerate_integral_flows(g, o, q, "box", guard=guard)
    return support_pair_counts(
        (fn.support_mask() for fn in tens), (fn.support_mask() for fn in flows), guard
    )


def modular_complementary_count(g: MultiGraph, p: int, q: int, guard: int | None = None) -> int:
    full = (1 << g.edge_count) - 1
    return sum(
        cnt
        for (fm, gm), cnt in support_histogram(g, p, q, guard).items()
        if gm == full & ~fm
    )


def integral_complementary_count(
    g: MultiGraph, p: int, q: int, guard: int | None = None
) -> int:
    full = (1 << g.edge_count) - 1
    return sum(
        cnt
        for (fm, gm), cnt in integral_support_histogram(g, p, q, guard).items()
        if gm == full & ~fm
    )


# -- interpolated one-variable families (tension and flow oracles) -----------


def _count_nowhere_zero_tensions(g: MultiGraph, q: int, guard: int | None = None) -> int:
    o = Orientation.reference(g)
    grp = FiniteAbelianGroup.cyclic(q)
    total = 0
    for values in _iter_tension_values(g, o, grp, guard):
        if all(any(v) for v in values):
            total += 1
    return total


def _count_nowhere_zero_flows(g: MultiGraph, q: int, guard: int | None = None) -> int:
    o = Orientation.reference(g)
    grp = FiniteAbelianGroup.cyclic(q)
    total = 0
    for values in _iter_flow_values(g, o, grp, guard):
        if all(any(v) for v in values):
            total += 1
    return total


def tension_poly_by_enumeration(
    g: MultiGraph, var: str = "t", guard: int | None = None
) -> MultiPoly:
    """Nowhere-zero tension polynomial interpolated from brute counts over
    Z_q; the oracle for `tension_poly`."""
    r, _ = rank_nullity(g)
    samples = [(q, _count_nowhere_zero_tensions(g, q, guard)) for q in range(1, r + 4)]
    return interpolate_univariate(samples, r, var)


def flow_poly_by_enumeration(
    g: MultiGraph, var: str = "t", guard: int | None = None
) -> MultiPoly:
    """Nowhere-zero flow polynomial interpolated from brute counts over
    Z_q; the oracle for `flow_poly`."""
    _, n = rank_nullity(g)
    samples = [(q, _count_nowhere_zero_flows(g, q, guard)) for q in range(1, n + 4)]
    return interpolate_univariate(samples, n, var)


def integral_tension_poly(g: MultiGraph, var: str = "t", guard: int | None = None) -> MultiPoly:
    """Counting polynomial of nowhere-zero integer tensions with |f| < t."""
    return _integral_tension_poly(g, var, state_guard(guard))


@functools.lru_cache(maxsize=None)
def _integral_tension_poly(g: MultiGraph, var: str, guard: int) -> MultiPoly:
    r, _ = rank_nullity(g)
    o = Orientation.reference(g)
    samples = []
    # largest box first: a graph over the guard is refused before any work
    for q in range(r + 3, 0, -1):
        cnt = sum(1 for _ in enumerate_integral_tensions(g, o, q, "strict_support", guard=guard))
        samples.append((q, cnt))
    # integer-valued but not integer-coefficient in general (lattice point
    # counts live in the binomial basis)
    return interpolate_univariate(samples, r, var, integral=False)


def integral_flow_poly(g: MultiGraph, var: str = "t", guard: int | None = None) -> MultiPoly:
    """Counting polynomial of nowhere-zero integer flows with |g| < t."""
    return _integral_flow_poly(g, var, state_guard(guard))


@functools.lru_cache(maxsize=None)
def _integral_flow_poly(g: MultiGraph, var: str, guard: int) -> MultiPoly:
    _, n = rank_nullity(g)
    o = Orientation.reference(g)
    samples = []
    for q in range(n + 3, 0, -1):
        cnt = sum(1 for _ in enumerate_integral_flows(g, o, q, "strict_support", guard=guard))
        samples.append((q, cnt))
    return interpolate_univariate(samples, n, var, integral=False)


# -- per-orientation window polynomials ---------------------------------------


def kappa_rho(
    g: MultiGraph, o: Orientation, mode: str = "open", guard: int | None = None
) -> MultiPoly:
    """Product of the tension window polynomial in x and the flow window
    polynomial in y for orientation o.

    open:   f = 0 on C, 0 < f < x on B;   g = 0 on B, 0 < g < y on C.
    closed: f = 0 on C, 0 <= f <= x on B; g = 0 on B, 0 <= g <= y on C.
    """
    if mode not in ("open", "closed"):
        raise ValueError(f"unknown mode {mode!r}")
    return _kappa_rho(g, o, mode, state_guard(guard))


@functools.lru_cache(maxsize=None)
def _kappa_rho(g: MultiGraph, o: Orientation, mode: str, guard: int) -> MultiPoly:
    b, c = classify_edges(g, o)
    r, n = rank_nullity(g)
    t_samples = []
    for val in range(1, r + 4):
        cnt = sum(
            1
            for _ in enumerate_integral_tensions(
                g, o, val, mode, window=b, zero_set=c, guard=guard
            )
        )
        t_samples.append((val, cnt))
    f_samples = []
    for val in range(1, n + 4):
        cnt = sum(
            1
            for _ in enumerate_integral_flows(
                g, o, val, mode, window=c, zero_set=b, guard=guard
            )
        )
        f_samples.append((val, cnt))
    # a single orientation's window counts need not have integer
    # coefficients (the transitive triangle gives (x-1)(x-2)/2); the
    # denominators cancel in any sum over a full orientation class
    t_poly = interpolate_univariate(t_samples, r, "x", integral=False)
    f_poly = interpolate_univariate(f_samples, n, "y", integral=False)
    return t_poly * f_poly


PSI_KINDS = ("psi", "bar_psi", "psi_z", "bar_psi_z")


def psi_by_orientations(
    g: MultiGraph, which: str = "psi_z", guard: int | None = None
) -> MultiPoly:
    """Weighted orientation sums of kappa window polynomials, in
    variables (x, y, z, w); the oracle for `psi_family`.

    psi / bar_psi: open / closed kappa over one representative per
    cut-Eulerian class.  psi_z / bar_psi_z: open / closed kappa over
    all orientations, times 2 per loop (see the module docstring).
    """
    if which not in PSI_KINDS:
        raise ValueError(f"unknown psi kind {which!r}")
    mode = "closed" if which.startswith("bar") else "open"
    if which.endswith("_z"):
        reps = all_orientations(g, guard)
        multiplier = 2 ** len(g.loop_ids())
    else:
        reps = [cls.representative for cls in cut_eulerian_classes(g, guard)]
        multiplier = 1
    total = MultiPoly.zero(("x", "y", "z", "w"))
    for o in reps:
        b, c = classify_edges(g, o)
        weight = MultiPoly(("z", "w"), {(b.size, c.size): multiplier})
        total = total + weight * kappa_rho(g, o, mode, guard)
    return total


def _cyclic_flat_minors(g: MultiGraph, guard: int | None = None):
    """(G/X, G|X, |X|) for every cyclic flat X: every loop is in X, no
    other edge has both ends joined by X, and G|X has no bridge.  The
    scan over subsets of the E' non-loop edges charges 2^E' x E' states."""
    non_loops = g.non_loop_ids()
    check_state_space((1 << len(non_loops)) * len(non_loops), guard, "cyclic flat scan")
    loops = list(g.loop_ids())
    for bits in range(1 << len(non_loops)):
        inside = [e for i, e in enumerate(non_loops) if bits >> i & 1]
        outside = [e for i, e in enumerate(non_loops) if not bits >> i & 1]
        uf = _UnionFind(g.vertex_count)
        for e in inside:
            uf.union(*g.edges[e])
        if any(uf.find(t) == uf.find(h) for t, h in (g.edges[e] for e in outside)):
            continue
        if any(_is_bridge(g, inside, e) for e in inside):
            continue
        label: dict[int, int] = {}
        part = [label.setdefault(uf.find(v), len(label)) for v in range(g.vertex_count)]
        contracted = MultiGraph(
            len(label), tuple((part[t], part[h]) for t, h in (g.edges[e] for e in outside))
        )
        restricted = MultiGraph(g.vertex_count, tuple(g.edges[e] for e in inside + loops))
        yield contracted, restricted, len(inside) + len(loops)


def _is_bridge(g: MultiGraph, edges: list[int], bridge: int) -> bool:
    """Whether the ends of `bridge` fall apart without it in (V, edges)."""
    uf = _UnionFind(g.vertex_count)
    for e in edges:
        if e != bridge:
            uf.union(*g.edges[e])
    t, h = g.edges[bridge]
    return uf.find(t) != uf.find(h)


def psi_family(
    g: MultiGraph, which: str = "psi_z", guard: int | None = None
) -> MultiPoly:
    """The psi family in variables (x, y, z, w), as the convolution over
    cyclic flats X of z^|E - X| w^|X| tau(G/X; x) phi(G|X; y).

    psi takes the tension and flow polynomials of the minors, psi_z the
    integral ones; bar_psi and bar_psi_z follow by reciprocity,
    bar(x,y,z,w) = (-1)^n psi(-x,-y,-z,w).  The values equal the
    orientation sums of `psi_by_orientations` (see the module
    docstring).  The guard bounds the scan for cyclic flats and each
    minor's polynomial.
    """
    if which not in PSI_KINDS:
        raise ValueError(f"unknown psi kind {which!r}")
    if which.startswith("bar_"):
        _, n = rank_nullity(g)
        open_poly = psi_family(g, which[len("bar_"):], guard)
        negated = [i for i, v in enumerate(open_poly.variables) if v in ("x", "y", "z")]
        return MultiPoly(
            open_poly.variables,
            {
                exps: -c if (n + sum(exps[i] for i in negated)) & 1 else c
                for exps, c in open_poly.terms.items()
            },
        )
    if which == "psi_z":
        tension, flow = integral_tension_poly, integral_flow_poly
    else:
        tension, flow = tension_poly, flow_poly
    m = g.edge_count
    total = MultiPoly.zero(("x", "y", "z", "w"))
    for contracted, restricted, size in _cyclic_flat_minors(g, guard):
        weight = MultiPoly(("z", "w"), {(m - size, size): 1})
        total = total + weight * tension(contracted, "x", guard) * flow(restricted, "y", guard)
    return total


# -- report plumbing -----------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    details: tuple[str, ...] = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" [{'; '.join(self.details)}]" if self.details and not self.passed else ""
        return f"{status} {self.name}{suffix}"


@dataclass(frozen=True)
class IdentityReport:
    graph: str
    checks: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _outcome(name: str, passed: bool, *details: str) -> CheckOutcome:
    return CheckOutcome(name, bool(passed), tuple(details) if not passed else ())


# -- reciprocity and specialization --------------------------------------------


def reciprocity_check(g: MultiGraph, guard: int | None = None) -> IdentityReport:
    """Sign reciprocity between the open and closed orientation sums of
    `psi_by_orientations`, for the modular pair, the integral pair, and
    every single orientation.  The production `psi_family` derives its
    closed sums by this reciprocity, so checking it there would prove
    nothing."""
    r, n = rank_nullity(g)
    sr = -1 if r & 1 else 1
    sn = -1 if n & 1 else 1
    checks: list[CheckOutcome] = []
    for which, bar in (("psi", "bar_psi"), ("psi_z", "bar_psi_z")):
        open_poly = psi_by_orientations(g, which, guard)
        closed_poly = psi_by_orientations(g, bar, guard)
        lhs = open_poly.negate_vars(["x", "y"])
        via_z = sn * closed_poly.negate_vars(["z"])
        via_w = sr * closed_poly.negate_vars(["w"])
        checks.append(
            _outcome(
                f"{which}(-x,-y,z,w) = (-1)^n {bar}(x,y,-z,w)",
                lhs == via_z,
                f"lhs={lhs}",
                f"rhs={via_z}",
            )
        )
        checks.append(
            _outcome(
                f"{which}(-x,-y,z,w) = (-1)^r {bar}(x,y,z,-w)",
                lhs == via_w,
                f"lhs={lhs}",
                f"rhs={via_w}",
            )
        )
    per_orientation_ok = True
    witness: tuple[str, ...] = ()
    for o in all_orientations(g, guard):
        b, c = classify_edges(g, o)
        sign = -1 if (r + c.size) & 1 else 1
        lhs = kappa_rho(g, o, "open", guard).negate_vars(["x", "y"])
        rhs = sign * kappa_rho(g, o, "closed", guard)
        if lhs != rhs:
            per_orientation_ok = False
            witness = (f"flips={o.flips}", f"lhs={lhs}", f"rhs={rhs}")
            break
    checks.append(
        _outcome(
            "kappa(-x,-y) = (-1)^(r+|C|) kappa_closed(x,y) for every orientation",
            per_orientation_ok,
            *witness,
        )
    )
    return IdentityReport(g.fingerprint(), tuple(checks))


def specialization_check(
    g: MultiGraph,
    grid: Sequence[tuple[int, int]] = tuple(
        (p, q) for p in (2, 3, 4) for q in (2, 3, 4)
    ),
    guard: int | None = None,
) -> IdentityReport:
    """Pin (z, w) in the orientation sums of `psi_by_orientations` and
    compare against the directly defined counting polynomials and brute
    counts.  (In the convolution of `psi_family`, psi(x,y,1,0) is the
    single term of the empty X, so checking it there would prove nothing.)"""
    checks: list[CheckOutcome] = []
    psi_z = psi_by_orientations(g, "psi_z", guard)
    psi_m = psi_by_orientations(g, "psi", guard)

    tz = integral_tension_poly(g, "x", guard)
    fz = integral_flow_poly(g, "y", guard)
    checks.append(
        _outcome(
            "psi_z(x,y,1,0) = integral tension polynomial",
            psi_z.substitute({"z": 1, "w": 0}) == tz,
            f"got={psi_z.substitute({'z': 1, 'w': 0})}",
            f"want={tz}",
        )
    )
    checks.append(
        _outcome(
            "psi_z(x,y,0,1) = integral flow polynomial",
            psi_z.substitute({"z": 0, "w": 1}) == fz,
            f"got={psi_z.substitute({'z': 0, 'w': 1})}",
            f"want={fz}",
        )
    )
    # with no edges both sums are the empty product 1, not 0
    origin = MultiPoly.const(1) if g.edge_count == 0 else MultiPoly.zero(())
    checks.append(
        _outcome(
            "psi_z(x,y,0,0) = 0 (1 when edgeless)",
            psi_z.substitute({"z": 0, "w": 0}) == origin,
        )
    )
    tm = tension_poly(g, "x", guard)
    fm = flow_poly(g, "y", guard)
    checks.append(
        _outcome(
            "psi(x,y,1,0) = tension polynomial",
            psi_m.substitute({"z": 1, "w": 0}) == tm,
            f"got={psi_m.substitute({'z': 1, 'w': 0})}",
            f"want={tm}",
        )
    )
    checks.append(
        _outcome(
            "psi(x,y,0,1) = flow polynomial",
            psi_m.substitute({"z": 0, "w": 1}) == fm,
            f"got={psi_m.substitute({'z': 0, 'w': 1})}",
            f"want={fm}",
        )
    )
    checks.append(
        _outcome(
            "psi(x,y,0,0) = 0 (1 when edgeless)",
            psi_m.substitute({"z": 0, "w": 0}) == origin,
        )
    )
    kz = psi_z.substitute({"z": 1, "w": 1})
    km = psi_m.substitute({"z": 1, "w": 1})
    bad_z = []
    bad_m = []
    for p, q in grid:
        want_z = integral_complementary_count(g, p, q, guard)
        got_z = kz.evaluate(x=p, y=q)
        if got_z != want_z:
            bad_z.append(f"({p},{q}): poly {got_z} vs count {want_z}")
        want_m = modular_complementary_count(g, p, q, guard)
        got_m = km.evaluate(x=p, y=q)
        if got_m != want_m:
            bad_m.append(f"({p},{q}): poly {got_m} vs count {want_m}")
    checks.append(
        _outcome(
            "psi_z(p,q,1,1) = integer complementary pair count on the grid",
            not bad_z,
            *bad_z,
        )
    )
    checks.append(
        _outcome(
            "psi(p,q,1,1) = modular complementary pair count on the grid",
            not bad_m,
            *bad_m,
        )
    )
    return IdentityReport(g.fingerprint(), tuple(checks))


# -- Tutte values from orientation triples --------------------------------------

QUADRANTS = ("++", "+-", "-+", "--")


def _check_quadrant(p: int, q: int, quadrant: str) -> None:
    if quadrant not in QUADRANTS:
        raise ValueError(f"unknown quadrant {quadrant!r}")
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")


def tutte_value(
    g: MultiGraph, p: int, q: int, quadrant: str = "++", guard: int | None = None
) -> int:
    """T(G; +-p, +-q), the signs read from the quadrant, evaluated from
    the Tutte polynomial; `tutte_value_triples` is its oracle."""
    _check_quadrant(p, q, quadrant)
    x = p if quadrant[0] == "+" else -p
    y = q if quadrant[1] == "+" else -q
    return tutte(g, "recursion", guard).evaluate(x=x, y=y)


def tutte_value_triples(
    g: MultiGraph, p: int, q: int, quadrant: str = "++", guard: int | None = None
) -> int:
    """Signed count of (class representative, windowed tension, windowed
    flow) triples reproducing T(G; +-p, +-q); the oracle for
    `tutte_value`, checked by criterion 3.

    Windows per quadrant, with B and C the bond and circuit parts of
    the representative:
      ++: 0 <= f < p everywhere;        0 <= g < q everywhere
      -+: f = 0 on C, 0 < f <= p on B;  0 <= g < q; sign (-1)^(r - r<C>)
      +-: 0 <= f < p;  g = 0 on B, 0 < g <= q on C; sign (-1)^(n<C>)
      --: both one-sided windows;       sign (-1)^(r + |C|)
    """
    _check_quadrant(p, q, quadrant)
    r, _ = rank_nullity(g)
    total = 0
    full = EdgeSubset.full(g.edge_count)
    for cls in cut_eulerian_classes(g, guard):
        o = cls.representative
        b, c = classify_edges(g, o)
        rc, nc = rank_nullity(g, c)
        if quadrant[0] == "+":
            tens = sum(
                1
                for _ in enumerate_integral_tensions(
                    g, o, p - 1, "closed", window=full, guard=guard
                )
            )
        else:
            # 0 < f <= p on B is the open window at bound p + 1
            tens = sum(
                1
                for _ in enumerate_integral_tensions(
                    g, o, p + 1, "open", window=b, zero_set=c, guard=guard
                )
            )
        if quadrant[1] == "+":
            flows = sum(
                1
                for _ in enumerate_integral_flows(
                    g, o, q - 1, "closed", window=full, guard=guard
                )
            )
        else:
            flows = sum(
                1
                for _ in enumerate_integral_flows(
                    g, o, q + 1, "open", window=c, zero_set=b, guard=guard
                )
            )
        sign = 1
        if quadrant == "-+":
            sign = -1 if (r - rc) & 1 else 1
        elif quadrant == "+-":
            sign = -1 if nc & 1 else 1
        elif quadrant == "--":
            sign = -1 if (r + c.size) & 1 else 1
        total += sign * tens * flows
    return total


# -- two-variable brute identities ----------------------------------------------


def _omega_xy_size(table: Sequence[int], x_mask: int, y_mask: int, p: int, q: int) -> int:
    """|T_X x F_Y|: tensions vanishing on X times flows vanishing on Y,
    over groups of orders p and q; table is the graph's subset rank
    table."""
    full = len(table) - 1
    r = table[full]
    dim_t = r - table[x_mask]
    comp = full & ~y_mask
    dim_f = comp.bit_count() - table[comp]
    return p**dim_t * q**dim_f


def whitney_weighted_sums(g: MultiGraph, p: int, q: int, guard: int | None = None) -> tuple[int, int]:
    """(weighted disjoint-support sum, signed complementary sum):

    * sum of 2^(|ker f| - |supp g|) over pairs with supp g inside ker f,
      which reproduces the Whitney polynomial at (p, q);
    * (-1)^r times the sum of (-1)^|supp g| over complementary pairs,
      which reproduces it at (-p, -q).
    """
    hist = support_histogram(g, p, q, guard)
    m = g.edge_count
    full = (1 << m) - 1
    r, _ = rank_nullity(g)
    disjoint_sum = 0
    signed_sum = 0
    for (fm, gm), cnt in hist.items():
        kerf = full & ~fm
        if gm & ~kerf == 0:
            disjoint_sum += cnt * 2 ** (kerf & ~gm).bit_count()
        if gm == kerf:
            signed_sum += cnt * (-1 if gm.bit_count() & 1 else 1)
    if r & 1:
        signed_sum = -signed_sum
    return disjoint_sum, signed_sum


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _hist_weighted_sum(
    hist: dict[tuple[int, int], int],
    domain: Callable[[int, int], bool],
    weight: Callable[[int, int], MultiPoly | int],
    start: MultiPoly | int = 0,
):
    total = start
    for (fm, gm), cnt in hist.items():
        if domain(fm, gm):
            total = total + cnt * weight(fm, gm)
    return total


@dataclass(frozen=True)
class PairIntegralReport:
    graph: str
    p: int
    q: int
    checks: tuple[CheckOutcome, ...]
    domain_readings: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def validating_readings(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.domain_readings if ok)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        for name, ok in self.domain_readings:
            out.append(f"{'PASS' if ok else 'FAIL'} domain reading: {name}")
        return out


def pair_integral_identities(
    g: MultiGraph, p: int, q: int, guard: int | None = None
) -> PairIntegralReport:
    """Finite-integral identities over the pair space, all checked as
    exact polynomial identities at group orders (p, q).

    The disjoint-support integral is also evaluated under both stated
    domain phrasings ("supp f inside ker g" and "supp g inside ker f",
    which are contrapositives and define the same set) and under the
    genuinely different swapped reading "ker f inside supp g"; the
    report records which readings validate against the subset formula.
    """
    m = g.edge_count
    # the subset sums below run over 3^E pairs Y inside X and 4^E pairs (Z, W)
    check_state_space(3**m + 4**m, guard, "pair integral subset sums")
    hist = support_histogram(g, p, q, guard)
    table = subset_rank_table(g, guard)
    full = (1 << m) - 1
    r, n = rank_nullity(g)

    def nu(x_mask: int, y_mask: int) -> int:
        return _omega_xy_size(table, x_mask, y_mask, p, q)

    def mono_uv(i: int, j: int, c: int = 1) -> MultiPoly:
        return MultiPoly(("u", "v"), {(i, j): c})

    checks: list[CheckOutcome] = []

    # shared LHS weights
    def weight_uv(fm: int, gm: int) -> MultiPoly:
        return mono_uv((full & ~fm).bit_count(), gm.bit_count())

    # RHS of the disjoint-support integral:
    # sum over Y inside X of (uv)^|Y| (u - uv - 1)^(|X|-|Y|) nu(X, Y^c)
    uv = U * V
    aux = U - uv - 1
    acc1: dict[tuple[int, int], int] = {}
    for x_mask in range(1 << m):
        for y_mask in _submasks(x_mask):
            key = (y_mask.bit_count(), (x_mask & ~y_mask).bit_count())
            acc1[key] = acc1.get(key, 0) + nu(x_mask, full & ~y_mask)
    uv_pows = [uv**k for k in range(m + 1)]
    aux_pows = [aux**k for k in range(m + 1)]
    rhs1 = MultiPoly.zero(("u", "v"))
    for (i, j), coeff in sorted(acc1.items()):
        rhs1 = rhs1 + coeff * uv_pows[i] * aux_pows[j]

    readings = []
    zero_uv = MultiPoly.zero(("u", "v"))
    # supp f inside ker g: fm avoids gm's support
    lhs_display = _hist_weighted_sum(
        hist, lambda fm, gm: fm & ~(full & ~gm) == 0, weight_uv, zero_uv
    )
    readings.append(("supp f inside ker g (disjoint supports)", lhs_display == rhs1))
    # supp g inside ker f: same set, by contraposition
    lhs_text = _hist_weighted_sum(
        hist, lambda fm, gm: gm & ~(full & ~fm) == 0, weight_uv, zero_uv
    )
    readings.append(("supp g inside ker f (same set, contrapositive)", lhs_text == rhs1))
    lhs_swapped = _hist_weighted_sum(
        hist, lambda fm, gm: (full & ~fm) & ~gm == 0, weight_uv, zero_uv
    )
    readings.append(("ker f inside supp g (swapped)", lhs_swapped == rhs1))
    checks.append(
        _outcome(
            "disjoint-support integral of u^|ker f| v^|supp g| matches its subset formula",
            lhs_display == rhs1,
            f"lhs={lhs_display}",
            f"rhs={rhs1}",
        )
    )

    # complementary integral of u^|ker f|:
    # sum over Y inside X of u^|Y| (-u - 1)^(|X|-|Y|) nu(X, Y^c)
    neg_aux = -U - 1
    neg_aux_pows = [neg_aux**k for k in range(m + 1)]
    u_pows = [U**k for k in range(m + 1)]
    rhs2 = MultiPoly.zero(("u",))
    for (i, j), coeff in sorted(acc1.items()):
        rhs2 = rhs2 + coeff * u_pows[i] * neg_aux_pows[j]
    lhs2 = _hist_weighted_sum(
        hist,
        lambda fm, gm: gm == full & ~fm,
        lambda fm, gm: MultiPoly(("u",), {((full & ~fm).bit_count(),): 1}),
        MultiPoly.zero(("u",)),
    )
    checks.append(
        _outcome(
            "complementary integral of u^|ker f| matches its subset formula",
            lhs2 == rhs2,
            f"lhs={lhs2}",
            f"rhs={rhs2}",
        )
    )

    # at u = -1 the complementary integral gives the Whitney polynomial
    # at negated arguments, up to the sign (-1)^r
    w_poly = whitney(g, guard)
    want = w_poly.evaluate(x=-p, y=-q)
    got = lhs2.substitute({"u": -1})
    got_int = got.evaluate() if isinstance(got, MultiPoly) else got
    if r & 1:
        got_int = -got_int
    checks.append(
        _outcome(
            "signed complementary count at u=-1 equals Whitney at (-p,-q)",
            got_int == want,
            f"got={got_int}",
            f"want={want}",
        )
    )

    # weighted complementary integral of z^|supp f| w^|supp g|:
    # sum over Y inside X of z^(|E|-|X|) w^|Y| (-z - w)^(|X|-|Y|) nu(X, Y^c)
    zw = -Z - W
    zw_pows = [zw**k for k in range(m + 1)]
    rhs3 = MultiPoly.zero(("z", "w"))
    for (i, j), coeff in sorted(acc1.items()):
        rhs3 = rhs3 + coeff * MultiPoly(("z", "w"), {(m - i - j, i): 1}) * zw_pows[j]
    lhs3 = _hist_weighted_sum(
        hist,
        lambda fm, gm: gm == full & ~fm,
        lambda fm, gm: MultiPoly(("z", "w"), {(fm.bit_count(), gm.bit_count()): 1}),
        MultiPoly.zero(("z", "w")),
    )
    checks.append(
        _outcome(
            "complementary integral of z^|supp f| w^|supp g| matches its subset formula",
            lhs3 == rhs3,
            f"lhs={lhs3}",
            f"rhs={rhs3}",
        )
    )

    # covering integral of u^|ker f| v^|supp g| over ker f inside supp g:
    # sum over pairs (Z, W) of (-1)^|Z| v^|W| (1-u)^|Z cap W|
    #   (1-v)^(|E|-|Z cup W|) (uv-v+1)^(|Z|-|W|... on Z minus W) nu(Z, W^c)
    one_minus_u = 1 - U
    one_minus_v = 1 - V
    mix = U * V - V + 1
    omu_pows = [one_minus_u**k for k in range(m + 1)]
    omv_pows = [one_minus_v**k for k in range(m + 1)]
    mix_pows = [mix**k for k in range(m + 1)]
    acc4: dict[tuple[int, int, int, int], int] = {}
    for z_mask in range(1 << m):
        sign = -1 if z_mask.bit_count() & 1 else 1
        for w_mask in range(1 << m):
            key = (
                (z_mask & w_mask).bit_count(),
                (full & ~(z_mask | w_mask)).bit_count(),
                (z_mask & ~w_mask).bit_count(),
                w_mask.bit_count(),
            )
            acc4[key] = acc4.get(key, 0) + sign * nu(z_mask, full & ~w_mask)
    rhs4 = MultiPoly.zero(("u", "v"))
    for (a, b, c, d), coeff in sorted(acc4.items()):
        if coeff:
            rhs4 = rhs4 + coeff * omu_pows[a] * omv_pows[b] * mix_pows[c] * mono_uv(0, d)
    lhs4 = _hist_weighted_sum(
        hist, lambda fm, gm: (full & ~fm) & ~gm == 0, weight_uv, zero_uv
    )
    checks.append(
        _outcome(
            "covering integral of u^|ker f| v^|supp g| matches its double subset formula",
            lhs4 == rhs4,
            f"lhs={lhs4}",
            f"rhs={rhs4}",
        )
    )

    # nowhere-zero pair count (no edge where f and g both vanish) as an
    # alternating sum of subgroup sizes
    nwz = _hist_weighted_sum(hist, lambda fm, gm: fm | gm == full, lambda fm, gm: 1)
    alt = 0
    for z_mask in range(1 << m):
        sign = -1 if z_mask.bit_count() & 1 else 1
        alt += sign * nu(z_mask, z_mask)
    checks.append(
        _outcome(
            "nowhere-zero pair count equals the alternating subgroup-size sum",
            nwz == alt,
            f"count={nwz}",
            f"sum={alt}",
        )
    )

    # weight 2^(|ker f| - |supp g|) on disjoint supports gives Whitney at (p, q)
    disjoint_sum, _ = whitney_weighted_sums(g, p, q, guard)
    want_r = w_poly.evaluate(x=p, y=q)
    checks.append(
        _outcome(
            "disjoint-support weight 2^(|ker f|-|supp g|) equals Whitney at (p,q)",
            disjoint_sum == want_r,
            f"got={disjoint_sum}",
            f"want={want_r}",
        )
    )

    # support-weight collapse:
    # sum over disjoint pairs of u^|supp g| (u+1)^(|ker f|-|supp g|)
    #   = sum over X of u^|X| nu(X, X^c)
    lhs5 = _hist_weighted_sum(
        hist,
        lambda fm, gm: fm & gm == 0,
        lambda fm, gm: MultiPoly(("u",), {(gm.bit_count(),): 1})
        * (U + 1) ** ((full & ~fm) & ~gm).bit_count(),
        MultiPoly.zero(("u",)),
    )
    # second index of nu is the flow-vanishing set, here X^c
    rhs5 = MultiPoly.zero(("u",))
    for x_mask in range(1 << m):
        rhs5 = rhs5 + MultiPoly(
            ("u",), {(x_mask.bit_count(),): nu(x_mask, full & ~x_mask)}
        )
    checks.append(
        _outcome(
            "disjoint-support weight u^|supp g| (u+1)^(|ker f|-|supp g|) "
            "collapses to the diagonal subgroup sum",
            lhs5 == rhs5,
            f"lhs={lhs5}",
            f"rhs={rhs5}",
        )
    )

    return PairIntegralReport(
        g.fingerprint(), p, q, tuple(checks), tuple(readings)
    )


# -- exact kernel level counts ---------------------------------------------------


def exact_level_report(
    g: MultiGraph, p: int, q: int, x: EdgeSubset, y: EdgeSubset, guard: int | None = None
) -> tuple[int, int, int]:
    """(filter count, inclusion-exclusion with flow-dimension exponent,
    same with the rank exponent) for pairs with ker f = X, ker g = Y.

    The flow-dimension reading n<W^c> is the one that matches the
    filter; the rank reading r<W^c> is reported for diagnosis.
    """
    m = g.edge_count
    full = (1 << m) - 1
    x_comp = full & ~x.mask
    y_comp = full & ~y.mask
    # inclusion-exclusion over the supersets of X and of Y
    check_state_space(
        1 << (x_comp.bit_count() + y_comp.bit_count()), guard, "level inclusion-exclusion"
    )
    table = subset_rank_table(g, guard)
    r = table[full]
    hist = support_histogram(g, p, q, guard)
    filtered = sum(
        cnt for (fm, gm), cnt in hist.items() if fm == x_comp and gm == y_comp
    )
    n_val = 0
    r_val = 0
    for s in _submasks(x_comp):
        z_mask = x.mask | s
        sz = s.bit_count()
        pf = p ** (r - table[z_mask])
        for t in _submasks(y_comp):
            w_mask = y.mask | t
            sign = -1 if (sz + t.bit_count()) & 1 else 1
            wc = full & ~w_mask
            n_val += sign * pf * q ** (wc.bit_count() - table[wc])
            r_val += sign * pf * q ** table[wc]
    return filtered, n_val, r_val


def exact_level_count(
    g: MultiGraph, p: int, q: int, x: EdgeSubset, y: EdgeSubset, guard: int | None = None
) -> int:
    """Number of (tension, flow) pairs over (Z_p, Z_q) with ker f = X and
    ker g = Y, cross-checked against the inclusion-exclusion formula."""
    filtered, n_val, r_val = exact_level_report(g, p, q, x, y, guard)
    if filtered != n_val:
        note = "the rank reading matches instead" if filtered == r_val else (
            "neither exponent reading matches"
        )
        raise VerificationError(
            f"level count mismatch on {g.fingerprint()} X={x.members()} Y={y.members()}: "
            f"filter {filtered}, formula {n_val} ({note})"
        )
    return filtered
