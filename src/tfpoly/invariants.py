"""Polynomial invariants of multigraphs built from tensions and flows,
one route each; `oracles` holds the other routes, which `verify` checks.

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
* Both sums are computed edge by edge over frontier partitions, each
  by its own layer step of the one frontier driver
  (`frontier.whitney_terms`, `frontier.omega_terms`).  R gives T by a
  binomial shift in integers, the tension polynomial as
  (-1)^r R(-t,-1) and the flow polynomial as (-1)^n R(-1,-t).  The
  values of `tutte_value` come from the same sum at one point, by a
  step that carries one int per state (`frontier.whitney_at`), with no
  polynomial built.
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
  The same polynomials are convolutions over the cyclic flats X
  (closed sets whose restriction has no bridge, read from the subset
  rank table of the non-loop edges):
      psi(x,y,z,w) = sum over X of z^|E - X| w^|X| tau(G/X; x) phi(G|X; y),
  with the tension and flow polynomials of the minors for psi and their
  integral counterparts for psi_z; a loop's nonzero integer flows with
  |g| < t number 2(t - 1), so the factor 2 per loop needs no special
  case there.  psi_family computes psi_z this way, as the product of
  the convolutions of the blocks of G (`graph.blocks`): loops, bridges
  and 2-connected blocks are direct summands of the cycle matroid, and
  integer tensions and flows split over them.  The modular psi
  comes from one frontier sum over nested subsets A within U
  (`frontier.psi_terms`), which is this convolution with tau and phi
  expanded over subsets.  The integral minors' counts are not
  Tutte-Grothendieck invariants (Kochol, JCTB 84, 2002), so psi_z has
  no such expansion.  The closed sums follow by reciprocity,
      bar(x,y,z,w) = (-1)^n psi(-x,-y,-z,w).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .algebra import MultiPoly, interpolate_univariate
from .config import check_state_space, memoised_in_run
from .frontier import omega_terms, psi_terms, whitney_at, whitney_terms
from .graph import (
    EdgeSubset,
    MultiGraph,
    Orientation,
    _UnionFind,
    blocks,
    components_count,
    rank_nullity,
    subset_rank_table,
)
from .tensionflow import integral_window_counts

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


# -- Tutte polynomial and its evaluations ---------------------------------------


def _shifted_down(terms: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The terms of R(x - 1, y - 1) from those of R(x, y), in additions
    only: a Taylor shift by synthetic division (Horner's rule; Knuth,
    TAOCP vol. 2, 4.6.4) of each row of equal y exponent, then of each
    column of equal x exponent, read from the shifted rows with their
    zeros.  One of degree d takes d(d + 1)/2 additions, all charged
    before the first.  Kept in
    integers, not `MultiPoly.substitute`, as `tutte` is on the hot path."""

    def shift(a: list[int]) -> list[int]:
        # a(x - 1) from a(x), lowest power first: with b_t = (-1)^t a_t,
        # highest power first, each division by x + 1 takes prefix sums of
        # b, one entry shorter than the last, in C
        b = [-c if t & 1 else c for t, c in enumerate(a)][::-1]
        for k in range(len(b), 1, -1):
            b[:k] = accumulate(b[:k])
        return [-c if t & 1 else c for t, c in enumerate(reversed(b))]

    rows: dict[int, list[int]] = {}
    for (i, j), c in terms.items():
        row = rows.setdefault(j, [])
        row += [0] * (i + 1 - len(row))
        row[i] = c
    # the y-degree of each column: the last row that reaches it
    width = max(map(len, rows.values()))
    tops = [max(j for j, row in rows.items() if len(row) > i) for i in range(width)]
    degrees = [len(row) - 1 for row in rows.values()] + tops
    check_state_space(sum(d * (d + 1) // 2 for d in degrees), "Tutte shift")
    rows = {j: shift(row) for j, row in rows.items()}
    out: dict[tuple[int, int], int] = {}
    for i, top in enumerate(tops):
        column = [rows[j][i] if len(rows.get(j, ())) > i else 0 for j in range(top + 1)]
        out.update(((i, j), c) for j, c in enumerate(shift(column)) if c)
    return out


def tutte(g: MultiGraph) -> MultiPoly:
    """Tutte polynomial T(x, y) = R(x - 1, y - 1), from the frontier sum
    of R shifted in integers."""
    return MultiPoly(("x", "y"), _shifted_down(whitney_terms(g)))


def whitney(g: MultiGraph) -> MultiPoly:
    """Corank-nullity polynomial R(x, y), from the frontier sum."""
    return MultiPoly(("x", "y"), whitney_terms(g))


def _whitney_at_minus_one(g: MultiGraph, keep: int, var: str) -> MultiPoly:
    """R with the variable at index keep set to -t and the other to -1,
    times (-1)^r (keep 0: the tension polynomial) or (-1)^n (keep 1:
    the flow polynomial).  A sign per Whitney term, not
    `MultiPoly.substitute`, as these polynomials are on the hot path."""
    sign = rank_nullity(g)[keep]
    terms: dict[tuple[int], int] = {}
    for exps, c in whitney_terms(g).items():
        key = (exps[keep],)
        terms[key] = terms.get(key, 0) + (-c if (sign + exps[0] + exps[1]) & 1 else c)
    return MultiPoly((var,), terms)


def tension_poly(g: MultiGraph, var: str = "t") -> MultiPoly:
    """Nowhere-zero tension counting polynomial (-1)^r T(1 - t, 0),
    which is (-1)^r R(-t, -1)."""
    return _whitney_at_minus_one(g, 0, var)


def flow_poly(g: MultiGraph, var: str = "t") -> MultiPoly:
    """Nowhere-zero flow counting polynomial (-1)^n T(0, 1 - t), which is
    (-1)^n R(-1, -t)."""
    return _whitney_at_minus_one(g, 1, var)


def chromatic_poly(g: MultiGraph, var: str = "t") -> MultiPoly:
    """Proper colouring polynomial: t^(components) times the tension
    polynomial."""
    c = components_count(g)
    return MultiPoly.monomial((var,), (c,)) * tension_poly(g, var)


def omega(g: MultiGraph) -> MultiPoly:
    """Signed subset expansion counting nowhere-zero pairs, from the
    frontier sum."""
    return MultiPoly(("x", "y"), omega_terms(g))


# -- integral tension and flow polynomials ------------------------------------


def integral_tension_poly(g: MultiGraph, var: str = "t") -> MultiPoly:
    """Counting polynomial of nowhere-zero integer tensions with |f| < t."""
    r, _ = rank_nullity(g)
    return _window_poly(g, Orientation.reference(g), True, r, "strict_support", None, var)


def integral_flow_poly(g: MultiGraph, var: str = "t") -> MultiPoly:
    """Counting polynomial of nowhere-zero integer flows with |g| < t."""
    loops = g.loop_ids()
    if loops:
        # a loop's flow value is free: each loop multiplies the count by
        # its 2(t - 1) nonzero values with |g| < t
        t = MultiPoly.var(var)
        rest = MultiGraph(g.vertex_count, tuple(g.edges[e] for e in g.non_loop_ids()))
        return (2 * (t - 1)) ** len(loops) * integral_flow_poly(rest, var)
    _, n = rank_nullity(g)
    return _window_poly(g, Orientation.reference(g), False, n, "strict_support", None, var)


def _window_poly(
    g: MultiGraph,
    o: Orientation,
    tensions: bool,
    degree: int,
    mode: str,
    window: EdgeSubset | None,
    var: str,
) -> MultiPoly:
    """The polynomial in var of degree at most `degree` through the
    `integral_window_counts` at bounds 1..degree + 1, checked at two
    more bounds.  Lattice point counts live in the binomial basis, so
    its coefficients need not be integers: a single orientation's
    window counts give (x-1)(x-2)/2 on the transitive triangle, and the
    denominators cancel only in a sum over a full orientation class."""
    counts = integral_window_counts(g, o, tensions, degree + 3, mode, window)
    return _window_fit(tuple(counts), degree, var)


@memoised_in_run
def _window_fit(counts: tuple[int, ...], degree: int, var: str) -> MultiPoly:
    """The fit of `_window_poly`, keyed on the counts alone: within a run,
    windows of different orientations and graphs with equal counts share
    one fit."""
    return interpolate_univariate(list(enumerate(counts))[1:], degree, var, integral=False)


# -- the psi family ------------------------------------------------------------


PSI_KINDS = ("psi", "bar_psi", "psi_z", "bar_psi_z")


def _exponents(poly: MultiPoly, names: tuple[str, ...]) -> dict:
    """poly's terms keyed by the exponents of the named variables, read by
    name, not by position; poly has no other variable."""
    at = [poly.variables.index(v) if v in poly.variables else None for v in names]
    return {
        tuple(0 if k is None else exps[k] for k in at): a for exps, a in poly.terms.items()
    }


def _relabelled(edges) -> MultiGraph:
    """The graph of `edges` on the vertices they touch, renumbered in
    order of first appearance, with sorted ends and edges: the tension
    and flow polynomials, modular and integral, ignore all three."""
    label: dict[int, int] = {}
    pairs = [(label.setdefault(t, len(label)), label.setdefault(h, len(label))) for t, h in edges]
    return MultiGraph(len(label), tuple(sorted((min(p), max(p)) for p in pairs)))


def _cyclic_flat_minors(g: MultiGraph):
    """(G/X, G|X, |X|, rank of G/X, loopless nullity of G|X) for every
    cyclic flat X, each minor `_relabelled`: every loop is in X, and
    among the non-loop edges X is a flat without coloops.  The scan
    reads the subset rank table of the E' non-loop edges, r<X> included:
    adding an edge outside X raises its rank and removing one inside
    keeps it.  It charges 2^E' x E' states when first advanced, under
    the guard active then."""
    non_loops = g.non_loop_ids()
    check_state_space((1 << len(non_loops)) * len(non_loops), "cyclic flat scan")
    table = subset_rank_table(MultiGraph(g.vertex_count, tuple(g.edges[e] for e in non_loops)))
    bits = [1 << i for i in range(len(non_loops))]
    loops = [g.edges[e] for e in g.loop_ids()]
    for x, rank in enumerate(table):
        if any((table[x ^ b] == rank) != bool(x & b) for b in bits):
            continue
        inside = [g.edges[e] for i, e in enumerate(non_loops) if x >> i & 1]
        outside = [g.edges[e] for i, e in enumerate(non_loops) if not x >> i & 1]
        uf = _UnionFind(g.vertex_count)
        for t, h in inside:
            uf.union(t, h)
        contracted = _relabelled((uf.find(t), uf.find(h)) for t, h in outside)
        restricted = _relabelled(inside + loops)
        yield contracted, restricted, len(inside) + len(loops), table[-1] - rank, len(inside) - rank


def psi_family(g: MultiGraph, which: str = "psi_z") -> MultiPoly:
    """The psi family in variables (x, y, z, w).

    psi is the frontier sum `frontier.psi_terms`; psi_z the product over
    the blocks of G of the convolution over each block's cyclic flats X
    of z^|E - X| w^|X| tau(G/X; x) phi(G|X; y) with the integral tension
    and flow polynomials of the minors; bar_psi and bar_psi_z follow by
    reciprocity, bar(x,y,z,w) = (-1)^n psi(-x,-y,-z,w).  The values
    equal the orientation sums of `oracles.psi_by_orientations` (see the
    module docstring).  The guard bounds the frontier sum, or each block's scan
    for cyclic flats, each minor's polynomial and the block product.
    Within a run scope each kind is computed once per graph and guard.
    """
    if which not in PSI_KINDS:
        raise ValueError(f"unknown psi kind {which!r}")
    return _psi_kind(g, which)


@memoised_in_run
def _psi_kind(g: MultiGraph, which: str) -> MultiPoly:
    """`psi_family` for a known kind; always called with positional
    arguments, so that every caller shares one memo entry."""
    if which.startswith("bar_"):
        _, n = rank_nullity(g)
        open_poly = _psi_kind(g, which[len("bar_"):])
        return (-1) ** n * open_poly.negate_vars(("x", "y", "z"))
    if which == "psi":
        return MultiPoly(("x", "y", "z", "w"), psi_terms(g))
    # a graph of one block as it is; else each distinct block convolved
    # once, and multiplied in as often as it occurs
    found = blocks(g)
    parts = Counter([g] if len(found) < 2 else (_relabelled(g.edges[e] for e in b) for b in found))
    polys = _cyclic_flat_convolutions(list(parts), integral_tension_poly, integral_flow_poly)
    factors = [poly for poly, count in zip(polys, parts.values()) for _ in range(count)]
    product, spent = factors[0], 0
    for poly in factors[1:]:
        spent += len(product.terms) * len(poly.terms)
        check_state_space(spent, "psi block product")
        product *= poly
    return product


def _cyclic_flat_convolutions(graphs: list[MultiGraph], tension, flow) -> list[MultiPoly]:
    """For each graph, the sum over its cyclic flats X of z^|E - X| w^|X|
    tension(G/X; x) flow(G|X; y).  The graphs are scanned largest first;
    then each distinct minor's factor, over all graphs, is computed once,
    largest counting box first (its free edges: the rank of G/X, the
    loopless nullity of G|X), so that a graph over the guard is refused
    before any count is made.  An edgeless minor's factor is 1."""
    order = sorted(range(len(graphs)), key=lambda k: -len(graphs[k].non_loop_ids()))
    minors = {k: list(_cyclic_flat_minors(graphs[k])) for k in order}
    boxes = {}
    for found in minors.values():
        for contracted, restricted, _, rank, nullity in found:
            boxes[contracted, tension] = rank
            boxes[restricted, flow] = nullity
    factors = {}  # each factor's (exponent, coefficient) pairs
    for minor, poly in sorted(boxes, key=lambda key: -boxes[key]):
        var = "x" if poly is tension else "y"
        value = poly(minor, var) if minor.edges else MultiPoly.const(1)
        factors[minor, poly] = _exponents(value, (var,)).items()
    out = []
    for k, g in enumerate(graphs):
        terms: dict = {}
        for contracted, restricted, size, _, _ in minors[k]:
            for (j,), b in factors[restricted, flow]:
                for (i,), a in factors[contracted, tension]:
                    key = (i, j, g.edge_count - size, size)
                    terms[key] = terms.get(key, 0) + a * b
        out.append(MultiPoly(("x", "y", "z", "w"), terms))
    return out


# -- Tutte values ---------------------------------------------------------------

QUADRANTS = ("++", "+-", "-+", "--")


def _check_quadrant(p: int, q: int, quadrant: str) -> None:
    if quadrant not in QUADRANTS:
        raise ValueError(f"unknown quadrant {quadrant!r}")
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")


def tutte_value(g: MultiGraph, p: int, q: int, quadrant: str = "++") -> int:
    """T(G; +-p, +-q), the signs read from the quadrant: R(x - 1, y - 1)
    from the frontier sum at that point, one int per state
    (`frontier.whitney_at`), with no polynomial built."""
    _check_quadrant(p, q, quadrant)
    x = (p if quadrant[0] == "+" else -p) - 1
    y = (q if quadrant[1] == "+" else -q) - 1
    return whitney_at(g, x, y)
