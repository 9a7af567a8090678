"""Arrangements of subgroup cosets and their characteristic polynomials.

Two backends share one semilattice machinery:

* finite backend: the ambient space is a product of finite abelian
  groups and arrangement members are products of cosets, one coset per
  factor.  Valuations are counting measures, so the characteristic
  polynomial collapses to an integer, which by Mobius inversion equals
  the number of ambient points avoiding every member.

* graphic backend: the ambient space is the product of the tension and
  flow spaces of a graph over the rationals, and the arrangement has
  one member per edge (the pairs whose tension and flow coordinates
  both vanish on that edge).  Flats are indexed by edge subsets X with
  value lambda(Omega_X) = x^(dim of tensions vanishing on X) *
  y^(dim of flows vanishing on X); two subsets give the same flat
  exactly when both dimension pairs match the pair of their union.
  The dimensions are read from the union-find subset rank table:
  r(E) - r(X) for tensions and |E - X| - r(E - X) for flows; rational
  ranks of incidence submatrices (`graphic_flat_dims`) are kept as an
  oracle only.  The characteristic polynomial in (x, y) equals the
  nowhere-zero pair-counting polynomial of the graph.

Mobius values are taken against the top (the ambient space), with
mu(top, top) = 1 and sum of mu over any upper interval zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import MultiPoly, rational_rank
from .config import check_state_space
from .graph import EdgeSubset, MultiGraph, Orientation, incidence_matrix, subset_rank_table
from .tensionflow import Element, FiniteAbelianGroup


# -- finite backend ------------------------------------------------------------


@dataclass(frozen=True)
class FiniteCosetProduct:
    """Product of one coset per ambient factor, materialised as sets."""

    factors: tuple[frozenset[Element], ...]

    @classmethod
    def from_subgroup(
        cls,
        ambient: Sequence[FiniteAbelianGroup],
        generators: Sequence[Sequence[Element]],
        shifts: Sequence[Element] | None = None,
    ) -> "FiniteCosetProduct":
        if len(generators) != len(ambient):
            raise ValueError("one generator list per ambient factor required")
        if shifts is None:
            shifts = [grp.zero for grp in ambient]
        if len(shifts) != len(ambient):
            raise ValueError("one shift per ambient factor required")
        factors = []
        for grp, gens, shift in zip(ambient, generators, shifts):
            sub = subgroup_closure(grp, gens)
            shift = grp.reduce(shift)
            factors.append(frozenset(grp.add(shift, a) for a in sub))
        return cls(tuple(factors))

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= len(f)
        return n

    def is_empty(self) -> bool:
        return any(not f for f in self.factors)

    def contains(self, point: Sequence[Element]) -> bool:
        return all(x in f for x, f in zip(point, self.factors))

    def intersect(self, other: "FiniteCosetProduct") -> "FiniteCosetProduct":
        if len(self.factors) != len(other.factors):
            raise ValueError("coset products over different ambients")
        return FiniteCosetProduct(tuple(a & b for a, b in zip(self.factors, other.factors)))

    def is_subset_of(self, other: "FiniteCosetProduct") -> bool:
        return all(a <= b for a, b in zip(self.factors, other.factors))


def subgroup_closure(grp: FiniteAbelianGroup, generators: Iterable[Element]) -> frozenset[Element]:
    """Subgroup generated by the given elements."""
    gens = [grp.reduce(a) for a in generators]
    seen = {grp.zero}
    frontier = [grp.zero]
    while frontier:
        cur = frontier.pop()
        for a in gens:
            nxt = grp.add(cur, a)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def ambient_product(ambient: Sequence[FiniteAbelianGroup]) -> FiniteCosetProduct:
    return FiniteCosetProduct(tuple(frozenset(grp.elements()) for grp in ambient))


# -- intersection semilattice ----------------------------------------------------


@dataclass
class IntersectionPoset:
    """Finite meet-semilattice of flats ordered by containment.

    elements[top] is the ambient space; leq[i][j] means element i is
    contained in element j; weights[i] is the valuation monomial of
    element i (a constant for the finite backend, x^a y^b for the
    graphic backend).
    """

    elements: list
    leq: list[list[bool]]
    top: int
    weights: list[MultiPoly]

    def _mobius_values(self) -> list[int]:
        """mu(x, top) for every element, by index, in one pass from the
        top down: an element lies below fewer flats than anything
        strictly under it, so taking the elements by how many flats lie
        above them gives every mu(y) with y > x before mu(x) =
        -sum of those mu(y)."""
        n = len(self.elements)
        above = [[j for j in range(n) if j != i and self.leq[i][j]] for i in range(n)]
        mu = [0] * n
        for i in sorted(range(n), key=lambda i: len(above[i])):
            mu[i] = 1 if i == self.top else -sum(mu[j] for j in above[i])
        return mu

    def mobius(self, x) -> int:
        """mu(x, top) for an element or element index."""
        if not isinstance(x, int):
            x = self.elements.index(x)
        return self._mobius_values()[x]

    def characteristic_polynomial(self) -> MultiPoly:
        total = MultiPoly.zero()
        for mu, weight in zip(self._mobius_values(), self.weights):
            total = total + mu * weight
        return total


def finite_semilattice(
    ambient: Sequence[FiniteAbelianGroup],
    members: Sequence[FiniteCosetProduct],
    guard: int | None = None,
) -> IntersectionPoset:
    """Close the arrangement under intersection (dropping empties) and
    order the flats by containment; the ambient space is the top.
    Charges the ambient order in states."""
    ambient = tuple(ambient)
    size = 1
    for grp in ambient:
        size *= grp.order
    check_state_space(size, guard, "finite arrangement closure")
    top = ambient_product(ambient)
    flats: list[FiniteCosetProduct] = [top]
    keys = {top.factors}
    frontier = [m for m in members if not m.is_empty()]
    for m in frontier:
        if m.factors not in keys:
            keys.add(m.factors)
            flats.append(m)
    # pairwise closure to a meet-semilattice
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(flats), 2):
            c = a.intersect(b)
            if c.is_empty():
                continue
            if c.factors not in keys:
                keys.add(c.factors)
                flats.append(c)
                changed = True
    leq = [[x.is_subset_of(y) for y in flats] for x in flats]
    weights = [MultiPoly.const(x.size) for x in flats]
    return IntersectionPoset(flats, leq, 0, weights)


def complement_count(
    ambient: Sequence[FiniteAbelianGroup],
    members: Sequence[FiniteCosetProduct],
    guard: int | None = None,
) -> int:
    """Number of ambient points lying in no arrangement member (direct
    count); charges the ambient order in states."""
    ambient = tuple(ambient)
    size = 1
    for grp in ambient:
        size *= grp.order
    check_state_space(size, guard, "complement count")
    count = 0
    for point in itertools.product(*(list(grp.elements()) for grp in ambient)):
        if not any(m.contains(point) for m in members):
            count += 1
    return count


def product_valuation(
    pieces: Sequence[tuple[int, FiniteCosetProduct]],
    check_disjoint: bool = False,
) -> int:
    """Evaluate a signed combination of coset products under the product
    counting measure: sum of sign * product of factor sizes.

    With check_disjoint=True the pieces are asserted pairwise disjoint
    (ignoring signs), for testing finite additivity on decompositions.
    """
    if check_disjoint:
        for (_, a), (_, b) in itertools.combinations(pieces, 2):
            common = a.intersect(b)
            if not common.is_empty():
                raise ValueError("overlapping pieces in a claimed-disjoint decomposition")
    total = 0
    for sign, piece in pieces:
        total += sign * piece.size
    return total


# -- graphic backend ---------------------------------------------------------------


def graphic_flat_dims(g: MultiGraph, x: EdgeSubset) -> tuple[int, int]:
    """(dim of tensions vanishing on X, dim of flows vanishing on X),
    over the rationals, via ranks of incidence submatrices.  An oracle
    for `subset_flat_dims`, which the arrangement route reads."""
    o = Orientation.reference(g)
    inc = incidence_matrix(g, o)
    full_rank = rational_rank(inc)

    def rank_of(cols: Sequence[int]) -> int:
        if not cols:
            return 0
        return rational_rank([[row[c] for c in cols] for row in inc])

    dim_t = full_rank - rank_of(x.members())
    comp = x.complement().members()
    dim_f = len(comp) - rank_of(comp)
    return dim_t, dim_f


def subset_flat_dims(g: MultiGraph, guard: int | None = None) -> list[tuple[int, int]]:
    """(dim_t, dim_f) of every edge subset X, indexed by mask, read from
    the subset rank table: dim_t = r(E) - r(X) and dim_f = |E - X| - r(E - X).
    Charges what `subset_rank_table` charges."""
    table = subset_rank_table(g, guard)
    full = (1 << g.edge_count) - 1
    r = table[full]
    return [
        (r - table[mask], (full ^ mask).bit_count() - table[full ^ mask])
        for mask in range(full + 1)
    ]


def graphic_semilattice(g: MultiGraph, guard: int | None = None) -> IntersectionPoset:
    """Flats of the edge arrangement over the tension-flow product space.

    Every edge subset X determines a flat; X and Y coincide exactly
    when dims(X) = dims(Y) = dims(X union Y), so each flat is keyed by
    its closure (the largest subset with the same dims), and the flats
    are the closed masks.  The dims come from the subset rank table, so
    the scan charges 2^E x E states; once the F flats are known, the
    containment table charges F^2.
    """
    m = g.edge_count
    check_state_space((1 << m) * m, guard, "graphic flat enumeration")
    dims = subset_flat_dims(g, guard)
    bits = [1 << e for e in range(m)]
    flat_masks = [
        mask
        for mask, d in enumerate(dims)
        if all(mask & bit or dims[mask | bit] != d for bit in bits)
    ]
    check_state_space(len(flat_masks) ** 2, guard, "flat containment table")
    # the top, the ambient space, is the closure of the empty set
    top = flat_masks.index(sum(bit for bit in bits if dims[bit] == dims[0]))
    # containment of subgroups is reverse containment of closed edge sets
    leq = [[a | b == a for b in flat_masks] for a in flat_masks]
    elements = [EdgeSubset(mask, m) for mask in flat_masks]
    weights = [MultiPoly(("x", "y"), {dims[mask]: 1}) for mask in flat_masks]
    return IntersectionPoset(elements, leq, top, weights)
