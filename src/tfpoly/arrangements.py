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
  ranks of incidence submatrices (`oracles.graphic_flat_dims`) check
  them.  The characteristic polynomial in (x, y) equals the
  nowhere-zero pair-counting polynomial of the graph.

Mobius values are taken against the top (the ambient space), with
mu(top, top) = 1 and sum of mu over any upper interval zero.  Both
backends key each flat by its member mask, the arrangement members that
contain it (for the graphic backend, the closed edge mask): one flat
contains another exactly when its mask is a subset of the other's.  The
Mobius values come from one pass over the flats in mask order with one
bitset per member and one per Mobius value, so no flat-by-flat
containment table is built; the pass costs the comparable pairs, about
10^6 on Petersen and K6 where a table would need F^2 > 10^8 entries.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .algebra import MultiPoly
from .config import Record, check_state_space, state_guard
from .graph import EdgeSubset, MultiGraph, subset_rank_table
from .tensionflow import Element, FiniteAbelianGroup


# -- finite backend ------------------------------------------------------------


class FiniteCosetProduct(Record):
    """Product of one coset per ambient factor, materialised as sets:
    the factors are kept as a tuple of frozensets, whatever sequence of
    sets is given."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Iterable[Element]]):
        object.__setattr__(self, "factors", tuple(map(frozenset, factors)))

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


class IntersectionPoset:
    """Finite meet-semilattice of flats ordered by containment.

    Each flat is keyed by its member mask: the int whose bit m is set
    when arrangement member m contains the flat.  Distinct flats have
    distinct masks, and flat y contains flat x exactly when y's mask is
    a subset of x's, so no containment table is kept.  The elements are
    in increasing mask order, which puts the top (the ambient space, in
    no member) first.  weights[i] is the valuation monomial of element
    i as (exponents over `variables`, coefficient): a constant for the
    finite backend, x^a y^b for the graphic backend.  mu[i] is
    mu(element i, top), computed once when the poset is built.

    Unlike the `Record` types it is mutable, and so unhashable; two
    posets are equal when their four fields are.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        elements: list,
        variables: tuple[str, ...],
        weights: list[tuple[tuple[int, ...], int]],
        mu: list[int],
    ):
        self.elements = elements
        self.variables = variables
        self.weights = weights
        self.mu = mu

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elements, self.variables, self.weights, self.mu) == (
            other.elements,
            other.variables,
            other.weights,
            other.mu,
        )

    def __repr__(self) -> str:
        return (
            f"IntersectionPoset(elements={self.elements!r}, variables={self.variables!r}, "
            f"weights={self.weights!r}, mu={self.mu!r})"
        )

    def mobius(self, x) -> int:
        """mu(x, top) for an element or element index."""
        if not isinstance(x, int):
            x = self.elements.index(x)
        return self.mu[x]

    def characteristic_polynomial(self) -> MultiPoly:
        terms: dict[tuple[int, ...], int] = {}
        for mu, (exps, coeff) in zip(self.mu, self.weights):
            terms[exps] = terms.get(exps, 0) + mu * coeff
        return MultiPoly(self.variables, terms)


def _mobius_values(masks: Sequence[int], members: int) -> list[int]:
    """mu(x, top) for the flats with these member masks, given in
    increasing order (so masks[0] is the top's), over `members` members.

    Every flat above x has a mask inside x's, so a smaller one, and
    comes before x.  One pass in mask order keeps, per member m, the
    bitset without[m] of the flats seen that lack m; the flats above x
    are the AND of without[m] over the members m outside x's mask.  It
    also keeps one bitset per Mobius value seen, so mu(x) = -(sum of mu
    over the flats above x) = -sum over values v of v times the
    popcount of (above & flats with value v), with no pair visited.
    Charges the comparable pairs as it finds them, as the flat
    containment table.
    """
    limit = state_guard()
    full = (1 << members) - 1
    without = [0] * members
    by_value: dict[int, int] = {}
    mu: list[int] = []
    pairs = 0
    for i, mask in enumerate(masks):
        bit = 1 << i
        above = bit - 1  # every flat seen
        outside = full ^ mask
        while outside:
            low = outside & -outside
            m = low.bit_length() - 1
            above &= without[m]
            without[m] |= bit
            outside ^= low
        pairs += above.bit_count()
        if pairs > limit:
            check_state_space(pairs, "flat containment table")
        value = -sum(v * (above & flats).bit_count() for v, flats in by_value.items()) if i else 1
        mu.append(value)
        by_value[value] = by_value.get(value, 0) | bit
    return mu


def finite_semilattice(
    ambient: Sequence[FiniteAbelianGroup],
    members: Sequence[FiniteCosetProduct],
) -> IntersectionPoset:
    """Close the arrangement under intersection (dropping empties, which
    cover nothing) and key each flat by the members that contain it; the
    ambient space is the top.  A member equal to the ambient space would
    be the top itself, leaving no trace in the semilattice though it
    covers every point, so it is a ValueError.  Charges the ambient
    order in states, then the comparable pairs of flats."""
    ambient = tuple(ambient)
    size = 1
    for grp in ambient:
        size *= grp.order
    check_state_space(size, "finite arrangement closure")
    top = ambient_product(ambient)
    for i, m in enumerate(members):
        if m.factors == top.factors:
            raise ValueError(f"arrangement member {i} is the whole space")
    members = [m for m in members if not m.is_empty()]
    # after member k the flats are the non-empty meets of members 0..k
    flats = {top.factors: top}
    for m in members:
        for flat in list(flats.values()):
            meet = flat.intersect(m)
            if not meet.is_empty():
                flats.setdefault(meet.factors, meet)
    keyed = sorted(
        (
            (sum(1 << i for i, m in enumerate(members) if flat.is_subset_of(m)), flat)
            for flat in flats.values()
        ),
        key=lambda pair: pair[0],
    )
    masks = [mask for mask, _ in keyed]
    elements = [flat for _, flat in keyed]
    weights = [((), flat.size) for flat in elements]
    return IntersectionPoset(elements, (), weights, _mobius_values(masks, len(members)))


def complement_count(
    ambient: Sequence[FiniteAbelianGroup],
    members: Sequence[FiniteCosetProduct],
) -> int:
    """Number of ambient points lying in no arrangement member (direct
    count); charges the ambient order in states."""
    ambient = tuple(ambient)
    size = 1
    for grp in ambient:
        size *= grp.order
    check_state_space(size, "complement count")
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
    (ignoring signs), for testing finite additivity on decompositions:
    they are exactly when their sizes sum to the size of their union,
    which one pass over their points finds.
    """
    if check_disjoint:
        if len({len(piece.factors) for _, piece in pieces}) > 1:
            raise ValueError("coset products over different ambients")
        union: set[tuple[Element, ...]] = set()
        for _, piece in pieces:
            union.update(itertools.product(*piece.factors))
        if len(union) != sum(piece.size for _, piece in pieces):
            raise ValueError("overlapping pieces in a claimed-disjoint decomposition")
    total = 0
    for sign, piece in pieces:
        total += sign * piece.size
    return total


# -- graphic backend ---------------------------------------------------------------


def subset_flat_dims(g: MultiGraph) -> list[tuple[int, int]]:
    """(dim_t, dim_f) of every edge subset X, indexed by mask, read from
    the subset rank table: dim_t = r(E) - r(X) and dim_f = |E - X| - r(E - X).
    Charges what `subset_rank_table` charges."""
    table = subset_rank_table(g)
    full = (1 << g.edge_count) - 1
    r = table[full]
    return [
        (r - table[mask], (full ^ mask).bit_count() - table[full ^ mask])
        for mask in range(full + 1)
    ]


def graphic_semilattice(g: MultiGraph) -> IntersectionPoset:
    """Flats of the edge arrangement over the tension-flow product space.

    Every edge subset X determines a flat; X and Y coincide exactly
    when dims(X) = dims(Y) = dims(X union Y), so each flat is keyed by
    its closure (the largest subset with the same dims), and the flats
    are the closed masks.  The closed mask is also the member mask, as
    the flat lies in edge e's member exactly when e is in it, and a
    flat contains another exactly when its closed mask is a subset of
    the other's; the top, the closure of the empty set, lies in every
    closed mask and comes first.  The dims come from the subset rank
    table, so the scan charges 2^E x E states; the Mobius pass over the
    F flats then charges their comparable pairs (about 10^6 on Petersen
    and K6, against F^2 > 10^8), with no containment table.
    """
    m = g.edge_count
    check_state_space((1 << m) * m, "graphic flat enumeration")
    dims = subset_flat_dims(g)
    # a mask is closed when adding no edge keeps its dims: each edge is
    # tried once on every mask without it, in runs of masks that share
    # the bits above it
    closed = bytearray(b"\x01") * (1 << m)
    for e in range(m):
        bit = 1 << e
        for low in range(0, 1 << m, bit << 1):
            for mask in range(low, low + bit):
                if dims[mask | bit] == dims[mask]:
                    closed[mask] = 0
    flat_masks = [mask for mask in range(1 << m) if closed[mask]]
    elements = [EdgeSubset(mask, m) for mask in flat_masks]
    weights = [(dims[mask], 1) for mask in flat_masks]
    return IntersectionPoset(elements, ("x", "y"), weights, _mobius_values(flat_masks, m))
