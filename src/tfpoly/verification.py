"""Self-verification suites over the built-in fixtures.

Each criterion checks one dual-route identity: a quantity computed two
independent ways must agree exactly.  Every check is exact integer or
exact polynomial equality; there are no tolerances anywhere.

The criteria are grouped into named suites for the command line
``verify`` subcommand; the full list runs in well under a minute.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .algebra import MultiPoly
from .arrangements import (
    FiniteCosetProduct,
    ambient_product,
    complement_count,
    finite_semilattice,
    graphic_flat_dims,
    product_valuation,
    subset_flat_dims,
)
from .config import VerificationError
from .fixtures import all_fixtures, fixture
from .graph import EdgeSubset, MultiGraph, Orientation, components_count, subset_rank_table
from .invariants import (
    chromatic_poly,
    flow_poly,
    flow_poly_by_enumeration,
    integral_complementary_count,
    kappa_rho,
    omega,
    omega_value,
    PSI_KINDS,
    psi_by_orientations,
    psi_family,
    reciprocity_check,
    whitney_weighted_sums,
    pair_integral_identities,
    specialization_check,
    tension_poly,
    tension_poly_by_enumeration,
    tutte,
    tutte_value_triples,
    whitney,
    whitney_by_subsets,
)
from .orientations import (
    class_bc_profile,
    class_size_check,
    classify_edges,
    cut_eulerian_classes,
)
from .tensionflow import (
    FiniteAbelianGroup,
    _iter_flow_values,
    _iter_tension_values,
    enumerate_integral_flows,
    enumerate_integral_tensions,
    lattice_index,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lines: tuple[str, ...] = ()


class _Collector:
    """Accumulates failure detail lines for one criterion."""

    def __init__(self) -> None:
        self.bad: list[str] = []

    def expect(self, ok: bool, detail: str) -> None:
        if not ok:
            self.bad.append(detail)

    def result(self, name: str, *extra: str) -> CheckResult:
        return CheckResult(name, not self.bad, tuple(self.bad) + tuple(extra))


# -- 1: nowhere-zero pair polynomial routes ------------------------------------


def criterion_1(guard: int | None = None) -> CheckResult:
    col = _Collector()
    z4 = FiniteAbelianGroup.cyclic(4)
    klein = FiniteAbelianGroup((2, 2))
    for name, g in all_fixtures():
        via_expansion = omega(g, "expansion", guard)
        via_arrangement = omega(g, "arrangement", guard)
        col.expect(
            via_expansion == via_arrangement,
            f"{name}: expansion {via_expansion} != arrangement {via_arrangement}",
        )
        for p, q in itertools.product(range(1, 5), repeat=2):
            want = via_expansion.evaluate(x=p, y=q)
            got = omega_value(
                g, FiniteAbelianGroup.cyclic(p), FiniteAbelianGroup.cyclic(q), guard
            )
            col.expect(got == want, f"{name} ({p},{q}): brute {got} != poly {want}")
        # the count depends only on the group orders, not the structures
        for grp_a, grp_b in ((z4, klein), (klein, z4), (klein, klein)):
            got = omega_value(g, grp_a, grp_b, guard)
            want = via_expansion.evaluate(x=4, y=4)
            col.expect(
                got == want,
                f"{name}: order-4 structures {grp_a.cyclic_orders}/{grp_b.cyclic_orders} "
                f"give {got}, cyclic gives {want}",
            )
    return col.result(
        "nowhere-zero pair polynomial: expansion, arrangement, and brute routes agree"
    )


# -- 2: Tutte routes -------------------------------------------------------------


def criterion_2(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        a = tutte(g, "recursion", guard)
        b = tutte(g, "shift", guard)
        col.expect(a == b, f"{name}: recursion {a} != shift {b}")
        try:
            tutte(g, "checked", guard)
        except VerificationError as exc:
            col.expect(False, f"{name}: checked route raised: {exc}")
    return col.result(
        "Tutte polynomial: deletion-contraction and corank-nullity shift agree"
    )


# -- 3: orientation classes and quadrant values ----------------------------------


def _maximal_forest_count(g: MultiGraph, guard: int | None = None) -> int:
    table = subset_rank_table(g, guard)
    r = table[(1 << g.edge_count) - 1]
    return sum(
        1
        for mask in range(1 << g.edge_count)
        if mask.bit_count() == r and table[mask] == r
    )


def criterion_3(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        classes = cut_eulerian_classes(g, guard)
        t_poly = tutte(g, "recursion", guard)
        t11 = t_poly.evaluate(x=1, y=1)
        forests = _maximal_forest_count(g, guard)
        index = lattice_index(g, Orientation.reference(g))
        col.expect(
            len(classes) == t11 == forests == index,
            f"{name}: classes {len(classes)}, T(1,1) {t11}, forests {forests}, "
            f"lattice index {index}",
        )
        if len(g.non_loop_ids()) > 5:
            continue
        for p, q in itertools.product((1, 2, 3), repeat=2):
            for quadrant, (a, b) in (
                ("++", (p, q)),
                ("-+", (-p, q)),
                ("+-", (p, -q)),
                ("--", (-p, -q)),
            ):
                got = tutte_value_triples(g, p, q, quadrant, guard)
                want = t_poly.evaluate(x=a, y=b)
                col.expect(
                    got == want,
                    f"{name} quadrant {quadrant} at ({p},{q}): triples {got}, Tutte {want}",
                )
    return col.result(
        "orientation classes count forests; windowed triples give Tutte values "
        "in all four sign quadrants"
    )


# -- 4 and 5: reciprocity and specializations -------------------------------------


def criterion_4(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        report = reciprocity_check(g, guard)
        for check in report.checks:
            col.expect(check.passed, f"{name}: {check.line()}")
    return col.result("open/closed window sums satisfy sign reciprocity")


def criterion_5(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        report = specialization_check(g, guard=guard)
        for check in report.checks:
            col.expect(check.passed, f"{name}: {check.line()}")
    return col.result(
        "window sums specialise to the tension, flow, and complementary-pair counts"
    )


# -- 6: representative window sums against direct enumeration ---------------------


def _direct_window_count(
    g: MultiGraph,
    o: Orientation,
    bound_t: int,
    bound_f: int,
    mode: str,
    guard: int | None,
) -> tuple[int, int]:
    b, c = classify_edges(g, o)
    tens = sum(
        1
        for _ in enumerate_integral_tensions(
            g, o, bound_t, mode, window=b, zero_set=c, guard=guard
        )
    )
    flows = sum(
        1
        for _ in enumerate_integral_flows(
            g, o, bound_f, mode, window=c, zero_set=b, guard=guard
        )
    )
    return tens, flows


def criterion_6(guard: int | None = None) -> CheckResult:
    col = _Collector()
    grid = tuple(itertools.product((2, 3), repeat=2))
    zw = tuple(itertools.product((-1, 0, 1, 2), repeat=2))
    for name, g in all_fixtures():
        classes = cut_eulerian_classes(g, guard)
        psi_p = psi_family(g, "psi", guard=guard)
        bar_p = psi_family(g, "bar_psi", guard=guard)
        for p, q in grid:
            open_counts = []
            closed_counts = []
            for cls in classes:
                o = cls.representative
                b, c = classify_edges(g, o)
                ot, of = _direct_window_count(g, o, p, q, "open", guard)
                ct, cf = _direct_window_count(g, o, p, q, "closed", guard)
                open_counts.append((b.size, c.size, ot * of))
                closed_counts.append((b.size, c.size, ct * cf))
            for r, s in zw:
                want_open = sum(r**b * s**c * k for b, c, k in open_counts)
                got_open = psi_p.evaluate(x=p, y=q, z=r, w=s)
                col.expect(
                    got_open == want_open,
                    f"{name} open at ({p},{q},{r},{s}): poly {got_open}, direct {want_open}",
                )
                want_closed = sum(r**b * s**c * k for b, c, k in closed_counts)
                got_closed = bar_p.evaluate(x=p, y=q, z=r, w=s)
                col.expect(
                    got_closed == want_closed,
                    f"{name} closed at ({p},{q},{r},{s}): poly {got_closed}, "
                    f"direct {want_closed}",
                )
    return col.result(
        "class-representative window sums match direct enumeration on a value grid"
    )


# -- 7: weighted complementary sums ------------------------------------------------


def criterion_7(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        w_poly = whitney(g, guard)
        for p, q in itertools.product((2, 3, 4), repeat=2):
            disjoint_sum, signed_sum = whitney_weighted_sums(g, p, q, guard)
            want_pos = w_poly.evaluate(x=p, y=q)
            want_neg = w_poly.evaluate(x=-p, y=-q)
            col.expect(
                disjoint_sum == want_pos,
                f"{name} ({p},{q}): weighted sum {disjoint_sum}, polynomial {want_pos}",
            )
            col.expect(
                signed_sum == want_neg,
                f"{name} ({p},{q}): signed sum {signed_sum}, polynomial {want_neg}",
            )
    return col.result(
        "weighted complementary sums reproduce the corank-nullity polynomial "
        "at (p,q) and (-p,-q)"
    )


# -- 8: pair-space integral identities ---------------------------------------------


def criterion_8(guard: int | None = None) -> CheckResult:
    col = _Collector()
    always_valid: dict[str, bool] = {}
    for name, g in all_fixtures():
        for p, q in itertools.product((2, 3), repeat=2):
            report = pair_integral_identities(g, p, q, guard)
            for check in report.checks:
                col.expect(check.passed, f"{name} ({p},{q}): {check.line()}")
            for reading, ok in report.domain_readings:
                always_valid[reading] = always_valid.get(reading, True) and ok
    survivors = [r for r, ok in always_valid.items() if ok]
    # the two contrapositive phrasings describe one domain; the swapped
    # reading must fail somewhere
    col.expect(
        len(survivors) == 2
        and all("same set" in r or "disjoint" in r for r in survivors),
        f"validating readings: {survivors}",
    )
    distinct_domains = 1 if survivors else 0
    return col.result(
        "pair-space integral identities hold; exactly one domain reading validates",
        f"domains validating on every fixture: {distinct_domains} "
        f"(phrased two equivalent ways)",
    )


# -- 9: class sizes ------------------------------------------------------------------


def criterion_9(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        classes = cut_eulerian_classes(g, guard)
        total = sum(len(cls.members) for cls in classes)
        col.expect(
            total == 2 ** len(g.non_loop_ids()),
            f"{name}: class sizes sum to {total}",
        )
        for cls in classes:
            try:
                class_size_check(g, cls, guard)
            except VerificationError as exc:
                col.expect(False, f"{name}: {exc}")
            profile = class_bc_profile(g, cls)
            col.expect(
                len(profile) == 1,
                f"{name}: class of {cls.representative.flips} has mixed "
                f"bond/circuit sizes {sorted(profile)}",
            )
    return col.result("orientation class sizes match the pinned {0,1} pair counts")


# -- 10: residue fibres ----------------------------------------------------------------


def _chamber_orientation(g: MultiGraph, total: Sequence[int]) -> Orientation:
    flips = [
        (total[e] < 0) and not g.is_loop(e) for e in range(g.edge_count)
    ]
    return Orientation.for_graph(g, flips)


def criterion_10(guard: int | None = None) -> CheckResult:
    col = _Collector()
    small = [(name, g) for name, g in all_fixtures() if g.edge_count <= 4]
    for name, g in small:
        o = Orientation.reference(g)
        full = (1 << g.edge_count) - 1
        for p, q in itertools.product((2, 3), repeat=2):
            tens = list(enumerate_integral_tensions(g, o, p, "box", guard=guard))
            flows = list(enumerate_integral_flows(g, o, q, "box", guard=guard))
            buckets: dict[tuple, list] = {}
            for f in tens:
                fm = f.support_mask()
                for h in flows:
                    if h.support_mask() != full & ~fm:
                        continue
                    key = (
                        tuple(v % p for v in f.values),
                        tuple(v % q for v in h.values),
                    )
                    buckets.setdefault(key, []).append((f, h))
            total_pairs = sum(len(v) for v in buckets.values())
            count = integral_complementary_count(g, p, q, guard)
            col.expect(
                total_pairs == count,
                f"{name} ({p},{q}): bucketed {total_pairs} pairs, count says {count}",
            )
            for key, members in buckets.items():
                f0, h0 = members[0]
                # residues never kill a support: |values| < modulus
                for f, h in members:
                    col.expect(
                        tuple(v % p != 0 for v in f.values)
                        == tuple(v != 0 for v in f.values)
                        and tuple(v % q != 0 for v in h.values)
                        == tuple(v != 0 for v in h.values),
                        f"{name} ({p},{q}): residue changed a support in bucket {key}",
                    )
                total = [a + b for a, b in zip(f0.values, h0.values)]
                rho = _chamber_orientation(g, total)
                expected = kappa_rho(g, rho, "closed", guard).evaluate(x=1, y=1)
                col.expect(
                    len(members) == expected,
                    f"{name} ({p},{q}) bucket {key}: {len(members)} members, "
                    f"closed window count {expected}",
                )
            zp = FiniteAbelianGroup.cyclic(p)
            zq = FiniteAbelianGroup.cyclic(q)
            modular = set()
            mod_flows = []
            for values in _iter_flow_values(g, o, zq, guard):
                mod_flows.append(tuple(v[0] for v in values))
            for values in _iter_tension_values(g, o, zp, guard):
                kf = tuple(v[0] for v in values)
                fm = sum(1 << e for e, v in enumerate(kf) if v)
                for kg in mod_flows:
                    gm = sum(1 << e for e, v in enumerate(kg) if v)
                    if gm == full & ~fm:
                        modular.add((kf, kg))
            col.expect(
                set(buckets) == modular,
                f"{name} ({p},{q}): residue image has {len(buckets)} pairs, "
                f"modular enumeration has {len(modular)}",
            )
    return col.result(
        "integer pairs bucket by residue onto modular pairs with "
        "closed-window multiplicity"
    )


# -- 11: random finite arrangements ------------------------------------------------------


_FACTOR_CHOICES: tuple[tuple[int, ...], ...] = (
    (2,),
    (3,),
    (4,),
    (5,),
    (2, 2),
    (2, 3),
    (6,),
    (2, 4),
    (3, 3),
)


def _random_member(
    rng: random.Random, ambient: Sequence[FiniteAbelianGroup]
) -> FiniteCosetProduct:
    generators = []
    shifts = []
    for grp in ambient:
        elements = list(grp.elements())
        count = rng.randrange(0, 3)
        generators.append([rng.choice(elements) for _ in range(count)])
        shifts.append(rng.choice(elements))
    return FiniteCosetProduct.from_subgroup(ambient, generators, shifts)


def criterion_11(guard: int | None = None, trials: int = 60) -> CheckResult:
    col = _Collector()
    rng = random.Random(20260816)
    done = 0
    while done < trials:
        ambient = tuple(
            FiniteAbelianGroup(rng.choice(_FACTOR_CHOICES))
            for _ in range(rng.randrange(1, 4))
        )
        members = [_random_member(rng, ambient) for _ in range(rng.randrange(1, 5))]
        top = ambient_product(ambient)
        # a member equal to the whole space would make every point covered
        # while the intersection poset still reports the top flat
        members = [m for m in members if m.factors != top.factors]
        if not members:
            continue
        done += 1
        chi = finite_semilattice(ambient, members, guard).characteristic_polynomial()
        direct = complement_count(ambient, members, guard)
        col.expect(
            chi.evaluate() == direct,
            f"trial {done}: characteristic {chi.evaluate()}, complement {direct}",
        )
        a, b = members[0], members[-1]
        union_size = sum(
            1
            for point in itertools.product(*(list(grp.elements()) for grp in ambient))
            if a.contains(point) or b.contains(point)
        )
        via_valuation = product_valuation([(1, a), (1, b), (-1, a.intersect(b))])
        col.expect(
            via_valuation == union_size,
            f"trial {done}: |A|+|B|-|A and B| = {via_valuation}, union {union_size}",
        )
        # decompose the space into cosets of a random subgroup product and
        # check additivity of the counting valuation
        gens = [
            [rng.choice(list(grp.elements())) for _ in range(rng.randrange(0, 3))]
            for grp in ambient
        ]
        pieces = []
        covered: set = set()
        for point in itertools.product(*(list(grp.elements()) for grp in ambient)):
            if point in covered:
                continue
            coset = FiniteCosetProduct.from_subgroup(ambient, gens, shifts=point)
            pieces.append((1, coset))
            covered.update(itertools.product(*(list(f) for f in coset.factors)))
        try:
            total = product_valuation(pieces, check_disjoint=True)
        except ValueError as exc:
            col.expect(False, f"trial {done}: {exc}")
            continue
        col.expect(
            total == top.size,
            f"trial {done}: coset pieces sum to {total}, space has {top.size}",
        )
    return col.result(
        "random finite arrangements: Mobius characteristic equals complement "
        "count; valuations are additive",
        f"trials run: {done}",
    )


# -- 12: chromatic sanity ---------------------------------------------------------------


def criterion_12(guard: int | None = None) -> CheckResult:
    col = _Collector()
    g = fixture("k3")
    poly_value = chromatic_poly(g, guard=guard).evaluate(t=3)
    brute = 0
    for colours in itertools.product(range(3), repeat=g.vertex_count):
        if all(colours[t] != colours[h] for t, h in g.edges):
            brute += 1
    col.expect(
        poly_value == brute == 6,
        f"polynomial gives {poly_value}, enumeration gives {brute}, expected 6",
    )
    return col.result(
        "chromatic count at three colours matches direct proper-colouring enumeration"
    )


# -- 13: production routes against their oracles ----------------------------------------


def criterion_13(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        want_tension = tension_poly_by_enumeration(g, "t", guard)
        want_flow = flow_poly_by_enumeration(g, "t", guard)
        want_chromatic = MultiPoly.monomial(("t",), (components_count(g),)) * want_tension
        want_whitney = whitney_by_subsets(g, guard)
        for what, got, want in (
            ("tension", tension_poly(g, "t", guard), want_tension),
            ("flow", flow_poly(g, "t", guard), want_flow),
            ("chromatic", chromatic_poly(g, "t", guard), want_chromatic),
            ("whitney", whitney(g, guard), want_whitney),
        ):
            col.expect(got == want, f"{name}: {what} {got}, oracle {want}")
    return col.result(
        "tension, flow, chromatic and corank-nullity polynomials from the Tutte "
        "polynomial equal brute counts and the subset expansion"
    )


# -- 14: the psi convolution against the orientation sums -------------------------------


def criterion_14(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        for kind in PSI_KINDS:
            got = psi_family(g, kind, guard)
            want = psi_by_orientations(g, kind, guard)
            col.expect(got == want, f"{name}: {kind} {got}, orientation sum {want}")
    return col.result(
        "psi family as a convolution over cyclic flats equals the orientation sums"
    )


# -- 15: the rank table against rational incidence ranks -------------------------------


def criterion_15(guard: int | None = None) -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        dims = subset_flat_dims(g, guard)
        for mask, got in enumerate(dims):
            want = graphic_flat_dims(g, EdgeSubset(mask, g.edge_count))
            col.expect(got == want, f"{name} mask {mask:#x}: rank table {got}, rational {want}")
    return col.result(
        "flat dimensions from the subset rank table equal rational incidence ranks"
    )


# -- suites -------------------------------------------------------------------------------


CRITERIA: dict[int, Callable[..., CheckResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
    14: criterion_14,
    15: criterion_15,
}

SUITES: dict[str, tuple[int, ...]] = {
    "arrangement": (1, 11, 15),
    "orientation": (3, 9, 10),
    "reciprocity": (2, 4, 5, 6, 12, 13, 14),
    "whitney": (7,),
    "integrals": (8,),
    "all": tuple(range(1, 16)),
}


def run_criteria(
    numbers: Iterable[int], guard: int | None = None
) -> list[tuple[int, CheckResult]]:
    out = []
    for num in numbers:
        out.append((num, CRITERIA[num](guard)))
    return out


def run_suite(name: str, guard: int | None = None) -> list[tuple[int, CheckResult]]:
    try:
        numbers = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; have {', '.join(SUITES)}") from None
    return run_criteria(numbers, guard)
