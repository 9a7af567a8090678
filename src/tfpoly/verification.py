"""Self-verification suites over the built-in fixtures.

Each criterion checks one dual-route identity: a quantity computed two
independent ways must agree exactly.  Every check is exact integer or
exact polynomial equality; there are no tolerances anywhere.

The identity checkers behind criteria 4, 5 and 8 (`reciprocity_check`,
`specialization_check`, `pair_integral_identities`) live here too; each
returns one `CheckResult` per identity, whose lines hold the failure
details.  `CheckResult` is the only result type: `_identity` builds one
from the two sides of an identity, formatting them only when they
differ, and `_Collector` builds one per criterion.

The criteria are grouped into named suites (`config.SUITES`) for the
command line ``verify`` subcommand; the full list runs in well under a minute.
`run_criteria` runs them inside one run scope (`config.run_scope`), so
what several criteria ask for, such as the orientation sums, is
computed once per run and dropped when the run ends.  What does not
depend on the group orders is done once per graph: criterion 8's
subset sums are tallied once, keyed also by the exponents of p and q
(`_pair_subset_tallies`), the support pair classes of every pair of
groups share one enumeration per group and side, each monomial's image
under a substitution is computed once, and window polynomials with
equal counts share one fit.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Sequence

from .algebra import MultiPoly
from .arrangements import (
    FiniteCosetProduct,
    ambient_product,
    complement_count,
    finite_semilattice,
    graphic_flat_dims,
    graphic_semilattice,
    product_valuation,
    subset_flat_dims,
)
from .config import (  # SUITES is re-exported: scripts read it from here
    SUITES,
    Record,
    VerificationError,
    check_state_space,
    memoised_in_run,
    guarded,
    run_scope,
)
from .fixtures import all_fixtures, fixture, small_ladder
from .graph import (
    EdgeSubset,
    MultiGraph,
    Orientation,
    components_count,
    rank_nullity,
    subset_rank_table,
)
from .invariants import (
    X,
    Y,
    _tutte_recursion,
    chromatic_poly,
    flow_poly,
    flow_poly_by_enumeration,
    integral_complementary_count,
    integral_flow_poly,
    integral_tension_poly,
    kappa_rho,
    modular_complementary_count,
    omega,
    omega_by_subsets,
    omega_value,
    orientation_sums,
    PSI_KINDS,
    psi_by_cyclic_flats,
    psi_by_orientations,
    psi_family,
    whitney_weighted_sums,
    tension_poly,
    tension_poly_by_enumeration,
    tutte_value_triples,
    whitney,
    whitney_by_subsets,
)
from .orientations import (
    all_orientations,
    class_bc_profile,
    class_size_check,
    classify_edges,
    cut_eulerian_classes,
    cut_eulerian_classes_by_moves,
    divisor_class_keys,
)
from .tensionflow import (
    FiniteAbelianGroup,
    IntegerEdgeFunction,
    _iter_flow_values,
    _iter_tension_values,
    enumerate_integral_flows,
    enumerate_integral_tensions,
    lattice_index,
    pair_support_classes,
)


class CheckResult(Record):
    __slots__ = ("name", "passed", "lines")

    def __init__(self, name: str, passed: bool, lines: tuple[str, ...] = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "lines", lines)


class _Collector:
    """Builds the result of one check from the expectations it failed:
    their detail lines, then any extra lines."""

    def __init__(self) -> None:
        self.passed = True
        self.bad: list[str] = []

    def expect(self, ok: bool, *details: str) -> None:
        if not ok:
            self.passed = False
            self.bad.extend(details)

    def result(self, name: str, *extra: str) -> CheckResult:
        return CheckResult(name, self.passed, tuple(self.bad) + tuple(extra))


def _identity(
    name: str, lhs, rhs, labels: tuple[str, str] | None = ("lhs", "rhs")
) -> CheckResult:
    """The result of the identity lhs == rhs.  Only when the sides differ
    are they formatted, as one line each under their labels (no lines
    when labels is None)."""
    if lhs == rhs:
        return CheckResult(name, True)
    lines = () if labels is None else (f"{labels[0]}={lhs}", f"{labels[1]}={rhs}")
    return CheckResult(name, False, lines)


def _failure_line(check: CheckResult) -> str:
    suffix = f" [{'; '.join(check.lines)}]" if check.lines else ""
    return f"FAIL {check.name}{suffix}"


# -- 1: nowhere-zero pair polynomial routes ------------------------------------


def criterion_1() -> CheckResult:
    col = _Collector()
    z4 = FiniteAbelianGroup.cyclic(4)
    klein = FiniteAbelianGroup((2, 2))
    for name, g in all_fixtures():
        via_expansion = omega_by_subsets(g)
        via_arrangement = graphic_semilattice(g).characteristic_polynomial()
        if via_expansion != via_arrangement:
            col.expect(False, f"{name}: expansion {via_expansion} != arrangement {via_arrangement}")
        for p, q in itertools.product(range(1, 5), repeat=2):
            want = via_expansion.evaluate(x=p, y=q)
            got = omega_value(g, FiniteAbelianGroup.cyclic(p), FiniteAbelianGroup.cyclic(q))
            col.expect(got == want, f"{name} ({p},{q}): brute {got} != poly {want}")
        # the count depends only on the group orders, not the structures
        for grp_a, grp_b in ((z4, klein), (klein, z4), (klein, klein)):
            got = omega_value(g, grp_a, grp_b)
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


def criterion_2() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        a = _tutte_recursion(g)
        b = whitney_by_subsets(g).substitute({"x": X - 1, "y": Y - 1})
        if a != b:
            col.expect(False, f"{name}: recursion {a} != shift {b}")
    return col.result(
        "Tutte polynomial: deletion-contraction and corank-nullity shift agree"
    )


# -- 3: orientation classes and quadrant values ----------------------------------


def _maximal_forest_count(g: MultiGraph) -> int:
    table = subset_rank_table(g)
    r = table[(1 << g.edge_count) - 1]
    return sum(
        1
        for mask in range(1 << g.edge_count)
        if mask.bit_count() == r and table[mask] == r
    )


def criterion_3() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        classes = cut_eulerian_classes(g)
        t_poly = _tutte_recursion(g)
        t11 = t_poly.evaluate(x=1, y=1)
        forests = _maximal_forest_count(g)
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
                got = tutte_value_triples(g, p, q, quadrant)
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


def reciprocity_check(g: MultiGraph) -> list[CheckResult]:
    """Sign reciprocity between the open and closed orientation sums of
    `psi_by_orientations`, for the modular pair, the integral pair, and
    every single orientation of the same walk (`orientation_sums`).  The
    production `psi_family` derives its closed sums by this reciprocity,
    so checking it there would prove nothing."""
    r, n = rank_nullity(g)
    sr = -1 if r & 1 else 1
    sn = -1 if n & 1 else 1
    checks: list[CheckResult] = []
    for which, bar in (("psi", "bar_psi"), ("psi_z", "bar_psi_z")):
        open_poly = psi_by_orientations(g, which)
        closed_poly = psi_by_orientations(g, bar)
        lhs = open_poly.negate_vars(["x", "y"])
        via_z = sn * closed_poly.negate_vars(["z"])
        via_w = sr * closed_poly.negate_vars(["w"])
        checks.append(_identity(f"{which}(-x,-y,z,w) = (-1)^n {bar}(x,y,-z,w)", lhs, via_z))
        checks.append(_identity(f"{which}(-x,-y,z,w) = (-1)^r {bar}(x,y,z,-w)", lhs, via_w))
    witness: tuple[str, ...] = ()
    for o, _, c_size, open_kappa, closed_kappa in orientation_sums(g)[1]:
        sign = -1 if (r + c_size) & 1 else 1
        lhs = open_kappa.negate_vars(["x", "y"])
        rhs = sign * closed_kappa
        if lhs != rhs:
            witness = (f"flips={o.flips}", f"lhs={lhs}", f"rhs={rhs}")
            break
    checks.append(
        CheckResult(
            "kappa(-x,-y) = (-1)^(r+|C|) kappa_closed(x,y) for every orientation",
            not witness,
            witness,
        )
    )
    return checks


# the (p, q) values at which criterion 5 compares complementary pair counts
SPECIALIZATION_GRID = tuple((p, q) for p in (2, 3, 4) for q in (2, 3, 4))


def specialization_check(g: MultiGraph) -> list[CheckResult]:
    """Pin (z, w) in the orientation sums of `psi_by_orientations` and
    compare against the directly defined counting polynomials and brute
    counts, the latter on `SPECIALIZATION_GRID`.  (In the convolution
    over cyclic flats, psi(x,y,1,0) is the single term of the empty X,
    so checking it there would prove nothing.)"""
    checks: list[CheckResult] = []
    psi_z = psi_by_orientations(g, "psi_z")
    psi_m = psi_by_orientations(g, "psi")

    tz = integral_tension_poly(g, "x")
    fz = integral_flow_poly(g, "y")
    at_10 = {"z": 1, "w": 0}
    at_01 = {"z": 0, "w": 1}
    at_00 = {"z": 0, "w": 0}
    got_want = ("got", "want")
    checks.append(
        _identity(
            "psi_z(x,y,1,0) = integral tension polynomial",
            psi_z.substitute(at_10),
            tz,
            got_want,
        )
    )
    checks.append(
        _identity(
            "psi_z(x,y,0,1) = integral flow polynomial", psi_z.substitute(at_01), fz, got_want
        )
    )
    # with no edges both sums are the empty product 1, not 0
    origin = MultiPoly.const(1) if g.edge_count == 0 else MultiPoly.zero(())
    checks.append(
        _identity("psi_z(x,y,0,0) = 0 (1 when edgeless)", psi_z.substitute(at_00), origin, None)
    )
    tm = tension_poly(g, "x")
    fm = flow_poly(g, "y")
    checks.append(
        _identity("psi(x,y,1,0) = tension polynomial", psi_m.substitute(at_10), tm, got_want)
    )
    checks.append(
        _identity("psi(x,y,0,1) = flow polynomial", psi_m.substitute(at_01), fm, got_want)
    )
    checks.append(
        _identity("psi(x,y,0,0) = 0 (1 when edgeless)", psi_m.substitute(at_00), origin, None)
    )
    kz = psi_z.substitute({"z": 1, "w": 1})
    km = psi_m.substitute({"z": 1, "w": 1})
    bad_z = []
    bad_m = []
    for p, q in SPECIALIZATION_GRID:
        want_z = integral_complementary_count(g, p, q)
        got_z = kz.evaluate(x=p, y=q)
        if got_z != want_z:
            bad_z.append(f"({p},{q}): poly {got_z} vs count {want_z}")
        want_m = modular_complementary_count(g, p, q)
        got_m = km.evaluate(x=p, y=q)
        if got_m != want_m:
            bad_m.append(f"({p},{q}): poly {got_m} vs count {want_m}")
    checks.append(
        CheckResult(
            "psi_z(p,q,1,1) = integer complementary pair count on the grid",
            not bad_z,
            tuple(bad_z),
        )
    )
    checks.append(
        CheckResult(
            "psi(p,q,1,1) = modular complementary pair count on the grid",
            not bad_m,
            tuple(bad_m),
        )
    )
    return checks


def criterion_4() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        for check in reciprocity_check(g):
            col.expect(check.passed, f"{name}: {_failure_line(check)}")
    return col.result("open/closed window sums satisfy sign reciprocity")


def criterion_5() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        for check in specialization_check(g):
            col.expect(check.passed, f"{name}: {_failure_line(check)}")
    return col.result(
        "window sums specialise to the tension, flow, and complementary-pair counts"
    )


# -- 6: representative window sums against direct enumeration ---------------------


def _direct_window_count(
    g: MultiGraph,
    o: Orientation,
    b: EdgeSubset,
    c: EdgeSubset,
    bound_t: int,
    bound_f: int,
    mode: str,
) -> tuple[int, int]:
    tens = sum(1 for _ in enumerate_integral_tensions(g, o, bound_t, mode, b))
    flows = sum(1 for _ in enumerate_integral_flows(g, o, bound_f, mode, c))
    return tens, flows


def criterion_6() -> CheckResult:
    col = _Collector()
    grid = tuple(itertools.product((2, 3), repeat=2))
    zw = tuple(itertools.product((-1, 0, 1, 2), repeat=2))
    for name, g in all_fixtures():
        reps = [
            (cls.representative, *classify_edges(g, cls.representative))
            for cls in cut_eulerian_classes(g)
        ]
        psi_p = psi_family(g, "psi")
        bar_p = psi_family(g, "bar_psi")
        for p, q in grid:
            open_counts = []
            closed_counts = []
            for o, b, c in reps:
                ot, of = _direct_window_count(g, o, b, c, p, q, "open")
                ct, cf = _direct_window_count(g, o, b, c, p, q, "closed")
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


def criterion_7() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        w_poly = whitney(g)
        for p, q in itertools.product((2, 3, 4), repeat=2):
            disjoint_sum, signed_sum = whitney_weighted_sums(g, p, q)
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


U = MultiPoly.var("u")
V = MultiPoly.var("v")
Z = MultiPoly.var("z")
W = MultiPoly.var("w")


@memoised_in_run
def _pair_subset_tallies(g: MultiGraph) -> tuple[dict, dict, dict, dict]:
    """The subset sums of `pair_integral_identities` with the group
    orders left as symbols.  nu(X, Y) = |T_X x F_Y|, the pairs with f = 0
    on X and g = 0 on Y, is p^(r - r<X>) q^(|W| - r<W>) with W = E - Y:
    the tensions over Z_p vanishing on X times the flows over Z_q
    supported inside W.  So each sum is tallied in integers by its own
    key followed by the exponents of p and q, and `_at_orders` reads it
    at any (p, q).  Returns (acc1, acc4, alt, diag), keyed as the
    comments below say."""
    m = g.edge_count
    table = subset_rank_table(g)
    full = (1 << m) - 1
    r, _ = rank_nullity(g)
    tens = [r - rank for rank in table]
    flows = [mask.bit_count() - rank for mask, rank in enumerate(table)]

    # sum over Y inside X of nu(X, Y^c), by (|Y|, |X - Y|)
    acc1: dict[tuple[int, ...], int] = {}
    for x_mask in range(1 << m):
        sub = x_mask
        while True:
            key = (sub.bit_count(), (x_mask & ~sub).bit_count(), tens[x_mask], flows[sub])
            acc1[key] = acc1.get(key, 0) + 1
            if sub == 0:
                break
            sub = (sub - 1) & x_mask
    # signed sum over pairs (Z, W) of nu(Z, W^c), by
    # (|Z cap W|, |E - (Z cup W)|, |Z - W|, |W|); alongside it the
    # alternating subgroup sum, by nothing, and the diagonal one, by |Z|
    acc4: dict[tuple[int, ...], int] = {}
    alt: dict[tuple[int, ...], int] = {}
    diag: dict[tuple[int, ...], int] = {}
    for z_mask in range(1 << m):
        sign = -1 if z_mask.bit_count() & 1 else 1
        a = tens[z_mask]
        key = (a, flows[full & ~z_mask])
        alt[key] = alt.get(key, 0) + sign
        key = (z_mask.bit_count(), a, flows[z_mask])
        diag[key] = diag.get(key, 0) + 1
        for w_mask in range(1 << m):
            key = (
                (z_mask & w_mask).bit_count(),
                (full & ~(z_mask | w_mask)).bit_count(),
                (z_mask & ~w_mask).bit_count(),
                w_mask.bit_count(),
                a,
                flows[w_mask],
            )
            acc4[key] = acc4.get(key, 0) + sign
    return acc1, acc4, alt, diag


def _at_orders(tally: dict[tuple[int, ...], int], p: int, q: int) -> dict[tuple[int, ...], int]:
    """A tally of `_pair_subset_tallies` at group orders (p, q): each
    count times p^a q^b, for the (a, b) that ends its key, summed by the
    rest of the key."""
    out: dict[tuple[int, ...], int] = {}
    for key, cnt in tally.items():
        rest = key[:-2]
        out[rest] = out.get(rest, 0) + cnt * p ** key[-2] * q ** key[-1]
    return out


def pair_integral_identities(
    g: MultiGraph, p: int, q: int
) -> tuple[list[CheckResult], list[CheckResult]]:
    """Finite-integral identities over the pair space, all checked as
    exact polynomial identities at group orders (p, q).

    The disjoint-support integral is also evaluated under both stated
    domain phrasings ("supp f inside ker g" and "supp g inside ker f",
    which are contrapositives and define the same set) and under the
    genuinely different swapped reading "ker f inside supp g".  Returns
    one result per identity, and one per reading, which passes when the
    reading validates against the subset formula.

    Each side is tallied in integers, keyed by its exponents, and made
    a polynomial once: directly when each exponent is that of a bare
    variable, else by one `MultiPoly.substitute`.  The subset sums do
    not depend on (p, q) but through powers of p and q, so a run tallies
    them once per graph (`_pair_subset_tallies`).
    """
    m = g.edge_count
    # the subset sums below run over 3^E pairs Y inside X and 4^E pairs (Z, W)
    check_state_space(3**m + 4**m, "pair integral subset sums")
    # the pairs with disjoint supports (supp f inside ker g, or as well
    # supp g inside ker f: the same bit test) and with covering supports
    # (ker f inside supp g), by (|ker f|, |supp g|), and the
    # complementary ones, which are both and so have |supp g| = |ker f|
    disjoint, cover, comp = pair_support_classes(
        g, FiniteAbelianGroup.cyclic(p), FiniteAbelianGroup.cyclic(q)
    )
    tallies = _pair_subset_tallies(g)
    acc1, acc4, alt, diag = (_at_orders(tally, p, q) for tally in tallies)
    r, n = rank_nullity(g)

    checks: list[CheckResult] = []

    # disjoint-support integral of u^|ker f| v^|supp g|:
    # sum over Y inside X of (uv)^|Y| (u - uv - 1)^(|X|-|Y|) nu(X, Y^c)
    lhs1 = MultiPoly(("u", "v"), disjoint)
    rhs1 = MultiPoly(("u", "v"), acc1).substitute({"u": U * V, "v": U - U * V - 1})
    # the covering integral below has the swapped reading's domain
    lhs4 = MultiPoly(("u", "v"), cover)
    readings = [
        _identity("supp f inside ker g (disjoint supports)", lhs1, rhs1, None),
        _identity("supp g inside ker f (same set, contrapositive)", lhs1, rhs1, None),
        _identity("ker f inside supp g (swapped)", lhs4, rhs1, None),
    ]
    checks.append(
        _identity(
            "disjoint-support integral of u^|ker f| v^|supp g| matches its subset formula",
            lhs1,
            rhs1,
        )
    )

    # complementary integral of u^|ker f|:
    # sum over Y inside X of u^|Y| (-u - 1)^(|X|-|Y|) nu(X, Y^c)
    checks.append(
        _identity(
            "complementary integral of u^|ker f| matches its subset formula",
            MultiPoly(("u",), comp),
            MultiPoly(("u", "v"), acc1).substitute({"v": -U - 1}),
        )
    )

    # at u = -1 the complementary integral gives the Whitney polynomial
    # at negated arguments, up to the sign (-1)^r
    w_poly = whitney(g)
    got_int = sum(-c if (k + r) & 1 else c for (k,), c in comp.items())
    checks.append(
        _identity(
            "signed complementary count at u=-1 equals Whitney at (-p,-q)",
            got_int,
            w_poly.evaluate(x=-p, y=-q),
            ("got", "want"),
        )
    )

    # weighted complementary integral of z^|supp f| w^|supp g|:
    # sum over Y inside X of z^(|E|-|X|) w^|Y| (-z - w)^(|X|-|Y|) nu(X, Y^c)
    checks.append(
        _identity(
            "complementary integral of z^|supp f| w^|supp g| matches its subset formula",
            MultiPoly(("z", "w"), {(m - k, k): c for (k,), c in comp.items()}),
            MultiPoly(
                ("z", "w", "s"), {(m - i - j, i, j): c for (i, j), c in acc1.items()}
            ).substitute({"s": -Z - W}),
        )
    )

    # covering integral of u^|ker f| v^|supp g| over ker f inside supp g:
    # sum over pairs (Z, W) of (-1)^|Z| v^|W| (1-u)^|Z cap W|
    #   (1-v)^(|E|-|Z cup W|) (uv-v+1)^(|Z|-|W|... on Z minus W) nu(Z, W^c)
    checks.append(
        _identity(
            "covering integral of u^|ker f| v^|supp g| matches its double subset formula",
            lhs4,
            MultiPoly(("a", "b", "c", "v"), acc4).substitute(
                {"a": 1 - U, "b": 1 - V, "c": U * V - V + 1}
            ),
        )
    )

    # nowhere-zero pair count (no edge where f and g both vanish) as an
    # alternating sum of subgroup sizes
    checks.append(
        _identity(
            "nowhere-zero pair count equals the alternating subgroup-size sum",
            sum(cover.values()),
            alt[()],
            ("count", "sum"),
        )
    )

    # weight 2^(|ker f| - |supp g|) on disjoint supports gives Whitney at (p, q)
    disjoint_sum, _ = whitney_weighted_sums(g, p, q)
    checks.append(
        _identity(
            "disjoint-support weight 2^(|ker f|-|supp g|) equals Whitney at (p,q)",
            disjoint_sum,
            w_poly.evaluate(x=p, y=q),
            ("got", "want"),
        )
    )

    # support-weight collapse:
    # sum over disjoint pairs of u^|supp g| (u+1)^(|ker f|-|supp g|)
    #   = sum over X of u^|X| nu(X, X^c)
    # (the second index of nu is the flow-vanishing set, here X^c)
    checks.append(
        _identity(
            "disjoint-support weight u^|supp g| (u+1)^(|ker f|-|supp g|) "
            "collapses to the diagonal subgroup sum",
            MultiPoly(("u", "s"), {(j, i - j): c for (i, j), c in disjoint.items()}).substitute(
                {"s": U + 1}
            ),
            MultiPoly(("u",), diag),
        )
    )

    return checks, readings


def criterion_8() -> CheckResult:
    col = _Collector()
    always_valid: dict[str, bool] = {}
    for name, g in all_fixtures():
        for p, q in itertools.product((2, 3), repeat=2):
            checks, readings = pair_integral_identities(g, p, q)
            for check in checks:
                col.expect(check.passed, f"{name} ({p},{q}): {_failure_line(check)}")
            for reading in readings:
                ok = always_valid.get(reading.name, True) and reading.passed
                always_valid[reading.name] = ok
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


def criterion_9() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        classes = cut_eulerian_classes(g)
        total = sum(cls.size for cls in classes)
        col.expect(
            total == 2 ** len(g.non_loop_ids()),
            f"{name}: class sizes sum to {total}",
        )
        for cls in classes:
            try:
                class_size_check(g, cls)
            except VerificationError as exc:
                col.expect(False, f"{name}: {exc}")
        for members in cut_eulerian_classes_by_moves(g):
            profile = class_bc_profile(g, members)
            col.expect(
                len(profile) == 1,
                f"{name}: class of {members[0].flips} has mixed "
                f"bond/circuit sizes {sorted(profile)}",
            )
    return col.result("orientation class sizes match the pinned {0,1} pair counts")


# -- 10: residue fibres ----------------------------------------------------------------


def _chamber_orientation(g: MultiGraph, total: Sequence[int]) -> Orientation:
    flips = [
        (total[e] < 0) and not g.is_loop(e) for e in range(g.edge_count)
    ]
    return Orientation.for_graph(g, flips)


def _by_support(functions: Iterable[IntegerEdgeFunction]) -> dict[int, list[IntegerEdgeFunction]]:
    """The functions grouped by support mask, each group in the order read."""
    out: dict[int, list[IntegerEdgeFunction]] = {}
    for fn in functions:
        out.setdefault(fn.support_mask(), []).append(fn)
    return out


def criterion_10() -> CheckResult:
    col = _Collector()
    small = [(name, g) for name, g in all_fixtures() if g.edge_count <= 4]
    for name, g in small:
        o = Orientation.reference(g)
        full = (1 << g.edge_count) - 1
        for p, q in itertools.product((2, 3), repeat=2):
            tens = list(enumerate_integral_tensions(g, o, p, "box"))
            flows = _by_support(enumerate_integral_flows(g, o, q, "box"))
            buckets: dict[tuple, list] = {}
            for f in tens:
                # the flows complementary to f: supported exactly on ker f
                for h in flows.get(full ^ f.support_mask(), ()):
                    key = (
                        tuple(v % p for v in f.values),
                        tuple(v % q for v in h.values),
                    )
                    buckets.setdefault(key, []).append((f, h))
            total_pairs = sum(len(v) for v in buckets.values())
            count = integral_complementary_count(g, p, q)
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
                expected = kappa_rho(g, rho, "closed").evaluate(x=1, y=1)
                col.expect(
                    len(members) == expected,
                    f"{name} ({p},{q}) bucket {key}: {len(members)} members, "
                    f"closed window count {expected}",
                )
            zp = FiniteAbelianGroup.cyclic(p)
            zq = FiniteAbelianGroup.cyclic(q)
            mod_flows = _by_support(
                IntegerEdgeFunction(tuple(v[0] for v in values))
                for values in _iter_flow_values(g, o, zq)
            )
            modular = set()
            for values in _iter_tension_values(g, o, zp):
                f = IntegerEdgeFunction(tuple(v[0] for v in values))
                for h in mod_flows.get(full ^ f.support_mask(), ()):
                    modular.add((f.values, h.values))
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
_TRIALS = 60  # random arrangements per run of criterion 11


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


def criterion_11() -> CheckResult:
    col = _Collector()
    rng = random.Random(20260816)
    done = 0
    while done < _TRIALS:
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
        chi = finite_semilattice(ambient, members).characteristic_polynomial()
        direct = complement_count(ambient, members)
        col.expect(
            chi.evaluate() == direct,
            f"trial {done}: characteristic {chi.evaluate()}, complement {direct}",
        )
        a, b = members[0], members[-1]
        union_size = len(set(itertools.product(*a.factors)) | set(itertools.product(*b.factors)))
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
        sub = FiniteCosetProduct.from_subgroup(ambient, gens)
        pieces = []
        covered: set = set()
        for point in itertools.product(*(list(grp.elements()) for grp in ambient)):
            if point in covered:
                continue
            coset = FiniteCosetProduct(
                tuple(
                    frozenset(grp.add(shift, a) for a in factor)
                    for grp, shift, factor in zip(ambient, point, sub.factors)
                )
            )
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


def criterion_12() -> CheckResult:
    col = _Collector()
    g = fixture("k3")
    poly_value = chromatic_poly(g).evaluate(t=3)
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


def criterion_13() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        want_tension = tension_poly_by_enumeration(g, "t")
        want_flow = flow_poly_by_enumeration(g, "t")
        want_chromatic = MultiPoly.monomial(("t",), (components_count(g),)) * want_tension
        want_whitney = whitney_by_subsets(g)
        for what, got, want in (
            ("tension", tension_poly(g, "t"), want_tension),
            ("flow", flow_poly(g, "t"), want_flow),
            ("chromatic", chromatic_poly(g, "t"), want_chromatic),
            ("whitney", whitney(g), want_whitney),
        ):
            if got != want:
                col.expect(False, f"{name}: {what} {got}, oracle {want}")
    return col.result(
        "tension, flow, chromatic and corank-nullity polynomials from the Tutte "
        "polynomial equal brute counts and the subset expansion"
    )


# -- 14: the psi family against the orientation sums -----------------------------------


def criterion_14() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        for kind in PSI_KINDS:
            got = psi_family(g, kind)
            want = psi_by_orientations(g, kind)
            if got != want:
                col.expect(False, f"{name}: {kind} {got}, orientation sum {want}")
    return col.result(
        "psi family (frontier sum for the modular pair, convolution over cyclic flats "
        "for the integral pair) equals the orientation sums"
    )


# -- 15: the rank table against rational incidence ranks -------------------------------


def criterion_15() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        dims = subset_flat_dims(g)
        for mask, got in enumerate(dims):
            want = graphic_flat_dims(g, EdgeSubset(mask, g.edge_count))
            col.expect(got == want, f"{name} mask {mask:#x}: rank table {got}, rational {want}")
    return col.result(
        "flat dimensions from the subset rank table equal rational incidence ranks"
    )


# -- 16: divisor-class keys against the move closure -----------------------------------


def criterion_16() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures():
        classes = cut_eulerian_classes(g)
        closure = cut_eulerian_classes_by_moves(g)
        by_key: dict[tuple[int, ...], set[tuple[bool, ...]]] = {}
        for o, key in zip(all_orientations(g), divisor_class_keys(g)):
            by_key.setdefault(key, set()).add(o.flips)
        key_parts = {frozenset(part) for part in by_key.values()}
        move_parts = {frozenset(o.flips for o in members) for members in closure}
        col.expect(
            key_parts == move_parts,
            f"{name}: {len(key_parts)} key classes, {len(move_parts)} closure classes, "
            f"{len(key_parts & move_parts)} shared",
        )
        got = [(cls.representative.flips, cls.size) for cls in classes]
        want = [(members[0].flips, len(members)) for members in closure]
        col.expect(got == want, f"{name}: (representative, size) {got}, closure {want}")
        index = lattice_index(g, Orientation.reference(g))
        col.expect(len(classes) == index, f"{name}: {len(classes)} classes, lattice index {index}")
    return col.result(
        "orientation classes keyed by indegree divisor class equal the move closure's "
        "classes, least members and sizes"
    )


# -- 17: the frontier sums against the subset expansions and the recursion ------------


def criterion_17() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures() + small_ladder():
        frontier_r = whitney(g)
        for what, want in (
            ("subset expansion", whitney_by_subsets(g)),
            ("recursion", _tutte_recursion(g).substitute({"x": X + 1, "y": Y + 1})),
        ):
            if frontier_r != want:
                col.expect(False, f"{name}: frontier R {frontier_r}, {what} {want}")
        frontier_omega = omega(g)
        want = omega_by_subsets(g)
        if frontier_omega != want:
            col.expect(False, f"{name}: frontier omega {frontier_omega}, subset expansion {want}")
    return col.result(
        "frontier sums of the corank-nullity and nowhere-zero pair polynomials equal "
        "the subset expansions and the shifted deletion-contraction"
    )


# -- 18: the frontier psi against the convolution over cyclic flats -------------------


def criterion_18() -> CheckResult:
    col = _Collector()
    for name, g in all_fixtures() + small_ladder():
        got = psi_family(g, "psi")
        want = psi_by_cyclic_flats(g)
        if got != want:
            col.expect(False, f"{name}: frontier psi {got}, cyclic flat convolution {want}")
    return col.result(
        "frontier sum of the modular psi equals its convolution over cyclic flats"
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
    16: criterion_16,
    17: criterion_17,
    18: criterion_18,
}


def run_criteria(numbers: Iterable[int]) -> list[tuple[int, CheckResult]]:
    """Run the numbered criteria in one run scope, under the guard
    active on entry, so that no memo outlives the run."""
    with guarded(), run_scope():
        return [(num, CRITERIA[num]()) for num in numbers]


def run_suite(name: str) -> list[tuple[int, CheckResult]]:
    try:
        numbers = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; have {', '.join(SUITES)}") from None
    return run_criteria(numbers)
