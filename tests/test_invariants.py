"""Polynomial invariants and the identity checkers built on them.

The frozen polynomials below were cross-checked against independent
facts: T(1,1) counts maximal forests, T(2,0) acyclic orientations,
T(0,2) totally cyclic orientations, T(2,2) = 2^|E|, duality swaps the
triangle and theta values, and a loop multiplies T by y.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tfpoly import tensionflow
from tfpoly.algebra import MultiPoly
from tfpoly.arrangements import graphic_semilattice
from tfpoly.config import DEFAULT_STATE_GUARD, GuardExceeded, guarded, run_scope
from tfpoly.fixtures import fixture, fixture_names
from tfpoly.graph import MultiGraph, Orientation, components_count, subset_rank_table
from tfpoly.invariants import (
    _shifted_down,
    _tutte_recursion,
    PSI_KINDS,
    QUADRANTS,
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
    psi_by_orientations,
    psi_family,
    whitney_weighted_sums,
    tension_poly,
    tension_poly_by_enumeration,
    tutte,
    tutte_value_triples,
    whitney,
    whitney_by_subsets,
)
from tfpoly.orientations import cut_eulerian_classes
from tfpoly.tensionflow import (
    FiniteAbelianGroup,
    integral_support_classes,
    pair_support_classes,
)
from tfpoly.verification import (
    pair_integral_identities,
    reciprocity_check,
    specialization_check,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")
W = MultiPoly.var("w")
T = MultiPoly.var("t")

TUTTE = {
    "e2": MultiPoly.const(1),
    "edge": X,
    "loop": Y,
    "p3": X**2,
    "digon": X + Y,
    "k3": X**2 + X + Y,
    "theta": Y**2 + X + Y,
    "k3_loop": Y * (X**2 + X + Y),
    "k4me": X**3 + 2 * X**2 + 2 * X * Y + Y**2 + X + Y,
    "k4": X**3 + Y**3 + 3 * X**2 + 4 * X * Y + 3 * Y**2 + 2 * X + 2 * Y,
}

OMEGA = {
    "e2": MultiPoly.const(1),
    "edge": X - 1,
    "loop": Y - 1,
    "p3": (X - 1) ** 2,
    "digon": X * Y - 1,
    "k3": X**2 * Y - 3 * X + 2,
    "theta": X * Y**2 - 3 * Y + 2,
    "k3_loop": (Y - 1) * (X**2 * Y - 3 * X + 2),
    "k4me": X**3 * Y**2 - 5 * X**2 * Y + 2 * X * Y + 6 * X - 4,
    "k4": X**3 * Y**3 - 6 * X**2 * Y**2 + 15 * X * Y - 4 * X - 4 * Y - 2,
}

TENSION = {
    "e2": MultiPoly.const(1),
    "edge": T - 1,
    "loop": MultiPoly.zero(),
    "p3": (T - 1) ** 2,
    "digon": T - 1,
    "k3": (T - 1) * (T - 2),
    "theta": T - 1,
    "k3_loop": MultiPoly.zero(),
    "k4me": (T - 1) * (T - 2) ** 2,
    "k4": (T - 1) * (T - 2) * (T - 3),
}

FLOW = {
    "e2": MultiPoly.const(1),
    "edge": MultiPoly.zero(),
    "loop": T - 1,
    "p3": MultiPoly.zero(),
    "digon": T - 1,
    "k3": T - 1,
    "theta": (T - 1) * (T - 2),
    "k3_loop": (T - 1) ** 2,
    "k4me": (T - 1) * (T - 2),
    "k4": (T - 1) * (T - 2) * (T - 3),
}


@pytest.mark.parametrize("name", sorted(TUTTE))
def test_tutte_table(name):
    assert tutte(fixture(name)) == TUTTE[name]


@pytest.mark.parametrize("name", sorted(TUTTE))
def test_tutte_routes_agree(name):
    g = fixture(name)
    shifted = whitney_by_subsets(g).substitute({"x": X - 1, "y": Y - 1})
    assert _tutte_recursion(g) == shifted == tutte(g)


@pytest.mark.parametrize("name", sorted(TUTTE))
def test_whitney_is_shifted_tutte(name):
    g = fixture(name)
    assert whitney(g) == TUTTE[name].substitute({"x": X + 1, "y": Y + 1})


def seeded_multigraph(seed: int, vertices: int, edges: int) -> MultiGraph:
    """Connected multigraph with a loop, a parallel pair, and distinct
    further edges, wired by the seed."""
    rng = random.Random(seed)
    tree = [(v, rng.randrange(v)) for v in range(1, vertices)]
    loop = rng.randrange(vertices)
    pairs = tree + [(loop, loop), rng.choice(tree)]
    fresh = [
        (a, b)
        for b in range(vertices)
        for a in range(b)
        if (b, a) not in tree
    ]
    rng.shuffle(fresh)
    pairs += fresh[: edges - len(pairs)]
    rng.shuffle(pairs)
    return MultiGraph(vertices, tuple(pairs))


ORACLE_GRAPHS = {
    "w4": MultiGraph(
        5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))
    ),
    "prism": MultiGraph(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))
    ),
    "multi_4_7": seeded_multigraph(4, 4, 7),
    "multi_5_8": seeded_multigraph(5, 5, 8),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_production_routes_match_oracles(name):
    g = ORACLE_GRAPHS[name]
    if name.startswith("multi"):
        links = [tuple(sorted(g.edges[e])) for e in g.non_loop_ids()]
        assert g.loop_ids() and len(set(links)) < len(links)
    assert tension_poly(g) == tension_poly_by_enumeration(g)
    assert flow_poly(g) == flow_poly_by_enumeration(g)
    assert whitney(g) == whitney_by_subsets(g)
    assert tutte(g) == whitney_by_subsets(g).substitute({"x": X - 1, "y": Y - 1})


def test_whitney_by_subsets_is_charged_in_states():
    # the subset expansion charges 2^E x E states: 17 edges fit the
    # default guard, 20 do not
    g = seeded_multigraph(17, 7, 17)
    w = whitney(g)
    assert whitney_by_subsets(g) == w
    assert w == tutte(g).substitute({"x": X + 1, "y": Y + 1})
    assert w.evaluate(x=1, y=1) == 2**17
    with pytest.raises(GuardExceeded):
        whitney_by_subsets(seeded_multigraph(20, 7, 20))


def test_tutte_shift_is_charged_before_it_starts():
    # a path of 12 edges has R = (x + 1)^12: one row of degree 12, shifted
    # in 12 * 13 / 2 additions, then columns of degree 0
    terms = whitney(MultiGraph(13, tuple((i, i + 1) for i in range(12)))).terms
    with guarded(78):
        assert _shifted_down(terms) == {(12, 0): 1}
    with guarded(77):
        with pytest.raises(GuardExceeded, match="^Tutte shift needs 78 states, guard is 77$"):
            _shifted_down(terms)


def test_recursion_guard_is_per_call():
    # a memo left over from an earlier call must not let a later call
    # with a smaller guard through
    g = fixture("k4")
    assert tutte(g) == TUTTE["k4"]
    with guarded(10):
        with pytest.raises(GuardExceeded):
            tutte(g)
        with pytest.raises(GuardExceeded):
            tension_poly(g)


@pytest.mark.parametrize("value", [2.9, 0.5, "3"])
def test_guard_override_must_be_an_int(value):
    with pytest.raises(TypeError, match=f"guard must be an integer, not {value!r}"):
        with guarded(value):
            pass


@pytest.mark.parametrize("name", sorted(OMEGA))
def test_omega_table_and_routes(name):
    g = fixture(name)
    assert omega_by_subsets(g) == OMEGA[name]
    assert graphic_semilattice(g).characteristic_polynomial() == OMEGA[name]
    assert omega(g) == OMEGA[name]


@pytest.mark.parametrize("name", ["k3", "digon", "loop", "k3_loop"])
@pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (4, 3)])
def test_omega_matches_brute_counts(name, p, q):
    g = fixture(name)
    value = omega_value(
        g, FiniteAbelianGroup.cyclic(p), FiniteAbelianGroup.cyclic(q)
    )
    assert value == OMEGA[name].evaluate(x=p, y=q)


def test_omega_value_on_noncyclic_groups():
    g = fixture("k3")
    klein = FiniteAbelianGroup((2, 2))
    assert omega_value(g, klein, klein) == OMEGA["k3"].evaluate(x=4, y=4)


@pytest.mark.parametrize("name", sorted(TENSION))
def test_tension_flow_tables(name):
    g = fixture(name)
    assert tension_poly(g) == TENSION[name]
    assert flow_poly(g) == FLOW[name]


@pytest.mark.parametrize("name", sorted(TUTTE))
def test_chromatic_factorization(name):
    g = fixture(name)
    assert chromatic_poly(g) == T ** components_count(g) * TENSION[name]


def test_chromatic_k3_at_three_colors():
    # direct count: 3 color choices for the first vertex, 2, then 1
    assert chromatic_poly(fixture("k3")).evaluate(t=3) == 6


def test_integral_polynomials():
    g = fixture("k3")
    assert integral_tension_poly(g, "t") == 3 * (T - 1) * (T - 2)
    assert integral_flow_poly(g, "t") == 2 * (T - 1)
    # rational coefficients are normal here: this one is
    # 14/3 t^3 - 23 t^2 + 109/3 t - 18, integer valued at integers
    p = integral_tension_poly(fixture("k4me"), "t")
    assert p.coefficient(t=3) == Fraction(14, 3)
    for t in range(1, 9):
        assert p.evaluate(t=t) == int(p.evaluate(t=t))


def _kappa_twice_in_one_run(g):
    # memoised under the default guard, then asked for in the same run
    # under the guard active outside that block
    o = Orientation.reference(g)
    with run_scope():
        with guarded(DEFAULT_STATE_GUARD):
            kappa_rho(g, o, "open")
        kappa_rho(g, o, "open")


@pytest.mark.parametrize(
    "compute",
    [
        lambda g: kappa_rho(g, Orientation.reference(g), "open"),
        _kappa_twice_in_one_run,
        lambda g: integral_tension_poly(g, "y"),
        lambda g: integral_flow_poly(g, "y"),
        lambda g: pair_support_classes(
            g, FiniteAbelianGroup.cyclic(3), FiniteAbelianGroup.cyclic(3)
        ),
        lambda g: integral_support_classes(g, 3, 3),
        cut_eulerian_classes,
        subset_rank_table,
        lambda g: psi_family(g, "bar_psi"),
        tension_poly,
    ],
    ids=[
        "kappa_rho",
        "kappa_rho_in_one_run",
        "integral_tension_poly",
        "integral_flow_poly",
        "modular_pair_classes",
        "integral_pair_classes",
        "cut_eulerian_classes",
        "subset_rank_table",
        "psi_family",
        "whitney_terms",
    ],
)
def test_cached_result_does_not_skip_a_smaller_env_guard(monkeypatch, compute):
    g = fixture("k4")
    compute(g)  # cached under the default guard
    monkeypatch.setenv("TFPOLY_GUARD", "10")
    with pytest.raises(GuardExceeded, match="guard is 10$"):
        compute(g)


@pytest.mark.parametrize("count", [modular_complementary_count, integral_complementary_count])
def test_complementary_counts_obey_the_guard(count):
    assert count(fixture("k3"), 2, 2) > 0
    with guarded(1), pytest.raises(GuardExceeded):
        count(fixture("k3"), 2, 2)


# -- per-orientation window polynomials ---------------------------------------


def test_kappa_rho_acyclic_triangle():
    g = fixture("k3")
    o = Orientation.reference(g)  # acyclic
    k = kappa_rho(g, o, "open")
    assert k == MultiPoly(("x",), {(2,): Fraction(1, 2), (1,): Fraction(-3, 2), (0,): 1})
    kc = kappa_rho(g, o, "closed")
    # closed windows at (1,1) count the class size
    assert kc.evaluate(x=1, y=1) == 3


def test_kappa_rho_cyclic_triangle():
    g = fixture("k3")
    o = Orientation.for_graph(g, [False, False, True])
    assert kappa_rho(g, o, "open") == Y - 1
    assert kappa_rho(g, o, "closed").evaluate(x=1, y=1) == 2


def test_kappa_rho_rejects_unknown_mode():
    with pytest.raises(ValueError):
        kappa_rho(fixture("k3"), Orientation.reference(fixture("k3")), "half-open")


# -- psi family ------------------------------------------------------------------


def test_psi_small_closed_forms():
    assert psi_family(fixture("edge"), "psi") == (X - 1) * Z
    assert psi_family(fixture("loop"), "psi") == (Y - 1) * W
    assert psi_family(fixture("loop"), "psi_z") == 2 * (Y - 1) * W
    assert psi_family(fixture("k3"), "psi") == Z**3 * (X - 1) * (X - 2) + W**3 * (Y - 1)
    assert psi_family(fixture("k4"), "psi") == (
        Z**6 * (X - 1) * (X - 2) * (X - 3)
        + 4 * Z**3 * W**3 * (X - 1) * (Y - 1)
        + W**6 * (Y - 1) * (Y - 2) * (Y - 3)
    )


def test_psi_of_edgeless_graph_is_one():
    for kind in ("psi", "bar_psi", "psi_z", "bar_psi_z"):
        assert psi_family(fixture("e2"), kind) == 1


def test_psi_rejects_unknown_kind():
    with pytest.raises(ValueError):
        psi_family(fixture("k3"), "psi_q")


def test_psi_convolution_matches_orientation_sums():
    g = fixture("k4me")
    for kind in PSI_KINDS:
        assert psi_family(g, kind) == psi_by_orientations(g, kind), kind


@pytest.mark.parametrize("name", fixture_names())
def test_reciprocity(name):
    checks = reciprocity_check(fixture(name))
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


@pytest.mark.parametrize("name", fixture_names())
def test_specializations(name):
    checks = specialization_check(fixture(name))
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


# -- Tutte values from orientation triples ------------------------------------------


@pytest.mark.parametrize("name", ["edge", "loop", "digon", "k3", "theta", "k3_loop"])
@pytest.mark.parametrize("quadrant", QUADRANTS)
def test_quadrant_values(name, quadrant):
    g = fixture(name)
    sx = 1 if quadrant[0] == "+" else -1
    sy = 1 if quadrant[1] == "+" else -1
    t = TUTTE[name]
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            got = tutte_value_triples(g, p, q, quadrant)
            assert got == t.evaluate(x=sx * p, y=sy * q), (p, q)


def test_quadrant_input_validation():
    g = fixture("k3")
    with pytest.raises(ValueError):
        tutte_value_triples(g, 2, 2, "+")
    with pytest.raises(ValueError):
        tutte_value_triples(g, 0, 2, "++")


# -- weighted pair sums ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["edge", "loop", "digon", "k3", "theta"])
@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_whitney_weighted_sums(name, p, q):
    g = fixture(name)
    disjoint_sum, signed_sum = whitney_weighted_sums(g, p, q)
    w = whitney(g)
    assert disjoint_sum == w.evaluate(x=p, y=q)
    assert signed_sum == w.evaluate(x=-p, y=-q)


@pytest.mark.parametrize("name", fixture_names())
def test_pair_integral_identities(name):
    checks, readings = pair_integral_identities(fixture(name), 2, 3)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    vr = {c.name for c in readings if c.passed}
    assert "supp f inside ker g (disjoint supports)" in vr
    assert "supp g inside ker f (same set, contrapositive)" in vr


@pytest.mark.parametrize("name", ["loop", "k3", "k4me"])
def test_swapped_domain_reading_fails(name):
    # "ker f inside supp g" is a genuinely different set, not a rephrasing
    _, readings = pair_integral_identities(fixture(name), 2, 3)
    assert "ker f inside supp g (swapped)" not in {c.name for c in readings if c.passed}


def test_k5_glued_to_k6_is_refused_before_any_window_is_counted(monkeypatch):
    # every block is scanned, then the minors of both are counted largest
    # box first: K6's own flow box comes first and is over the guard
    counted = []
    real = tensionflow._window_counts

    def spy(*args):
        counts = real(*args)
        counted.append(args[0])
        return counts

    monkeypatch.setattr(tensionflow, "_window_counts", spy)
    k5 = tuple(itertools.combinations(range(5), 2))
    k6 = tuple((4 + i, 4 + j) for i, j in itertools.combinations(range(6), 2))
    with pytest.raises(GuardExceeded) as refused:
        psi_family(MultiGraph(10, k5 + k6), "psi_z")
    assert str(refused.value).startswith("integral flow enumeration needs 1320903770112 states")
    assert counted == []
