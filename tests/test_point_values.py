"""The point routes, one int per frontier state: Tutte values and omega
at a point against the deletion-contraction and the subset expansion,
and the charges of the frontier sums, term sums and point sums alike."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_families import complete, petersen
from graph_strategies import disjoint_multigraphs, multigraphs
from tfpoly.config import GuardExceeded, guarded
from tfpoly.fixtures import all_fixtures, small_ladder
from tfpoly.frontier import omega_at, omega_terms, psi_terms, whitney_at, whitney_terms
from tfpoly.graph import MultiGraph
from tfpoly.invariants import QUADRANTS, tutte_value
from tfpoly.oracles import omega_by_subsets, _tutte_recursion
from tfpoly.verification import SPECIALIZATION_GRID

GRAPHS = all_fixtures() + small_ladder()
SIGNS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(multigraphs(max_edges=8), disjoint_multigraphs()),
    st.integers(1, 3),
    st.integers(1, 3),
)
# p = 1 and q = 1 under "+" are R at x = 0 and y = 0
@example(MultiGraph(5, ((0, 1), (1, 1), (2, 3), (2, 3))), 1, 1)
def test_tutte_values_equal_the_recursion_in_every_quadrant(g, p, q):
    poly = _tutte_recursion(g)
    for quadrant, (sp, sq) in SIGNS.items():
        assert tutte_value(g, p, q, quadrant) == poly.evaluate(x=sp * p, y=sq * q), quadrant


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(multigraphs(max_edges=8), disjoint_multigraphs()),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@example(MultiGraph(5, ((0, 1), (1, 1), (2, 3), (2, 3))), 0, 0)
def test_omega_at_a_point_equals_the_subset_expansion(g, x, y):
    assert omega_at(g, x, y) == omega_by_subsets(g).evaluate(x=x, y=y)


@pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_the_specialization_grid_in_every_quadrant(name, g):
    tutte_poly, omega_poly = _tutte_recursion(g), omega_by_subsets(g)
    for (p, q), quadrant in itertools.product(SPECIALIZATION_GRID, QUADRANTS):
        x, y = SIGNS[quadrant][0] * p, SIGNS[quadrant][1] * q
        assert tutte_value(g, p, q, quadrant) == tutte_poly.evaluate(x=x, y=y)
        assert omega_at(g, x, y) == omega_poly.evaluate(x=x, y=y)


@pytest.mark.parametrize(
    "what, run, g, states",
    [
        # the figures of the README's --guard list
        ("Whitney frontier sum", whitney_terms, complete(8), 24_153),
        ("omega frontier sum", omega_terms, complete(8), 51_004),
        ("psi frontier sum", psi_terms, petersen(), 12_581),
        # a point sum is charged its states alone, one int each
        ("Whitney frontier value", lambda g: whitney_at(g, 1, 2), complete(4), 19),
        ("omega frontier value", lambda g: omega_at(g, 1, 2), complete(4), 30),
    ],
    ids=["whitney-k8", "omega-k8", "psi-petersen", "whitney-value-k4", "omega-value-k4"],
)
def test_a_frontier_sum_is_charged_its_layers(what, run, g, states):
    with guarded(states):
        run(g)
    with guarded(states - 1), pytest.raises(GuardExceeded) as refused:
        run(g)
    assert str(refused.value) == f"{what} needs {states} states, guard is {states - 1}"
