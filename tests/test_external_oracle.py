"""Differential test of `tutte` against networkx's Tutte polynomial.

networkx and sympy are test-time oracles only; the module is skipped
when either is missing, so the package keeps no runtime dependencies.
"""

import pytest

nx = pytest.importorskip("networkx")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402

from tfpoly.algebra import MultiPoly  # noqa: E402
from tfpoly.graph import MultiGraph  # noqa: E402
from tfpoly.invariants import tutte  # noqa: E402

from graph_strategies import multigraphs  # noqa: E402


def networkx_tutte(g: MultiGraph) -> MultiPoly:
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    x, y = sympy.symbols("x y")
    terms = sympy.Poly(nx.tutte_polynomial(h), x, y).as_dict()
    return MultiPoly(("x", "y"), {exps: int(c) for exps, c in terms.items()})


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_tutte_matches_networkx(g):
    assert tutte(g) == networkx_tutte(g)
