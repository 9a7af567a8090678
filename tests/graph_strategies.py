"""Hypothesis strategies shared by the property-based tests."""

from hypothesis import strategies as st

from tfpoly.graph import MultiGraph


@st.composite
def multigraphs(draw, max_vertices: int = 5, max_edges: int = 9) -> MultiGraph:
    """Up to max_vertices vertices and max_edges edges; with so few
    vertices, loops and parallel edges come up in most draws."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    return MultiGraph(n, tuple(edges))
