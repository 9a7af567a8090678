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


@st.composite
def glued_multigraphs(draw, pieces: int = 3, max_edges: int = 5) -> MultiGraph:
    """Small multigraphs glued one after another at a vertex, with a
    pendant edge and a loop here and there: loops, bridges and cut
    vertices come up in most draws."""
    vertex_count, edges = 1, []
    for _ in range(draw(st.integers(1, pieces))):
        piece = draw(multigraphs(max_vertices=3, max_edges=max_edges))
        # the piece's vertex 0 is the last vertex so far
        offset = vertex_count - 1
        edges += [(offset + t, offset + h) for t, h in piece.edges]
        vertex_count += piece.vertex_count - 1
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, vertex_count - 1)), vertex_count))
            vertex_count += 1
        if draw(st.booleans()):
            v = draw(st.integers(0, vertex_count - 1))
            edges.append((v, v))
    return MultiGraph(vertex_count, tuple(edges))


@st.composite
def disjoint_multigraphs(draw, pieces: int = 3, max_edges: int = 5) -> MultiGraph:
    """Disjoint unions of small multigraphs: several components, loops,
    parallel edges and isolated vertices come up in most draws."""
    vertex_count, edges = 0, []
    for _ in range(draw(st.integers(1, pieces))):
        piece = draw(multigraphs(max_vertices=3, max_edges=max_edges))
        edges += [(vertex_count + t, vertex_count + h) for t, h in piece.edges]
        vertex_count += piece.vertex_count
    return MultiGraph(vertex_count, tuple(edges))
