"""The graph ladder: named rungs plus seeded random multigraphs.

K4 is not a rung here: the built-in fixture `k4` is the same graph.

Every graph is built in code.  `write_graphs` writes each one with
`tfpoly.graphio.format_graph` and refuses to continue unless
`parse_graph_text` reads the file back as the same graph, so the
program only ever sees files that round-trip exactly.
"""

from __future__ import annotations

import itertools
import os
import random

from tfpoly.graph import MultiGraph
from tfpoly.graphio import format_graph, parse_graph_text


def complete(n: int) -> MultiGraph:
    return MultiGraph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> MultiGraph:
    return MultiGraph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def prism() -> MultiGraph:
    # two triangles joined by a perfect matching
    return MultiGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))


def wheel(rim: int) -> MultiGraph:
    """Hub 0 joined to every vertex of a rim cycle 1..rim."""
    spokes = tuple((0, i) for i in range(1, rim + 1))
    cycle = tuple((i, i % rim + 1) for i in range(1, rim + 1))
    return MultiGraph(rim + 1, spokes + cycle)


def petersen() -> MultiGraph:
    outer = tuple((i, (i + 1) % 5) for i in range(5))
    inner = tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
    spokes = tuple((i, 5 + i) for i in range(5))
    return MultiGraph(10, outer + inner + spokes)


NAMED = {
    "k33": lambda: complete_bipartite(3, 3),
    "prism": prism,
    "w4": lambda: wheel(4),
    "w5": lambda: wheel(5),
    "k5": lambda: complete(5),
    "petersen": petersen,
    "k6": lambda: complete(6),
    "k7": lambda: complete(7),
}


def random_multigraph(rng: random.Random, vertices: int, edges: int) -> MultiGraph:
    """Connected multigraph with exactly one loop and one parallel pair.

    A random spanning tree comes first, then the loop, then a copy of a
    tree edge, then distinct new vertex pairs.  Ends and edge order are
    shuffled, so the seed decides the wiring while the shape (vertex,
    edge, loop and parallel counts) stays fixed for each slot.
    """
    if edges < vertices + 1:
        raise ValueError("need room for a spanning tree, a loop and a parallel edge")
    order = list(range(vertices))
    rng.shuffle(order)
    tree = [(order[i], order[rng.randrange(i)]) for i in range(1, vertices)]
    pairs = list(tree)
    loop_vertex = rng.randrange(vertices)
    pairs.append((loop_vertex, loop_vertex))
    pairs.append(rng.choice(tree))
    used = {frozenset(p) for p in tree}
    fresh = [p for p in itertools.combinations(range(vertices), 2) if frozenset(p) not in used]
    rng.shuffle(fresh)
    extra = edges - len(pairs)
    if extra > len(fresh):
        raise ValueError(f"{vertices} vertices cannot hold {edges} edges with one parallel pair")
    pairs.extend(fresh[:extra])
    pairs = [(t, h) if rng.random() < 0.5 else (h, t) for t, h in pairs]
    rng.shuffle(pairs)
    return MultiGraph(vertices, tuple(pairs))


def random_rungs(label: str, seed: int, shapes) -> list[tuple[str, MultiGraph]]:
    """One seeded random multigraph per (vertices, edges) shape."""
    out = []
    for slot, (vertices, edges) in enumerate(shapes):
        rng = random.Random(f"{label}:{seed}:{slot}")
        out.append((f"rand{slot}_v{vertices}e{edges}", random_multigraph(rng, vertices, edges)))
    return out


def write_graphs(directory: str, graphs) -> dict[str, str]:
    """Write each graph as `<name>.graph`; return name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, g in graphs:
        text = format_graph(g)
        if parse_graph_text(text) != g:
            raise RuntimeError(f"graph {name} does not round-trip through the file format")
        path = os.path.join(directory, f"{name}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths
