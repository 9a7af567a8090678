"""Built-in example graphs used by the verification suites and tests.

Kept deliberately small: every brute-force enumeration in the checks
stays well under the state-space guard on these.
"""

from __future__ import annotations

import itertools

from .graph import MultiGraph
from .graphio import parse_graph_text

FIXTURE_TEXTS: dict[str, str] = {
    # two isolated vertices, no edges
    "e2": "v 2\n",
    # one edge (a bridge)
    "edge": "v 2\ne 0 1\n",
    # one loop
    "loop": "v 1\ne 0 0\n",
    # path on three vertices
    "p3": "v 3\ne 0 1\ne 1 2\n",
    # two parallel edges
    "digon": "v 2\ne 0 1\ne 0 1\n",
    # triangle
    "k3": "v 3\ne 0 1\ne 1 2\ne 0 2\n",
    # three parallel edges
    "theta": "v 2\ne 0 1\ne 0 1\ne 0 1\n",
    # triangle with a loop attached
    "k3_loop": "v 3\ne 0 1\ne 1 2\ne 0 2\ne 0 0\n",
    # complete graph on four vertices minus one edge
    "k4me": "v 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\n",
    # complete graph on four vertices
    "k4": "v 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n",
}


def fixture_names() -> tuple[str, ...]:
    return tuple(FIXTURE_TEXTS)


def fixture(name: str) -> MultiGraph:
    try:
        text = FIXTURE_TEXTS[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_TEXTS)}") from None
    return parse_graph_text(text)


def all_fixtures() -> list[tuple[str, MultiGraph]]:
    return [(name, fixture(name)) for name in fixture_names()]


def small_ladder() -> list[tuple[str, MultiGraph]]:
    """K3,3, the prism (two triangles joined by a perfect matching) and
    the wheel W5 (hub 0, rim 1..5): 9, 9 and 10 edges, larger than any
    fixture and still small enough for the 2^E subset oracles."""
    k33 = MultiGraph(6, tuple((i, 3 + j) for i, j in itertools.product(range(3), repeat=2)))
    prism = MultiGraph(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))
    )
    spokes = tuple((0, i) for i in range(1, 6))
    w5 = MultiGraph(6, spokes + tuple((i, i % 5 + 1) for i in range(1, 6)))
    return [("k33", k33), ("prism", prism), ("w5", w5)]
