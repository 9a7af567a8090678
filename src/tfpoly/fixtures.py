"""Built-in example graphs used by the verification suites and tests.

Kept deliberately small: every brute-force enumeration in the checks
stays well under the state-space guard on these.
"""

from __future__ import annotations

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
