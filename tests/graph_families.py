"""Graph families built at a given size n, for tests that pin sizes
rather than times.  n counts the edges, or the isolated vertices where
a family grows by those alone.  `complete` and `petersen` are the named
graphs that several tests build."""

import itertools

from tfpoly.graph import MultiGraph


def path(n: int) -> MultiGraph:
    return MultiGraph(n + 1, tuple((i, i + 1) for i in range(n)))


def cycle(n: int) -> MultiGraph:
    # one edge is a loop and two a digon
    return MultiGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star(n: int) -> MultiGraph:
    return MultiGraph(n + 1, tuple((0, i) for i in range(1, n + 1)))


def parallel_class(n: int) -> MultiGraph:
    return MultiGraph(2, ((0, 1),) * n)


def loops(n: int) -> MultiGraph:
    return MultiGraph(1, ((0, 0),) * n)


def k4_and_isolated(n: int) -> MultiGraph:
    return MultiGraph(4 + n, tuple(itertools.combinations(range(4), 2)))


def isolated(n: int) -> MultiGraph:
    return MultiGraph(n, ())


def complete(n: int) -> MultiGraph:
    return MultiGraph(n, tuple(itertools.combinations(range(n), 2)))


def petersen() -> MultiGraph:
    outer = tuple((i, (i + 1) % 5) for i in range(5))
    inner = tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
    spokes = tuple((i, 5 + i) for i in range(5))
    return MultiGraph(10, outer + inner + spokes)


FAMILIES = {
    "path": path,
    "cycle": cycle,
    "star": star,
    "parallel_class": parallel_class,
    "loops": loops,
    "k4_and_isolated": k4_and_isolated,
    "isolated": isolated,
}
