"""The benchmark's workloads: graphs, requests, and why each was chosen.

A request is (check, graph name, argv).  `check` names the
reference route in checks.py that judges the output; argv is what
`tfpoly.cli.main` receives.  Requests use default flags plus what the
command needs, and `--json` so outputs compare exactly.

classic-polys
    Tutte, Whitney, omega (three routes), tension, flow and chromatic
    polynomials over the fixtures, the named rungs and seeded random
    multigraphs of 6-16 edges.  Time goes to the subset rank table,
    Tutte recursion, modular enumeration with interpolation and the
    arrangement route; the orientation layer is idle.  `tutte` on K7
    stays in: the default route's 2^E Whitney cross-check refuses it,
    a known reach defect that must show as failed requests.
orientation-sums
    The psi family, kappa, orientation classes and Tutte values from
    orientation triples, over the fixtures, W4 and two seeded 7-edge
    multigraphs.  Time goes to cut-Eulerian classes, integral window
    enumeration, kappa_rho and MultiPoly sums; subset tables and
    modular enumeration are nearly idle.
verify-suite
    `verify --suite S` for every suite, `all` included, on the built-in
    fixtures; no seed.  Many tiny calls sharing caches across criteria,
    so per-call set-up costs and cache bounds show here.
"""

from __future__ import annotations

from tfpoly.fixtures import all_fixtures

import ladder
from reference import rank_of

# (vertices, edges) of each seeded random multigraph; shapes are fixed
# so that a new seed rewires the graphs without changing their rank and
# nullity, which set the cost of the enumerations.  orientation-sums
# keeps to 7 edges: an 8-edge graph of shape (5, 8) costs about 5 s a
# pass, which would leave room for only one pass per run
CLASSIC_SHAPES = ((4, 6), (5, 8), (5, 10), (6, 12), (7, 14), (7, 16))
ORIENTATION_SHAPES = ((4, 7), (4, 7))

# Tutte values T(+-P, +-Q) asked of `tutte-values`
TUTTE_P, TUTTE_Q = 2, 3
OMEGA_P, OMEGA_Q = 2, 3


def classic_polys(seed: int):
    graphs = list(all_fixtures())
    graphs += [(name, ladder.NAMED[name]()) for name in ("k33", "prism", "w5", "k5", "petersen", "k6", "k7")]
    graphs += ladder.random_rungs("classic-polys", seed, CLASSIC_SHAPES)
    requests = []
    for name, g in graphs:
        rank = rank_of(g.vertex_count, g.edges)
        nullity = g.edge_count - rank
        small = g.edge_count <= 10
        wanted = [
            ("tutte", ["tutte"], True),
            ("whitney", ["whitney"], g.edge_count <= 16),
            ("omega", ["omega"], g.edge_count <= 16),
            ("omega", ["omega", "--via", "arrangement"], small),
            ("omega-value", ["omega", "--via", "brute", "--p", str(OMEGA_P), "--q", str(OMEGA_Q)], small),
            ("tension", ["tension"], rank <= 5),
            ("chromatic", ["chromatic"], rank <= 5),
            ("flow", ["flow"], nullity <= 5),
        ]
        requests += [(check, name, argv) for check, argv, keep in wanted if keep]
    return graphs, requests


def orientation_sums(seed: int):
    graphs = list(all_fixtures()) + [("w4", ladder.NAMED["w4"]())]
    graphs += ladder.random_rungs("orientation-sums", seed, ORIENTATION_SHAPES)
    commands = [
        ("psi", ["psi"]),
        ("psi-dual", ["psi", "--dual"]),
        ("psi-integral", ["psi", "--integral"]),
        ("psi-integral-dual", ["psi", "--integral", "--dual"]),
        ("kappa", ["kappa"]),
        ("kappa-integral", ["kappa", "--integral"]),
        ("classes", ["classify-orientations"]),
    ] + [
        (f"tutte-values{quadrant}", ["tutte-values", "--p", str(TUTTE_P), "--q", str(TUTTE_Q), f"--quadrant={quadrant}"])
        for quadrant in ("++", "+-", "-+", "--")
    ]
    requests = [(check, name, argv) for name, _ in graphs for check, argv in commands]
    return graphs, requests


def verify_suite(seed: int):
    from tfpoly.verification import SUITES

    return [], [(f"verify:{suite}", None, ["verify", "--suite", suite]) for suite in sorted(SUITES)]


WORKLOADS = {
    "classic-polys": classic_polys,
    "orientation-sums": orientation_sums,
    "verify-suite": verify_suite,
}
