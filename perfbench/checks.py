"""Judge each request's output against an independent reference.

Checks run in the benchmark's own process after the worker has
finished, so none of their time lands in a timed number.  Expected
values are computed once per (check, graph) and reused for every pass.
"""

from __future__ import annotations

import json

import reference
from workloads import OMEGA_P, OMEGA_Q, TUTTE_P, TUTTE_Q

_QUADRANT_SIGNS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


class Checker:
    def __init__(self, graphs, suites):
        self.graphs = {name: reference.Graph(g.vertex_count, g.edges) for name, g in graphs}
        self.suites = suites
        self._expected: dict = {}

    def expected(self, check: str, graph: str):
        key = (check, graph)
        if key not in self._expected:
            self._expected[key] = self._compute(check, self.graphs[graph])
        return self._expected[key]

    def _compute(self, check: str, g: reference.Graph):
        if check.startswith("tutte-values"):
            sx, sy = _QUADRANT_SIGNS[check[len("tutte-values"):]]
            return g.tutte_at(sx * TUTTE_P, sy * TUTTE_Q)
        if check == "classes":
            non_loops = sum(1 for a, b in g.edges if a != b)
            return g.basis_count(), 2**non_loops, g.m
        if check == "omega-value":
            return g.omega_at(OMEGA_P, OMEGA_Q)
        routes = {
            "tutte": g.tutte_poly,
            "whitney": g.whitney,
            "omega": lambda: g.omega,
            "tension": g.tension,
            "flow": g.flow,
            "chromatic": g.chromatic,
            "psi": lambda: g.psi,
            "psi-dual": lambda: reference.reciprocal(g.psi, g.nullity),
            "kappa": lambda: reference.at_z_w_one(g.psi),
            "psi-integral": lambda: g.psi_integral,
            "psi-integral-dual": lambda: reference.reciprocal(g.psi_integral, g.nullity),
            "kappa-integral": lambda: reference.at_z_w_one(g.psi_integral),
        }
        return routes[check]()

    def judge(self, check: str, graph: str | None, stdout: str) -> str | None:
        """None when the output is right, else why it is wrong."""
        try:
            return self._judge(check, graph, json.loads(stdout))
        except (ValueError, KeyError, TypeError):
            return "output is not the JSON payload its command documents"

    def _judge(self, check: str, graph: str | None, payload) -> str | None:
        if check.startswith("verify:"):
            suite = check[len("verify:"):]
            want = list(self.suites[suite])
            got = [row["criterion"] for row in payload["results"]]
            if not payload["passed"] or not all(row["passed"] for row in payload["results"]):
                return "a criterion failed"
            return None if got == want else f"criteria {got}, suite has {want}"
        want = self.expected(check, graph)
        if check == "classes":
            rows = payload["classes"]
            count, total, width = want
            if len(rows) != count:
                return f"{len(rows)} classes, T(1,1) = {count}"
            if sum(row["size"] for row in rows) != total:
                return "class sizes do not sum to 2^(non-loop edges)"
            if any(row["b_size"] + row["c_size"] != width for row in rows):
                return "b_size + c_size differs from the edge count"
            return None
        got = payload["value"] if isinstance(want, int) else reference.poly_from_json(payload)
        return None if got == want else "differs from the reference"
