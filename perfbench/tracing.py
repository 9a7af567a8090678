"""Span tracing installed from outside the program.

`install` wraps each layer function named in LAYERS at every place a
tfpoly module holds it: the defining module, every module that
imported it by name, and module-level dicts such as
`verification.CRITERIA`.  Methods are wrapped on their class, aliases
such as `__radd__ = __add__` included.  The program's source is never
touched.  A target that no longer exists is skipped; its metrics then
read 0.

A span records name, start, end, parent and request id.  A generator
gets one span whose busy time is the sum of its `next()` calls.  Self
time is busy time minus the busy time of the spans nested in it.
`check_state_space` opens no span: the size it is asked about is
added to the innermost open span, which is how the enumerations'
`states` are counted.
"""

from __future__ import annotations

import functools
import statistics
from array import array
import sys
import time

# (metric prefix, module, attribute or Class.method, is a generator)
LAYERS: tuple[tuple[str, str, str, bool], ...] = (
    ("cli.main", "tfpoly.cli", "main", False),
    ("graphio.parse_graph_file", "tfpoly.graphio", "parse_graph_file", False),
    ("graph.subset_rank_table", "tfpoly.graph", "subset_rank_table", False),
    ("graph.delete", "tfpoly.graph", "delete", False),
    ("graph.contract", "tfpoly.graph", "contract", False),
    ("graph.directed_circuits", "tfpoly.graph", "directed_circuits", False),
    ("graph.directed_bonds", "tfpoly.graph", "directed_bonds", False),
    ("graph.is_edge_cyclic", "tfpoly.graph", "is_edge_cyclic", False),
    ("invariants.whitney", "tfpoly.invariants", "whitney", False),
    ("invariants._tutte_recursion", "tfpoly.invariants", "_tutte_recursion", False),
    ("invariants.tension_poly", "tfpoly.invariants", "tension_poly", False),
    ("invariants.flow_poly", "tfpoly.invariants", "flow_poly", False),
    ("invariants.kappa_rho", "tfpoly.invariants", "kappa_rho", False),
    ("invariants.psi_family", "tfpoly.invariants", "psi_family", False),
    ("invariants.tutte_value_triples", "tfpoly.invariants", "tutte_value_triples", False),
    ("tensionflow.modular_enum", "tfpoly.tensionflow", "_iter_tension_values", True),
    ("tensionflow.modular_enum", "tfpoly.tensionflow", "_iter_flow_values", True),
    ("tensionflow.integral_enum", "tfpoly.tensionflow", "enumerate_integral_tensions", True),
    ("tensionflow.integral_enum", "tfpoly.tensionflow", "enumerate_integral_flows", True),
    ("tensionflow.count_pairs", "tfpoly.tensionflow", "count_pairs", False),
    ("tensionflow.lattice_index", "tfpoly.tensionflow", "lattice_index", False),
    ("orientations.cut_eulerian_classes", "tfpoly.orientations", "cut_eulerian_classes", False),
    ("orientations.classify_edges", "tfpoly.orientations", "classify_edges", False),
    ("algebra.interpolate_univariate", "tfpoly.algebra", "interpolate_univariate", False),
    ("algebra.rational_rank", "tfpoly.algebra", "rational_rank", False),
    ("algebra.smith_normal_form", "tfpoly.algebra", "smith_normal_form", False),
    ("algebra.MultiPoly.add", "tfpoly.algebra", "MultiPoly.__add__", False),
    ("algebra.MultiPoly.mul", "tfpoly.algebra", "MultiPoly.__mul__", False),
    ("algebra.MultiPoly.substitute", "tfpoly.algebra", "MultiPoly.substitute", False),
    ("arrangements.graphic_semilattice", "tfpoly.arrangements", "graphic_semilattice", False),
    ("arrangements.characteristic_polynomial", "tfpoly.arrangements",
     "IntersectionPoset.characteristic_polynomial", False),
    ("arrangements.finite_semilattice", "tfpoly.arrangements", "finite_semilattice", False),
) + tuple(
    (f"verification.criterion_{n}", "tfpoly.verification", f"criterion_{n}", False)
    for n in range(1, 13)
)

STATE_CHECK = ("tfpoly.config", "check_state_space")


class Tracer:
    """Spans of the requests run while `request` is set; none otherwise.

    Spans live in column arrays (one entry per span, indexed by span
    id) so that a traced pass of a few million calls stays small.
    """

    def __init__(self):
        self.request: int | None = None
        self.missing: list[str] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.req = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.child = array("d")
        self.states = array("q")
        self.yielded = array("q")
        self._stack: list[tuple[int, float]] = []  # (span id, entered at)

    def __len__(self) -> int:
        return len(self.name)

    def _new(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._name_ids[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.req.append(self.request)
        for column in (self.start, self.end, self.busy, self.child):
            column.append(0.0)
        self.states.append(0)
        self.yielded.append(0)
        return len(self.name) - 1

    def _enter(self, span: int) -> None:
        now = time.perf_counter()
        if not self.start[span]:
            self.start[span] = now
        self._stack.append((span, now))

    def _leave(self) -> None:
        now = time.perf_counter()
        span, entered = self._stack.pop()
        spent = now - entered
        self.busy[span] += spent
        self.end[span] = now
        if self._stack:
            self.child[self._stack[-1][0]] += spent

    def call(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            self._enter(self._new(name))
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave()

        return functools.wraps(fn)(traced)

    def generator(self, name: str, fn):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if self.request is None:
                return gen
            return self._iterate(self._new(name), gen)

        return functools.wraps(fn)(traced)

    def _iterate(self, span: int, gen):
        try:
            while True:
                self._enter(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave()
                self.yielded[span] += 1
                yield item
        finally:
            gen.close()

    def state_check(self, fn):
        def traced(*args, **kwargs):
            if self.request is not None and self._stack:
                self.states[self._stack[-1][0]] += args[0] if args else kwargs.get("size", 0)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(traced)

    def aggregate(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per layer over spans first..end: summed self time, inclusive
        time, calls, states and items yielded."""
        out: dict[str, dict[str, float]] = {}
        for i in range(first, len(self.name)):
            row = out.setdefault(self.names[self.name[i]],
                                 {"self_s": 0.0, "s": 0.0, "calls": 0, "states": 0, "yielded": 0})
            row["self_s"] += self.busy[i] - self.child[i]
            row["s"] += self.busy[i]
            row["calls"] += 1
            row["states"] += self.states[i]
            row["yielded"] += self.yielded[i]
        return out

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent id (-1 for a
        request's root), request, name, start, end, busy and self
        seconds; times are perf_counter readings."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart\tend\tbusy_s\tself_s\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.req[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.busy[i]:.9f}"
                         f"\t{self.busy[i] - self.child[i]:.9f}\n")


def _rebind(original, replacement) -> None:
    """Point every tfpoly module global and module-level dict entry
    holding `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("tfpoly") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def install(tracer: Tracer) -> None:
    for metric, module_name, target, is_gen in LAYERS:
        module = sys.modules.get(module_name)
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            tracer.missing.append(f"{module_name}.{target}")
            continue
        wrapped = (tracer.generator if is_gen else tracer.call)(metric, original)
        if owner_name:
            # class attribute: wrap every alias of the same function
            for alias, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, alias, wrapped)
        else:
            _rebind(original, wrapped)
    module_name, attr = STATE_CHECK
    original = getattr(sys.modules.get(module_name), attr, None)
    if original is None:
        tracer.missing.append(f"{module_name}.{attr}")
    else:
        _rebind(original, tracer.state_check(original))


# per-layer metrics reported from the traced passes (see BASELINE.md for
# which end-to-end metric each should move, on which workload)
SELF_TIME = (
    "cli.main", "graphio.parse_graph_file", "graph.subset_rank_table", "invariants.whitney",
    "invariants._tutte_recursion", "tensionflow.modular_enum", "invariants.tension_poly",
    "invariants.flow_poly", "algebra.interpolate_univariate", "arrangements.graphic_semilattice",
    "arrangements.characteristic_polynomial", "algebra.rational_rank", "tensionflow.integral_enum",
    "orientations.cut_eulerian_classes", "graph.directed_circuits", "graph.directed_bonds",
    "orientations.classify_edges", "invariants.kappa_rho", "invariants.psi_family",
    "invariants.tutte_value_triples", "algebra.MultiPoly.mul", "algebra.MultiPoly.add",
    "algebra.MultiPoly.substitute", "tensionflow.count_pairs", "tensionflow.lattice_index",
    "algebra.smith_normal_form", "arrangements.finite_semilattice",
)
CALLS = (
    "graph.subset_rank_table", "invariants._tutte_recursion", "graph.delete", "graph.contract",
    "algebra.interpolate_univariate", "algebra.rational_rank", "orientations.cut_eulerian_classes",
    "orientations.classify_edges", "graph.is_edge_cyclic", "invariants.kappa_rho",
    "algebra.MultiPoly.mul",
)
ENUMERATIONS = ("tensionflow.modular_enum", "tensionflow.integral_enum")
CRITERIA = tuple(f"verification.criterion_{n}" for n in range(1, 13))


def layer_metrics(traced: list[dict], untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """Per-pass medians over the traced passes, as name -> (value, unit)."""

    def med(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    def layer(p: dict, name: str, field: str) -> float:
        return p["layers"].get(name, {}).get(field, 0)

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME:
        out[f"{name}.self_s"] = (med(lambda p: layer(p, name, "self_s")), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (med(lambda p: layer(p, name, "calls")), "count")
    for name in ENUMERATIONS:
        out[f"{name}.states"] = (med(lambda p: layer(p, name, "states")), "count")
        out[f"{name}.yielded"] = (med(lambda p: layer(p, name, "yielded")), "count")
    states, yielded = out["tensionflow.integral_enum.states"][0], out["tensionflow.integral_enum.yielded"][0]
    out["tensionflow.integral_enum.accept_ratio"] = (yielded / states if states else 0.0, "ratio")
    hits = med(lambda p: p["cache"]["kappa_hits"])
    lookups = hits + med(lambda p: p["cache"]["kappa_misses"])
    out["invariants.kappa_rho.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    for name in CRITERIA:
        out[f"{name}.s"] = (med(lambda p: layer(p, name, "s")), "s")
    out["cache.hits"] = (med(lambda p: p["cache"]["hits"]), "count")
    out["cache.misses"] = (med(lambda p: p["cache"]["misses"]), "count")
    out["cache.entries_max"] = (med(lambda p: p["cache"]["entries_max"]), "count")
    out["trace.overhead_ratio"] = (med(lambda p: p["run_s"]) / untraced_run_s - 1, "ratio")
    return out
