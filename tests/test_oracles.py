"""The oracles stay apart from production.

Production modules hold one route per invariant; the other routes live
in `tfpoly.oracles`.  Only `verification` imports that module at module
level, and the oracles import from production only the names listed
here: the value types, the algebra, the guard and the run memo, the
graph basics, and the helpers they share with production, which make
the criteria named in `oracles`' imports less independent.
"""

import ast
import importlib
import pathlib
import sys
from collections import Counter

import tfpoly
from tfpoly import invariants, oracles
from tfpoly.fixtures import all_fixtures, small_ladder
from tfpoly.verification import run_criteria, run_suite

SRC = pathlib.Path(tfpoly.__file__).resolve().parent

# module -> the production names `oracles` may import from it
ALLOWED = {
    "algebra": {"MultiPoly", "_eliminate", "interpolate_univariate", "rational_rank"},
    "config": {"VerificationError", "check_state_space", "memoised_in_run", "state_guard"},
    "graph": {
        "EdgeSubset",
        "MultiGraph",
        "Orientation",
        "_component_vertex_sets",
        "_out_neighbors",
        "arc",
        "rank_nullity",
        "subset_rank_table",
    },
    # shared: criteria 5, 14 and 18
    "invariants": {
        "PSI_KINDS",
        "_check_quadrant",
        "_cyclic_flat_convolutions",
        "_exponents",
        "_window_poly",
        "flow_poly",
        "tension_poly",
    },
    # shared: criteria 3, 9 and 14
    "orientations": {"OrientationClass", "classify_edges", "cut_eulerian_classes"},
    # value types; shared: criteria 3, 5, 6 and 10
    "tensionflow": {
        "EdgeFunction",
        "Element",
        "FiniteAbelianGroup",
        "GroupElementFunction",
        "IntegerEdgeFunction",
        "_WINDOWS",
        "_charge",
        "_coordinates",
        "_integral_walk",
        "_last_reads",
        "_walk",
        "_window_values",
        "integral_window_counts",
    },
}


def _imported_modules(node: ast.AST) -> set[str]:
    """The tfpoly modules an import statement names, as module names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:  # from .x import y, or from . import x
            return {node.module} if node.module else {a.name for a in node.names}
        if node.module == "tfpoly":
            return {a.name for a in node.names}
        if node.module and node.module.startswith("tfpoly."):
            return {node.module.split(".")[1]}
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("tfpoly.")}
    return set()


def test_only_verification_imports_the_oracles_at_module_level():
    importers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        # statements run at import: the module body, and the bodies of
        # top-level if and try blocks
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.If, ast.Try)):
                stack.extend(ast.iter_child_nodes(node))
            elif "oracles" in _imported_modules(node):
                importers.add(path.stem)
    assert importers == {"verification"}


def test_the_oracles_import_from_production_only_the_allow_list():
    tree = ast.parse((SRC / "oracles.py").read_text())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        for module in _imported_modules(node):
            found.setdefault(module, set()).update(a.name for a in node.names)
    assert found == ALLOWED


def test_no_production_module_keeps_an_oracle():
    defined = {
        name for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == oracles.__name__
    }
    assert {"_tutte_recursion", "graphic_flat_dims", "is_edge_cyclic"} <= defined
    for module in ("graph", "tensionflow", "orientations", "invariants", "arrangements"):
        names = vars(importlib.import_module(f"tfpoly.{module}"))
        assert sorted(defined & set(names)) == [], module


def test_a_run_computes_each_subset_and_recursion_oracle_once(monkeypatch):
    # the subset sums read the rank table, and the recursion the guard,
    # once per call: a spy on those reads sees each call the memo lets by
    calls = Counter()
    for helper in ("subset_rank_table", "state_guard"):
        real = getattr(oracles, helper)

        def spy(*args, real=real):
            caller = sys._getframe(1)
            if caller.f_code.co_name in ("whitney_by_subsets", "omega_by_subsets", "_tutte_recursion"):
                calls[caller.f_code.co_name, caller.f_locals["g"]] += 1
            return real(*args)

        monkeypatch.setattr(oracles, helper, spy)
    assert all(res.passed for _, res in run_suite("all"))
    assert len(calls) == 39
    assert set(calls.values()) == {1}


def test_criterion_2_runs_the_production_tutte(monkeypatch):
    real = invariants._shifted_down

    def off_at_x(terms):
        out = dict(real(terms))
        out[1, 0] = out.get((1, 0), 0) + 1
        return out

    monkeypatch.setattr(invariants, "_shifted_down", off_at_x)
    [(_, result)] = run_criteria([2])
    assert not result.passed
    assert result.lines[:2] == (
        "e2: frontier T x + 1 != recursion 1",
        "e2: frontier T x + 1 != shift 1",
    )
    # each fixture and ladder rung fails against both oracles
    assert len(result.lines) == 2 * len(all_fixtures() + small_ladder())
