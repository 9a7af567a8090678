"""Exact tension-flow counting polynomials for multigraphs.

Each public name is imported from its module on first use (PEP 562), so
`import tfpoly` loads no other module, and a command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "algebra": ("InterpolationError", "MultiPoly", "interpolate_univariate", "rational_rank"),
    "arrangements": (
        "FiniteCosetProduct",
        "IntersectionPoset",
        "complement_count",
        "finite_semilattice",
        "graphic_semilattice",
        "product_valuation",
    ),
    "config": ("GuardExceeded", "SUITES", "VerificationError", "guarded"),
    "fixtures": ("all_fixtures", "fixture", "fixture_names"),
    "graph": ("EdgeSubset", "MultiGraph", "Orientation", "rank_nullity"),
    "graphio": ("ParseError", "parse_graph_file", "parse_graph_text"),
    "invariants": (
        "chromatic_poly",
        "flow_poly",
        "integral_flow_poly",
        "integral_tension_poly",
        "omega",
        "psi_family",
        "tension_poly",
        "tutte",
        "tutte_value",
        "whitney",
    ),
    "oracles": (
        "all_orientations",
        "cut_eulerian_classes_by_moves",
        "enumerate_flows",
        "enumerate_integral_flows",
        "enumerate_integral_tensions",
        "enumerate_tensions",
        "is_flow",
        "is_tension",
        "kappa_rho",
        "lattice_index",
        "omega_value",
        "psi_by_orientations",
        "tutte_value_triples",
        "whitney_weighted_sums",
    ),
    "orientations": ("OrientationClass", "classify_edges", "cut_eulerian_classes"),
    "tensionflow": ("FiniteAbelianGroup", "GroupElementFunction", "IntegerEdgeFunction"),
    "verification": (
        "CheckResult",
        "pair_integral_identities",
        "reciprocity_check",
        "run_criteria",
        "run_suite",
        "specialization_check",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
