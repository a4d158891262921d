"""Degree-monotone path toolkit: exact solver, graph operations, extremal
constructions and a randomized bound-verification harness.

The public names below are resolved on first use (PEP 562): ``import dmp``
imports no submodule, and ``dmp.mp_exact`` or ``from dmp import Graph`` imports
only the submodule that defines the name.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "graph": (
        "Graph", "degree_sequence", "from_edge_list", "is_connected", "is_regular",
        "is_tree", "is_triangle_free", "parse_edge_list_text", "parse_graph_text",
        "parse_json_text", "to_edge_list_text", "to_json_text",
    ),
    "solver": (
        "BudgetExceededError", "MonotonePath", "MpResult", "SearchLimits", "SearchStats",
        "is_degree_monotone", "mp_exact", "mp_oracle",
    ),
    "operations": (
        "add_edge", "add_vertex", "cartesian_product", "contract_edge", "delete_edge",
        "delete_vertex", "join", "subdivide_edge",
    ),
    "constructions": (
        "ConstructionInstance", "FamilyInfo", "apply_designated", "generate", "list_families",
    ),
    "bounds": (
        "BoundCheckRecord", "CampaignConfig", "CampaignSummary", "Gnp", "PreconditionError",
        "RandomBipartite", "RandomTree", "THEOREMS", "check_bound", "random_graph",
        "run_campaign",
    ),
}.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it in this package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
