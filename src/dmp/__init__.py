"""Degree-monotone path toolkit: exact solver, graph operations, extremal
constructions and a randomized bound-verification harness."""

from .graph import (
    Graph,
    degree_sequence,
    from_edge_list,
    is_connected,
    is_regular,
    is_tree,
    is_triangle_free,
    parse_edge_list_text,
    parse_graph_text,
    parse_json_text,
    to_edge_list_text,
    to_json_text,
)
from .solver import (
    BudgetExceededError,
    MonotonePath,
    MpResult,
    SearchLimits,
    SearchStats,
    is_degree_monotone,
    mp_exact,
    mp_oracle,
)
from .operations import (
    add_edge,
    add_vertex,
    cartesian_product,
    contract_edge,
    delete_edge,
    delete_vertex,
    join,
    product_index,
    subdivide_edge,
)
from .constructions import (
    ConstructionInstance,
    FamilyInfo,
    apply_designated,
    generate,
    list_families,
)
from .bounds import (
    BoundCheckRecord,
    CampaignConfig,
    CampaignSummary,
    Gnp,
    PreconditionError,
    RandomBipartite,
    RandomTree,
    THEOREMS,
    check_bound,
    random_graph,
    run_campaign,
)

__version__ = "0.1.0"
