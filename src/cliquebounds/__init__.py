"""Localized clique bounds on small graphs.

Exact clique counting, per-edge longest-path and longest-cycle weights,
degree/path/cycle-localized upper bounds with their classical ancestors,
structural equality certificates, and an exhaustive small-graph search
harness for equality instances, discrepancies, and counterexamples.
"""

from .bounds import (
    BOUND_KINDS,
    DEFAULT_SWEEP_KINDS,
    BoundReport,
    DominanceRecord,
    binom,
    cc_cycle_bound,
    cc_path_bound,
    compare_local_vs_classical,
    equals_count,
    local_edge_cycle_bound,
    local_edge_path_bound,
    local_vertex_bound,
    local_vertex_total_bound,
    order_bounds,
    wood_bound,
    wood_total_bound,
)
from .certificates import (
    EqualityCertificate,
    OrderCertificates,
    core_numbers,
    cross_validate,
    cycle_equality_certificate,
    edge_equality_certificate,
    is_block_forest,
    vertex_equality_certificate,
    w_set,
    x_core,
    x_set,
    z_set,
)
from .cliques import (
    CliqueCounts,
    clique_census,
    cliques_through_vertex,
    common_neighbors,
    count_all_cliques,
    count_cliques,
)
from .enumeration import (
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    enumerate_levels,
    random_gnp,
    random_regular,
)
from .graph import (
    Graph,
    GraphError,
    connected_components,
    delete_edges,
    from_edge_list,
    induced_subgraph,
    is_clique,
    parse_edge_list_text,
    parse_graph6,
    to_edge_list_text,
    write_graph6,
)
from .search import (
    Finding,
    GraphSource,
    SearchConfig,
    SweepResult,
    evaluate_graph,
    replay_finding,
    run_sweep,
)
from .weights import (
    CapExceededError,
    WeightMap,
    all_weights,
    block_decomposition,
    longest_cycle_through_edge,
    longest_path_through_edge,
)

__version__ = "0.1.0"
