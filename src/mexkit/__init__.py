"""Extremal clique counting at fixed edge count: constructions, exact values, oracles."""

from .colex import (
    KSetFamily,
    colex_compare,
    colex_initial_segment,
    colex_rank,
    colex_unrank,
    ffk_min_shadow,
    kk_min_shadow,
    rpartite_colex_initial_segment,
    rpartite_valid,
    shadow,
)
from .constructions import (
    blowup,
    colex_graph,
    colex_turan_graph,
    complete_graph,
    critical_edge_gadget,
    critical_edge_gadget_params,
    turan_graph,
    turan_number,
)
from .extremal import (
    ExactSquareScalar,
    beta,
    c_rs,
    closed_form_check,
    lovasz_kk_bound,
    mex_clique,
    mex_profile,
    verify_constant_identities,
    zykov_ex,
)
from .graphs import (
    CliqueProfile,
    Graph,
    clique_profile,
    cliques_at_edge,
    cliques_at_vertex,
    contains_clique,
    contains_subgraph,
    count_cliques,
    format_edge_list,
    graph_from_edges,
    min_clique_degrees,
    non_isolated_subgraph,
    parse_edge_list,
)
from .oracle import (
    CapExceededError,
    SearchResult,
    brute_force_ex,
    brute_force_ex_attainers,
    brute_force_mex,
    brute_force_mex_profile,
    brute_force_min_shadow,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    find_blowup,
    min_edits_to_r_partite,
)
from .processes import (
    ProcessConfig,
    ProcessTrace,
    StabilityReport,
    default_edge_config,
    default_vertex_config,
    edge_deletion_process,
    proof_constants,
    replay_trace,
    stability_experiment,
    vertex_deletion_process,
)

__version__ = "0.1.0"
