from collections import Counter

import locdom


def test_public_names_resolve_once():
    assert [name for name in locdom.__all__ if not hasattr(locdom, name)] == []
    assert [name for name, k in Counter(locdom.__all__).items() if k > 1] == []


def test_public_surface_snapshot():
    # a change to the exports shows here, in the diff
    assert sorted(locdom.__all__) == [
        "Budget", "BudgetExceeded", "CoalitionGraph", "DisconnectedGraphError",
        "DomaticResult", "Graph", "GraphFormatError", "LdVerdict",
        "LdcCertificate", "Partition", "PartitionError", "Refusal",
        "SolveReport", "VertexSet", "are_isomorphic", "build_diam3_partition",
        "build_from_domatic", "build_halves_partition", "build_twin_partition",
        "c5_plus_e", "c_l_at_least", "c_l_cycle_formula", "c_l_exact",
        "c_l_oracle", "c_l_path_formula", "canonical_key", "coalition_graph",
        "complete", "complete_bipartite", "cycle", "d_loc", "enumerate_graphs",
        "enumerate_trees", "find_sharp_witness", "gamma_l",
        "gamma_l_lower_bound", "gamma_l_value", "generate", "h_graph",
        "is_connected", "is_dominating", "is_ld_coalition", "is_ld_set",
        "is_locating", "k4_minus_e", "max_singleton_completers",
        "minimalize_ld_set", "parse_any", "parse_edge_list",
        "parse_family_spec", "parse_graph6", "partner_count", "path",
        "plain_coalition_number", "refute_surviving_types", "run_claims",
        "slater_log_lower_bound", "spider", "star", "to_edge_list",
        "to_graph6", "tree_canonical_key", "type_table",
        "verify_ldc_partition", "verify_lemma_ld5_1", "verify_lemma_ld5_2",
    ]
