from itertools import combinations

import pytest

from locdom.cyclepath import (
    UNIQUE_C15_GAPS,
    GapConfiguration,
    c_l_cycle_formula,
    c_l_path_formula,
    census_c_l_equals_n,
    census_trees_c_l_n_minus_1,
    gap_configuration,
    reconstruct_from_gaps,
    refute_surviving_types,
    surviving_types,
    type_table,
    verify_lemma_ld5_1,
    verify_lemma_ld5_2,
)
from locdom.families import cycle, path
from locdom.graph import VertexSet
from locdom.ld import is_ld_set


def test_cycle_formula():
    expected = {3: 3, 4: 4, 5: 5, 6: 5, 11: 5, 12: 6, 13: 5, 14: 6, 15: 5, 16: 6, 30: 6}
    for n, v in expected.items():
        assert c_l_cycle_formula(n) == v
    with pytest.raises(ValueError):
        c_l_cycle_formula(2)


def test_path_formula():
    expected = {3: 3, 4: 4, 5: 4, 6: 4, 7: 5, 15: 5, 16: 6, 30: 6}
    for n, v in expected.items():
        assert c_l_path_formula(n) == v
    with pytest.raises(ValueError):
        c_l_path_formula(2)


def test_gap_configuration_example():
    cfg = gap_configuration(15, VertexSet.of([0, 3, 6, 7, 9, 10, 12], 15))
    assert cfg.gaps == (2, 2, 0, 1, 0, 1, 2)
    back = reconstruct_from_gaps(15, cfg.gaps, anchor=0)
    assert back.to_sorted_list() == [0, 3, 6, 7, 9, 10, 12]


def test_gap_round_trip_everywhere():
    n = 11
    for combo in combinations(range(n), 4):
        cfg = gap_configuration(n, VertexSet.of(combo, n))
        assert sum(g + 1 for g in cfg.gaps) == n
        back = reconstruct_from_gaps(n, cfg.gaps, anchor=combo[0])
        assert back.to_sorted_list() == list(combo)


def test_gap_configuration_rejects_bad_masks():
    # a negative mask has no finite bit list; vertex 10 is not on C_5
    with pytest.raises(ValueError):
        gap_configuration(5, -1)
    with pytest.raises(ValueError):
        gap_configuration(5, 1 << 10)
    with pytest.raises(ValueError):
        gap_configuration(5, VertexSet.of([0, 10], 15))


def test_gap_rotations():
    cfg = GapConfiguration(15, UNIQUE_C15_GAPS)
    rots = cfg.rotations()
    assert (1, 2, 1, 2, 1, 2) in rots
    assert cfg.rotates_to((1, 2, 1, 2, 1, 2))
    assert not cfg.rotates_to((2, 2, 1, 1, 2, 1))


def test_unique_shape_is_ld():
    s = reconstruct_from_gaps(15, UNIQUE_C15_GAPS, anchor=0)
    assert s.to_sorted_list() == [0, 3, 5, 8, 10, 13]
    assert is_ld_set(cycle(15), s).ok


def test_five_subset_scan():
    assert verify_lemma_ld5_1() == {
        "subsets_scanned": 3003,
        "with_completer": 30,
        "violations": [],
        "ok": True,
    }


def test_six_subset_scan():
    r = verify_lemma_ld5_2()
    assert r["subsets_scanned"] == 5005
    assert r["ld_sets"] == 5
    assert r["completer_histogram"] == {0: 4025, 1: 360, 2: 495, 3: 90, 4: 30}
    assert r["max_completers"] == 4
    assert len(r["four_completer_sets"]) == 30
    assert r["four_completer_sets"][0] == ((0, 2, 4, 7, 9, 12), (10, 11, 13, 14), 0)
    assert r["three_completer_bound_exceptions"] == 30
    assert r["structure_violations"] == []
    assert r["structure_ok"]


def test_four_completer_sets_are_dominating_non_ld():
    r = verify_lemma_ld5_2()
    g = cycle(15)
    for combo, completers, undominated in r["four_completer_sets"]:
        assert undominated == 0
        v = is_ld_set(g, combo)
        assert v.dominating and not v.locating
        for w in completers:
            assert is_ld_set(g, set(combo) | {w}).ok


def test_surviving_types_frozen():
    assert surviving_types(7, "cycle") == []
    assert surviving_types(8, "cycle") == []
    assert surviving_types(9, "cycle") == []
    assert surviving_types(11, "cycle") == []
    assert surviving_types(13, "cycle") == []
    assert surviving_types(10, "cycle") == [
        (3, 3, 1, 1, 1, 1),
        (3, 2, 2, 1, 1, 1),
    ]
    assert surviving_types(15, "cycle") == [
        (6, 5, 1, 1, 1, 1),
        (6, 4, 2, 1, 1, 1),
        (6, 3, 3, 1, 1, 1),
        (5, 5, 2, 1, 1, 1),
        (5, 4, 3, 1, 1, 1),
        (5, 4, 2, 2, 1, 1),
        (5, 3, 3, 2, 1, 1),
    ]
    assert surviving_types(12, "path") == [
        (4, 4, 1, 1, 1, 1),
        (4, 3, 2, 1, 1, 1),
    ]
    assert surviving_types(14, "path") == [
        (5, 5, 1, 1, 1, 1),
        (5, 4, 2, 1, 1, 1),
        (5, 3, 3, 1, 1, 1),
    ]


def test_table_order_range():
    with pytest.raises(ValueError):
        type_table(6, "cycle")
    with pytest.raises(ValueError):
        type_table(13, "path")
    with pytest.raises(ValueError):
        type_table(10, "tree")


def test_refute_small_tables():
    rc = refute_surviving_types(10, "cycle")
    assert rc["all_refuted"]
    assert len(rc["survivors"]) == 2
    assert rc["types_total"] == 5
    assert rc["label_killed"] == 3
    # the capacity rule refutes both C_10 survivors before slot 0: the
    # count is the walk for C_max alone
    assert rc["nodes_explored"] == 64
    rp = refute_surviving_types(12, "path")
    assert rp["all_refuted"]
    assert len(rp["survivors"]) == 2
    assert rp["nodes_explored"] == 690
    assert refute_surviving_types(14, "path")["nodes_explored"] == 3_396


def test_census_extremal_graphs():
    graphs = census_c_l_equals_n()
    assert [g.n for g in graphs] == [3, 3, 4, 4, 4, 4, 5, 5]
    assert [g.edge_count() for g in graphs] == [2, 3, 3, 4, 4, 5, 5, 6]


def test_census_trees():
    trees = census_trees_c_l_n_minus_1()
    assert [(t.n, t.edge_count()) for t in trees] == [(4, 3), (5, 4)]
    degs = sorted(max(t.degree(v) for v in range(t.n)) for t in trees)
    assert degs == [2, 3]


def test_p12_minimum_ld_sets():
    g = path(12)
    found = []
    for combo in combinations(range(12), 5):
        if is_ld_set(g, combo).ok:
            found.append(list(combo))
    assert found == [
        [0, 3, 5, 8, 10],
        [1, 3, 5, 8, 10],
        [1, 3, 6, 8, 10],
        [1, 3, 6, 8, 11],
    ]
