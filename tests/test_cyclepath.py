from itertools import combinations

import pytest

from locdom.cyclepath import (
    C15_LD_SIXES,
    c_l_cycle_formula,
    c_l_path_formula,
    census_c_l_equals_n,
    census_trees_c_l_n_minus_1,
    refute_surviving_types,
    surviving_types,
    type_table,
    verify_lemma_ld5_1,
    verify_lemma_ld5_2,
)
from locdom.families import cycle, path
from locdom.ld import colex_subsets, is_ld_mask, is_ld_set


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


def test_c15_ld_sixes_are_the_ld_six_sets():
    g = cycle(15)
    found = {m for m in colex_subsets(15, 6) if is_ld_mask(g, m)}
    assert found == C15_LD_SIXES
    assert len(C15_LD_SIXES) == 5


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
    assert rp["nodes_explored"] == 137
    assert refute_surviving_types(14, "path")["nodes_explored"] == 432


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
