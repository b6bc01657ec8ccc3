import hashlib
import itertools
import os
import time

import pytest

from locdom import solver
from locdom.census import enumerate_graphs, enumerate_trees
from locdom.coalition import partner_count
from locdom.cubic import prism
from locdom.families import complete, cycle, path, spider
from locdom.graph import Graph, is_connected, popcount
from locdom.ld import (
    completers,
    d_loc,
    gamma_l,
    gamma_l_naive,
    is_dominating,
    is_ld_mask,
    ld_breakers,
)
from locdom.oracles import _rgs_masks, _set_partitions
from locdom.solver import (
    Budget,
    c_l_at_least,
    c_l_exact,
    c_l_numeric,
    c_l_oracle,
    partitions_of_int,
    plain_coalition_number,
    type_labels,
)


def test_tiny_graphs_have_no_partition():
    assert c_l_exact(complete(1)).c_l == "none"
    assert c_l_exact(complete(2)).c_l == "none"
    assert c_l_exact(path(2)).c_l == "none"
    # order 2 alone decides nothing: 2K_1 splits into two partners
    assert c_l_exact(Graph(2, [])).c_l == 2
    with pytest.raises(ValueError):
        c_l_exact(Graph(0))
    with pytest.raises(ValueError, match="empty graph"):
        c_l_oracle(Graph(0))


def test_small_exact_values():
    assert c_l_exact(complete(3)).c_l == 3
    assert c_l_exact(complete(4)).c_l == 3
    assert c_l_exact(cycle(4)).c_l == 4
    assert c_l_exact(path(5)).c_l == 4


def test_report_shape_and_certificate():
    rep = c_l_exact(complete(3))
    assert rep.status == "exact"
    doc = rep.to_json_dict()
    assert sorted(doc.keys()) == [
        "bounds_used",
        "c_l",
        "elapsed_ms",
        "nodes_explored",
        "partners",
        "parts",
        "schema_version",
        "status",
    ]
    assert doc["schema_version"] == 1
    assert doc["c_l"] == 3
    assert doc["parts"] == [[0], [1], [2]]
    assert rep.certificate is not None
    assert rep.certificate.verify(complete(3))


def test_oracle_matches_engine_spot():
    for g in (path(6), cycle(6), complete(4), path(4)):
        assert c_l_numeric(c_l_exact(g).c_l) == c_l_numeric(c_l_oracle(g))


def test_workers_and_rotation_flag():
    # no search pins vertex 0 to a rotation class any more: a cycle and a
    # spider whose vertices differ in distance profile (a pin gives 4) are
    # solved from the graph alone, whatever the no-op workers keyword says
    assert c_l_exact(path(8), workers=2).c_l == 5
    rep = c_l_exact(cycle(10))
    assert (rep.c_l, rep.nodes_explored) == (5, 78)
    assert c_l_exact(spider(3, 2, 2)).c_l == 5
    assert c_l_at_least(cycle(6), 5).status == "exact"


def test_workers_keyword_never_forks(monkeypatch):
    # c_l_exact keeps the keyword for existing callers and ignores it
    def no_fork():
        raise AssertionError("the solver forked")

    monkeypatch.setattr(os, "fork", no_fork)
    serial = c_l_exact(cycle(10), workers=1).to_json_dict()
    asked = c_l_exact(cycle(10), workers=2).to_json_dict()
    del serial["elapsed_ms"], asked["elapsed_ms"]
    assert asked == serial


def test_node_budget_holds_across_types():
    # each search of P_15's type is unsat after 13,379 nodes, and the
    # first one first walks 1,183 nodes for C_max(6); no one search
    # reaches a 50,000-node cap, but the fourth one overruns it by one
    search = solver._Search(path(15), is_ld_mask, ld_breakers, 6, Budget(nodes=50_000))
    with pytest.raises(solver.BudgetExceeded):
        for _ in range(4):
            assert search.search_type((6, 3, 3, 1, 1, 1)) is None
    assert search.nodes == 50_001


def test_search_judges_each_mask_once(monkeypatch):
    # node counts pin the search; the memoized predicate and the completer
    # masks must not change it, only how often a mask is judged
    calls = 0

    def counted(g, m):
        nonlocal calls
        calls += 1
        return is_ld_mask(g, m)

    monkeypatch.setattr(solver, "is_ld_mask", counted)
    rep = c_l_exact(path(12))
    assert (rep.c_l, rep.nodes_explored) == (5, 320)
    assert calls < 5000
    assert c_l_exact(cycle(12)).nodes_explored == 210
    rep = c_l_exact(cycle(15))
    assert (rep.c_l, rep.nodes_explored) == (5, 95_569)


def test_certificates_are_frozen_on_the_census():
    # sha256 of every (c_l, parts, partners) on the connected graphs of
    # order 6 and the trees of order 10, as the search without the twin
    # rule found them: the rule prunes nodes, never a certificate
    digest = hashlib.sha256()
    for g in enumerate_graphs(6) + enumerate_trees(10):
        doc = c_l_exact(g).to_json_dict()
        digest.update(repr((doc["c_l"], doc["parts"], doc["partners"])).encode())
    assert digest.hexdigest() == (
        "740f9c054a0aa3ffc1279ab54ddb0c8a43b5edfe31f2981ed1d4452799d2a56b"
    )


def test_twin_rule_prunes_leaves_on_one_support_vertex():
    # 2, 3 and 4 are leaves on vertex 0, so twins; the twin rule cuts the
    # search from 10,765 nodes to 4,133, and the hub rule, whose hit sets
    # include the twin pairs and the leaf pairs {l, 0}, to 625 (625 with
    # the hub rule alone too); neither changes the certificate
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (5, 7), (5, 8), (7, 9)]
    doc = c_l_exact(Graph(10, edges)).to_json_dict()
    assert doc["c_l"] == 3
    assert doc["parts"] == [[0, 1, 2, 3, 4, 5, 6, 8], [7], [9]]
    assert doc["nodes_explored"] == 625


def test_budget_exhaustion():
    # P_20 settles k = 6 only after 13.8M nodes, about 24 s on a 2-core
    # VM (P_18, 31,491 nodes, now takes under 0.1 s)
    rep = c_l_exact(path(20), budget=Budget(seconds=0.05))
    assert rep.status == "inconclusive"
    assert rep.c_l is None
    rep = c_l_at_least(path(20), 6, budget=Budget(seconds=0.05))
    assert rep.status == "inconclusive"
    assert rep.nodes_explored > 0


def test_budgets_bound_the_capacity_scan():
    # P_24's first surviving type, (9, 9, 1, 1, 1, 1, 1, 1), first walks
    # the 10-sets that may dominate for C_max(9): 23,359 nodes, each
    # counted as a search node, which take 0.05 s on a 2-core VM; the
    # time budget ends soon after the walk, the node budget inside it
    start = time.monotonic()
    rep = c_l_exact(path(24), budget=Budget(seconds=0.1))
    assert rep.status == "inconclusive"
    assert time.monotonic() - start < 0.5
    rep = c_l_exact(path(24), budget=Budget(nodes=1000))
    assert (rep.status, rep.nodes_explored) == ("inconclusive", 1001)


def test_bounds_name_the_deciding_size():
    # k = 11..7 are refuted (k = 7 by the capacity rule, after the walk for
    # C_max(5)) before the node budget runs out inside k = 6
    rep = c_l_exact(path(15), budget=Budget(nodes=20_000))
    assert rep.status == "inconclusive"
    assert rep.bounds_used == [
        ("gamma_l", 6),
        ("upper_start", 11),
        ("refuted_down_to", 7),
    ]
    assert c_l_exact(path(12)).bounds_used[-1] == ("settled_at", 5)


def test_capacity_rule_refutes_before_searching():
    # two 6-parts of P_17 have at most C_max(6) = 2 completers each, too
    # few to partner five singletons: the type is refuted with no search
    # node beyond the walk for C_max(6)
    search = solver._Search(path(17), is_ld_mask, ld_breakers, 7)
    assert search.search_type((6, 6, 1, 1, 1, 1, 1)) is None
    walk = solver._Search(path(17), is_ld_mask, ld_breakers, 7)
    assert walk.capacity(6) == 2
    assert search.nodes == walk.nodes == 938
    # every count includes the walks
    assert c_l_exact(path(15)).nodes_explored == 28_562


def test_parts_below_gamma_minus_one_cost_no_node():
    # a part of size below gamma - 1 has no completers, so its table is
    # empty and a slot of that size short of completers would try no
    # part; P_15's type (4, 4, 4, 1, 1, 1), gamma_l 6, has only such
    # parts besides its singletons and is refuted with no node and no walk
    search = solver._Search(path(15), is_ld_mask, ld_breakers, 6)
    assert search.parts_within(4, path(15).full_mask()) == []
    assert search.search_type((4, 4, 4, 1, 1, 1)) is None
    assert (search.nodes, search.capacities) == (0, {})


def test_short_slots_draw_parts_in_combination_order():
    # P_14's walk for C_max(5) runs to the end; a 5-slot short of
    # completers tries the table's parts inside its free vertices, in the
    # order combinations() would reach them
    search = solver._Search(path(14), is_ld_mask, ld_breakers, 6)
    search.capacity(5)
    table = search.tables[5]
    assert len(table) > 1
    for free in (path(14).full_mask(), 0b10110111011101, 0b11111110000000, 0):
        avail = [v for v in range(14) if free >> v & 1]
        combos = [sum(1 << v for v in c) for c in itertools.combinations(avail, 5)]
        assert search.parts_within(5, free) == [m for m in combos if m in table]


def test_finished_walks_stand_in_for_the_completer_kernel(monkeypatch):
    # P_14's walk for C_max(5) runs to the end, so the search reads the
    # completers of its 5-parts from the walk's table; the walk for
    # C_max(10) stops early, and 10-parts still judge theirs
    searches = []
    asked = []

    class Watched(solver._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    def judged(g, m, good):
        if popcount(m) in searches[-1].tables:
            raise AssertionError(f"completers judged for a walked {popcount(m)}-set")
        asked.append(popcount(m))
        return completers(g, m, good)

    monkeypatch.setattr(solver, "_Search", Watched)
    monkeypatch.setattr(solver, "completers", judged)
    rep = c_l_exact(path(14))
    assert (rep.c_l, rep.nodes_explored) == (5, 738)
    assert sorted(searches[-1].tables) == [5]
    assert set(asked) == {10}


@pytest.mark.parametrize(
    "solve",
    [
        lambda budget: c_l_exact(cycle(10), budget=budget),
        lambda budget: c_l_exact(cycle(12), budget=budget),
        lambda budget: c_l_exact(path(12), budget=budget),
        lambda budget: c_l_exact(path(15), budget=budget),
        lambda budget: c_l_at_least(path(12), 6, budget=budget),
    ],
    ids=["C10", "C12", "P12", "P15", "P12-at-least-6"],
)
def test_node_budget_equal_to_the_count_settles(solve):
    # nodes_explored is the count the node cap bounds: a cap equal to it
    # reproduces the report, and one node fewer does not settle the solve
    rep = solve(None)
    doc = rep.to_json_dict()
    again = solve(Budget(nodes=rep.nodes_explored)).to_json_dict()
    del doc["elapsed_ms"], again["elapsed_ms"]
    assert again == doc
    assert solve(Budget(nodes=rep.nodes_explored - 1)).status == "inconclusive"


def test_budget_fixes_its_deadline_when_made():
    budget = Budget(seconds=0.05)
    assert budget.deadline is not None and budget == Budget(seconds=0.05)
    assert Budget().deadline is None
    time.sleep(0.06)
    # the deadline passed before the solve began, so its first deadline
    # check, at the first type screened, stops it before any node
    rep = c_l_exact(path(18), budget=budget)
    assert (rep.status, rep.nodes_explored) == ("inconclusive", 0)
    assert rep.bounds_used[-1] == ("refuted_down_to", 13)


@pytest.mark.parametrize(
    "solve, bounds",
    [
        (lambda g, budget: c_l_exact(g, budget=budget), []),
        (lambda g, budget: c_l_at_least(g, 5, budget=budget), [("at_least", 5)]),
    ],
    ids=["exact", "at-least-5"],
)
def test_time_budget_covers_the_gamma_l_search(solve, bounds):
    # gamma_l(prism(15)) takes seconds of colex search, all before the
    # C_L search's first node; the deadline stops it there, and the
    # partial search leaves no memo behind
    g = prism(15)
    start = time.monotonic()
    rep = solve(g, Budget(seconds=0.1))
    assert time.monotonic() - start < 1
    assert (rep.status, rep.c_l, rep.nodes_explored) == ("inconclusive", None, 0)
    assert rep.bounds_used == bounds
    assert g._gamma_l is None
    with pytest.raises(solver.BudgetExceeded):
        gamma_l(g, deadline=time.monotonic())
    assert g._gamma_l is None
    # a search that finishes in time memoizes as before
    h = prism(6)
    assert gamma_l(h, deadline=time.monotonic() + 60)[0] == gamma_l(prism(6))[0]
    assert h._gamma_l is not None


def test_type_screen_keeps_the_deadline():
    # P_60 screens 353,053 types, none of them searched, before its first
    # survivor at k = 16: the screen checks the deadline once per type
    start = time.monotonic()
    rep = c_l_exact(path(60), budget=Budget(seconds=0.5))
    assert rep.status == "inconclusive"
    assert time.monotonic() - start < 3


@pytest.mark.parametrize(
    "caps",
    [
        {"seconds": float("nan")},
        {"seconds": float("inf")},
        {"seconds": float("-inf")},
        {"seconds": 0.0},
        {"seconds": -1.0},
        {"nodes": 0},
        {"nodes": -5},
    ],
    ids=["nan", "inf", "-inf", "zero-seconds", "negative-seconds", "zero-nodes", "negative-nodes"],
)
def test_budget_rejects_invalid_caps(caps):
    # a NaN or infinite deadline never passes, so the solve would run to
    # "exact" with the cap silently ignored; a cap of no nodes stops every
    # search at its first node
    with pytest.raises(ValueError, match=next(iter(caps))):
        Budget(**caps)


def test_at_least_decision():
    cert = c_l_at_least(cycle(6), 5).certificate
    assert cert is not None and cert.verify(cycle(6))
    assert c_l_at_least(cycle(6), 6).status == "none"


def test_at_least_report_in_every_outcome():
    # the report names only the level asked about, and c_l only with a
    # certificate, whether the search settles, refutes or runs out
    outcomes = [
        (cycle(6), 5, None, ("exact", 5, 10)),
        (path(14), 6, None, ("none", None, 432)),
        (path(15), 6, Budget(nodes=1000), ("inconclusive", None, 1001)),
    ]
    for g, k, budget, (status, c_l, nodes) in outcomes:
        rep = c_l_at_least(g, k, budget=budget)
        assert (rep.status, rep.c_l, rep.nodes_explored) == (status, c_l, nodes)
        assert rep.bounds_used == [("at_least", k)]
        assert (rep.certificate is not None) == (status == "exact")


def test_at_least_decides_c_l_on_the_census():
    for n in range(3, 7):
        for g in enumerate_graphs(n, connected_only=True):
            c_l = c_l_numeric(c_l_exact(g).c_l)
            for k in range(1, n + 2):
                rep = c_l_at_least(g, k)
                assert (rep.status == "exact") == (c_l >= k), (g.edges(), k)
                if rep.status == "exact":
                    assert rep.certificate.verify(g)
                    assert k <= rep.c_l == len(rep.certificate)


def test_partitions_of_int():
    assert list(partitions_of_int(7, 6)) == [(2, 1, 1, 1, 1, 1)]
    assert list(partitions_of_int(3, 3)) == [(1, 1, 1)]
    p13 = list(partitions_of_int(13, 6))
    assert len(p13) == 14
    assert p13[0] == (8, 1, 1, 1, 1, 1)
    assert p13[-1] == (3, 2, 2, 2, 2, 2)
    for t in p13:
        assert sum(t) == 13
        assert list(t) == sorted(t, reverse=True)


def test_type_labels():
    assert type_labels((3, 3, 1, 1, 1, 1), 3, 4) == frozenset()
    assert type_labels((6, 5, 1, 1, 1, 1), 6, 4) == frozenset()
    assert 1 in type_labels((2, 1, 1, 1, 1, 1), 3, 4)
    assert type_labels((4, 4, 2, 2, 2, 1), 6, 4) == frozenset({1})


def full_type_screen(sizes, gamma, max_partners):
    # type_labels without its shortcut: every part's possible partners
    k = len(sizes)
    if any(all(sizes[i] + a < gamma for i in range(k) if i != j) for j, a in enumerate(sizes)):
        return frozenset({1})
    possible = [
        {i for i in range(k) if i != j and sizes[i] + sizes[j] >= gamma}
        for j in range(k)
    ]
    for i in range(k):
        if sum(1 for j in range(k) if j != i and possible[j] == {i}) > max_partners:
            return frozenset({1, 2})
    return frozenset()


def test_label_one_shortcut_matches_the_full_screen():
    # label {1} is read off the largest and smallest sizes and label
    # {1, 2} off the parts forced onto part 0; every type of every order
    # up to 22 gets the labels the full screen gives it, at partner cap 2
    # and at cap 1, the edgeless graphs' cap
    for n in range(1, 23):
        for k in range(1, n + 1):
            for sizes in partitions_of_int(n, k):
                for gamma in range(2, n):
                    for cap in (1, 2):
                        expected = full_type_screen(sizes, gamma, cap)
                        assert type_labels(sizes, gamma, cap) == expected, (sizes, gamma, cap)


def test_label_one_generator_matches_the_screen():
    # partitions_of_int with pair_sum = gamma yields exactly the types
    # that pass label {1}, in the order the unfiltered enumeration
    # reaches them, for every order up to 22, gamma and part count
    for n in range(1, 23):
        for k in range(1, n + 1):
            every = list(partitions_of_int(n, k))
            for gamma in range(1, n + 1):
                expected = [t for t in every if 1 not in type_labels(t, gamma, n)]
                assert list(partitions_of_int(n, k, gamma)) == expected, (n, k, gamma)


def test_plain_coalition_number():
    assert plain_coalition_number(complete(1)) == 1
    assert plain_coalition_number(complete(2)) == 2
    assert plain_coalition_number(complete(3)) == 3
    assert plain_coalition_number(cycle(5)) == 5
    with pytest.raises(ValueError):
        plain_coalition_number(Graph(0))


def test_time_budget_covers_the_domination_walk():
    # the domination-number walk alone takes over 30 s on P_50 on a
    # 2-core VM, all before the search's first node
    start = time.monotonic()
    with pytest.raises(solver.BudgetExceeded):
        plain_coalition_number(path(50), Budget(seconds=0.2))
    assert time.monotonic() - start < 2


def test_universal_vertices_never_reach_the_search():
    # every vertex of K_n is universal and stands alone, so no search node
    # is spent, and a one-node budget suffices
    for n in range(1, 9):
        assert plain_coalition_number(complete(n), Budget(nodes=1)) == n
    # the order-7 graphs with a universal vertex, one order past the
    # oracle census of criterion 10
    checked = 0
    for g in enumerate_graphs(7, connected_only=True):
        if any(a | 1 << v == g.full_mask() for v, a in enumerate(g.adj)):
            assert plain_coalition_number(g) == c_l_oracle(g, is_dominating), g
            checked += 1
    assert checked == 156


def d_loc_brute_force(g):
    # the most parts of any set partition into LD-sets
    return max(
        len(masks)
        for masks in map(_rgs_masks, _set_partitions(g.n))
        if all(is_ld_mask(g, m) for m in masks)
    )


def test_disconnected_graphs_match_the_oracles():
    # the definitions cover every graph: on each disconnected graph of
    # order <= 7 every entry point agrees with its unpruned oracle
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=False):
            if is_connected(g):
                continue
            checked += 1
            value, witness = gamma_l(g)
            naive_value, naive_witness = gamma_l_naive(g)
            assert (value, int(witness)) == (naive_value, int(naive_witness)), g
            rep = c_l_exact(g)
            expected = c_l_oracle(g)
            assert rep.c_l == expected, g
            if rep.certificate is not None:
                assert rep.certificate.verify(g)
                # partner_count checks each count against partner_cap
                for i in range(len(rep.certificate)):
                    partner_count(g, rep.certificate.partition, i)
            for k in range(1, n + 2):
                dec = c_l_at_least(g, k)
                assert (dec.status == "exact") == (c_l_numeric(expected) >= k), (g, k)
                if dec.certificate is not None:
                    assert k <= dec.c_l <= expected and dec.certificate.verify(g)
            assert plain_coalition_number(g) == c_l_oracle(g, is_dominating), g
            if n <= 6:
                assert d_loc(g).k == d_loc_brute_force(g), g
    assert checked == 256


def test_hub_rule_keeps_every_tree_answer():
    # trees are the hub rule's family: every leaf and its support vertex
    # are a hit set; on each tree of order <= 8 both searches agree with
    # their unpruned oracles
    for n in range(1, 9):
        for g in enumerate_trees(n):
            rep = c_l_exact(g)
            assert rep.c_l == c_l_oracle(g), g
            assert rep.certificate is None or rep.certificate.verify(g)
            assert plain_coalition_number(g) == c_l_oracle(g, is_dominating), g


def test_hub_rule_settles_the_order_16_tree():
    # a random recursive tree with gamma_l = 8 whose k = 5 types, such as
    # (6, 4, 2, 2, 2), took 12,090,236 nodes (13.5 s on a 2-core VM)
    # before the hub rule: part 0 must meet each leaf-and-support pair
    edges = [(1, 0), (2, 1), (3, 0), (4, 2), (5, 4), (6, 5), (7, 1), (8, 2),
             (9, 2), (10, 5), (11, 10), (12, 7), (13, 1), (14, 1), (15, 14)]
    g = Graph(16, edges)
    rep = c_l_exact(g)
    assert (rep.c_l, rep.nodes_explored) == (4, 304_361)
    assert rep.certificate.verify(g)


def test_numeric_projection():
    assert c_l_numeric("none") == 0
    assert c_l_numeric(5) == 5
    with pytest.raises(ValueError):
        c_l_numeric(None)
